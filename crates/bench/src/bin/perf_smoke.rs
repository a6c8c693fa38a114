//! `perf_smoke` — fixed-workload simulator throughput measurement.
//!
//! Runs a small fixed set of benches serially and records the best-of-N
//! wall clock and nominal simulated instructions/second for each into a
//! schema-versioned `BENCH_perf.json`, so every PR that touches the
//! simulator hot path has a trajectory to compare against. The benches:
//!
//! * `mixed` — three suite traces × {`none`, `ipcp`}, single-core (the
//!   original smoke workload, kept for label-to-label continuity).
//! * `none` — the same traces under no prefetching only: the idle-heavy
//!   path where the event-driven scheduler's cycle skipping dominates.
//! * `ipcp` — the same traces under the paper's full `ipcp` combo only.
//! * `mc_mix` — one four-core multi-programmed mix under `ipcp`.
//!
//! ```text
//! perf_smoke [--label L] [--out BENCH_perf.json] [--iters 3] [--only BENCH]
//!            [--profile]
//! perf_smoke --sweep-cold SECS --sweep-warm SECS [--out BENCH_perf.json]
//! ```
//!
//! `--only` restricts the run to one bench (by the names above) — handy
//! for profiling a single path or quick CI checks. `--profile` sets
//! `IPCP_PHASE_STATS` and prints the coarse wall-clock phase breakdown
//! (decode/issue/fill/train/drain) accumulated over each bench's
//! iterations; the timers are diagnostics only and never enter the
//! recorded JSON. `--check` additionally
//! fingerprints every iteration's full serialized reports (FNV-1a) and
//! fails (exit 1) unless all iterations produced identical bytes — the CI
//! smoke gate that the wakeup scheduler finishes and stays deterministic,
//! with the timing itself staying non-gating.
//!
//! The measurement deliberately bypasses the simcache (it calls
//! `run_single`/`System` directly): it times the simulator, not the
//! cache. Entries are keyed by (`--label`, bench); re-running with an
//! existing label replaces those entries, so the committed file stays
//! one-entry-per-milestone-per-bench. The second form records a
//! full-sweep cache-off vs cache-warm wall-clock pair (measured
//! externally, e.g. by `time`d `experiments` runs) into a `sweep` object
//! without re-measuring throughput. Scale follows `IPCP_SCALE` exactly
//! like the figures; the committed file is generated at the
//! default scale.

use std::path::PathBuf;
use std::time::Instant;

use ipcp_bench::combos;
use ipcp_bench::runner::RunScale;
use ipcp_bench::store::fnv1a_64;
use ipcp_sim::telemetry::JsonValue;
use ipcp_sim::PhaseStats;
use ipcp_sim::ToJson;
use ipcp_sim::{run_single, CoreSetup, SimConfig, System};
use ipcp_trace::TraceSource;
use ipcp_workloads::{memory_intensive_suite, SynthTrace};

const SCHEMA: u64 = 1;
/// How many traces from the front of the memory-intensive suite to run.
const TRACES: usize = 3;
/// Prefetcher combos to run each trace under (baseline + the paper's).
const COMBOS: [&str; 2] = ["none", "ipcp"];
/// Cores in the multi-programmed mix bench.
const MIX_CORES: usize = 4;

fn die(msg: &str) -> ! {
    eprintln!("perf_smoke: {msg}");
    std::process::exit(2);
}

struct Opts {
    label: String,
    out: PathBuf,
    iters: u32,
    only: Option<String>,
    check: bool,
    profile: bool,
    sweep_cold: Option<f64>,
    sweep_warm: Option<f64>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        label: "local".to_string(),
        out: PathBuf::from("BENCH_perf.json"),
        iters: 3,
        only: None,
        check: false,
        profile: false,
        sweep_cold: None,
        sweep_warm: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--label" => opts.label = value("--label"),
            "--only" => opts.only = Some(value("--only")),
            "--check" => opts.check = true,
            "--profile" => opts.profile = true,
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--iters" => {
                opts.iters = value("--iters")
                    .parse()
                    .unwrap_or_else(|_| die("--iters needs an integer"));
            }
            "--sweep-cold" => {
                opts.sweep_cold = Some(
                    value("--sweep-cold")
                        .parse()
                        .unwrap_or_else(|_| die("--sweep-cold needs seconds")),
                );
            }
            "--sweep-warm" => {
                opts.sweep_warm = Some(
                    value("--sweep-warm")
                        .parse()
                        .unwrap_or_else(|_| die("--sweep-warm needs seconds")),
                );
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if opts.iters == 0 {
        die("--iters must be at least 1");
    }
    if opts.sweep_cold.is_some() != opts.sweep_warm.is_some() {
        die("--sweep-cold and --sweep-warm must be given together");
    }
    opts
}

/// Loads the existing `BENCH_perf.json`, or a fresh skeleton.
fn load_doc(path: &PathBuf) -> JsonValue {
    let Ok(text) = std::fs::read_to_string(path) else {
        return JsonValue::obj()
            .set("schema", SCHEMA)
            .set(
                "workload",
                format!(
                    "memory_intensive_suite[0..{TRACES}] x {COMBOS:?}, serial, best-of-iters wall"
                ),
            )
            .set("entries", JsonValue::Arr(Vec::new()));
    };
    let doc = JsonValue::parse(&text)
        .unwrap_or_else(|e| die(&format!("{}: invalid JSON: {e}", path.display())));
    if doc.get("schema").and_then(JsonValue::as_u64) != Some(SCHEMA) {
        die(&format!(
            "{}: unsupported schema (want {SCHEMA}); delete it to start fresh",
            path.display()
        ));
    }
    doc
}

/// Replaces (or appends) a key in an object document.
fn upsert(doc: &mut JsonValue, key: &str, value: JsonValue) {
    if let JsonValue::Obj(pairs) = doc {
        for (k, v) in pairs.iter_mut() {
            if k == key {
                *v = value;
                return;
            }
        }
        pairs.push((key.to_string(), value));
    }
}

/// Folds one run's optional phase timers into the per-bench accumulator.
fn acc_phases(acc: &std::cell::RefCell<PhaseStats>, p: Option<PhaseStats>) {
    if let Some(p) = p {
        let mut a = acc.borrow_mut();
        a.decode_ns += p.decode_ns;
        a.issue_ns += p.issue_ns;
        a.fill_ns += p.fill_ns;
        a.train_ns += p.train_ns;
        a.drain_ns += p.drain_ns;
    }
}

fn main() {
    let opts = parse_opts();
    if opts.profile {
        // `System` samples the knob at construction; setting it here,
        // before any bench builds one (still single-threaded), turns the
        // timers on for every run this process performs.
        std::env::set_var("IPCP_PHASE_STATS", "1");
    }
    let scale = RunScale::from_env()
        .unwrap_or_else(|bad| die(&format!("invalid IPCP_SCALE {bad:?}(want paper or W,I)")));
    let mut doc = load_doc(&opts.out);

    if let (Some(cold), Some(warm)) = (opts.sweep_cold, opts.sweep_warm) {
        if warm <= 0.0 {
            die("--sweep-warm must be positive");
        }
        let sweep = JsonValue::obj()
            .set("cold_secs", cold)
            .set("warm_secs", warm)
            .set("speedup", cold / warm);
        upsert(&mut doc, "sweep", sweep);
        std::fs::write(&opts.out, doc.to_pretty_string())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", opts.out.display())));
        println!(
            "recorded sweep cold={cold:.3}s warm={warm:.3}s ({:.2}x) into {}",
            cold / warm,
            opts.out.display()
        );
        return;
    }

    let traces: Vec<_> = memory_intensive_suite().into_iter().take(TRACES).collect();
    let mix: Vec<_> = memory_intensive_suite()
        .into_iter()
        .take(MIX_CORES)
        .collect();
    let per_run = scale.warmup + scale.instructions;
    let phase_acc = std::cell::RefCell::new(PhaseStats::default());
    let phase_acc = &phase_acc;

    // Each bench: (name, combos per trace, methodology note, runner). A
    // runner returns an FNV-1a fingerprint over its serialized reports so
    // `--check` can pin cross-iteration determinism; the serialization
    // cost is once per iteration, noise next to the simulation itself.
    // Nominal work is every instruction the simulator retires toward its
    // target, warmup included (warmup simulates at full fidelity).
    type BenchRun<'a> = Box<dyn Fn() -> u64 + 'a>;
    let single = |combo_list: &'static [&'static str]| -> BenchRun<'_> {
        let traces = &traces;
        Box::new(move || {
            let mut fp = 0u64;
            for trace in traces {
                for &combo in combo_list {
                    let cfg =
                        SimConfig::default().with_instructions(scale.warmup, scale.instructions);
                    let c = combos::build(combo);
                    let report = run_single(cfg, trace.handle(), c.l1, c.l2, c.llc);
                    assert!(report.cycles > 0, "empty run for {combo}/{}", trace.name());
                    acc_phases(phase_acc, report.phases);
                    fp ^=
                        fnv1a_64(&report.to_json().to_pretty_string()).rotate_left(fp.count_ones());
                }
            }
            fp
        })
    };
    let run_mix = |mix: &[SynthTrace]| -> u64 {
        let cfg = SimConfig::multicore(mix.len() as u32)
            .with_instructions(scale.warmup, scale.instructions);
        let setups = mix
            .iter()
            .map(|t| {
                let c = combos::build("ipcp");
                CoreSetup::new(t.handle(), c.l1, c.l2)
            })
            .collect();
        let mut sys = System::new(cfg, setups, combos::build("ipcp").llc);
        let report = sys.run();
        assert!(report.cycles > 0, "empty multicore mix run");
        acc_phases(phase_acc, report.phases);
        fnv1a_64(&report.to_json().to_pretty_string())
    };
    let benches: Vec<(&str, u64, String, BenchRun)> = vec![
        (
            "mixed",
            (traces.len() * COMBOS.len()) as u64 * per_run,
            format!("memory_intensive_suite[0..{TRACES}] x {COMBOS:?}, single-core, serial, best-of-{} wall", opts.iters),
            single(&COMBOS),
        ),
        (
            "none",
            traces.len() as u64 * per_run,
            format!("memory_intensive_suite[0..{TRACES}] x [\"none\"], single-core (idle-heavy baseline), serial, best-of-{} wall", opts.iters),
            single(&COMBOS[..1]),
        ),
        (
            "ipcp",
            traces.len() as u64 * per_run,
            format!("memory_intensive_suite[0..{TRACES}] x [\"ipcp\"], single-core, serial, best-of-{} wall", opts.iters),
            single(&COMBOS[1..]),
        ),
        (
            "mc_mix",
            mix.len() as u64 * per_run,
            format!("memory_intensive_suite[0..{MIX_CORES}] as one {MIX_CORES}-core mix under \"ipcp\", best-of-{} wall (nominal = cores x per-core target; replay-to-finish overshoot not counted)", opts.iters),
            Box::new(|| run_mix(&mix)),
        ),
    ];

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default();
    for (bench, nominal, methodology, run) in &benches {
        if opts.only.as_deref().is_some_and(|only| only != *bench) {
            continue;
        }
        let mut best = f64::INFINITY;
        let mut first_fp: Option<u64> = None;
        *phase_acc.borrow_mut() = PhaseStats::default();
        for iter in 0..opts.iters {
            let started = Instant::now();
            let fp = run();
            let wall = started.elapsed().as_secs_f64();
            best = best.min(wall);
            eprintln!(
                "{bench} iter {}/{}: {wall:.3}s ({:.0} instr/s)",
                iter + 1,
                opts.iters,
                *nominal as f64 / wall
            );
            if opts.check {
                match first_fp {
                    None => first_fp = Some(fp),
                    Some(expect) if expect == fp => {}
                    Some(expect) => {
                        eprintln!(
                            "perf_smoke: {bench} fingerprint mismatch on iter {}: \
                             {fp:#018x} != {expect:#018x} — nondeterministic reports",
                            iter + 1,
                        );
                        std::process::exit(1);
                    }
                }
            }
        }
        if opts.profile {
            let p = *phase_acc.borrow();
            let secs = |ns: u64| ns as f64 / 1e9;
            eprintln!(
                "{bench} phases over {} iter(s): decode {:.3}s, issue {:.3}s, \
                 fill {:.3}s, drain {:.3}s (train {:.3}s, nested inside \
                 issue/fill/drain)",
                opts.iters,
                secs(p.decode_ns),
                secs(p.issue_ns),
                secs(p.fill_ns),
                secs(p.drain_ns),
                secs(p.train_ns),
            );
        }
        if let Some(fp) = first_fp {
            println!(
                "{bench}: fingerprint {fp:#018x} identical across {} iteration(s)",
                opts.iters
            );
        }
        let entry = JsonValue::obj()
            .set("label", opts.label.as_str())
            .set("bench", *bench)
            .set(
                "scale",
                JsonValue::obj()
                    .set("warmup", scale.warmup)
                    .set("instructions", scale.instructions),
            )
            .set("iters", u64::from(opts.iters))
            .set("unix_time", unix_time)
            .set("methodology", methodology.as_str())
            .set("wall_secs", best)
            .set("instr_per_sec", *nominal as f64 / best);
        // Replace any previous entry for this (label, bench). Entries from
        // before benches existed carry no "bench" key and count as "mixed".
        entries.retain(|e| {
            e.get("label").and_then(JsonValue::as_str) != Some(opts.label.as_str())
                || e.get("bench")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("mixed")
                    != *bench
        });
        entries.push(entry);
        println!(
            "{}/{bench}: {best:.3}s wall, {:.0} instr/s ({} nominal instructions)",
            opts.label,
            *nominal as f64 / best,
            nominal
        );
    }
    upsert(&mut doc, "entries", JsonValue::Arr(entries));

    std::fs::write(&opts.out, doc.to_pretty_string())
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", opts.out.display())));
}
