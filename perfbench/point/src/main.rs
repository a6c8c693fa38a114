//! `perfbench-point`: the simulation-point workloads of the repository
//! benchmark (`perfbench/run.py` builds and drives this binary).
//!
//! ```text
//! perfbench-point --workload ipcp|frontend_1c|sweep --seed N
//!                 --seconds S [--trace] [--spans FILE] [--plant-mismatch]
//! perfbench-point --probe N
//! ```
//!
//! A workload is a fixed list of simulation points. The binary runs the
//! whole list in *passes* until `--seconds` have elapsed (at least
//! [`MIN_PASSES`]). Every pass builds its traces afresh, so each pass pays
//! the full set-up: trace materialisation (the `SynthTrace` memo is filled
//! before the clock for the simulation starts) plus `System::new`. The
//! simulation itself is `System::run`. Each report is checked
//! (`demand_accesses == demand_hits + demand_misses` at every level,
//! `cycles > 0`) and fingerprinted; a point whose fingerprint differs from
//! its first pass counts as failed. Failures are counted, never fatal.
//!
//! Times are reported in reference seconds: the host's speed drifts by up
//! to 2x within minutes, so every timed stretch is bracketed by runs of a
//! fixed host-speed [`Probe`] and scaled to the time it would take on a
//! host where the probe takes [`PROBE_REF_S`] (see [`host_scale`]). The
//! raw seconds and the probe's median are reported next to them.
//! `--probe N` only runs the probe N times and prints its times.
//!
//! With `--trace`, passes alternate between untraced and traced (spans
//! around every call, `IPCP_SCHED_STATS` on), the layer counters of the
//! reports are collected, and each hot layer's public API is replayed over
//! the workload's own trace stream to give a cost per operation. Spans go
//! to `--spans FILE` as JSON at exit.
//!
//! Output: one JSON object on stdout.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ipcp_bench::combos;
use ipcp_bench::runner::RunScale;
use ipcp_bench::store::fnv1a_64;
use ipcp_mem::{Ip, LineAddr, LINES_PER_PAGE, LINE_SHIFT, PAGE_SHIFT};
use ipcp_sim::cache::{Cache, ProbeResult};
use ipcp_sim::dram::Dram;
use ipcp_sim::prefetch::{AccessInfo, AddrDecode, DemandKind, VecSink};
use ipcp_sim::sched::{self, Calendar};
use ipcp_sim::tlb::Tlb;
use ipcp_sim::vmem::PageMapper;
use ipcp_sim::{CacheStats, CoreSetup, JsonValue, SimConfig, SimReport, System, ToJson};
use ipcp_trace::{BatchStream, DerivedCols, Instr, InstrBatch, TraceSource, KIND_NONE, KIND_STORE};
use ipcp_workloads::gen::{
    blend, complex_stride, constant_stride, deep_calls, global_stream, hot_cold_code, nested_loop,
    pointer_chase, resident,
};
use ipcp_workloads::{memory_intensive_suite, SynthTrace};

/// Fewest passes a run makes, whatever `--seconds` says: medians and the
/// cross-pass fingerprint check need repeats.
const MIN_PASSES: usize = 3;
/// Mirror of the `SynthTrace` memo cap (`MEMO_CAP` in
/// `crates/workloads/src/gen.rs`). Past it the generator runs inside the
/// timed simulation, so points are sized below it.
const MEMO_CAP: u64 = 4_000_000;
/// Instructions materialised past a core's target: the fetch look-ahead
/// (ROB plus batch buffer) reads ahead of retirement.
const LOOKAHEAD: u64 = 16_384;
/// Instructions of each trace fed to the layer replays.
const REPLAY_INSTRS: usize = 1_000_000;
/// Repeats of each layer replay (the median is reported).
const REPLAY_REPEATS: usize = 3;

/// Nominal time of one [`Probe::run`], about its median on a 2-vCPU Xeon
/// VM of a shared machine. A reference second is the time a stretch of
/// work would take on a host where the probe takes this long.
const PROBE_REF_S: f64 = 0.020;
/// Elasticity of the simulator's time to the probe's: when a loaded host
/// makes the probe k times slower, a simulation point takes about k^2
/// times longer. Measured on that VM over about 600 (point, probe) pairs
/// of every point of both point workloads: log-log slopes 1.6-2.2,
/// correlations 0.8-0.95. With 1 instead of 2, the spread of 15-s
/// windows of passes stayed about twice as wide (perfbench/README.md).
const HOST_ELASTICITY: f64 = 2.0;
/// Sets of the probe's two cache models: an L2-sized and an L3-sized one.
const PROBE_SETS: [usize; 2] = [4096, 65536];
const PROBE_WAYS: usize = 8;
/// Accesses each of the probe's cache models takes per run.
const PROBE_ACCESSES: u64 = 250_000;

/// 64 MB and 16 MB footprints in cache lines (the suite's `BIG`/`MID`).
const BIG: u64 = (64 << 20) / 64;
const MID: u64 = (16 << 20) / 64;

fn die(msg: &str) -> ! {
    eprintln!("perfbench-point: {msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------- workloads

/// One simulation point: a fresh set of traces (one per core) per call,
/// run under one combo at one scale.
struct Point {
    name: String,
    build: Box<dyn Fn() -> Vec<SynthTrace>>,
    combo: &'static str,
    scale: RunScale,
    /// Instructions materialised per core before the clock starts.
    materialize: u64,
}

impl Point {
    /// Simulated instructions: every core's warm-up plus measured target.
    /// The replay-to-finish overshoot of multi-core points is not counted.
    fn nominal_instructions(&self, cores: usize) -> u64 {
        cores as u64 * (self.scale.warmup + self.scale.instructions)
    }
}

/// SplitMix64 step: per-trace generator seeds derived from `--seed`.
fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The suite's intensive shape: one pattern access per `dilution`
/// accesses to a cache-resident hot set.
fn intensive(name: &str, pattern: SynthTrace, dilution: u32) -> SynthTrace {
    blend(
        name,
        vec![(pattern, 1), (resident("hot", 512, 1), dilution)],
    )
}

/// The data-side trace of one IPCP class, in the memory-intensive suite's
/// shape, with generator parameters derived from `seed`.
fn class_trace(class: &str, seed: u64) -> SynthTrace {
    let s = |k| derive(seed, k);
    let name = format!("{class}-s{seed}");
    match class {
        "cs" => intensive(&name, constant_stride("p", 4, 1, 0, BIG, s(1)), 60),
        "cplx" => intensive(&name, complex_stride("p", &[1, 2], 4, 0, BIG, s(2)), 25),
        "gs" => intensive(&name, global_stream("p", 1, 30, 3, 0, s(3)), 55),
        "nest" => {
            // The nested-loop generator takes no seed: the seed picks the
            // outer stride (20..=28 lines) instead.
            let outer = 20 + 2 * (s(4) % 5) as i64;
            intensive(&name, nested_loop("p", 6, 1, outer, 0, BIG), 40)
        }
        "irr" => intensive(&name, pointer_chase("p", MID, 0, s(5)), 16),
        "cplx3" => intensive(&name, complex_stride("p", &[3, 3, 4], 4, 0, BIG, s(7)), 50),
        _ => unreachable!("unknown class {class}"),
    }
}

/// A single-core point materialised just past its instruction target.
fn single(
    name: String,
    make: impl Fn() -> SynthTrace + 'static,
    combo: &'static str,
    warmup: u64,
    instructions: u64,
) -> Point {
    Point {
        name,
        build: Box::new(move || vec![make()]),
        combo,
        scale: RunScale {
            warmup,
            instructions,
        },
        materialize: warmup + instructions + LOOKAHEAD,
    }
}

fn workload(name: &str, seed: u64) -> Vec<Point> {
    match name {
        // One single-core point per IPCP class, plus one 4-core mix.
        "ipcp" => {
            let mut points: Vec<Point> = ["cs", "cplx", "gs", "nest", "irr"]
                .into_iter()
                .map(|c| {
                    let make = move || class_trace(c, seed);
                    single(c.to_string(), make, "ipcp", 300_000, 1_500_000)
                })
                .collect();
            points.push(Point {
                name: "mix-cplx+cplx3+gs+nest".to_string(),
                build: Box::new(move || {
                    ["cplx", "cplx3", "gs", "nest"]
                        .iter()
                        .map(|c| class_trace(c, seed))
                        .collect()
                }),
                combo: "ipcp",
                scale: RunScale {
                    warmup: 300_000,
                    instructions: 1_200_000,
                },
                // Cores that reach their target keep running until the last
                // one does (about 2x the target on the fastest core here);
                // the memo holds that overshoot up to the cap.
                materialize: MEMO_CAP,
            });
            points
        }
        "frontend_1c" => vec![
            single(
                "deep-1m".to_string(),
                move || {
                    deep_calls(
                        &format!("deep-1m-s{seed}"),
                        1024,
                        256,
                        8,
                        4096,
                        derive(seed, 21),
                    )
                },
                "fdip",
                500_000,
                2_500_000,
            ),
            single(
                "hotcold-2m".to_string(),
                move || {
                    hot_cold_code(
                        &format!("hotcold-2m-s{seed}"),
                        16,
                        8192,
                        64,
                        7,
                        1 << 16,
                        derive(seed, 22),
                    )
                },
                "fdip",
                500_000,
                2_500_000,
            ),
        ],
        // The figure sweep's own points, measured in-process: every fourth
        // trace of the memory-intensive suite (CS, CS, CPLX, GS, irregular)
        // under `ipcp` at the default figure scale, as fig10/fig11/table4
        // simulate them. Seedless, like the sweep.
        "sweep" => {
            let scale = RunScale::default();
            (0..memory_intensive_suite().len())
                .step_by(4)
                .map(|i| {
                    let name = memory_intensive_suite()[i].name().to_string();
                    let make = move || memory_intensive_suite().swap_remove(i);
                    single(name, make, "ipcp", scale.warmup, scale.instructions)
                })
                .collect()
        }
        other => die(&format!("unknown workload {other:?}")),
    }
}

/// Fills `trace`'s shared memo with its first `n` instructions through the
/// public batch-stream API, so the simulation replays them by copy.
fn materialize(trace: &SynthTrace, n: u64) {
    let mut stream = trace.batch_stream();
    let mut batch = InstrBatch::new();
    let mut got = 0u64;
    while got < n {
        let k = stream.next_batch(&mut batch);
        if k == 0 {
            break;
        }
        got += k as u64;
    }
}

// ------------------------------------------------------- consumption count

/// Trace handle that counts the instructions the simulator pulls (traced
/// passes only), to show whether a point ran past its materialised prefix.
struct Counted {
    inner: SynthTrace,
    pulled: Arc<AtomicU64>,
}

struct CountedStream {
    inner: Box<dyn BatchStream>,
    pulled: Arc<AtomicU64>,
}

impl BatchStream for CountedStream {
    fn next_batch(&mut self, out: &mut InstrBatch) -> usize {
        let n = self.inner.next_batch(out);
        self.pulled.fetch_add(n as u64, Ordering::Relaxed);
        n
    }
}

impl TraceSource for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Instr> + Send> {
        self.inner.stream()
    }

    fn batch_stream(&self) -> Box<dyn BatchStream> {
        Box::new(CountedStream {
            inner: self.inner.batch_stream(),
            pulled: Arc::clone(&self.pulled),
        })
    }
}

// -------------------------------------------------------------------- spans

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder; inert when off.
struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::obj()
                        .set("name", s.name.as_str())
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("parent", s.parent.map_or(JsonValue::Null, JsonValue::from))
                })
                .collect(),
        )
    }
}

// ------------------------------------------------------------------- checks

/// The per-report correctness gate.
fn check_report(report: &SimReport) -> Result<(), String> {
    if report.cycles == 0 {
        return Err("cycles == 0".to_string());
    }
    let balanced = |what: String, s: &CacheStats| {
        if s.demand_accesses == s.demand_hits + s.demand_misses {
            Ok(())
        } else {
            Err(format!(
                "{what}: demand_accesses {} != hits {} + misses {}",
                s.demand_accesses, s.demand_hits, s.demand_misses
            ))
        }
    };
    for (ci, c) in report.cores.iter().enumerate() {
        balanced(format!("core{ci} l1i"), &c.l1i)?;
        balanced(format!("core{ci} l1d"), &c.l1d)?;
        balanced(format!("core{ci} l2"), &c.l2)?;
    }
    balanced("llc".to_string(), &report.llc)
}

/// FNV-1a over the serialized report, observability blocks stripped.
fn fingerprint(report: &SimReport) -> u64 {
    let mut r = report.clone();
    r.sched = None;
    r.phases = None;
    fnv1a_64(&r.to_json().to_pretty_string())
}

// --------------------------------------------------------------- host probe

/// Fixed host work whose time tracks the host's speed of the moment: two
/// LRU cache models (tag compares, age updates, data-dependent branches,
/// like the simulator's own hot path, which no other probe tracked as well
/// on a shared host) over a fixed blend of strided and random lines. Its
/// code is the benchmark's own, so a change to the simulator never moves
/// it.
struct Probe {
    tags: Vec<u64>,
    ages: Vec<u32>,
}

impl Probe {
    fn new() -> Self {
        let lines = PROBE_SETS[1] * PROBE_WAYS;
        Probe {
            tags: vec![0; lines],
            ages: vec![0; lines],
        }
    }

    /// Runs both cache models once; returns the seconds taken.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let hits: u64 = PROBE_SETS.iter().map(|&sets| self.model(sets)).sum();
        black_box(hits);
        t.elapsed().as_secs_f64()
    }

    fn model(&mut self, sets: usize) -> u64 {
        let lines = sets * PROBE_WAYS;
        self.tags[..lines].fill(u64::MAX);
        self.ages[..lines].fill(0);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut hits = 0u64;
        for n in 0..PROBE_ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = if x & 3 == 0 { x >> 40 } else { n * 3 + (x & 7) };
            let base = (line as usize & (sets - 1)) * PROBE_WAYS;
            let tag = line >> sets.trailing_zeros();
            let ways = &mut self.tags[base..base + PROBE_WAYS];
            let ages = &mut self.ages[base..base + PROBE_WAYS];
            let way = match ways.iter().position(|&w| w == tag) {
                Some(w) => {
                    hits += 1;
                    w
                }
                None => {
                    let victim = (0..PROBE_WAYS).max_by_key(|&w| ages[w]).unwrap_or(0);
                    ways[victim] = tag;
                    victim
                }
            };
            for a in ages.iter_mut() {
                *a = a.saturating_add(1);
            }
            ages[way] = 0;
        }
        hits
    }
}

/// Reference seconds per raw second for a stretch bracketed by probe runs
/// taking `before` and `after` seconds.
fn host_scale(before: f64, after: f64) -> f64 {
    (2.0 * PROBE_REF_S / (before + after)).powf(HOST_ELASTICITY)
}

// ------------------------------------------------------------------- passes

/// Timings and reports of one point in one pass. Times are raw seconds;
/// `setup_scale` and `run_scale` turn them into reference seconds.
struct PointRun {
    materialize_s: f64,
    new_s: f64,
    run_s: f64,
    setup_scale: f64,
    run_scale: f64,
    /// The probe run between set-up and simulation.
    probe_s: f64,
    report: SimReport,
    /// Instructions pulled past the materialised prefix (traced only).
    unmaterialized: u64,
}

/// Runs one point; `probe_before` is the probe run just before it, and the
/// probe run just after it is returned for the next point to use.
fn run_point(
    p: &Point,
    traced: bool,
    spans: &mut Spans,
    parent: Option<usize>,
    probe: &mut Probe,
    probe_before: f64,
) -> (PointRun, f64) {
    let point_span = spans.open(&format!("point:{}", p.name), parent);
    let t0 = Instant::now();
    let span = spans.open("workloads.materialize", point_span);
    let traces = (p.build)();
    for t in &traces {
        materialize(t, p.materialize);
    }
    spans.close(span);
    let t1 = Instant::now();
    let span = spans.open("system.new", point_span);
    let cores = traces.len() as u32;
    let cfg = if cores == 1 {
        SimConfig::default()
    } else {
        SimConfig::multicore(cores)
    }
    .with_instructions(p.scale.warmup, p.scale.instructions);
    let counters: Vec<Arc<AtomicU64>> = traces.iter().map(|_| Arc::default()).collect();
    let setups: Vec<CoreSetup> = traces
        .iter()
        .zip(&counters)
        .map(|(t, pulled)| {
            let c = combos::build(p.combo);
            let handle: Arc<dyn TraceSource + Send + Sync> = if traced {
                Arc::new(Counted {
                    inner: t.clone(),
                    pulled: Arc::clone(pulled),
                })
            } else {
                t.handle()
            };
            CoreSetup::new(handle, c.l1, c.l2).with_l1i_prefetcher(c.l1i)
        })
        .collect();
    let mut sys = System::new(cfg, setups, combos::build(p.combo).llc);
    spans.close(span);
    let t_new = Instant::now();
    let probe_mid = probe.run();
    let t2 = Instant::now();
    let span = spans.open("system.run", point_span);
    let report = sys.run();
    spans.close(span);
    let t3 = Instant::now();
    let probe_after = probe.run();
    spans.close(point_span);
    drop(sys);
    let unmaterialized = counters
        .iter()
        .map(|c| c.load(Ordering::Relaxed).saturating_sub(p.materialize))
        .sum();
    let run = PointRun {
        materialize_s: (t1 - t0).as_secs_f64(),
        new_s: (t_new - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        setup_scale: host_scale(probe_before, probe_mid),
        run_scale: host_scale(probe_mid, probe_after),
        probe_s: probe_mid,
        report,
        unmaterialized,
    };
    (run, probe_after)
}

struct Pass {
    traced: bool,
    runs: Vec<PointRun>,
}

/// Sum over a workload's points of each point's median across `passes`.
fn point_medians(passes: &[&Pass], f: impl Fn(&PointRun) -> f64) -> f64 {
    let points = passes.first().map_or(0, |p| p.runs.len());
    (0..points)
        .map(|i| median(passes.iter().map(|p| f(&p.runs[i])).collect()))
        .sum()
}

/// The process's resident-set high-water mark (`VmHWM`), in MB. Read after
/// the first pass: later passes repeat the same allocations, and only the
/// allocator's reuse of freed memory, which varies with the pass count,
/// could still move it.
fn peak_rss_mb_so_far() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| die(&format!("cannot read /proc/self/status: {e}")));
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or_else(|| die("no VmHWM in /proc/self/status"))
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ------------------------------------------------------------ layer replays

/// One data access of a replay stream.
struct Access {
    ip: Ip,
    vline: LineAddr,
    pline: LineAddr,
    write: bool,
}

fn phys(mapper: &mut PageMapper, vline: LineAddr) -> LineAddr {
    let ppage = mapper.translate(vline.vpage()).raw();
    LineAddr::new((ppage << (PAGE_SHIFT - LINE_SHIFT)) | (vline.raw() & (LINES_PER_PAGE - 1)))
}

/// Accumulated (busy nanoseconds, operations) of one replayed layer.
#[derive(Default, Clone, Copy)]
struct Cost {
    ns: f64,
    ops: u64,
}

impl Cost {
    fn add(&mut self, ns: f64, ops: u64) {
        self.ns += ns;
        self.ops += ops;
    }

    fn per_op(self) -> f64 {
        ratio(self.ns, self.ops as f64)
    }
}

/// Times `body` [`REPLAY_REPEATS`] times (fresh state from `prep` each
/// time) and returns the median nanoseconds.
fn timed<S>(mut prep: impl FnMut() -> S, mut body: impl FnMut(&mut S)) -> f64 {
    let samples = (0..REPLAY_REPEATS)
        .map(|_| {
            let mut state = prep();
            let t = Instant::now();
            body(&mut state);
            let ns = t.elapsed().as_nanos() as f64;
            black_box(&state);
            ns
        })
        .collect();
    median(samples)
}

#[derive(Default)]
struct Replays {
    decode: Cost,
    lookup_hit: Cost,
    lookup_miss: Cost,
    translate: Cost,
    ipcp: Cost,
    fdip: Cost,
    dram: Cost,
    calendar: Cost,
}

/// Replays every hot layer over the first [`REPLAY_INSTRS`] instructions
/// of `trace` (already materialised at least that far).
fn replay_trace(trace: &SynthTrace, cfg: &SimConfig, out: &mut Replays) {
    let n = REPLAY_INSTRS;
    // Trace decode: batch refill from the memo plus the derived columns.
    let ns = timed(
        || {
            (
                trace.batch_stream(),
                InstrBatch::new(),
                DerivedCols::default(),
                0usize,
            )
        },
        |(stream, batch, derived, got)| {
            while *got < n {
                let k = stream.next_batch(batch);
                if k == 0 {
                    break;
                }
                derived.compute(batch);
                black_box(&*derived);
                *got += k;
            }
        },
    );
    out.decode.add(ns, n as u64);

    // The stream's columns, then its data accesses and instruction-line
    // changes with physical lines from a page mapper.
    let mut ips = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    let mut stream = trace.batch_stream();
    let mut batch = InstrBatch::new();
    while ips.len() < n {
        if stream.next_batch(&mut batch) == 0 {
            break;
        }
        let (i, k, a) = batch.columns();
        let take = (n - ips.len()).min(i.len());
        ips.extend_from_slice(&i[..take]);
        kinds.extend_from_slice(&k[..take]);
        addrs.extend_from_slice(&a[..take]);
    }
    let mut mapper = PageMapper::new(cfg.vmem_seed);
    let mut accesses = Vec::new();
    let mut access_at = Vec::new();
    let mut ifetches = Vec::new();
    let mut last_iline = u64::MAX;
    for (idx, ((&ip, &kind), &addr)) in ips.iter().zip(&kinds).zip(&addrs).enumerate() {
        let iline = ip >> LINE_SHIFT;
        if iline != last_iline {
            last_iline = iline;
            let vline = LineAddr::new(iline);
            ifetches.push(Access {
                ip: Ip(ip),
                vline,
                pline: phys(&mut mapper, vline),
                write: false,
            });
        }
        if kind != KIND_NONE {
            let vline = LineAddr::new(addr >> LINE_SHIFT);
            accesses.push(Access {
                ip: Ip(ip),
                vline,
                pline: phys(&mut mapper, vline),
                write: kind == KIND_STORE,
            });
            access_at.push(idx as u64);
        }
    }

    // Cache lookup, miss outcome: an empty L1D, nothing ever installed.
    let ns = timed(
        || Cache::new(&cfg.l1d, 1),
        |cache| {
            for a in &accesses {
                black_box(cache.demand_lookup(a.pline, a.ip, a.write));
            }
        },
    );
    out.lookup_miss.add(ns, accesses.len() as u64);

    // Untimed L1D walk (install on miss): hit flags for the prefetcher
    // replays, the miss stream for DRAM, and a warm cache whose resident
    // lines give an all-hit lookup stream.
    let mut warm = Cache::new(&cfg.l1d, 1);
    let mut hits = Vec::with_capacity(accesses.len());
    for a in &accesses {
        let hit = matches!(
            warm.demand_lookup(a.pline, a.ip, a.write),
            ProbeResult::Hit { .. }
        );
        if !hit {
            warm.install(a.pline, a.ip, false, 0, a.write);
        }
        hits.push(hit);
    }
    let resident: Vec<&Access> = accesses.iter().filter(|a| warm.contains(a.pline)).collect();
    let ns = timed(
        || (),
        |()| {
            for a in &resident {
                black_box(warm.demand_lookup(a.pline, a.ip, a.write));
            }
        },
    );
    out.lookup_hit.add(ns, resident.len() as u64);

    // TLB translate over the data pages.
    let ns = timed(
        || (Tlb::new(&cfg.tlb), PageMapper::new(cfg.vmem_seed)),
        |(tlb, mapper)| {
            for a in &accesses {
                black_box(tlb.translate(a.vline.vpage(), mapper));
            }
        },
    );
    out.translate.add(ns, accesses.len() as u64);

    // IPCP L1 training on the data accesses.
    let mut misses = 0u64;
    let infos: Vec<AccessInfo> = accesses
        .iter()
        .zip(&hits)
        .zip(&access_at)
        .map(|((a, &hit), &at)| {
            misses += u64::from(!hit);
            AccessInfo {
                cycle: at,
                ip: a.ip,
                vline: a.vline,
                pline: a.pline,
                kind: if a.write {
                    DemandKind::Rfo
                } else {
                    DemandKind::Load
                },
                hit,
                first_use_of_prefetch: false,
                hit_pf_class: 0,
                instructions: at,
                demand_misses: misses,
                dram_utilization: 0.0,
                decode: AddrDecode::of(a.ip, a.vline),
            }
        })
        .collect();
    let ns = timed(
        || (combos::build("ipcp").l1, VecSink::new()),
        |(pf, sink)| {
            for info in &infos {
                pf.on_access(info, sink);
                sink.requests.clear();
            }
        },
    );
    out.ipcp.add(ns, infos.len() as u64);

    // FDIP training on the instruction-line changes (L1I hit flags from an
    // untimed L1I walk).
    let mut l1i = Cache::new(&cfg.l1i, 1);
    let iinfos: Vec<AccessInfo> = ifetches
        .iter()
        .enumerate()
        .map(|(k, a)| {
            let hit = matches!(
                l1i.demand_lookup(a.pline, a.ip, false),
                ProbeResult::Hit { .. }
            );
            if !hit {
                l1i.install(a.pline, a.ip, false, 0, false);
            }
            AccessInfo {
                cycle: k as u64,
                ip: a.ip,
                vline: a.vline,
                pline: a.pline,
                kind: DemandKind::IFetch,
                hit,
                first_use_of_prefetch: false,
                hit_pf_class: 0,
                instructions: k as u64,
                demand_misses: 0,
                dram_utilization: 0.0,
                decode: AddrDecode::of(a.ip, a.vline),
            }
        })
        .collect();
    let ns = timed(
        || (combos::build("fdip").l1i, VecSink::new()),
        |(pf, sink)| {
            for info in &iinfos {
                pf.on_access(info, sink);
                sink.requests.clear();
            }
        },
    );
    out.fdip.add(ns, iinfos.len() as u64);

    // DRAM scheduling of the L1D miss stream (instruction index as the
    // arrival cycle).
    let miss_stream: Vec<(u64, LineAddr)> = accesses
        .iter()
        .zip(&hits)
        .zip(&access_at)
        .filter(|((_, &hit), _)| !hit)
        .map(|((a, _), &at)| (at, a.pline))
        .collect();
    let ns = timed(
        || Dram::new(cfg.dram),
        |dram| {
            for &(at, line) in &miss_stream {
                black_box(dram.schedule_read(at, line));
            }
        },
    );
    out.dram.add(ns, miss_stream.len() as u64);

    // Calendar: every miss arms a fill wakeup at its DRAM completion cycle;
    // every instruction index drains what is due.
    let mut dram = Dram::new(cfg.dram);
    let arms: Vec<(u64, u32, u64)> = miss_stream
        .iter()
        .enumerate()
        .map(|(k, &(at, line))| {
            let comp = [sched::COMP_LLC, sched::comp_l2(0), sched::comp_l1d(0)][k % 3];
            (at, comp, dram.schedule_read(at, line))
        })
        .collect();
    let mut calendar_ops = 0u64;
    let ns = timed(
        || Calendar::new(4),
        |cal| {
            let mut ops = 0u64;
            let mut next = arms.iter().peekable();
            for now in 0..ips.len() as u64 {
                while let Some(&&(at, comp, t)) = next.peek() {
                    if at != now {
                        break;
                    }
                    cal.note(comp, t);
                    ops += 1;
                    next.next();
                }
                ops += 1;
                while cal.pop_due(now).is_some() {
                    ops += 1;
                }
            }
            calendar_ops = ops;
        },
    );
    out.calendar.add(ns, calendar_ops);
}

// ------------------------------------------------------------------- output

/// Simulated instructions of one pass (see [`Point::nominal_instructions`]).
fn pass_instructions(pass: &Pass, points: &[Point]) -> u64 {
    pass.runs
        .iter()
        .zip(points)
        .map(|(r, p)| p.nominal_instructions(r.report.cores.len()))
        .sum()
}

/// Per-layer counters of one pass, summed over its points.
fn layer_counters(pass: &Pass, points: &[Point]) -> JsonValue {
    let mut l1i = CacheStats::default();
    let mut l1d = CacheStats::default();
    let mut l2 = CacheStats::default();
    let mut llc = CacheStats::default();
    let (mut instr, mut cycles, mut dtlb, mut dtlb_miss, mut walks) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut reads, mut writes, mut row_hits, mut row_misses, mut bus_busy, mut bus_cap) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut executed, mut skipped, mut wakeups) = (0u64, 0u64, 0u64);
    let (mut ipcp_ops, mut fdip_ops) = (0u64, 0u64);
    for (run, p) in pass.runs.iter().zip(points) {
        let r = &run.report;
        cycles += r.cycles;
        llc.accumulate(&r.llc);
        for c in &r.cores {
            instr += c.core.instructions;
            l1i.accumulate(&c.l1i);
            l1d.accumulate(&c.l1d);
            l2.accumulate(&c.l2);
            dtlb += c.tlb.dtlb_accesses;
            dtlb_miss += c.tlb.dtlb_misses;
            walks += c.tlb.stlb_misses;
        }
        if p.combo == "ipcp" {
            ipcp_ops += r.cores.iter().map(|c| c.l1d.demand_accesses).sum::<u64>();
        }
        if p.combo == "fdip" {
            fdip_ops += r.cores.iter().map(|c| c.l1i.demand_accesses).sum::<u64>();
        }
        reads += r.dram.reads;
        writes += r.dram.writes;
        row_hits += r.dram.row_hits;
        row_misses += r.dram.row_misses;
        bus_busy += r.dram.bus_busy_cycles;
        bus_cap += r.cycles * u64::from(r.dram.channels.max(1));
        if let Some(s) = r.sched {
            executed += s.executed_cycles;
            skipped += s.skipped_cycles;
            wakeups += s.wakeups_fired;
        }
    }
    let f = |x: u64| x as f64;
    let rr = |s: &CacheStats| s.rr_drops_by_class.iter().sum::<u64>();
    let accuracy = |s: &CacheStats| {
        ratio(
            f(s.useful_prefetch_hits),
            f(s.pf_fills + s.late_prefetch_hits),
        )
    };
    let candidates = l1d.pf_issued + l1d.pf_dropped_pq_full + l1d.pf_dropped_present + rr(&l1d);
    let dropped =
        l1d.pf_dropped_pq_full + l1d.pf_dropped_present + l1d.pf_dropped_mshr_full + rr(&l1d);
    let all = [&l1i, &l1d, &l2, &llc];
    JsonValue::obj()
        .set("system.sim_cycles", cycles)
        .set("system.ipc", ratio(f(instr), f(cycles)))
        .set("system.total_cycles", executed + skipped)
        .set("sched.executed_cycles", executed)
        .set(
            "sched.skipped_share",
            ratio(f(skipped), f(executed + skipped)),
        )
        .set("sched.wakeups", wakeups)
        .set("l1d.accesses", l1d.demand_accesses)
        .set(
            "l1d.miss_ratio",
            ratio(f(l1d.demand_misses), f(l1d.demand_accesses)),
        )
        .set("l1d.mshr_full_rejects", l1d.mshr_full_rejects)
        .set("l1i.misses", l1i.demand_misses)
        .set(
            "l2.miss_ratio",
            ratio(f(l2.demand_misses), f(l2.demand_accesses)),
        )
        .set(
            "llc.miss_ratio",
            ratio(f(llc.demand_misses), f(llc.demand_accesses)),
        )
        .set("tlb.dtlb_miss_ratio", ratio(f(dtlb_miss), f(dtlb)))
        .set("tlb.walks", walks)
        .set("dram.reads", reads)
        .set(
            "dram.row_hit_ratio",
            ratio(f(row_hits), f(row_hits + row_misses)),
        )
        .set("dram.bus_util", ratio(f(bus_busy), f(bus_cap)))
        .set("l1d.pf_candidates", candidates)
        .set("l1d.pf_issued", l1d.pf_issued)
        .set("l2.pf_issued", l2.pf_issued)
        .set("l1d.pf_waste_share", ratio(f(dropped), f(candidates)))
        .set("l1d.pf_accuracy", accuracy(&l1d))
        .set("l1i.pf_issued", l1i.pf_issued)
        .set("l1i.pf_accuracy", accuracy(&l1i))
        // Operation counts that pair with the replays' ns/op (measured
        // phase, summed over the pass's points).
        .set("trace.decode_ops", pass_instructions(pass, points))
        .set(
            "cache.lookup_hit_ops",
            all.iter().map(|s| s.demand_hits).sum::<u64>(),
        )
        .set(
            "cache.lookup_miss_ops",
            all.iter()
                .map(|s| s.demand_misses + s.mshr_full_rejects)
                .sum::<u64>(),
        )
        .set("tlb.translate_ops", dtlb)
        .set("ipcp.on_access_ops", ipcp_ops)
        .set("fdip.on_access_ops", fdip_ops)
        .set("dram.schedule_ops", reads + writes)
        .set("sched.calendar_ops", wakeups)
}

/// `--probe N`: N probe runs, their times printed as one JSON object.
fn probe_only(n: usize) {
    let mut probe = Probe::new();
    let times = (0..n).map(|_| JsonValue::from(probe.run())).collect();
    let out = JsonValue::obj()
        .set("probe_s", JsonValue::Arr(times))
        .set("probe_ref_s", PROBE_REF_S);
    println!("{}", out.to_json_string());
}

fn main() {
    if cfg!(debug_assertions) {
        die("refusing to measure a debug build; build with --release");
    }
    let mut workload_name = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans_path = None;
    let mut plant_mismatch = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload_name = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seconds needs a number"));
            }
            "--trace" => trace = true,
            "--spans" => spans_path = Some(value()),
            "--plant-mismatch" => plant_mismatch = true,
            "--probe" => {
                let n = value()
                    .parse()
                    .unwrap_or_else(|_| die("--probe needs a count"));
                return probe_only(n);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let workload_name = workload_name.unwrap_or_else(|| die("--workload is required"));
    let points = workload(&workload_name, seed);
    let mut spans = Spans {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
    };

    let mut probe = Probe::new();
    // Untimed warm-up of the probe's tables and code.
    probe.run();
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_fp: Vec<Option<u64>> = vec![None; points.len()];
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut peak_rss_mb = 0.0;
    // A traced run needs at least two untraced and two traced passes.
    let min_passes = if trace { 4 } else { MIN_PASSES };
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        // Traced runs alternate untraced and traced passes so the tracing
        // overhead is measured against the same process state.
        let traced = trace && passes.len() % 2 == 1;
        spans.on = traced;
        if traced {
            std::env::set_var("IPCP_SCHED_STATS", "1");
        } else {
            std::env::remove_var("IPCP_SCHED_STATS");
        }
        let pass_span = spans.open(&format!("pass:{}", passes.len()), None);
        let mut runs = Vec::with_capacity(points.len());
        let mut probe_before = probe.run();
        for (pi, p) in points.iter().enumerate() {
            let (run, probe_after) =
                run_point(p, traced, &mut spans, pass_span, &mut probe, probe_before);
            probe_before = probe_after;
            attempted += 1;
            let mut fp = fingerprint(&run.report);
            if plant_mismatch && pi == 0 && passes.len() == 1 {
                fp ^= 1;
            }
            let verdict = check_report(&run.report).and_then(|()| match first_fp[pi] {
                None => {
                    first_fp[pi] = Some(fp);
                    Ok(())
                }
                Some(expect) if expect == fp => Ok(()),
                Some(expect) => Err(format!(
                    "fingerprint {fp:#018x} != first pass {expect:#018x}"
                )),
            });
            if let Err(e) = verdict {
                failures.push(format!("pass {} point {}: {e}", passes.len(), p.name));
            }
            runs.push(run);
        }
        spans.close(pass_span);
        passes.push(Pass { traced, runs });
        if passes.len() == 1 {
            peak_rss_mb = peak_rss_mb_so_far();
        }
    }
    spans.on = false;
    std::env::remove_var("IPCP_SCHED_STATS");

    let timed_passes: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let nominal = pass_instructions(&passes[0], &points);
    let wall_s = point_medians(&timed_passes, |r| r.run_s * r.run_scale);
    let e2e = JsonValue::obj()
        .set("wall_s", wall_s)
        .set("peak_rss_mb", peak_rss_mb)
        .set(
            "setup_s",
            point_medians(&timed_passes, |r| {
                (r.materialize_s + r.new_s) * r.setup_scale
            }),
        )
        .set("sim_mips", nominal as f64 / wall_s / 1e6);
    let raw_wall_s = point_medians(&timed_passes, |r| r.run_s);
    let probe_s = median(
        timed_passes
            .iter()
            .flat_map(|p| p.runs.iter().map(|r| r.probe_s))
            .collect(),
    );
    let raw = JsonValue::obj()
        .set("wall_s", raw_wall_s)
        .set(
            "setup_s",
            point_medians(&timed_passes, |r| r.materialize_s + r.new_s),
        )
        .set("sim_mips", nominal as f64 / raw_wall_s / 1e6)
        .set("probe_s", probe_s);

    let mut out = JsonValue::obj()
        .set("workload", workload_name.as_str())
        .set("seed", seed)
        .set(
            "scale",
            points.iter().fold(JsonValue::obj(), |o, p| {
                let scale = JsonValue::obj()
                    .set("warmup", p.scale.warmup)
                    .set("instructions", p.scale.instructions)
                    .set("materialized", p.materialize);
                o.set(&p.name, scale)
            }),
        )
        .set("passes", passes.len())
        .set("points", points.len())
        .set("attempted", attempted)
        .set("failed", failures.len())
        .set(
            "failures",
            JsonValue::Arr(
                failures
                    .iter()
                    .map(|s| JsonValue::from(s.as_str()))
                    .collect(),
            ),
        )
        .set(
            "fingerprints",
            points
                .iter()
                .zip(&first_fp)
                .fold(JsonValue::obj(), |o, (p, fp)| {
                    o.set(&p.name, format!("{:#018x}", fp.unwrap_or(0)))
                }),
        )
        .set("end_to_end", e2e)
        .set("raw", raw)
        .set(
            "reports",
            JsonValue::Arr(
                points
                    .iter()
                    .zip(&passes[0].runs)
                    .enumerate()
                    .map(|(i, (p, r))| {
                        let cores = r.report.cores.iter().map(|c| {
                            JsonValue::obj()
                                .set("trace", c.trace.as_str())
                                .set("instructions", c.core.instructions)
                                .set("ipc", c.core.ipc())
                        });
                        JsonValue::obj()
                            .set("point", p.name.as_str())
                            .set("combo", p.combo)
                            .set("cycles", r.report.cycles)
                            .set(
                                "run_s",
                                median(
                                    timed_passes
                                        .iter()
                                        .map(|p| p.runs[i].run_s * p.runs[i].run_scale)
                                        .collect(),
                                ),
                            )
                            .set("cores", JsonValue::Arr(cores.collect()))
                    })
                    .collect(),
            ),
        );

    if trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let last = traced.last().expect("traced runs make traced passes");
        let mut layers = layer_counters(last, &points);
        let run_s = point_medians(&traced, |r| r.run_s * r.run_scale);
        let total_cycles = layers
            .get("system.total_cycles")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        layers.insert(
            "workloads.materialize_s",
            point_medians(&traced, |r| r.materialize_s * r.setup_scale),
        );
        layers.insert(
            "workloads.unmaterialized_instrs",
            last.runs.iter().map(|r| r.unmaterialized).sum::<u64>(),
        );
        layers.insert(
            "system.new_s",
            point_medians(&traced, |r| r.new_s * r.setup_scale),
        );
        layers.insert("system.run_s", run_s);
        layers.insert(
            "system.host_ns_per_cycle",
            ratio(run_s * 1e9, total_cycles as f64),
        );
        layers.insert("bench.trace_overhead_s", run_s - wall_s);
        layers.insert("bench.raw_wall_s", raw_wall_s);
        layers.insert("bench.probe_ms", probe_s * 1e3);

        // Layer replays over each point's own traces.
        let cfg = SimConfig::default();
        let mut replays = Replays::default();
        let replay_span = spans.open("replays", None);
        spans.on = true;
        for p in &points {
            for t in (p.build)() {
                materialize(&t, REPLAY_INSTRS as u64);
                let span = spans.open(&format!("replay:{}", t.name()), replay_span);
                replay_trace(&t, &cfg, &mut replays);
                spans.close(span);
            }
        }
        spans.close(replay_span);
        for (name, cost) in [
            ("trace.decode_ns", replays.decode),
            ("cache.lookup_hit_ns", replays.lookup_hit),
            ("cache.lookup_miss_ns", replays.lookup_miss),
            ("tlb.translate_ns", replays.translate),
            ("ipcp.on_access_ns", replays.ipcp),
            ("fdip.on_access_ns", replays.fdip),
            ("dram.schedule_ns", replays.dram),
            ("sched.calendar_ns", replays.calendar),
        ] {
            layers.insert(name, cost.per_op());
            layers.insert(&name.replace("_ns", "_replay_ops"), cost.ops);
        }
        out.insert("layers", layers);
        if let Some(path) = spans_path {
            std::fs::write(&path, spans.to_json().to_json_string() + "\n")
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        }
    }
    println!("{}", out.to_json_string());
}
