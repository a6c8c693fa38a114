//! The sweep harness: runs a selection of registered figures in one
//! process, one thread per figure, over one shared [`PointPool`], writes
//! each figure's outputs, and records the sweep in a JSON manifest.
//!
//! Every simulation in this workspace is deterministic, so the pool's
//! width and the figures' interleaving only change wall-clock time, never
//! output bytes. `IPCP_JOBS=1` runs every simulation on one worker (the
//! reference mode for byte-identical comparisons); the default is one
//! worker per available core. Threads: one per selected figure, plus the
//! pool's `jobs` workers, plus the caller.
//!
//! No external dependencies: the figure threads are `std::thread::scope`
//! (the crates registry is unreachable in CI sandboxes) and the JSON goes
//! through the workspace's shared [`JsonValue`] serializer
//! (`ipcp_sim::telemetry`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ipcp_sim::telemetry::JsonValue;

use crate::figures::Figure;
use crate::pool::{panic_message, PointPool, PointRecord, PoolStats};
use crate::runner::Experiment;
use crate::simcache::{self, CacheStatsSnapshot};

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Parses an `IPCP_JOBS`-style value: a positive worker count, or `None`
/// for anything absent/unparseable (callers fall back to the core count).
pub fn parse_jobs(spec: Option<&str>) -> Option<usize> {
    spec.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Worker count from the `IPCP_JOBS` environment variable; defaults to the
/// number of available cores. Parsed through the consolidated
/// [`crate::env`] module, so a malformed value exits loudly instead of
/// silently running at the default width.
pub fn jobs_from_env() -> usize {
    crate::env::or_die(crate::env::jobs())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on a pool of `workers` scoped threads, returning
/// results in input order. With `workers <= 1` (or a single item) this
/// degenerates to a plain serial loop on the calling thread, so
/// `IPCP_JOBS=1` is exactly the old serial behavior.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once the scope joins.
pub fn parallel_map<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job taken twice");
                let out = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result poisoned")
                .expect("job not run")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Running figures
// ---------------------------------------------------------------------

/// Where a sweep writes: `<results>/<name>.txt` always, sidecars into
/// `json` and per-table CSVs into `csv` when set.
#[derive(Debug, Clone)]
pub struct OutputDirs {
    /// The results directory (text outputs, per-run JSON, manifest).
    pub results: PathBuf,
    /// The sidecar directory, or `None` to write no sidecars.
    pub json: Option<PathBuf>,
    /// The CSV directory, or `None` to write no CSVs.
    pub csv: Option<PathBuf>,
}

impl OutputDirs {
    /// Sidecars into the results dir unless `IPCP_JSON` routes them
    /// elsewhere (or, set empty, disables them); CSVs into `IPCP_CSV`.
    pub fn from_env(results: &Path) -> Self {
        let json = match crate::env::or_die(crate::env::raw("IPCP_JSON")) {
            None => Some(results.to_path_buf()),
            Some(dir) => Some(PathBuf::from(dir)).filter(|d| !d.as_os_str().is_empty()),
        };
        Self {
            results: results.to_path_buf(),
            json,
            csv: crate::env::or_die(crate::env::csv_dir()),
        }
    }
}

/// Outcome of one figure run by the harness.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Figure name, e.g. `fig07_l1_only`.
    pub name: String,
    /// True when the figure ran to completion and its text was written.
    pub ok: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Where the text output was written.
    pub output_path: PathBuf,
    /// The JSON data sidecar the figure wrote, if any.
    pub data_path: Option<PathBuf>,
    /// Why the figure failed: its panic message or a write error.
    pub error: Option<String>,
    /// The disk-cache counters of the lookups this figure's requests
    /// caused, when `IPCP_SIMCACHE` is on.
    pub simcache: Option<CacheStatsSnapshot>,
}

/// Runs one figure on `pool` and writes its outputs. A panic anywhere in
/// the figure (or in a simulation it waited for) fails this figure only:
/// its `.txt` then holds the panic message.
pub fn run_figure(fig: &Figure, pool: &Arc<PointPool>, out: &OutputDirs) -> ExperimentOutcome {
    let started = Instant::now();
    let output_path = out.results.join(format!("{}.txt", fig.name));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut exp = Experiment::new(fig.name, Arc::clone(pool));
        (fig.run)(&mut exp);
        exp
    }));
    let (text, exp, mut error) = match ran {
        Ok(exp) => (exp.render_text(), Some(exp), None),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            (format!("{} panicked: {msg}\n", fig.name), None, Some(msg))
        }
    };
    if let Err(e) = std::fs::write(&output_path, text) {
        error.get_or_insert(format!("writing {}: {e}", output_path.display()));
    }
    let mut data_path = None;
    if let Some(exp) = &exp {
        if let Some(dir) = &out.csv {
            if let Err(e) = exp.write_csvs(dir) {
                eprintln!("warning: could not write CSVs to {}: {e}", dir.display());
            }
        }
        if let Some(dir) = &out.json {
            match exp.write_sidecar(dir) {
                Ok(path) => data_path = Some(path),
                Err(e) => eprintln!(
                    "warning: could not write {}.data.json to {}: {e}",
                    fig.name,
                    dir.display()
                ),
            }
        }
    }
    let wall = started.elapsed();
    let ok = error.is_none();
    eprintln!(
        "== {} {} ({:.1}s)",
        fig.name,
        if ok { "ok" } else { "FAILED" },
        wall.as_secs_f64()
    );
    ExperimentOutcome {
        name: fig.name.to_string(),
        ok,
        wall,
        output_path,
        data_path,
        error,
        simcache: simcache::global().map(|_| pool.simcache_for(fig.name)),
    }
}

/// Runs `figures` concurrently, one thread each, over `pool`; outcomes
/// come back in `figures` order.
pub fn run_sweep(
    figures: &[&Figure],
    pool: &Arc<PointPool>,
    out: &OutputDirs,
) -> Vec<ExperimentOutcome> {
    parallel_map(figures.len(), figures.to_vec(), |fig| {
        run_figure(fig, pool, out)
    })
}

/// The failure summary of a sweep (`None` when every figure succeeded).
pub fn failure_summary(outcomes: &[ExperimentOutcome]) -> Option<String> {
    let failed: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.ok)
        .map(|o| {
            format!(
                "  {}: {} (output: {})\n",
                o.name,
                o.error.as_deref().unwrap_or("failed"),
                o.output_path.display()
            )
        })
        .collect();
    (!failed.is_empty()).then(|| format!("FAILURE SUMMARY:\n{}", failed.concat()))
}

// ---------------------------------------------------------------------
// JSON results
// ---------------------------------------------------------------------

impl ExperimentOutcome {
    /// The outcome as a JSON object (the manifest entry and the per-run
    /// `.json` document). `wall_secs` is rounded to milliseconds.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj()
            .set("name", self.name.as_str())
            .set("ok", self.ok)
            .set("wall_secs", round3(self.wall.as_secs_f64()))
            .set("output", self.output_path.display().to_string())
            .set(
                "error",
                self.error
                    .as_deref()
                    .map_or(JsonValue::Null, JsonValue::from),
            );
        if let Some(data) = &self.data_path {
            v.insert("data", data.display().to_string());
        }
        if let Some(s) = &self.simcache {
            v.insert("simcache", cache_json(s));
        }
        v
    }
}

fn cache_json(s: &CacheStatsSnapshot) -> JsonValue {
    JsonValue::obj()
        .set("hits", s.hits)
        .set("misses", s.misses)
        .set("stores", s.stores)
}

/// Rounds to 3 decimals (the manifest's wall-clock precision).
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Everything a sweep's manifest records.
#[derive(Debug, Clone)]
pub struct SweepManifest<'a> {
    /// Simulation workers.
    pub jobs: usize,
    /// The `IPCP_SCALE` spec, or `default`.
    pub scale: &'a str,
    /// Every catalogued knob that was set, with its value.
    pub env: &'a [(&'a str, String)],
    /// Wall-clock duration of the whole sweep.
    pub total_wall: Duration,
    /// One outcome per figure, in registry order.
    pub outcomes: &'a [ExperimentOutcome],
    /// The pool's request counters.
    pub points: PoolStats,
    /// One record per distinct keyed point.
    pub point_log: &'a [PointRecord],
    /// The disk cache's counters, when it is on.
    pub simcache: Option<CacheStatsSnapshot>,
}

/// Writes one `<results_dir>/<name>.json` per outcome plus the
/// `<results_dir>/manifest.json` machine-readable summary. Outcomes appear
/// in the manifest in the given (deterministic) order.
///
/// Schema 4: the set knobs as a top-level `env` object; the pool's
/// `points` counters (`requests == simulated + deduplicated`, plus
/// `custom` runs); and a `point_log` with one entry per distinct keyed
/// point — key hash, traces, combo, worker seconds, and every figure that
/// asked for it. Figure outputs (`.txt` / `.data.json`) are untouched by
/// the schema; only this gitignored manifest layer carries it.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the files.
pub fn write_results_json(results_dir: &Path, m: &SweepManifest) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir)?;
    for o in m.outcomes {
        std::fs::write(
            results_dir.join(format!("{}.json", o.name)),
            o.to_json().to_json_string() + "\n",
        )?;
    }
    let strs =
        |v: &[String]| JsonValue::Arr(v.iter().map(|s| JsonValue::from(s.as_str())).collect());
    let mut manifest = JsonValue::obj()
        .set("schema", 4i64)
        .set("generated_by", "experiments driver (ipcp-tools)")
        .set("jobs", m.jobs)
        .set("scale", m.scale)
        .set(
            "env",
            JsonValue::Obj(
                m.env
                    .iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::from(v.as_str())))
                    .collect(),
            ),
        )
        .set("total_wall_secs", round3(m.total_wall.as_secs_f64()))
        .set("failed", m.outcomes.iter().filter(|o| !o.ok).count());
    if let Some(s) = &m.simcache {
        manifest.insert("simcache", cache_json(s));
    }
    let manifest = manifest
        .set(
            "points",
            JsonValue::obj()
                .set("requests", m.points.requests)
                .set("simulated", m.points.simulated)
                .set("deduplicated", m.points.deduplicated)
                .set("custom", m.points.custom),
        )
        .set(
            "experiments",
            JsonValue::Arr(m.outcomes.iter().map(ExperimentOutcome::to_json).collect()),
        )
        .set(
            "point_log",
            JsonValue::Arr(
                m.point_log
                    .iter()
                    .map(|p| {
                        JsonValue::obj()
                            .set("hash", format!("{:016x}", p.hash))
                            .set("traces", strs(&p.traces))
                            .set("combo", p.combo.as_str())
                            .set("wall_secs", round3(p.wall_secs))
                            .set("figures", strs(&p.figures))
                    })
                    .collect(),
            ),
        );
    std::fs::write(
        results_dir.join("manifest.json"),
        manifest.to_pretty_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Point;
    use crate::runner::{run_combo, RunScale};
    use ipcp_workloads::SynthTrace;

    #[test]
    fn parse_jobs_accepts_positive_counts_only() {
        assert_eq!(parse_jobs(Some("4")), Some(4));
        assert_eq!(parse_jobs(Some(" 2 ")), Some(2));
        assert_eq!(parse_jobs(Some("0")), None);
        assert_eq!(parse_jobs(Some("-3")), None);
        assert_eq!(parse_jobs(Some("many")), None);
        assert_eq!(parse_jobs(None), None);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(parallel_map(1, items.clone(), |x| x * x), expect);
        assert_eq!(parallel_map(4, items.clone(), |x| x * x), expect);
        assert_eq!(parallel_map(64, items, |x| x * x), expect);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(8, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(8, vec![7], |x| x + 1), vec![8]);
    }

    /// Tentpole invariant: fanning simulation jobs across workers yields
    /// the same reports as running them serially.
    #[test]
    fn parallel_and_serial_sim_runs_are_identical() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let scale = RunScale {
            warmup: 2_000,
            instructions: 10_000,
        };
        let jobs: Vec<(SynthTrace, &str)> = traces
            .iter()
            .take(2)
            .flat_map(|t| [(t.clone(), "none"), (t.clone(), "ipcp")])
            .collect();
        let serial = parallel_map(1, jobs.clone(), |(t, c)| run_combo(c, &t, scale));
        let fanned = parallel_map(4, jobs, |(t, c)| run_combo(c, &t, scale));
        assert_eq!(
            serial, fanned,
            "worker count must never change simulation results"
        );
    }

    /// Alone IPCs are keyed points: the pooled value equals a direct
    /// run, a second request is a pool hit, and a different core count is
    /// a different machine.
    #[test]
    fn alone_ipc_cache_matches_uncached_and_memoizes() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[0];
        let scale = RunScale {
            warmup: 2_000,
            instructions: 10_000,
        };
        let pool = PointPool::new(1);
        let direct = Point::alone("none", t, 4, scale).simulate().ipc();
        let via_pool = pool.run("f", Point::alone("none", t, 4, scale)).ipc();
        assert_eq!(direct, via_pool, "the pool must return the direct value");
        assert_eq!(pool.stats().simulated, 1);
        assert_eq!(
            pool.run("f", Point::alone("none", t, 4, scale)).ipc(),
            direct
        );
        assert_eq!(
            pool.stats().simulated,
            1,
            "second lookup is a hit, not a recompute"
        );
        let _ = pool.run("f", Point::alone("none", t, 8, scale));
        assert_eq!(pool.stats().simulated, 2);
        assert_ne!(
            Point::alone("none", t, 4, scale).key(),
            Point::single("none", t, scale, |_| {}).key(),
            "an alone run is not a plain single-core run"
        );
    }

    #[test]
    fn alone_ipc_cache_is_shareable_across_workers() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let scale = RunScale {
            warmup: 2_000,
            instructions: 10_000,
        };
        let pool = PointPool::new(2);
        let jobs: Vec<SynthTrace> = vec![traces[0].clone(); 4];
        let ipcs = parallel_map(4, jobs, |t| {
            pool.run("f", Point::alone("none", &t, 4, scale)).ipc()
        });
        assert!(ipcs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(pool.stats().simulated, 1);
    }

    fn panics(_: &mut Experiment) {
        panic!("planted failure");
    }

    /// A figure that panics fails alone: the manifest marks it, the other
    /// figures' outputs are byte-correct, and the sweep reports failure.
    #[test]
    fn panicking_figure_fails_alone() {
        let dir = std::env::temp_dir().join(format!("ipcp-harness-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = crate::figures::find("table1_storage").unwrap();
        let bad = Figure {
            name: "planted",
            run: panics,
        };
        let pool = Arc::new(PointPool::new(1));
        let out = OutputDirs {
            results: dir.clone(),
            json: Some(dir.clone()),
            csv: None,
        };
        let outcomes = run_sweep(&[&bad, good], &pool, &out);
        assert!(!outcomes[0].ok && outcomes[1].ok);
        assert_eq!(outcomes[0].error.as_deref(), Some("planted failure"));
        let summary = failure_summary(&outcomes).expect("a failure is summarized");
        assert!(summary.starts_with("FAILURE SUMMARY:") && summary.contains("planted"));
        assert!(!summary.contains("table1_storage"));
        // The good figure's outputs are the committed ones, byte for byte.
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for suffix in [".txt", ".data.json"] {
            let name = format!("table1_storage{suffix}");
            assert_eq!(
                std::fs::read(dir.join(&name)).unwrap(),
                std::fs::read(golden.join(&name)).unwrap(),
                "{name}"
            );
        }
        let text = std::fs::read_to_string(dir.join("planted.txt")).unwrap();
        assert_eq!(text, "planted panicked: planted failure\n");
        assert!(!dir.join("planted.data.json").exists());
        let manifest = SweepManifest {
            jobs: 1,
            scale: "default",
            env: &[],
            total_wall: Duration::from_secs(1),
            outcomes: &outcomes,
            points: pool.stats(),
            point_log: &pool.point_log(),
            simcache: None,
        };
        write_results_json(&dir, &manifest).unwrap();
        let m =
            JsonValue::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
        assert_eq!(m.get("failed").unwrap().as_u64(), Some(1));
        let exps = m.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(exps[0].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(exps[1].get("ok").unwrap().as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_json_round_trip_shape() {
        let dir = std::env::temp_dir().join(format!("ipcp-harness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let outcomes = vec![
            ExperimentOutcome {
                name: "fake_ok".into(),
                ok: true,
                wall: Duration::from_millis(1234),
                output_path: dir.join("fake_ok.txt"),
                data_path: Some(dir.join("fake_ok.data.json")),
                error: None,
                simcache: Some(CacheStatsSnapshot {
                    hits: 5,
                    misses: 2,
                    stores: 2,
                }),
            },
            ExperimentOutcome {
                name: "fake_bad".into(),
                ok: false,
                wall: Duration::from_millis(10),
                output_path: dir.join("fake_bad.txt"),
                data_path: None,
                error: Some("boom \"quoted\"".into()),
                simcache: Some(CacheStatsSnapshot::default()),
            },
        ];
        let env = [
            ("IPCP_SCALE", "2500,10000".to_string()),
            ("IPCP_JSON", String::new()),
        ];
        let point_log = [PointRecord {
            hash: 0xabc,
            traces: vec!["t0".into(), "t1".into()],
            combo: "ipcp".into(),
            wall_secs: 0.25,
            figures: vec!["fake_ok".into(), "fake_bad".into()],
        }];
        let manifest = SweepManifest {
            jobs: 3,
            scale: "default",
            env: &env,
            total_wall: Duration::from_secs(2),
            outcomes: &outcomes,
            points: PoolStats {
                requests: 3,
                simulated: 1,
                deduplicated: 2,
                custom: 4,
                high_water: 1,
            },
            point_log: &point_log,
            simcache: Some(CacheStatsSnapshot {
                hits: 5,
                misses: 2,
                stores: 2,
            }),
        };
        write_results_json(&dir, &manifest).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        // Substring shape of the schema-4 manifest.
        assert!(manifest.contains("\"schema\": 4"));
        assert!(manifest.contains("\"jobs\": 3"));
        assert!(manifest.contains("\"failed\": 1"));
        assert!(manifest.contains("\"name\": \"fake_ok\""));
        let per_run = std::fs::read_to_string(dir.join("fake_ok.json")).unwrap();
        assert!(per_run.contains("\"ok\": true"));
        assert!(per_run.contains("\"wall_secs\": 1.234"));
        // Structural round-trip through the shared parser: the manifest is
        // well-formed JSON carrying the expected values, escapes included.
        let m = JsonValue::parse(&manifest).unwrap();
        assert_eq!(m.get("schema").unwrap().as_u64(), Some(4));
        assert_eq!(m.get("jobs").unwrap().as_u64(), Some(3));
        assert_eq!(m.get("scale").unwrap().as_str(), Some("default"));
        assert_eq!(m.get("total_wall_secs").unwrap().as_f64(), Some(2.0));
        let agg = m.get("simcache").unwrap();
        assert_eq!(agg.get("hits").unwrap().as_u64(), Some(5));
        assert_eq!(agg.get("misses").unwrap().as_u64(), Some(2));
        let exps = m.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("name").unwrap().as_str(), Some("fake_ok"));
        let sc = exps[0].get("simcache").unwrap();
        assert_eq!(sc.get("stores").unwrap().as_u64(), Some(2));
        assert_eq!(
            exps[1]
                .get("simcache")
                .unwrap()
                .get("hits")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert_eq!(exps[0].get("wall_secs").unwrap().as_f64(), Some(1.234));
        assert!(exps[0].get("error").unwrap().is_null());
        assert!(exps[0].get("data").unwrap().as_str().is_some());
        assert_eq!(exps[1].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            exps[1].get("error").unwrap().as_str(),
            Some("boom \"quoted\"")
        );
        assert!(exps[1].get("data").is_none());
        let p = JsonValue::parse(&per_run).unwrap();
        assert_eq!(p.get("name").unwrap().as_str(), Some("fake_ok"));
        // The set knobs, once, at the top level — an explicitly empty
        // value survives as "".
        let env = m.get("env").unwrap();
        assert_eq!(env.get("IPCP_SCALE").unwrap().as_str(), Some("2500,10000"));
        assert_eq!(env.get("IPCP_JSON").unwrap().as_str(), Some(""));
        assert!(env.get("IPCP_JOBS").is_none());
        // Schema 4: pool counters and per-point provenance.
        let points = m.get("points").unwrap();
        for (key, want) in [
            ("requests", 3),
            ("simulated", 1),
            ("deduplicated", 2),
            ("custom", 4),
        ] {
            assert_eq!(points.get(key).unwrap().as_u64(), Some(want), "{key}");
        }
        let log = m.get("point_log").unwrap().as_array().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0].get("hash").unwrap().as_str(),
            Some("0000000000000abc")
        );
        assert_eq!(log[0].get("combo").unwrap().as_str(), Some("ipcp"));
        assert_eq!(log[0].get("wall_secs").unwrap().as_f64(), Some(0.25));
        let figs = log[0].get("figures").unwrap().as_array().unwrap();
        assert_eq!(figs[1].as_str(), Some("fake_bad"));
        assert_eq!(log[0].get("traces").unwrap().as_array().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
