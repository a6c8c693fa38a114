//! The process-wide point pool: every simulation a figure asks for runs
//! here, on exactly `jobs` worker threads.
//!
//! A [`Point`] is one keyed simulation — traces (one per core), a named
//! prefetcher combo and the effective [`SimConfig`] — and its key is
//! [`simcache::cache_key`]. The pool keeps one result cell per key for
//! the life of the process, so a second request for a key (from the same
//! figure or another) waits for the first simulation instead of repeating
//! it, and every caller gets the same `Arc<SimReport>`. On a miss the
//! optional disk [`simcache`] still sits behind the pool. Custom runs
//! (boxed prefetchers, [`PointPool::submit_custom`]) have no content key:
//! they are never deduplicated, but they run on the same workers.
//!
//! **Thread bound.** Callers (the figure threads) only submit and wait;
//! the `jobs` workers are the only threads that simulate, so nested
//! fan-outs ([`PointPool::run_batch`]) never run more than `jobs`
//! simulations at once. [`PoolStats::high_water`] records the most that
//! ever ran together.
//!
//! **Trace residency.** A point runs on a pool-owned view of each trace
//! ([`SynthTrace::fresh`]: same generator, empty memo). The pool holds
//! that view only while a queued or running point uses the trace's name;
//! when the last one finishes the view, and its memo, are dropped. A
//! trace needed again later is regenerated (11–14 ms per 520k
//! instructions at default scale), so no process holds a whole suite's
//! memo for a figure's lifetime.
//!
//! **Trace identity.** Deduplication trusts trace *names*, so the first
//! request under a name records a digest of that trace's first
//! [`DIGEST_INSTRS`] instructions, and every later request under the name
//! must match it; a mismatch panics in the requesting figure, naming both
//! figures.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use ipcp_sim::prefetch::Prefetcher;
use ipcp_sim::{run_single, CoreSetup, SimConfig, SimReport, System};
use ipcp_trace::{MemOp, TraceSource};
use ipcp_workloads::SynthTrace;

use crate::combos;
use crate::runner::{sample_interval_from_env, RunScale};
use crate::simcache::{self, CacheStatsSnapshot};
use crate::store::fnv1a_64_bytes;

/// Instructions of a trace hashed into its identity digest.
pub const DIGEST_INSTRS: usize = 4096;

/// One keyed simulation: one trace per core, a named combo (built afresh
/// for every core), and the effective config.
#[derive(Debug, Clone)]
pub struct Point {
    /// Core `i` runs `traces[i]`.
    pub traces: Vec<SynthTrace>,
    /// A [`combos::build`] name.
    pub combo: String,
    /// The effective configuration (part of the key).
    pub cfg: SimConfig,
}

impl Point {
    /// A single-core run at `scale` with the interval sampler from
    /// `IPCP_INTERVAL`, then `tweak` applied (so a tweak can override it).
    pub fn single(
        combo: &str,
        trace: &SynthTrace,
        scale: RunScale,
        tweak: impl FnOnce(&mut SimConfig),
    ) -> Self {
        let mut cfg = SimConfig::default().with_instructions(scale.warmup, scale.instructions);
        cfg.sample_interval = sample_interval_from_env();
        tweak(&mut cfg);
        Self {
            traces: vec![trace.clone()],
            combo: combo.to_string(),
            cfg,
        }
    }

    /// The "alone" run behind Section VI's weighted speedup: "IPC_alone(i)
    /// is the IPC of core i when it runs alone on [the] N-core system" —
    /// one core, but the `cores`-core LLC capacity and DRAM.
    pub fn alone(combo: &str, trace: &SynthTrace, cores: u32, scale: RunScale) -> Self {
        let mut cfg =
            SimConfig::multicore(cores).with_instructions(scale.warmup, scale.instructions);
        cfg.cores = 1;
        cfg.llc.size_bytes *= u64::from(cores);
        Self {
            traces: vec![trace.clone()],
            combo: combo.to_string(),
            cfg,
        }
    }

    /// A multi-programmed mix, one trace per core, under one combo.
    pub fn mix(combo: &str, traces: &[SynthTrace], scale: RunScale) -> Self {
        Self {
            traces: traces.to_vec(),
            combo: combo.to_string(),
            cfg: SimConfig::multicore(traces.len() as u32)
                .with_instructions(scale.warmup, scale.instructions),
        }
    }

    fn names(&self) -> Vec<&str> {
        self.traces.iter().map(TraceSource::name).collect()
    }

    /// The point's key ([`simcache::cache_key`]).
    pub fn key(&self) -> String {
        simcache::cache_key(&self.names(), &self.combo, &self.cfg)
    }

    /// Runs the point on the calling thread, through the disk cache when
    /// it is on.
    pub fn simulate(&self) -> SimReport {
        self.simulate_counted().0
    }

    fn simulate_counted(&self) -> (SimReport, CacheStatsSnapshot) {
        simcache::get_or_run(&self.names(), &self.combo, &self.cfg, || {
            let setups = self
                .traces
                .iter()
                .map(|t| {
                    let c = combos::build(&self.combo);
                    CoreSetup::new(t.handle(), c.l1, c.l2).with_l1i_prefetcher(c.l1i)
                })
                .collect();
            System::new(self.cfg.clone(), setups, combos::build(&self.combo).llc).run()
        })
    }
}

/// The identity digest of a trace: FNV-1a over the (ip, kind, vaddr) of
/// its first [`DIGEST_INSTRS`] instructions.
pub fn trace_digest(trace: &SynthTrace) -> u64 {
    let mut bytes = Vec::with_capacity(DIGEST_INSTRS * 17);
    for instr in trace.stream().take(DIGEST_INSTRS) {
        let (kind, addr) = match instr.mem {
            MemOp::None => (ipcp_trace::KIND_NONE, 0),
            MemOp::Load(a) => (ipcp_trace::KIND_LOAD, a.raw()),
            MemOp::Store(a) => (ipcp_trace::KIND_STORE, a.raw()),
        };
        bytes.extend_from_slice(&instr.ip.raw().to_le_bytes());
        bytes.push(kind);
        bytes.extend_from_slice(&addr.to_le_bytes());
    }
    fnv1a_64_bytes(&bytes)
}

/// Request counters of a pool. `requests == simulated + deduplicated`
/// counts keyed points; custom runs are counted apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Keyed point requests.
    pub requests: u64,
    /// Distinct keys run (simulated, or loaded from the disk cache).
    pub simulated: u64,
    /// Requests answered by a key already queued, running or done.
    pub deduplicated: u64,
    /// Custom (unkeyed) runs.
    pub custom: u64,
    /// The most simulations that ever ran at once.
    pub high_water: usize,
}

/// Provenance of one distinct keyed point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// [`crate::store::fnv1a_64`] of the key (also the disk-cache entry
    /// name).
    pub hash: u64,
    /// Trace names, one per core.
    pub traces: Vec<String>,
    /// The combo name.
    pub combo: String,
    /// Worker seconds spent on the point (0 until it finishes).
    pub wall_secs: f64,
    /// Every figure that asked for it, in first-request order.
    pub figures: Vec<String>,
}

type Outcome = Result<Arc<SimReport>, String>;

/// A submitted point's result, not yet waited for.
#[must_use = "a submitted point is only useful once waited for"]
pub struct Pending(Arc<Slot>);

impl Pending {
    /// Blocks until the point has run. A simulation that panicked panics
    /// here too, in the waiting figure.
    pub fn wait(&self) -> Arc<SimReport> {
        self.0.wait()
    }
}

/// A result cell: filled once by a worker, awaited by any number of
/// requesters.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Outcome>>,
    filled: Condvar,
}

impl Slot {
    fn fill(&self, outcome: Outcome) {
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.filled.notify_all();
    }

    fn wait(&self) -> Arc<SimReport> {
        let mut guard = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*guard {
                Some(Ok(report)) => return Arc::clone(report),
                Some(Err(msg)) => panic!("{msg}"),
                None => {
                    guard = self
                        .filled
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// A simulation over the pool's trace views, one per core, returning the
/// report and the disk-cache counters it caused.
type Run = Box<dyn FnOnce(&[SynthTrace]) -> (SimReport, CacheStatsSnapshot) + Send>;

struct Task {
    figure: String,
    /// The pool's views of the task's traces, one per core.
    views: Vec<SynthTrace>,
    /// The point-log entry of a keyed point (`None` for a custom run).
    entry: Option<usize>,
    run: Run,
    slot: Arc<Slot>,
}

struct TraceEntry {
    digest: u64,
    first_figure: String,
    /// The pool's memo-backed view, held while `users > 0`.
    view: Option<SynthTrace>,
    /// Queued or running points using this trace (per core).
    users: usize,
}

struct Entry {
    record: PointRecord,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct State {
    /// Queued tasks. A worker first drains the queued tasks on the trace
    /// it just ran: a trace's points then run back to back, its memo is
    /// built once, and only about one memo per worker is resident however
    /// many figures queue work on the same suite. Otherwise it serves the
    /// figure with the fewest queued tasks, so short figures finish early
    /// instead of waiting behind long ones.
    queue: VecDeque<Task>,
    by_key: HashMap<String, usize>,
    log: Vec<Entry>,
    traces: HashMap<String, TraceEntry>,
    stats: PoolStats,
    running: usize,
    cache_by_figure: HashMap<String, CacheStatsSnapshot>,
    shutdown: bool,
}

impl State {
    /// Records or checks each trace's identity digest.
    fn check_identity(
        &mut self,
        figure: &str,
        traces: &[(&SynthTrace, u64)],
    ) -> Result<(), String> {
        for &(trace, digest) in traces {
            let entry = self
                .traces
                .entry(trace.name().to_string())
                .or_insert_with(|| TraceEntry {
                    digest,
                    first_figure: figure.to_string(),
                    view: None,
                    users: 0,
                });
            if entry.digest != digest {
                return Err(format!(
                    "trace identity: {figure} requested trace {:?} whose first {DIGEST_INSTRS} \
                     instructions (digest {digest:016x}) differ from the trace {} first \
                     requested under that name (digest {:016x})",
                    trace.name(),
                    entry.first_figure,
                    entry.digest
                ));
            }
        }
        Ok(())
    }

    /// Queues `run` on the pool's views of `traces`, each view taken by
    /// one more user.
    fn enqueue(
        &mut self,
        figure: &str,
        traces: &[SynthTrace],
        entry: Option<usize>,
        run: Run,
    ) -> Arc<Slot> {
        let views = traces
            .iter()
            .map(|t| {
                let e = self
                    .traces
                    .get_mut(t.name())
                    .expect("identity checked first");
                e.users += 1;
                e.view.get_or_insert_with(|| t.fresh()).clone()
            })
            .collect();
        let slot = Arc::new(Slot::default());
        self.queue.push_back(Task {
            figure: figure.to_string(),
            views,
            entry,
            run,
            slot: Arc::clone(&slot),
        });
        slot
    }

    /// Gives back the views a finished task took; a view nobody uses any
    /// more is dropped with its memo.
    fn release(&mut self, names: &[String]) {
        for name in names {
            let entry = self.traces.get_mut(name).expect("released trace is known");
            entry.users -= 1;
            if entry.users == 0 {
                entry.view = None;
            }
        }
    }
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The pool: `jobs` simulation workers behind one keyed result table.
/// Dropping it finishes the queued work and joins the workers.
pub struct PointPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl PointPool {
    /// A pool with `jobs` (at least one) simulation workers.
    pub fn new(jobs: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
        });
        let workers = (0..jobs.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sim-{i}"))
                    .spawn(move || work(&shared))
                    .expect("cannot spawn a simulation worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Runs one keyed point for `figure` (or joins the run already made
    /// for its key) and waits for the report.
    pub fn run(&self, figure: &str, point: Point) -> Arc<SimReport> {
        self.submit(figure, point).wait()
    }

    /// Submits every point first, then waits for each: the batch fans out
    /// over the workers. Reports come back in input order.
    pub fn run_batch(&self, figure: &str, points: Vec<Point>) -> Vec<Arc<SimReport>> {
        let pending: Vec<Pending> = points.into_iter().map(|p| self.submit(figure, p)).collect();
        pending.iter().map(Pending::wait).collect()
    }

    /// Queues explicitly constructed prefetchers (L1-D, L2, LLC) on one
    /// trace, to run on a worker. Never deduplicated: boxed prefetchers
    /// have no content key.
    pub fn submit_custom(
        &self,
        figure: &str,
        trace: &SynthTrace,
        cfg: SimConfig,
        prefetchers: [Box<dyn Prefetcher>; 3],
    ) -> Pending {
        let mut st = self.lock_checked(figure, std::slice::from_ref(trace));
        st.stats.custom += 1;
        let [l1, l2, llc] = prefetchers;
        let run: Run = Box::new(move |views| {
            let report = run_single(cfg, views[0].handle(), l1, l2, llc);
            (report, CacheStatsSnapshot::default())
        });
        let slot = st.enqueue(figure, std::slice::from_ref(trace), None, run);
        drop(st);
        self.shared.work.notify_one();
        Pending(slot)
    }

    /// Locks the pool state after checking the identity of `traces`
    /// (digests are taken before locking); a mismatch panics here, in
    /// the requesting figure, with the lock released.
    fn lock_checked(&self, figure: &str, traces: &[SynthTrace]) -> MutexGuard<'_, State> {
        let digests: Vec<(&SynthTrace, u64)> =
            traces.iter().map(|t| (t, trace_digest(t))).collect();
        let mut st = self.shared.lock();
        if let Err(msg) = st.check_identity(figure, &digests) {
            drop(st);
            panic!("{msg}");
        }
        st
    }

    /// Requests one keyed point for `figure` without waiting: it joins the
    /// run already made (or queued) for its key, or queues a new one.
    pub fn submit(&self, figure: &str, point: Point) -> Pending {
        let key = point.key();
        let mut st = self.lock_checked(figure, &point.traces);
        st.stats.requests += 1;
        if let Some(&i) = st.by_key.get(&key) {
            st.stats.deduplicated += 1;
            let entry = &mut st.log[i];
            if !entry.record.figures.iter().any(|f| f == figure) {
                entry.record.figures.push(figure.to_string());
            }
            return Pending(Arc::clone(&entry.slot));
        }
        st.stats.simulated += 1;
        let entry = st.log.len();
        let record = PointRecord {
            hash: crate::store::fnv1a_64(&key),
            traces: point.names().iter().map(|n| n.to_string()).collect(),
            combo: point.combo.clone(),
            wall_secs: 0.0,
            figures: vec![figure.to_string()],
        };
        let traces = point.traces.clone();
        let run: Run = Box::new(move |views| {
            let point = Point {
                traces: views.to_vec(),
                ..point
            };
            point.simulate_counted()
        });
        let slot = st.enqueue(figure, &traces, Some(entry), run);
        st.log.push(Entry {
            record,
            slot: Arc::clone(&slot),
        });
        st.by_key.insert(key, entry);
        drop(st);
        self.shared.work.notify_one();
        Pending(slot)
    }

    /// The request counters so far.
    pub fn stats(&self) -> PoolStats {
        self.shared.lock().stats
    }

    /// One record per distinct keyed point, in first-request order.
    pub fn point_log(&self) -> Vec<PointRecord> {
        self.shared
            .lock()
            .log
            .iter()
            .map(|e| e.record.clone())
            .collect()
    }

    /// The disk-cache counters of the lookups `figure`'s requests caused.
    pub fn simcache_for(&self, figure: &str) -> CacheStatsSnapshot {
        self.shared
            .lock()
            .cache_by_figure
            .get(figure)
            .copied()
            .unwrap_or_default()
    }
}

impl Drop for PointPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A worker: pops tasks until the pool shuts down and the queue is empty.
fn work(shared: &Shared) {
    let mut last_trace = String::new();
    loop {
        let task = {
            let mut st = shared.lock();
            loop {
                let next = st
                    .queue
                    .iter()
                    .position(|t| t.views[0].name() == last_trace)
                    .or_else(|| fewest_queued_first(&st.queue));
                if let Some(task) = next.and_then(|i| st.queue.remove(i)) {
                    st.running += 1;
                    st.stats.high_water = st.stats.high_water.max(st.running);
                    break task;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Task {
            figure,
            views,
            entry,
            run,
            slot,
        } = task;
        let names: Vec<String> = views.iter().map(|v| v.name().to_string()).collect();
        last_trace.clone_from(&names[0]);
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run(&views)));
        drop(views);
        let wall_secs = started.elapsed().as_secs_f64();
        let outcome = {
            let mut st = shared.lock();
            st.running -= 1;
            st.release(&names);
            if let Some(i) = entry {
                st.log[i].record.wall_secs = wall_secs;
            }
            match result {
                Ok((report, cache)) => {
                    let c = st.cache_by_figure.entry(figure).or_default();
                    c.hits += cache.hits;
                    c.misses += cache.misses;
                    c.stores += cache.stores;
                    Ok(Arc::new(report))
                }
                Err(payload) => Err(format!(
                    "simulation of {names:?} failed: {}",
                    panic_message(payload.as_ref())
                )),
            }
        };
        slot.fill(outcome);
    }
}

/// The first queued task of the figure with the fewest queued tasks.
fn fewest_queued_first(queue: &VecDeque<Task>) -> Option<usize> {
    let mut queued: HashMap<&str, usize> = HashMap::new();
    for t in queue {
        *queued.entry(&t.figure).or_default() += 1;
    }
    (0..queue.len()).min_by_key(|&i| queued[queue[i].figure.as_str()])
}

/// The text of a panic payload (`&str` or `String`), or a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::runner::Experiment;
    use ipcp_workloads::gen::constant_stride;

    const SCALE: RunScale = RunScale {
        warmup: 1_000,
        instructions: 5_000,
    };

    fn point(combo: &str, trace: &SynthTrace) -> Point {
        Point::single(combo, trace, SCALE, |_| {})
    }

    #[test]
    fn concurrent_requests_for_one_key_simulate_once() {
        let pool = PointPool::new(2);
        let trace = ipcp_workloads::memory_intensive_suite().remove(0);
        let n = 6;
        let start = Barrier::new(n);
        let reports: Vec<Arc<SimReport>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let (pool, trace, start) = (&pool, &trace, &start);
                    s.spawn(move || {
                        start.wait();
                        pool.run(&format!("fig{i}"), point("ipcp", trace))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(reports.iter().all(|r| Arc::ptr_eq(r, &reports[0])));
        let stats = pool.stats();
        assert_eq!((stats.requests, stats.simulated), (n as u64, 1));
        assert_eq!(stats.deduplicated, n as u64 - 1);
        let log = pool.point_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].figures.len(), n, "every asking figure is credited");
        assert_eq!(
            *reports[0],
            point("ipcp", &trace).simulate(),
            "pooled = direct"
        );
    }

    /// Nested fan-outs from several figures at once still run at most
    /// `jobs` simulations together.
    #[test]
    fn nested_fan_outs_never_exceed_jobs() {
        let pool = Arc::new(PointPool::new(2));
        let traces: Vec<SynthTrace> = ipcp_workloads::memory_intensive_suite()
            .into_iter()
            .take(3)
            .collect();
        std::thread::scope(|s| {
            for fig in ["fig_a", "fig_b", "fig_c"] {
                let (pool, traces) = (&pool, &traces);
                s.spawn(move || {
                    let mut exp = Experiment::with_scale(fig, SCALE, Arc::clone(pool));
                    exp.speedup_comparison("t", traces, &["ipcp", "mlop"]);
                    let custom = exp.submit_custom(
                        "custom",
                        &traces[0],
                        Box::new(ipcp_sim::prefetch::NoPrefetcher),
                        Box::new(ipcp_sim::prefetch::NoPrefetcher),
                        Box::new(ipcp_sim::prefetch::NoPrefetcher),
                    );
                    exp.take(custom);
                });
            }
        });
        let stats = pool.stats();
        assert!(
            (1..=2).contains(&stats.high_water),
            "high water {} with 2 workers",
            stats.high_water
        );
        assert_eq!(stats.requests, 3 * 9);
        assert_eq!(stats.simulated, 9, "three figures, one set of points");
        assert_eq!(stats.custom, 3, "custom runs are never deduplicated");
    }

    fn panic_text(f: impl FnOnce()) -> Option<String> {
        catch_unwind(AssertUnwindSafe(f))
            .err()
            .map(|p| panic_message(p.as_ref()))
    }

    #[test]
    fn one_name_for_two_generators_trips_the_identity_guard() {
        let pool = PointPool::new(1);
        let a = constant_stride("same-name", 2, 3, 2, 1 << 16, 1);
        let b = constant_stride("same-name", 3, 3, 2, 1 << 16, 1);
        pool.run("fig_first", point("none", &a));
        let msg = panic_text(|| {
            pool.run("fig_second", point("none", &b));
        })
        .expect("a different generator under a known name must panic");
        assert!(
            msg.contains("fig_first") && msg.contains("fig_second") && msg.contains("same-name"),
            "{msg}"
        );
        let msg = panic_text(|| {
            let _ = pool.submit_custom(
                "fig_third",
                &b,
                SimConfig::default(),
                [
                    Box::new(ipcp_sim::prefetch::NoPrefetcher),
                    Box::new(ipcp_sim::prefetch::NoPrefetcher),
                    Box::new(ipcp_sim::prefetch::NoPrefetcher),
                ],
            );
        })
        .expect("custom runs are guarded too");
        assert!(
            msg.contains("fig_third") && msg.contains("fig_first"),
            "{msg}"
        );
        // The pool still serves the rightful trace afterwards.
        pool.run("fig_second", point("none", &a));
        assert_eq!(pool.stats().simulated, 1);
    }

    #[test]
    fn one_generator_from_two_figures_passes_the_identity_guard() {
        let pool = PointPool::new(1);
        // Two figures build their own suites: distinct allocations, same
        // generators.
        let first = ipcp_workloads::memory_intensive_suite().remove(0);
        let second = ipcp_workloads::memory_intensive_suite().remove(0);
        assert!(!first.ptr_eq(&second));
        let a = pool.run("fig_a", point("none", &first));
        let b = pool.run("fig_b", point("none", &second));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(trace_digest(&first), trace_digest(&second));
        assert_ne!(
            trace_digest(&first),
            trace_digest(&ipcp_workloads::memory_intensive_suite().remove(1))
        );
    }

    /// The pool's view of a trace, and with it the memo, lives only while
    /// a queued or running point uses it.
    #[test]
    fn trace_views_are_dropped_when_no_point_uses_them() {
        let pool = PointPool::new(1);
        let trace = ipcp_workloads::memory_intensive_suite().remove(0);
        let pending = pool.submit("f", point("none", &trace));
        pending.wait();
        let st = pool.shared.lock();
        let entry = &st.traces[trace.name()];
        assert_eq!(entry.users, 0);
        assert!(entry.view.is_none(), "an idle trace keeps no memo");
    }
}
