//! Wakeup-scheduler regression tests (DESIGN.md §10).
//!
//! There is one cycle loop; oracle mode (`SimConfig::without_fastpaths`)
//! runs it with the fast arms off and shadow-checks every skip decision
//! against the polled machine. Four contracts pinned here:
//!
//! 1. **Watchdog**: a wedged machine (retire width 0 — nothing can ever
//!    retire) must hit the `WATCHDOG_CYCLES` deadlock panic instead of
//!    spinning forever, with the fast arms on and in oracle mode (where
//!    the shadow checks must stay quiet all the way to the watchdog). The
//!    calendar must never "sleep through" a deadlock by jumping past the
//!    watchdog horizon.
//! 2. **Idle-jump exactness**: on a latency-bound sparse stream (~100
//!    instructions per missing load, long DRAM gaps with zero actionable
//!    work) the arms-on and oracle-mode reports are byte-identical.
//! 3. **Wide machines**: a 32-core mix (more fill components than one
//!    64-bit word) runs on the same loop, exports its scheduler counters,
//!    and matches its oracle-mode run byte for byte.
//! 4. **Idle-jump accounting**: the scheduler's own telemetry
//!    (`IPCP_SCHED_STATS`) pins the exact executed/skipped cycle split at
//!    two scales. Any change to wakeup arming that silently degrades the
//!    scheduler back toward poll-everything (skipped collapses to zero)
//!    or skips a cycle the old loop executed (executed drifts) fails
//!    loudly here with the precise counters.

use std::sync::Arc;

use ipcp_bench::combos;
use ipcp_sim::{run_single, CoreSetup, SimConfig, SimReport, System, ToJson};
use ipcp_trace::{Instr, VecTrace};
use ipcp_workloads::fuzz;

/// A latency-bound (not bandwidth-bound) stream: ~100 instructions per
/// missing load, so the calendar sees long gaps with nothing due. Same
/// shape as the in-module `sparse_stream_trace` the simulator's own tests
/// use, kept local so this file stays hermetic.
fn sparse_stream_trace() -> Arc<VecTrace> {
    let mut v = Vec::new();
    let mut addr = 0x100_0000u64;
    for _ in 0..2_000u64 {
        v.push(Instr::load(0x40_0000, addr));
        for k in 0..99u64 {
            v.push(Instr::nop(0x40_0100 + (k % 16) * 4));
        }
        addr += 64;
    }
    Arc::new(VecTrace::new("sparse-stream", v))
}

fn run_sparse(cfg: SimConfig, combo: &str) -> SimReport {
    let c = combos::build(combo);
    run_single(cfg, sparse_stream_trace(), c.l1, c.l2, c.llc)
}

/// A machine that can never retire: the ROB fills, fetch stalls, every
/// queue drains, and then nothing is due ever again. The watchdog must
/// convert that silence into a panic rather than an infinite loop.
fn wedged_cfg() -> SimConfig {
    let mut cfg = SimConfig::default().with_instructions(0, 1_000);
    cfg.core.retire_width = 0;
    cfg
}

#[test]
#[should_panic(expected = "simulator deadlock: no retirement since cycle")]
fn watchdog_fires_on_wedged_machine_fast() {
    run_sparse(wedged_cfg(), "ipcp");
}

#[test]
#[should_panic(expected = "simulator deadlock: no retirement since cycle")]
fn watchdog_fires_on_wedged_machine_naive() {
    run_sparse(wedged_cfg().without_fastpaths(), "ipcp");
}

/// Fast arms on vs oracle mode (arms off, shadow checks on) on the sparse
/// stream: byte-identical reports. The `sched` object is stripped before
/// comparing because another test thread may set `IPCP_SCHED_STATS`
/// between the two runs.
#[test]
fn sparse_stream_fast_matches_naive() {
    for (warmup, instructions) in [(5_000u64, 20_000u64), (20_000, 80_000)] {
        let cfg = SimConfig::default().with_instructions(warmup, instructions);
        let mut fast = run_sparse(cfg.clone(), "ipcp");
        let mut naive = run_sparse(cfg.without_fastpaths(), "ipcp");
        fast.sched = None;
        naive.sched = None;
        assert_eq!(
            fast.to_json().to_pretty_string(),
            naive.to_json().to_pretty_string(),
            "sparse stream at {warmup}+{instructions}: the fast arms drifted from \
             oracle mode"
        );
    }
}

/// A 32-core mix of fuzz-corpus traces under IPCP at tiny scale: 97 fill
/// components and prefetch queues, past one 64-bit word. The scheduler
/// counters must be exported, and the arms-on and oracle-mode reports
/// (counters included) must be byte-identical.
#[test]
fn wide_mix_runs_on_the_one_loop() {
    // Safety: process-global env write, same value as the pin test below.
    std::env::set_var("IPCP_SCHED_STATS", "1");
    const CORES: usize = 32;
    let traces = fuzz::corpus(0xc0ffee, 1);
    let run = |cfg: SimConfig| {
        let setups = (0..CORES)
            .map(|i| {
                let c = combos::build("ipcp");
                CoreSetup::new(traces[i % traces.len()].handle(), c.l1, c.l2)
            })
            .collect();
        System::new(cfg, setups, combos::build("ipcp").llc).run()
    };
    let cfg = SimConfig::multicore(CORES as u32).with_instructions(20, 100);
    let fast = run(cfg.clone());
    let oracle = run(cfg.without_fastpaths());
    let st = fast
        .sched
        .expect("IPCP_SCHED_STATS is set and the wakeup scheduler ran");
    assert!(st.executed_cycles > 0 && st.wakeups_fired > 0);
    assert_eq!(
        fast.to_json().to_pretty_string(),
        oracle.to_json().to_pretty_string(),
        "32-core mix: the fast arms drifted from oracle mode"
    );
}

/// Pins the exact idle-jump split on the sparse stream at two scales,
/// with prefetching off so every load pays full DRAM latency and the
/// calendar sees the longest possible gaps.
/// `executed + skipped == cycles` must hold (every simulated cycle is
/// either touched or provably idle), and the constants below pin which.
/// On failure the assert message carries the observed counters — update
/// the table only alongside an intentional scheduler change (the golden
/// byte-diff and `scheduler_determinism` gates prove report bytes moved
/// or did not).
#[test]
fn sparse_stream_pins_idle_jump_accounting() {
    // Safety: process-global env write. Fine here because every other test
    // in this binary either sets the same value, strips `report.sched`
    // before comparing, or never reads it, so concurrent test threads
    // cannot observe a flip mid-comparison.
    std::env::set_var("IPCP_SCHED_STATS", "1");
    const GOLDEN: [(u64, u64, u64, u64); 2] = [
        // (warmup, instructions, expected executed, expected skipped)
        (5_000, 20_000, 6_585, 5_444),
        (20_000, 80_000, 26_109, 21_272),
    ];
    for (warmup, instructions, want_executed, want_skipped) in GOLDEN {
        let cfg = SimConfig::default().with_instructions(warmup, instructions);
        let report = run_sparse(cfg, "none");
        let st = report.sched.expect("IPCP_SCHED_STATS is set");
        // executed + skipped covers the whole run (warmup included), so it
        // can only exceed the measured-window cycle count.
        assert!(
            st.executed_cycles + st.skipped_cycles >= report.cycles,
            "executed ({}) + skipped ({}) cannot undercount measured cycles ({})",
            st.executed_cycles,
            st.skipped_cycles,
            report.cycles
        );
        assert!(
            st.skipped_cycles > report.cycles / 2,
            "a latency-bound stream must be mostly idle jumps: skipped {} of {}",
            st.skipped_cycles,
            report.cycles
        );
        assert!(st.wakeups_fired > 0 && st.heap_peak > 0);
        assert_eq!(
            (st.executed_cycles, st.skipped_cycles),
            (want_executed, want_skipped),
            "sparse stream at {warmup}+{instructions}: idle-jump split drifted \
             (got executed={} skipped={}); update GOLDEN only with an intentional \
             scheduler change",
            st.executed_cycles,
            st.skipped_cycles
        );
    }
}
