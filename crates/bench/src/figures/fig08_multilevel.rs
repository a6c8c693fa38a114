//! Fig. 8 — Multi-level prefetching: per-trace speedups of the Table III
//! combinations, plus the full-suite average.
//!
//! Paper's shape: IPCP 45.1% average on memory-intensive traces vs ≤42.5%
//! for the rest; on the full suite 22% vs 18.2–18.8%.

use crate::combos::TABLE3_COMBOS;
use crate::runner::Experiment;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let intensive = ipcp_workloads::memory_intensive_suite();
    exp.speedup_comparison(
        "Fig. 8 (top): memory-intensive traces",
        &intensive,
        TABLE3_COMBOS,
    );
    exp.blank();
    let full = ipcp_workloads::full_suite();
    exp.speedup_comparison("Fig. 8 (bottom): full suite", &full, TABLE3_COMBOS);
    exp.note("paper: IPCP leads both averages (45.1% intensive / 22% full),");
    exp.note("       with the top three rivals within a few points of each other.");
}
