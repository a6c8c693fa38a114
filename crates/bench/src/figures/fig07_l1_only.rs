//! Fig. 7 — L1-only prefetcher shoot-out on the memory-intensive suite
//! (L2 and LLC prefetchers off).
//!
//! Paper's shape: IPCP outperforms every contender except Bingo-119KB
//! (which needs 160× the storage); SPP/VLDP underperform at the L1 because
//! they are designed for the L2's access stream.

use crate::combos::FIG7_COMBOS;
use crate::runner::Experiment;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    exp.speedup_comparison("Fig. 7: L1-only prefetchers", &traces, FIG7_COMBOS);
    exp.note("paper: IPCP best-or-second (Bingo-119KB comparable at 160x the storage);");
    exp.note("       SPP at L1 clearly below its L2 reputation.");
}
