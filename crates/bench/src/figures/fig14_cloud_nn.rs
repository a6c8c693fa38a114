//! Fig. 14 — CloudSuite (a) and CNN/RNN (b) speedups per prefetcher.
//!
//! Paper's shape: all spatial prefetchers struggle on CloudSuite
//! (temporal, not spatial, reuse — `classification` defeats everyone);
//! the NN suite is stream-dominated and IPCP leads it.

use crate::combos::TABLE3_COMBOS;
use crate::runner::Experiment;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let cloud = ipcp_workloads::cloud_suite();
    exp.speedup_comparison("Fig. 14(a): CloudSuite", &cloud, TABLE3_COMBOS);
    exp.note("paper: speedups compressed near 1.0x; classification gains nothing anywhere.");
    exp.blank();
    let nn = ipcp_workloads::nn_suite();
    exp.speedup_comparison("Fig. 14(b): CNNs/RNN", &nn, TABLE3_COMBOS);
    exp.note("paper: streaming tensor kernels: IPCP leads (up to ~2x on some nets).");
}
