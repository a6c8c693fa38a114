//! Fig. 1 — Utility of L1-D prefetching: the same prefetcher placed at the
//! L2, trained at L1 but filling only to L2, and fully at the L1.
//!
//! Paper's shape: L1 placement gives ~6–13% average speedup over L2
//! placement; train-at-L1/fill-to-L2 narrows the gap to 3–7%; only one
//! trace prefers L2 placement, and only marginally.

use crate::runner::{geomean, trace_major, Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Fig. 1: utility of L1-D prefetching (geomean speedups, memory-intensive suite)",
        &["prefetcher", "at L2", "train L1, fill L2", "at L1"],
    );
    let pfs = ["ip-stride", "mlop", "bingo"];
    let runs = trace_major(&traces, &pfs, |pf, t| {
        // bingo's L1 registry name is l1-bingo48; the others match l1-<pf>.
        let l1_name = if *pf == "bingo" {
            "l1-bingo48".to_string()
        } else {
            format!("l1-{pf}")
        };
        let variants = [format!("l2-{pf}"), format!("l1fill2-{pf}"), l1_name];
        (
            exp.submit_baseline(t),
            variants.map(|name| exp.submit_combo(&name, t)),
        )
    });
    for (pf, runs) in pfs.into_iter().zip(runs) {
        let mut speeds = [Vec::new(), Vec::new(), Vec::new()];
        for (base, variants) in runs {
            let base = exp.take(base).ipc();
            for (i, run) in variants.into_iter().enumerate() {
                speeds[i].push(exp.take(run).ipc() / base);
            }
        }
        table.row(vec![
            Cell::text(pf),
            Cell::f3(geomean(&speeds[0])),
            Cell::f3(geomean(&speeds[1])),
            Cell::f3(geomean(&speeds[2])),
        ]);
    }
    exp.table(table);
    exp.note("paper: at-L1 beats at-L2 by 6–13 percentage points on average;");
    exp.note("       train-L1/fill-L2 closes the gap to 3–7 points.");
}
