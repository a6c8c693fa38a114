//! Section VI-C — Sensitivity to L1-D PQ/MSHR capacity: (2,4), (4,8),
//! (8,16) default, (16,32).
//!
//! Paper's shape: (2,4) loses ~2.7% on average (high-MLP traces hit
//! hardest); (16,32) gains little — the default is near the knee.

use crate::runner::{geomean, trace_major, Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: L1-D PQ/MSHR entries (IPCP geomean speedup)",
        &["resources", "speedup"],
    );
    let cases = [(2u32, 4u32), (4, 8), (8, 16), (16, 32)];
    let runs = trace_major(&traces, &cases, |&(pq, mshr), t| {
        let tweak = |cfg: &mut ipcp_sim::SimConfig| {
            cfg.l1d.pq_entries = pq;
            cfg.l1d.mshr_entries = mshr;
        };
        (
            exp.submit_combo_with("none", t, tweak),
            exp.submit_combo_with("ipcp", t, tweak),
        )
    });
    for ((pq, mshr), runs) in cases.into_iter().zip(runs) {
        let mut speeds = Vec::new();
        for (base, r) in runs {
            let base = exp.take(base).ipc();
            speeds.push(exp.take(r).ipc() / base);
        }
        table.row(vec![
            Cell::text(format!("PQ {pq}, MSHR {mshr}")),
            Cell::f3(geomean(&speeds)),
        ]);
    }
    exp.table(table);
    exp.note("paper: (2,4) drops ~2.7% vs the (8,16) default; beyond it, marginal.");
}
