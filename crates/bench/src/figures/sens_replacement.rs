//! Section VI-C — Sensitivity to the LLC replacement policy.
//!
//! Paper's shape: IPCP moves by <1% across policies.

use crate::runner::{geomean, trace_major, Cell, Experiment, Table};
use ipcp_sim::ReplacementKind;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: LLC replacement policy (IPCP geomean speedup)",
        &["policy", "speedup"],
    );
    let cases = [
        ("LRU (default)", ReplacementKind::Lru),
        ("SRRIP", ReplacementKind::Srrip),
        ("DRRIP", ReplacementKind::Drrip),
        ("SHiP-lite", ReplacementKind::Ship),
        ("Random", ReplacementKind::Random),
    ];
    let runs = trace_major(&traces, &cases, |&(_, kind), t| {
        let tweak = |cfg: &mut ipcp_sim::SimConfig| {
            cfg.llc.replacement = kind;
        };
        (
            exp.submit_combo_with("none", t, tweak),
            exp.submit_combo_with("ipcp", t, tweak),
        )
    });
    for ((label, _), runs) in cases.into_iter().zip(runs) {
        let mut speeds = Vec::new();
        for (base, r) in runs {
            let base = exp.take(base).ipc();
            speeds.push(exp.take(r).ipc() / base);
        }
        table.row(vec![Cell::text(label), Cell::f3(geomean(&speeds))]);
    }
    exp.table(table);
    exp.note("paper: IPCP is resilient — less than 1% difference across policies.");
}
