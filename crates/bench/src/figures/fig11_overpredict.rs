//! Fig. 11 — Covered, uncovered, and over-predicted L1 demand misses under
//! IPCP.
//!
//! Paper's shape: most traces mostly covered; mcf/omnetpp-like traces
//! mostly uncovered; over-prediction visible where GS trades accuracy for
//! coverage.

use crate::runner::{Cell, Experiment, Table};
use ipcp_trace::TraceSource;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Fig. 11: IPCP at L1 — covered / uncovered / over-predicted",
        &["trace", "base misses", "covered", "uncovered", "overpred"],
    );
    let runs: Vec<_> = traces
        .iter()
        .map(|t| (exp.submit_baseline(t), exp.submit_combo("ipcp", t)))
        .collect();
    for (t, (base, run)) in traces.iter().zip(runs) {
        let base_misses = exp.take(base).cores[0].l1d.demand_misses;
        let r = exp.take(run);
        let l1 = &r.cores[0].l1d;
        let covered = l1.useful_prefetch_hits;
        let uncovered = l1.demand_misses.saturating_sub(l1.late_prefetch_hits);
        let over = l1.pf_useless_evicted;
        let denom = (covered + uncovered).max(1) as f64;
        table.row(vec![
            Cell::text(t.name()),
            Cell::int(base_misses),
            Cell::pct(100.0 * covered as f64 / denom, 0),
            Cell::pct(100.0 * uncovered as f64 / denom, 0),
            Cell::pct(100.0 * over as f64 / denom, 0),
        ]);
    }
    exp.table(table);
    exp.note("paper: coverage dominates except for irregular traces; over-prediction");
    exp.note("       concentrated where the GS class trades accuracy for timeliness.");
}
