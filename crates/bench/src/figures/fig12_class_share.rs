//! Fig. 12 — Contribution of each IPCP class (GS/CS/CPLX/NL) to L1
//! prefetch coverage.
//!
//! Paper's shape: CS contributes ~46.7% and GS ~30% of covered misses on
//! average; CPLX and NL pick up complex/irregular traces (mcf-like).

use crate::runner::{Cell, Experiment, Table};
use ipcp_trace::TraceSource;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Fig. 12: class share of IPCP's L1 coverage",
        &["trace", "GS", "CS", "CPLX", "NL"],
    );
    let mut totals = [0u64; 4];
    let runs: Vec<_> = traces.iter().map(|t| exp.submit_combo("ipcp", t)).collect();
    for (t, run) in traces.iter().zip(runs) {
        let r = exp.take(run);
        let u = r.cores[0].l1d.useful_by_class; // [NL, CS, CPLX, GS]
        for i in 0..4 {
            totals[i] += u[i];
        }
        let sum = u.iter().sum::<u64>().max(1) as f64;
        table.row(vec![
            Cell::text(t.name()),
            Cell::pct(100.0 * u[3] as f64 / sum, 0),
            Cell::pct(100.0 * u[1] as f64 / sum, 0),
            Cell::pct(100.0 * u[2] as f64 / sum, 0),
            Cell::pct(100.0 * u[0] as f64 / sum, 0),
        ]);
    }
    let sum = totals.iter().sum::<u64>().max(1) as f64;
    table.row(vec![
        Cell::text("OVERALL"),
        Cell::pct(100.0 * totals[3] as f64 / sum, 0),
        Cell::pct(100.0 * totals[1] as f64 / sum, 0),
        Cell::pct(100.0 * totals[2] as f64 / sum, 0),
        Cell::pct(100.0 * totals[0] as f64 / sum, 0),
    ]);
    exp.table(table);
    exp.note("paper: CS ~46.7% and GS ~30% overall; CPLX covers mcf-like complex strides;");
    exp.note("       NL contributes marginally, on irregular traces only.");
}
