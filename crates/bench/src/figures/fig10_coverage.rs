//! Fig. 10 — Fraction of demand misses covered by IPCP at L1, L2, and LLC.
//!
//! Paper's numbers: 60% at L1, 79.5% at L2, 83% at LLC on average, with
//! near-zero coverage for the irregular (mcf/omnetpp-like) traces.

use crate::runner::{Cell, Experiment, Table};
use ipcp_trace::TraceSource;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Fig. 10: demand misses covered by IPCP per level",
        &["trace", "L1D", "L2", "LLC"],
    );
    let mut avg = [0.0f64; 3];
    let runs: Vec<_> = traces
        .iter()
        .map(|t| (exp.submit_baseline(t), exp.submit_combo("ipcp", t)))
        .collect();
    for (t, (base, run)) in traces.iter().zip(runs) {
        let (b_l1, b_l2, b_llc) = {
            let b = exp.take(base);
            (
                b.cores[0].l1d.demand_misses,
                b.cores[0].l2.demand_misses,
                b.llc.demand_misses,
            )
        };
        let r = exp.take(run);
        let cov = |base: u64, now: u64| {
            if base == 0 {
                0.0
            } else {
                (1.0 - now as f64 / base as f64).max(-1.0)
            }
        };
        // Late prefetch merges still count as misses; credit them as
        // covered-but-late at the L1 the way the paper's coverage metric
        // (miss reduction vs no prefetching) does at each level.
        let c1 = cov(
            b_l1,
            r.cores[0].l1d.demand_misses - r.cores[0].l1d.late_prefetch_hits,
        );
        let c2 = cov(
            b_l2,
            r.cores[0].l2.demand_misses - r.cores[0].l2.late_prefetch_hits,
        );
        let c3 = cov(b_llc, r.llc.demand_misses - r.llc.late_prefetch_hits);
        avg[0] += c1;
        avg[1] += c2;
        avg[2] += c3;
        table.row(vec![
            Cell::text(t.name()),
            Cell::pct(100.0 * c1, 0),
            Cell::pct(100.0 * c2, 0),
            Cell::pct(100.0 * c3, 0),
        ]);
    }
    let n = traces.len() as f64;
    table.row(vec![
        Cell::text("AVERAGE"),
        Cell::pct(100.0 * avg[0] / n, 0),
        Cell::pct(100.0 * avg[1] / n, 0),
        Cell::pct(100.0 * avg[2] / n, 0),
    ]);
    exp.table(table);
    exp.note("paper: 60% / 79.5% / 83% average at L1/L2/LLC; ~0 for irregular traces.");
}
