//! Table IV — Prefetch coverage and accuracy per combination.
//!
//! Paper: IPCP 0.60/0.79/0.83 coverage at L1/L2/LLC with 0.80 L1 accuracy;
//! rivals cover less at L2/LLC or pay accuracy for coverage.

use crate::combos::TABLE3_COMBOS;
use crate::runner::{trace_major, Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Table IV: coverage per level and prefetch accuracy",
        &["combo", "cov L1", "cov L2", "cov LLC", "accuracy"],
    );
    let runs = trace_major(&traces, TABLE3_COMBOS, |combo, t| {
        (exp.submit_baseline(t), exp.submit_combo(combo, t))
    });
    for (&combo, runs) in TABLE3_COMBOS.iter().zip(runs) {
        let mut cov = [0.0f64; 3];
        let mut acc_num = 0u64;
        let mut acc_den = 0u64;
        let mut n = 0.0;
        for (base, run) in runs {
            let (b1, b2, b3) = {
                let b = exp.take(base);
                (
                    b.cores[0].l1d.demand_misses,
                    b.cores[0].l2.demand_misses,
                    b.llc.demand_misses,
                )
            };
            let r = exp.take(run);
            let c = |base: u64, miss: u64, late: u64| {
                if base == 0 {
                    0.0
                } else {
                    (1.0 - (miss - late) as f64 / base as f64).clamp(-1.0, 1.0)
                }
            };
            cov[0] += c(
                b1,
                r.cores[0].l1d.demand_misses,
                r.cores[0].l1d.late_prefetch_hits,
            );
            cov[1] += c(
                b2,
                r.cores[0].l2.demand_misses,
                r.cores[0].l2.late_prefetch_hits,
            );
            cov[2] += c(b3, r.llc.demand_misses, r.llc.late_prefetch_hits);
            acc_num += r.cores[0].l1d.useful_prefetch_hits + r.cores[0].l2.useful_prefetch_hits;
            acc_den += r.cores[0].l1d.pf_fills
                + r.cores[0].l1d.late_prefetch_hits
                + r.cores[0].l2.pf_fills
                + r.cores[0].l2.late_prefetch_hits;
            n += 1.0;
        }
        table.row(vec![
            Cell::text(combo),
            Cell::f2(cov[0] / n),
            Cell::f2(cov[1] / n),
            Cell::f2(cov[2] / n),
            Cell::f2((acc_num as f64 / acc_den.max(1) as f64).min(1.0)),
        ]);
    }
    exp.table(table);
    exp.note("paper: IPCP 0.60/0.79/0.83 coverage with 0.80 accuracy — the best");
    exp.note("       coverage-at-accuracy point of the five combinations.");
}
