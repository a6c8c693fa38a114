//! Fig. 9 — Demand-MPKI reduction at L1/L2/LLC for each Table III combo.
//!
//! Paper's shape: every combo removes most L2/LLC demand misses; IPCP's
//! reductions are the largest at L2/LLC.

use crate::combos::TABLE3_COMBOS;
use crate::runner::{trace_major, Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Fig. 9: average demand-MPKI reduction (memory-intensive suite)",
        &["combo", "L1D", "L2", "LLC"],
    );
    let runs = trace_major(&traces, TABLE3_COMBOS, |combo, t| {
        (exp.submit_baseline(t), exp.submit_combo(combo, t))
    });
    for (&combo, runs) in TABLE3_COMBOS.iter().zip(runs) {
        let mut red = [0.0f64; 3];
        let mut n = 0.0;
        for (base, run) in runs {
            let (b_l1, b_l2, b_llc, b_instr) = {
                let b = exp.take(base);
                (
                    b.cores[0].l1d.demand_misses,
                    b.cores[0].l2.demand_misses,
                    b.llc.demand_misses,
                    b.cores[0].core.instructions,
                )
            };
            let r = exp.take(run);
            let instr = r.cores[0].core.instructions;
            let pairs = [
                (b_l1, r.cores[0].l1d.demand_misses),
                (b_l2, r.cores[0].l2.demand_misses),
                (b_llc, r.llc.demand_misses),
            ];
            for (i, (b, p)) in pairs.iter().enumerate() {
                let base_mpki = *b as f64 * 1000.0 / b_instr as f64;
                let pf_mpki = *p as f64 * 1000.0 / instr as f64;
                if base_mpki > 0.0 {
                    red[i] += 1.0 - pf_mpki / base_mpki;
                }
            }
            n += 1.0;
        }
        table.row(vec![
            Cell::text(combo),
            Cell::pct(100.0 * red[0] / n, 1),
            Cell::pct(100.0 * red[1] / n, 1),
            Cell::pct(100.0 * red[2] / n, 1),
        ]);
    }
    exp.table(table);
    exp.note("paper: reductions grow down the hierarchy; IPCP at or near the top at L2/LLC.");
}
