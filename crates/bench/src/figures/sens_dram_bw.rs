//! Section VI-C — Sensitivity to DRAM bandwidth (3.2 / 12.8 / 25 GB/s).
//!
//! Paper's shape: at 3.2 GB/s every prefetcher suffers on bandwidth-hungry
//! traces and IPCP's lead narrows to ~1%; at 25 GB/s most prefetchers gain
//! 2–3 points and IPCP stays ahead.

use crate::runner::{geomean, trace_major, Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: DRAM bandwidth (geomean speedups)",
        &["bandwidth", "ipcp", "mlop", "spp+ppf+dspatch"],
    );
    let combos = ["ipcp", "mlop", "spp-perc-dspatch"];
    let cases = [
        ("3.2 GB/s", 3.2, 1u32),
        ("12.8 GB/s (default)", 12.8, 1),
        ("25.6 GB/s", 25.6, 2),
    ];
    let runs = trace_major(&traces, &cases, |&(_, gbps, channels), t| {
        let tweak = |cfg: &mut ipcp_sim::SimConfig| {
            cfg.dram.channels = channels;
            cfg.dram = cfg.dram.with_bandwidth_gbps(gbps);
        };
        (
            exp.submit_combo_with("none", t, tweak),
            combos.map(|combo| exp.submit_combo_with(combo, t, tweak)),
        )
    });
    for ((label, ..), runs) in cases.into_iter().zip(runs) {
        let mut speeds: std::collections::HashMap<&str, Vec<f64>> = Default::default();
        for (base, rs) in runs {
            let base = exp.take(base).ipc();
            for (combo, r) in combos.into_iter().zip(rs) {
                let r = exp.take(r);
                speeds.entry(combo).or_default().push(r.ipc() / base);
            }
        }
        table.row(vec![
            Cell::text(label),
            Cell::f3(geomean(&speeds["ipcp"])),
            Cell::f3(geomean(&speeds["mlop"])),
            Cell::f3(geomean(&speeds["spp-perc-dspatch"])),
        ]);
    }
    exp.table(table);
    exp.note("paper: IPCP beats MLOP by ~1% at 3.2 GB/s and SPP-combo by ~1.5% at 25 GB/s;");
    exp.note("       everyone's absolute gains grow with bandwidth.");
}
