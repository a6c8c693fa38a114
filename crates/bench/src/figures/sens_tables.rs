//! Section VI-C — Sensitivity to IPCP table sizes: 2x to 16x bigger IP
//! table / CSPT / RST.
//!
//! Paper's shape: only ~0.7% average improvement even at 100x — 895 bytes
//! already captures the needed IPs (cactuBSSN-like outliers excepted).

use ipcp::{IpcpConfig, IpcpL1, IpcpL2};
use crate::runner::{geomean, trace_major, Cell, Experiment, Table};
use ipcp_sim::prefetch::NoPrefetcher;
use ipcp_trace::TraceSource;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: IPCP table sizes (geomean + cactuBSSN-like outlier)",
        &["tables", "geomean", "cactu-bigip"],
    );
    let cases = [("1x (paper)", 1usize), ("2x", 2), ("4x", 4), ("16x", 16)].map(|(label, mult)| {
        let base_cfg = IpcpConfig::default();
        let cfg = IpcpConfig {
            ip_table_entries: base_cfg.ip_table_entries * mult,
            cspt_entries: base_cfg.cspt_entries * mult,
            rst_entries: base_cfg.rst_entries * mult,
            ..base_cfg
        };
        (label, cfg)
    });
    let runs = trace_major(&traces, &cases, |(label, cfg), t| {
        (
            exp.submit_baseline(t),
            exp.submit_custom(
                label,
                t,
                Box::new(IpcpL1::new(cfg.clone())),
                Box::new(IpcpL2::new(cfg.clone())),
                Box::new(NoPrefetcher),
            ),
        )
    });
    for ((label, _), runs) in cases.into_iter().zip(runs) {
        let mut speeds = Vec::new();
        let mut cactu = 1.0;
        for (t, (base, r)) in traces.iter().zip(runs) {
            let base = exp.take(base).ipc();
            let sp = exp.take(r).ipc() / base;
            speeds.push(sp);
            if t.name() == "cactu-bigip" {
                cactu = sp;
            }
        }
        table.row(vec![
            Cell::text(label),
            Cell::f3(geomean(&speeds)),
            Cell::f3(cactu),
        ]);
    }
    exp.table(table);
    exp.note("paper: bigger tables buy ~0.7% on average; only huge-code-footprint");
    exp.note("       outliers (cactuBSSN) want a larger IP table.");
}
