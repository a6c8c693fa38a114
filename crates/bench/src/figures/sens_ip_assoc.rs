//! Section VI-B extension — IP-table geometry for huge-code-footprint
//! workloads: the paper notes cactuBSSN has IP reuse distances beyond 1024
//! and "in an extreme case, we need a 1024 associative table".
//!
//! This sweep shows the cactu-like trace recovering as the IP table grows
//! in capacity *and* associativity, while the suite average barely moves —
//! exactly the paper's "size the tables up only for outliers" advice.

use ipcp::{IpcpConfig, IpcpL1, IpcpL2};
use crate::runner::{geomean, trace_major, Cell, Experiment, Table};
use ipcp_sim::prefetch::NoPrefetcher;
use ipcp_trace::TraceSource;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: IP-table capacity x associativity",
        &["IP table", "geomean", "cactu-bigip"],
    );
    let cases = [
        ("64 x 1 (paper)", 64usize, 1usize),
        ("256 x 4", 256, 4),
        ("1024 x 16", 1024, 16),
        ("4096 x 64", 4096, 64),
    ]
    .map(|(label, entries, ways)| {
        let cfg = IpcpConfig {
            ip_table_entries: entries,
            ip_table_ways: ways,
            ..IpcpConfig::default()
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
    exp.note("paper: only cactuBSSN-like IP churn wants a big associative table;");
    exp.note("       the suite average is already captured by 64 entries.");
}
