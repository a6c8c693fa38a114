//! Fig. 13(b) — Utility of the class priority order.
//!
//! Paper's shape: the default GS > CS > CPLX order is best; demoting GS
//! costs up to ~9% on memory-intensive traces.

use ipcp::{IpClass, IpcpConfig, IpcpL1, IpcpL2};
use crate::runner::{geomean, trace_major, Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    // The priority permutations, then the metadata ablation riding along
    // (Section VI-B2: −3.1% without it).
    let mut variants: Vec<(&str, IpcpConfig)> = [
        (
            "GS>CS>CPLX (paper)",
            [IpClass::Gs, IpClass::Cs, IpClass::Cplx],
        ),
        ("CS>GS>CPLX", [IpClass::Cs, IpClass::Gs, IpClass::Cplx]),
        ("CPLX>CS>GS", [IpClass::Cplx, IpClass::Cs, IpClass::Gs]),
        ("CS>CPLX>GS", [IpClass::Cs, IpClass::Cplx, IpClass::Gs]),
    ]
    .map(|(name, order)| (name, IpcpConfig::default().with_priority(order)))
    .into();
    variants.push(("no metadata", IpcpConfig::default().without_metadata()));
    let mut table = Table::new(
        "Fig. 13(b): priority-order ablation (geomean speedup)",
        &["priority", "speedup"],
    );
    let runs = trace_major(&traces, &variants, |(name, cfg), t| {
        (
            exp.submit_baseline(t),
            exp.submit_custom(
                name,
                t,
                Box::new(IpcpL1::new(cfg.clone())),
                Box::new(IpcpL2::new(cfg.clone())),
                Box::new(ipcp_sim::prefetch::NoPrefetcher),
            ),
        )
    });
    for ((name, _), runs) in variants.into_iter().zip(runs) {
        let mut speeds = Vec::new();
        for (base, r) in runs {
            let base = exp.take(base).ipc();
            speeds.push(exp.take(r).ipc() / base);
        }
        table.row(vec![Cell::text(name), Cell::f3(geomean(&speeds))]);
    }
    exp.table(table);
    exp.note("paper: the GS-first default wins; worst permutation loses ~9%;");
    exp.note("       removing metadata costs ~3.1%.");
}
