//! Fig. 13(a) — Utility of IPCP classes in isolation and in the bouquet.
//!
//! Paper's shape: CS and CPLX are the strongest soloists (>30%); GS alone
//! is weak (<15%) but adds several points to the bouquet; tentative NL adds
//! a little; the L2 adds ~5 more points on top of the L1 bouquet.

use ipcp::{IpClass, IpcpConfig, IpcpL1, IpcpL2};
use crate::runner::{geomean, trace_major, Cell, Experiment, Table};
use ipcp_sim::prefetch::NoPrefetcher;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let variants: Vec<(&str, IpcpConfig, bool)> = vec![
        ("CS only", IpcpConfig::with_only(&[IpClass::Cs]), false),
        ("CPLX only", IpcpConfig::with_only(&[IpClass::Cplx]), false),
        ("GS only", IpcpConfig::with_only(&[IpClass::Gs]), false),
        (
            "CS+CPLX",
            IpcpConfig::with_only(&[IpClass::Cs, IpClass::Cplx]),
            false,
        ),
        (
            "CS+CPLX+NL",
            IpcpConfig::with_only(&[IpClass::Cs, IpClass::Cplx, IpClass::NoClass]),
            false,
        ),
        ("IPCP L1", IpcpConfig::default(), false),
        ("IPCP L1+L2", IpcpConfig::default(), true),
    ];
    let mut table = Table::new(
        "Fig. 13(a): class ablation (geomean speedup, memory-intensive suite)",
        &["variant", "speedup"],
    );
    let runs = trace_major(&traces, &variants, |(name, cfg, with_l2), t| {
        let l2: Box<dyn ipcp_sim::prefetch::Prefetcher> = if *with_l2 {
            Box::new(IpcpL2::new(cfg.clone()))
        } else {
            Box::new(NoPrefetcher)
        };
        (
            exp.submit_baseline(t),
            exp.submit_custom(
                name,
                t,
                Box::new(IpcpL1::new(cfg.clone())),
                l2,
                Box::new(NoPrefetcher),
            ),
        )
    });
    for ((name, ..), runs) in variants.into_iter().zip(runs) {
        let mut speeds = Vec::new();
        for (base, r) in runs {
            let base = exp.take(base).ipc();
            speeds.push(exp.take(r).ipc() / base);
        }
        table.row(vec![Cell::text(name), Cell::f3(geomean(&speeds))]);
    }
    exp.table(table);
    exp.note("paper: CS/CPLX strongest alone; GS weak alone but additive in the bouquet;");
    exp.note("       the full L1 bouquet beats every subset; L2 adds ~5 points more.");
}
