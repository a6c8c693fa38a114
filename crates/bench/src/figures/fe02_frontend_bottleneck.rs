//! FE-2 — IPCP's data-side gains with the front end as the bottleneck.
//!
//! Each trace mixes a multi-MB code footprint with prefetchable data
//! strides. The two speedup columns make the Amdahl split explicit: with
//! the front end cold, IPCP's data-side MPKI reductions (fe03 shows them)
//! barely move IPC because instruction-fetch stalls dominate the
//! pipeline; the IPC the workload actually gains comes from feeding the
//! front end (the fdip column), and the data side only pays off once
//! fetch stops being the bottleneck.

use crate::runner::{Cell, Experiment, Table};
use ipcp_trace::TraceSource;
use ipcp_workloads::frontend_suite;

const TRACES: &[&str] = &["fe-deep-1m", "fe-deep-4m", "fe-hotcold-2m", "fe-hotcold-8m"];

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces: Vec<_> = frontend_suite()
        .into_iter()
        .filter(|t| TRACES.contains(&t.name()))
        .collect();
    let mut table = Table::new(
        "FE-2: IPCP data-side speedup, cold vs fed front end",
        &[
            "trace",
            "IPC base",
            "IPC ipcp",
            "speedup (fe cold)",
            "IPC fdip",
            "IPC fdip-ipcp",
            "speedup (fe fed)",
        ],
    );
    let runs: Vec<_> = traces
        .iter()
        .map(|t| {
            (
                exp.submit_baseline(t),
                ["ipcp", "fdip", "fdip-ipcp"].map(|combo| exp.submit_combo(combo, t)),
            )
        })
        .collect();
    for (t, (base, [ipcp, fdip, both])) in traces.iter().zip(runs) {
        let base = exp.take(base).ipc();
        let ipcp = exp.take(ipcp).ipc();
        let fdip = exp.take(fdip).ipc();
        let both = exp.take(both).ipc();
        table.row(vec![
            Cell::text(t.name()),
            Cell::f3(base),
            Cell::f3(ipcp),
            Cell::f3(ipcp / base),
            Cell::f3(fdip),
            Cell::f3(both),
            Cell::f3(both / fdip),
        ]);
    }
    exp.table(table);
    exp.note("fetch stalls dominate: data-side MPKI wins barely move IPC on either front end.");
}
