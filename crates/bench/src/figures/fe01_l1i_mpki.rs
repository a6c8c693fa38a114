//! FE-1 — L1-I demand MPKI and IPC across the instruction-footprint
//! ladder, with and without a front-end prefetcher.
//!
//! Expected shape: the no-prefetch L1-I MPKI climbs as the code footprint
//! outgrows the L1-I; the FDIP-style successor cache removes most of the
//! misses, and the MANA-style record table keeps most of FDIP's coverage
//! at a quarter of the storage (fe04 pins the ratio).
//!
//! `IPCP_FE_FOOTPRINTS` trims the fe-deep ladder (smallest footprint
//! first) for quick runs; the hot/cold traces always run.

use crate::env;
use crate::runner::{Cell, Experiment, Table};
use ipcp_trace::TraceSource;
use ipcp_workloads::frontend_suite;

/// fe-deep ladder entries at the front of `frontend_suite()`.
const LADDER: usize = 4;

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let keep = env::or_die(env::fe_footprints(LADDER)).min(LADDER);
    let traces: Vec<_> = frontend_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i < keep || *i >= LADDER)
        .map(|(_, t)| t)
        .collect();
    let mut table = Table::new(
        "FE-1: L1-I demand MPKI and IPC vs instruction footprint",
        &[
            "trace",
            "MPKI none",
            "MPKI fdip",
            "MPKI mana",
            "IPC none",
            "IPC fdip",
            "IPC mana",
        ],
    );
    let runs: Vec<Vec<_>> = traces
        .iter()
        .map(|t| {
            ["none", "fdip", "mana"]
                .map(|combo| exp.submit_combo(combo, t))
                .into()
        })
        .collect();
    for (t, tickets) in traces.iter().zip(runs) {
        let mut mpki = Vec::new();
        let mut ipc = Vec::new();
        for ticket in tickets {
            let r = exp.take(ticket);
            let instr = r.cores[0].core.instructions;
            mpki.push(r.cores[0].l1i.demand_misses as f64 * 1000.0 / instr as f64);
            ipc.push(r.ipc());
        }
        table.row(vec![
            Cell::text(t.name()),
            Cell::f2(mpki[0]),
            Cell::f2(mpki[1]),
            Cell::f2(mpki[2]),
            Cell::f3(ipc[0]),
            Cell::f3(ipc[1]),
            Cell::f3(ipc[2]),
        ]);
    }
    exp.table(table);
    exp.note("multi-MB footprints swamp the L1-I; fdip, then mana, recover most of the misses.");
}
