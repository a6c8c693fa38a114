//! Section VI-C — Sensitivity to cache sizes (L1 32/48 KB, L2 256 KB–1 MB,
//! LLC 1–4 MB).
//!
//! Paper's shape: IPCP's relative gain moves by at most ~1% across the
//! size combinations; a tiny LLC costs everyone ~3 points of absolute gain.

use crate::runner::{geomean, trace_major, Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let configs: Vec<(&str, u64, u64, u64)> = vec![
        ("L1 32K / L2 512K / LLC 2M", 32, 512, 2048),
        ("L1 48K / L2 256K / LLC 2M", 48, 256, 2048),
        ("L1 48K / L2 512K / LLC 2M (default)", 48, 512, 2048),
        ("L1 48K / L2 1M / LLC 2M", 48, 1024, 2048),
        ("L1 48K / L2 512K / LLC 1M", 48, 512, 1024),
        ("L1 48K / L2 512K / LLC 4M", 48, 512, 4096),
        ("L1 48K / L2 512K / LLC 512K (tiny)", 48, 512, 512),
    ];
    let mut table = Table::new(
        "Sensitivity: cache geometry (IPCP geomean speedup)",
        &["geometry", "speedup"],
    );
    let runs = trace_major(&traces, &configs, |&(_, l1kb, l2kb, llckb), t| {
        let tweak = |cfg: &mut ipcp_sim::SimConfig| {
            cfg.l1d.size_bytes = l1kb * 1024;
            // Keep power-of-two set counts: 32 KB needs 8 ways.
            if l1kb == 32 {
                cfg.l1d.ways = 8;
            }
            cfg.l2.size_bytes = l2kb * 1024;
            cfg.llc.size_bytes = llckb * 1024;
        };
        (
            exp.submit_combo_with("none", t, tweak),
            exp.submit_combo_with("ipcp", t, tweak),
        )
    });
    for ((label, ..), runs) in configs.into_iter().zip(runs) {
        let mut speeds = Vec::new();
        for (base, r) in runs {
            let base = exp.take(base).ipc();
            speeds.push(exp.take(r).ipc() / base);
        }
        table.row(vec![Cell::text(label), Cell::f3(geomean(&speeds))]);
    }
    exp.table(table);
    exp.note("paper: at most ~1% relative movement; the 512 KB/core LLC costs ~3 points");
    exp.note("       of absolute improvement for every prefetcher.");
}
