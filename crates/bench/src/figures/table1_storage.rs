//! Table I — Hardware overhead of IPCP at L1 and L2, computed from the
//! same structural constants the implementation uses.

use ipcp::{framework_bytes, l1_budget, l2_budget, IpcpConfig};
use crate::runner::{Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let cfg = IpcpConfig::default();
    let l1 = l1_budget(&cfg);
    let l2 = l2_budget(&cfg);
    let mut table = Table::new("Table I: IPCP hardware overhead", &["structure", "bits"]);
    table.row(vec![
        Cell::text("L1 IP table (36 x 64)"),
        Cell::int(l1.ip_table),
    ]);
    table.row(vec![Cell::text("L1 CSPT (9 x 128)"), Cell::int(l1.cspt)]);
    table.row(vec![Cell::text("L1 RST (53 x 8)"), Cell::int(l1.rst)]);
    table.row(vec![
        Cell::text("L1 per-line class bits (2 x 64 x 12)"),
        Cell::int(l1.class_bits),
    ]);
    table.row(vec![
        Cell::text("L1 RR filter (12 x 32)"),
        Cell::int(l1.rr_filter),
    ]);
    table.row(vec![
        Cell::text("L1 counters/registers"),
        Cell::int(l1.other),
    ]);
    table.row(vec![
        Cell::text("L1 total"),
        Cell::text(format!(
            "{} bits = {} bytes",
            l1.total_bits(),
            l1.total_bytes()
        )),
    ]);
    table.row(vec![
        Cell::text("L2 IP table (19 x 64)"),
        Cell::int(l2.ip_table),
    ]);
    table.row(vec![Cell::text("L2 counters"), Cell::int(l2.other)]);
    table.row(vec![
        Cell::text("L2 total"),
        Cell::text(format!(
            "{} bits = {} bytes",
            l2.total_bits(),
            l2.total_bytes()
        )),
    ]);
    table.row(vec![
        Cell::text("FRAMEWORK TOTAL"),
        Cell::text(format!("{} bytes", framework_bytes(&cfg))),
    ]);
    exp.table(table);
    assert_eq!(l1.total_bytes(), 740, "paper: 740 bytes at L1");
    assert_eq!(l2.total_bytes(), 155, "paper: 155 bytes at L2");
    assert_eq!(framework_bytes(&cfg), 895, "paper: 895 bytes total");
    exp.note("matches the paper exactly: 740 B (L1) + 155 B (L2) = 895 B.");
}
