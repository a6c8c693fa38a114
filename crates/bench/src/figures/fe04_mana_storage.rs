//! FE-4 — Storage budgets of the front-end prefetchers, alone and
//! composed with IPCP, from the same `storage_bits` accounting the
//! baseline contract audits.
//!
//! Pins the MANA claim: the record table reaches FDIP-class coverage at
//! several times less storage (asserted, like Table I's 895 B).

use crate::combos::build;
use crate::runner::{Cell, Experiment, Table};

/// Runs the figure into `exp`.
pub fn run(exp: &mut Experiment) {
    let fdip = build("fdip").storage_bytes();
    let mut table = Table::new(
        "FE-4: front-end prefetcher storage (bytes)",
        &["combo", "bytes", "vs fdip"],
    );
    for name in ["fdip", "mana", "ipcp", "fdip-ipcp", "mana-ipcp"] {
        let bytes = build(name).storage_bytes();
        table.row(vec![
            Cell::text(name),
            Cell::int(bytes),
            Cell::f2(bytes as f64 / fdip as f64),
        ]);
    }
    exp.table(table);
    let mana = build("mana").storage_bytes();
    assert!(
        mana * 4 <= fdip,
        "paper claim: MANA stays several times below FDIP ({mana} vs {fdip} bytes)"
    );
    assert_eq!(
        build("mana-ipcp").storage_bytes(),
        mana + build("ipcp").storage_bytes(),
        "composition storage is additive"
    );
    exp.note(
        "mana reaches fdip-class reach at <= 1/4 the table storage; composition adds linearly.",
    );
}
