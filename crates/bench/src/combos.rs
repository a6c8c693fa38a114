//! Named prefetcher configurations: every single-level prefetcher of
//! Fig. 1/7 and every multi-level combination of Table III, constructible
//! by name so the figures stay declarative.

use ipcp::{IpcpConfig, IpcpL1, IpcpL2};
use ipcp_baselines::{
    spp_perceptron_dspatch, Bingo, Bop, Fdip, IpStride, Mana, Mlop, NextLine, Sandbox, Sms, Spp,
    StreamPf, TskidLite, Vldp,
};
use ipcp_sim::prefetch::{FillLevel, FillLevelOverride, NoPrefetcher, Prefetcher};

/// A full prefetcher placement: one prefetcher per cache level.
pub struct Combo {
    /// L1-I prefetcher (front-end side; `NoPrefetcher` in every data-side
    /// combination so their reports stay bit-identical to the pre-frontend
    /// builds).
    pub l1i: Box<dyn Prefetcher>,
    /// L1-D prefetcher.
    pub l1: Box<dyn Prefetcher>,
    /// L2 prefetcher.
    pub l2: Box<dyn Prefetcher>,
    /// LLC prefetcher.
    pub llc: Box<dyn Prefetcher>,
}

impl Combo {
    fn new(l1: Box<dyn Prefetcher>, l2: Box<dyn Prefetcher>, llc: Box<dyn Prefetcher>) -> Self {
        Self {
            l1i: none(),
            l1,
            l2,
            llc,
        }
    }

    fn with_l1i(mut self, l1i: Box<dyn Prefetcher>) -> Self {
        self.l1i = l1i;
        self
    }

    /// Total hardware budget in bytes (Table III's storage column), rounded
    /// per level as the paper does (740 B + 155 B = 895 B). The L1-I slot
    /// joins the sum only when a front-end prefetcher is attached.
    pub fn storage_bytes(&self) -> u64 {
        self.l1i.storage_bits().div_ceil(8)
            + self.l1.storage_bits().div_ceil(8)
            + self.l2.storage_bits().div_ceil(8)
            + self.llc.storage_bits().div_ceil(8)
    }
}

fn none() -> Box<dyn Prefetcher> {
    Box::new(NoPrefetcher)
}

/// Restrictive next-line (demand misses only) — the L2/LLC filler used by
/// the DPC-3 combinations.
fn restrictive_nl(fill: FillLevel) -> Box<dyn Prefetcher> {
    Box::new(NextLine::new(1, fill).miss_only())
}

/// The registry of named combinations.
///
/// Multi-level combinations (Table III): `none`, `ipcp`, `ipcp-l1`,
/// `ipcp-nometa`, `spp-perc-dspatch`, `mlop`, `bingo48`, `bingo119`,
/// `tskid`.
///
/// L1-only placements (Fig. 7): `l1-nl`, `l1-ip-stride`, `l1-stream`,
/// `l1-bop`, `l1-sandbox`, `l1-vldp`, `l1-spp`, `l1-sms`, `l1-mlop`,
/// `l1-bingo48`, `l1-bingo119`, `l1-tskid`, `l1-ipcp`.
///
/// L2-only placements and train-at-L1-fill-to-L2 variants (Fig. 1):
/// `l2-ip-stride`, `l2-mlop`, `l2-bingo`, `l1fill2-ip-stride`,
/// `l1fill2-mlop`, `l1fill2-bingo`.
///
/// Front-end (L1-I) placements: `fdip`, `mana` (instruction side only),
/// and `fdip-ipcp`, `mana-ipcp` (instruction side composed with the full
/// IPCP data-side stack, sharing the L2 and prefetch-queue machinery).
///
/// # Panics
///
/// Panics on an unknown name — a typo in a figure should fail loud.
pub fn build(name: &str) -> Combo {
    let ipcp_cfg = IpcpConfig::default;
    match name {
        "none" => Combo::new(none(), none(), none()),

        // --- Table III multi-level combinations.
        "ipcp" => Combo::new(
            Box::new(IpcpL1::new(ipcp_cfg())),
            Box::new(IpcpL2::new(ipcp_cfg())),
            none(),
        ),
        "ipcp-l1" => Combo::new(Box::new(IpcpL1::new(ipcp_cfg())), none(), none()),
        "ipcp-nometa" => Combo::new(
            Box::new(IpcpL1::new(ipcp_cfg().without_metadata())),
            Box::new(IpcpL2::new(ipcp_cfg().without_metadata())),
            none(),
        ),
        "spp-perc-dspatch" => Combo::new(
            restrictive_nl(FillLevel::L1),
            Box::new(spp_perceptron_dspatch()),
            restrictive_nl(FillLevel::Llc),
        ),
        "mlop" => Combo::new(
            Box::new(Mlop::l1_default()),
            restrictive_nl(FillLevel::L2),
            restrictive_nl(FillLevel::Llc),
        ),
        "bingo48" => Combo::new(
            Box::new(Bingo::l1_48kb()),
            restrictive_nl(FillLevel::L2),
            restrictive_nl(FillLevel::Llc),
        ),
        "bingo119" => Combo::new(
            Box::new(Bingo::l1_119kb()),
            restrictive_nl(FillLevel::L2),
            restrictive_nl(FillLevel::Llc),
        ),
        "tskid" => Combo::new(
            Box::new(TskidLite::l1_default()),
            Box::new(Spp::l2_default()),
            none(),
        ),

        // --- L1-only placements (Fig. 7).
        "l1-nl" => Combo::new(Box::new(NextLine::new(1, FillLevel::L1)), none(), none()),
        "l1-ip-stride" => Combo::new(Box::new(IpStride::l1_default()), none(), none()),
        "l1-stream" => Combo::new(Box::new(StreamPf::l1_default()), none(), none()),
        "l1-bop" => Combo::new(Box::new(Bop::new(1, FillLevel::L1)), none(), none()),
        "l1-sandbox" => Combo::new(Box::new(Sandbox::new(FillLevel::L1)), none(), none()),
        "l1-vldp" => Combo::new(Box::new(Vldp::new(4, FillLevel::L1)), none(), none()),
        "l1-spp" => Combo::new(Box::new(Spp::new(FillLevel::L1)), none(), none()),
        "l1-sms" => Combo::new(Box::new(Sms::l1_default()), none(), none()),
        "l1-mlop" => Combo::new(Box::new(Mlop::l1_default()), none(), none()),
        "l1-bingo48" => Combo::new(Box::new(Bingo::l1_48kb()), none(), none()),
        "l1-bingo119" => Combo::new(Box::new(Bingo::l1_119kb()), none(), none()),
        "l1-tskid" => Combo::new(Box::new(TskidLite::l1_default()), none(), none()),
        "l1-ipcp" => Combo::new(Box::new(IpcpL1::new(ipcp_cfg())), none(), none()),

        // --- L2-only placements (Fig. 1).
        "l2-ip-stride" => Combo::new(
            none(),
            Box::new(IpStride::new(64, 3, FillLevel::L2)),
            none(),
        ),
        "l2-mlop" => Combo::new(none(), Box::new(Mlop::new(FillLevel::L2)), none()),
        "l2-bingo" => Combo::new(
            none(),
            Box::new(Bingo::new(8 * 1024, FillLevel::L2)),
            none(),
        ),

        // --- Train at L1, fill till L2 (Fig. 1's middle bars).
        "l1fill2-ip-stride" => Combo::new(
            Box::new(FillLevelOverride::new(
                IpStride::l1_default(),
                FillLevel::L2,
            )),
            none(),
            none(),
        ),
        "l1fill2-mlop" => Combo::new(
            Box::new(FillLevelOverride::new(Mlop::l1_default(), FillLevel::L2)),
            none(),
            none(),
        ),
        "l1fill2-bingo" => Combo::new(
            Box::new(FillLevelOverride::new(Bingo::l1_48kb(), FillLevel::L2)),
            none(),
            none(),
        ),

        // --- Front-end (L1-I) placements.
        "fdip" => Combo::new(none(), none(), none()).with_l1i(Box::new(Fdip::l1i_default())),
        "mana" => Combo::new(none(), none(), none()).with_l1i(Box::new(Mana::l1i_default())),
        "fdip-ipcp" => Combo::new(
            Box::new(IpcpL1::new(ipcp_cfg())),
            Box::new(IpcpL2::new(ipcp_cfg())),
            none(),
        )
        .with_l1i(Box::new(Fdip::l1i_default())),
        "mana-ipcp" => Combo::new(
            Box::new(IpcpL1::new(ipcp_cfg())),
            Box::new(IpcpL2::new(ipcp_cfg())),
            none(),
        )
        .with_l1i(Box::new(Mana::l1i_default())),

        other => panic!("unknown combo name: {other}"),
    }
}

/// The Table III combination names, in the paper's order.
pub const TABLE3_COMBOS: &[&str] = &["spp-perc-dspatch", "mlop", "bingo48", "tskid", "ipcp"];

/// The Fig. 7 L1-only contenders.
pub const FIG7_COMBOS: &[&str] = &[
    "l1-nl",
    "l1-ip-stride",
    "l1-stream",
    "l1-bop",
    "l1-spp",
    "l1-mlop",
    "l1-bingo48",
    "l1-bingo119",
    "l1-ipcp",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_build() {
        for name in [
            "none",
            "ipcp",
            "ipcp-l1",
            "ipcp-nometa",
            "spp-perc-dspatch",
            "mlop",
            "bingo48",
            "bingo119",
            "tskid",
            "l1-nl",
            "l1-ip-stride",
            "l1-stream",
            "l1-bop",
            "l1-sandbox",
            "l1-vldp",
            "l1-spp",
            "l1-sms",
            "l1-mlop",
            "l1-bingo48",
            "l1-bingo119",
            "l1-tskid",
            "l1-ipcp",
            "l2-ip-stride",
            "l2-mlop",
            "l2-bingo",
            "l1fill2-ip-stride",
            "l1fill2-mlop",
            "l1fill2-bingo",
            "fdip",
            "mana",
            "fdip-ipcp",
            "mana-ipcp",
        ] {
            let c = build(name);
            let _ = c.storage_bytes();
        }
    }

    #[test]
    fn frontend_combos_populate_the_l1i_slot() {
        for name in ["fdip", "mana", "fdip-ipcp", "mana-ipcp"] {
            assert_ne!(build(name).l1i.name(), "none", "{name}");
        }
        // Every data-side combination leaves the slot empty so its reports
        // stay bit-identical to the pre-frontend builds.
        for name in ["none", "ipcp", "mlop", "l1-ipcp", "l2-bingo"] {
            assert_eq!(build(name).l1i.name(), "none", "{name}");
        }
    }

    #[test]
    fn frontend_composition_storage_is_additive() {
        let ipcp = build("ipcp").storage_bytes();
        assert_eq!(
            build("fdip-ipcp").storage_bytes(),
            ipcp + build("fdip").storage_bytes()
        );
        assert_eq!(
            build("mana-ipcp").storage_bytes(),
            ipcp + build("mana").storage_bytes()
        );
        // The MANA table stays several times below FDIP's successor cache.
        assert!(build("mana").storage_bytes() * 4 <= build("fdip").storage_bytes());
    }

    #[test]
    #[should_panic(expected = "unknown combo")]
    fn unknown_name_panics() {
        let _ = build("nonsense");
    }

    #[test]
    fn ipcp_storage_is_895_bytes() {
        assert_eq!(build("ipcp").storage_bytes(), 895);
    }

    #[test]
    fn storage_ordering_matches_table3() {
        // IPCP demands 30–50× less storage than the heavyweights.
        let ipcp = build("ipcp").storage_bytes();
        let bingo = build("bingo48").storage_bytes();
        let spp = build("spp-perc-dspatch").storage_bytes();
        let mlop = build("mlop").storage_bytes();
        assert!(bingo > 30 * ipcp, "bingo {bingo} vs ipcp {ipcp}");
        assert!(spp > 10 * ipcp, "spp combo {spp} vs ipcp {ipcp}");
        assert!(mlop > 4 * ipcp, "mlop {mlop} vs ipcp {ipcp}");
    }
}
