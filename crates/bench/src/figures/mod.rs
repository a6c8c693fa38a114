//! Every figure and table of the paper as a library function: each module
//! exports `run(&mut Experiment)`, which requests its simulations from the
//! experiment's point pool and appends its tables and notes. The
//! `experiments` tool runs any selection of them in one process, one
//! thread per figure, over one shared pool (see [`crate::harness`]).

use crate::runner::Experiment;

/// One registered figure or table.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Registry name, also the stem of its output files.
    pub name: &'static str,
    /// Fills an experiment with the figure's tables and notes.
    pub run: fn(&mut Experiment),
}

macro_rules! registry {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every figure and table, in the canonical (paper) order — the
        /// order manifests report, independent of completion order.
        pub const FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($name),
            run: $name::run,
        }),*];
    };
}

registry!(
    table1_storage,
    table2_config,
    table3_combos,
    fig01_l1_utility,
    fig07_l1_only,
    fig08_multilevel,
    fig09_mpki,
    fig10_coverage,
    fig11_overpredict,
    fig12_class_share,
    fig13a_class_ablation,
    fig13b_priority,
    fig14_cloud_nn,
    fig15_multicore,
    table4_cov_acc,
    sens_dram_bw,
    sens_pq_mshr,
    sens_cache_sizes,
    sens_tables,
    sens_replacement,
    sens_ip_assoc,
    ext_l2_complement,
    ext_temporal,
    fe01_l1i_mpki,
    fe02_frontend_bottleneck,
    fe03_compose_shared_l2,
    fe04_mana_storage,
);

/// The registered figure called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_list_is_the_canonical_27() {
        assert_eq!(FIGURES.len(), 27);
        assert_eq!(FIGURES[0].name, "table1_storage");
        for name in ["fig15_multicore", "fe01_l1i_mpki", "fe04_mana_storage"] {
            assert_eq!(find(name).map(|f| f.name), Some(name));
        }
        assert!(find("perf_smoke").is_none());
    }
}
