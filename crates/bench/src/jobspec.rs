//! One experiment job: spawn a figure binary, capture its output, and
//! report the outcome — how the `experiments` tool runs each figure.
//!
//! [`execute`] runs `<bin_dir>/<figure>` with the caller's own
//! environment, so every `IPCP_*` knob the caller exported reaches the
//! figure unchanged; a knob added to [`crate::env::KNOBS`] needs no
//! plumbing here. Only two variables are set per child: the `IPCP_JSON`
//! sidecar directory defaults to the results dir, and with the simulation
//! cache on, `IPCP_SIMCACHE_STATS` points at a private drop-off so the
//! child's hit/miss counters can be folded into the manifest.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use ipcp_sim::telemetry::JsonValue;

use crate::env;
use crate::harness::ExperimentOutcome;
use crate::simcache;

/// Every figure/table binary, in the canonical (paper) order — the order
/// manifests report, independent of completion order.
pub const EXPERIMENTS: &[&str] = &[
    "table1_storage",
    "table2_config",
    "table3_combos",
    "fig01_l1_utility",
    "fig07_l1_only",
    "fig08_multilevel",
    "fig09_mpki",
    "fig10_coverage",
    "fig11_overpredict",
    "fig12_class_share",
    "fig13a_class_ablation",
    "fig13b_priority",
    "fig14_cloud_nn",
    "fig15_multicore",
    "table4_cov_acc",
    "sens_dram_bw",
    "sens_pq_mshr",
    "sens_cache_sizes",
    "sens_tables",
    "sens_replacement",
    "sens_ip_assoc",
    "ext_l2_complement",
    "ext_temporal",
    "fe01_l1i_mpki",
    "fe02_frontend_bottleneck",
    "fe03_compose_shared_l2",
    "fe04_mana_storage",
];

/// Runs one experiment job: spawns `<bin_dir>/<figure>` with the inherited
/// environment, captures stdout+stderr to `<results_dir>/<figure>.txt`,
/// and records wall time, exit status, the JSON sidecar path (when one
/// appeared), and the child's simcache counters (when `IPCP_SIMCACHE` is
/// on).
///
/// Callers validate the environment first ([`env::validate_all`]); a
/// malformed `IPCP_SIMCACHE` here counts as "off".
pub fn execute(figure: &str, bin_dir: &Path, results_dir: &Path) -> ExperimentOutcome {
    let output_path = results_dir.join(format!("{figure}.txt"));
    let started = Instant::now();
    let mut cmd = Command::new(bin_dir.join(figure));
    // Sidecars default into the results dir unless the caller routed (or,
    // with an empty value, disabled) them explicitly.
    if std::env::var_os("IPCP_JSON").is_none() {
        cmd.env("IPCP_JSON", results_dir);
    }
    // A stats file shared by concurrent children would be clobbered, so an
    // ambient `IPCP_SIMCACHE_STATS` never reaches them; with the cache on,
    // each child gets a private drop-off instead.
    let stats_path = env::simcache_enabled()
        .unwrap_or(false)
        .then(|| results_dir.join(format!("{figure}.simcache.json")));
    match &stats_path {
        Some(p) => cmd.env("IPCP_SIMCACHE_STATS", p),
        None => cmd.env_remove("IPCP_SIMCACHE_STATS"),
    };
    let result = cmd.output();
    let wall = started.elapsed();
    let data_path = Some(results_dir.join(format!("{figure}.data.json"))).filter(|p| p.exists());
    let simcache = stats_path.as_deref().and_then(read_simcache_stats);
    let (exit_code, ok, spawn_error) = match result {
        Ok(out) => {
            let mut text = out.stdout;
            text.extend_from_slice(&out.stderr);
            let write_err = std::fs::write(&output_path, &text).err();
            (
                out.status.code(),
                out.status.success() && write_err.is_none(),
                write_err.map(|e| format!("writing output: {e}")),
            )
        }
        Err(e) => (None, false, Some(e.to_string())),
    };
    ExperimentOutcome {
        name: figure.to_string(),
        exit_code,
        ok,
        wall,
        output_path,
        data_path,
        spawn_error,
        simcache,
    }
}

/// Reads and deletes a child's `IPCP_SIMCACHE_STATS` drop-off. A missing
/// or malformed file is `None` (the child may have died before `finish`);
/// the manifest then simply carries no counters.
fn read_simcache_stats(path: &Path) -> Option<simcache::CacheStatsSnapshot> {
    let text = std::fs::read_to_string(path).ok()?;
    let _ = std::fs::remove_file(path);
    let doc = JsonValue::parse(&text).ok()?;
    Some(simcache::CacheStatsSnapshot {
        hits: doc.get("hits")?.as_u64()?,
        misses: doc.get("misses")?.as_u64()?,
        stores: doc.get("stores")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_list_is_the_canonical_27() {
        assert_eq!(EXPERIMENTS.len(), 27);
        assert_eq!(EXPERIMENTS[0], "table1_storage");
        assert!(EXPERIMENTS.contains(&"fig15_multicore"));
        assert!(EXPERIMENTS.contains(&"fe01_l1i_mpki"));
        assert!(EXPERIMENTS.contains(&"fe04_mana_storage"));
    }

    #[test]
    fn execute_reports_unspawnable_binary() {
        let dir = std::env::temp_dir().join(format!("ipcp-jobspec-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let o = execute("no_such_binary", &dir, &dir);
        assert!(!o.ok);
        assert!(o.spawn_error.is_some());
        assert_eq!(o.exit_code, None);
        assert_eq!(o.data_path, None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
