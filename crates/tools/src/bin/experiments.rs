//! Experiment driver: regenerates every figure and table of the paper into
//! `results/`, in one process.
//!
//! Every `IPCP_*` knob is validated loudly up front — a typo in any knob
//! stops the sweep with exit 2 before the first figure runs. The selected
//! figures ([`ipcp_bench::figures`]) then run one thread each, and every
//! simulation they ask for goes through one shared point pool of
//! `IPCP_JOBS` workers (default: one per core), which runs each distinct
//! point once however many figures ask for it. Each figure's text goes to
//! `results/<name>.txt` and its sidecar to `results/<name>.data.json`
//! (`IPCP_JSON` routes sidecars elsewhere; set empty, it disables them).
//! Structured JSON results go to `results/<name>.json` per figure plus a
//! schema-4 `results/manifest.json`: wall times, the set knobs, the pool's
//! request counters and one provenance record per distinct point. The
//! outputs are byte-identical for any `IPCP_JOBS`: every simulation is
//! deterministic and each figure owns its output files.
//!
//! Exit status: 1 when any figure fails (a panic fails that figure only),
//! with a failure summary on stderr — silent failures are a bug class of
//! their own.
//!
//! Usage:
//!   experiments [name ...] [--jobs N] [--results-dir DIR] [--list]
//!               [--list-env]
//!
//! With positional names only those experiments run (unknown names are an
//! error). `--list-env` dumps every `IPCP_*` knob with its current value.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ipcp_bench::figures::{self, Figure, FIGURES};
use ipcp_bench::harness::{self, OutputDirs, SweepManifest};
use ipcp_bench::pool::PointPool;
use ipcp_bench::{env, simcache};
use ipcp_tools::Args;

fn main() {
    let args = Args::parse();
    if args.has_flag("list") {
        for fig in FIGURES {
            println!("{}", fig.name);
        }
        return;
    }
    if args.has_flag("list-env") {
        print!("{}", env::render_catalogue());
        return;
    }

    env::or_die(env::validate_all());

    let selected: Vec<&Figure> = if args.positional.is_empty() {
        FIGURES.iter().collect()
    } else {
        for name in &args.positional {
            assert!(
                figures::find(name).is_some(),
                "unknown experiment {name:?}; see --list"
            );
        }
        FIGURES
            .iter()
            .filter(|f| args.positional.iter().any(|p| p == f.name))
            .collect()
    };

    let jobs = args.get_or("jobs", harness::jobs_from_env());
    let results_dir = PathBuf::from(
        args.options
            .get("results-dir")
            .cloned()
            .unwrap_or_else(|| "results".to_string()),
    );
    std::fs::create_dir_all(&results_dir).expect("cannot create results dir");

    let scale_env = std::env::var("IPCP_SCALE").unwrap_or_else(|_| "default".to_string());
    eprintln!(
        "running {} experiment(s) on {} simulation worker(s) (IPCP_JOBS), scale {scale_env} -> {}",
        selected.len(),
        jobs,
        results_dir.display()
    );

    let pool = Arc::new(PointPool::new(jobs));
    let started = Instant::now();
    let outcomes = harness::run_sweep(&selected, &pool, &OutputDirs::from_env(&results_dir));
    let total_wall = started.elapsed();

    let points = pool.stats();
    harness::write_results_json(
        &results_dir,
        &SweepManifest {
            jobs,
            scale: &scale_env,
            env: &env::set_knobs(),
            total_wall,
            outcomes: &outcomes,
            points,
            point_log: &pool.point_log(),
            simcache: simcache::global().map(simcache::SimCache::stats),
        },
    )
    .expect("cannot write JSON results");

    let failed = outcomes.iter().filter(|o| !o.ok).count();
    eprintln!(
        "{}/{} experiments ok in {:.1}s; {} point requests, {} simulated, {} deduplicated, {} custom (manifest: {})",
        outcomes.len() - failed,
        outcomes.len(),
        total_wall.as_secs_f64(),
        points.requests,
        points.simulated,
        points.deduplicated,
        points.custom,
        results_dir.join("manifest.json").display()
    );
    if let Some(summary) = harness::failure_summary(&outcomes) {
        eprint!("{summary}");
        std::process::exit(1);
    }
}
