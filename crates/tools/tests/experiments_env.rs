//! The `experiments` tool runs its figures in-process, so every `IPCP_*`
//! knob reaches them straight from the environment — and a malformed one
//! is rejected before anything runs.
//!
//! `fe01_l1i_mpki` with `IPCP_FE_FOOTPRINTS=1` is the probe: the knob
//! trims its footprint ladder from four rows to one, so a knob that did
//! not reach the figure shows up as extra rows.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ipcp_sim::telemetry::JsonValue;

const FIGURE: &str = "fe01_l1i_mpki";
const SCALE: &str = "2500,10000";

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("experiments-env-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create scratch dir");
    dir
}

/// Runs `experiments` over `FIGURE` into `results`, with every catalogued
/// knob stripped (so ambient shell state cannot skew the run) and then
/// `knobs` applied.
fn run_experiments(knobs: &[(&str, &str)], results: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for knob in ipcp_bench::env::KNOBS {
        cmd.env_remove(knob.name);
    }
    cmd.envs(knobs.iter().copied())
        .arg(FIGURE)
        .arg("--results-dir")
        .arg(results)
        .output()
        .expect("cannot run experiments")
}

#[test]
fn fe_footprints_knob_trims_fe01_to_one_ladder_row() {
    let results = scratch("sweep");
    let knobs = [
        ("IPCP_SCALE", SCALE),
        ("IPCP_FE_FOOTPRINTS", "1"),
        ("IPCP_JOBS", "2"),
    ];
    let sweep = run_experiments(&knobs, &results);
    assert!(
        sweep.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&sweep.stderr)
    );

    let text = std::fs::read_to_string(results.join(format!("{FIGURE}.txt")))
        .expect("experiments wrote no .txt");
    let ladder: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|t| t.starts_with("fe-deep-"))
        .collect();
    assert_eq!(
        ladder,
        ["fe-deep-256k"],
        "one ladder row, smallest first:\n{text}"
    );
    assert!(text.contains("fe-hotcold-2m") && text.contains("fe-hotcold-8m"));

    // The sidecar lands in the results dir and carries the same rows, and
    // the manifest records the knobs the figures saw.
    let sidecar = std::fs::read_to_string(results.join(format!("{FIGURE}.data.json")))
        .expect("experiments writes the sidecar into the results dir");
    let doc = JsonValue::parse(&sidecar).unwrap();
    let tables = doc.get("tables").unwrap().as_array().unwrap();
    assert_eq!(tables[0].get("rows").unwrap().as_array().unwrap().len(), 3);
    let manifest =
        JsonValue::parse(&std::fs::read_to_string(results.join("manifest.json")).unwrap()).unwrap();
    let env = manifest.get("env").unwrap();
    assert_eq!(env.get("IPCP_FE_FOOTPRINTS").unwrap().as_str(), Some("1"));
    assert_eq!(env.get("IPCP_SCALE").unwrap().as_str(), Some(SCALE));
    let points = manifest.get("points").unwrap();
    assert_eq!(points.get("requests").unwrap().as_u64(), Some(9));
}

#[test]
fn malformed_knobs_stop_experiments_before_any_figure_runs() {
    for (knob, value) in [("IPCP_FE_FOOTPRINTS", "abc"), ("IPCP_SCHED_STATS", "maybe")] {
        let results = scratch(&knob.to_ascii_lowercase());
        let out = run_experiments(&[("IPCP_SCALE", SCALE), (knob, value)], &results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{knob}={value} must exit 2; stderr: {stderr}"
        );
        assert!(
            stderr.contains(knob),
            "the error must name {knob}: {stderr}"
        );
        assert!(
            !results.join(format!("{FIGURE}.txt")).exists(),
            "{knob}={value}: no figure may run"
        );
    }
}
