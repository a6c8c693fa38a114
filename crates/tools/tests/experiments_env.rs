//! The `experiments` sweep tool hands every `IPCP_*` knob to the figures it
//! runs, and rejects a malformed one before anything runs.
//!
//! A figure run through `experiments` must print exactly what the same
//! figure prints when run directly under the same environment — no knob
//! may be dropped or rewritten on the way to the child. `fe01_l1i_mpki`
//! with `IPCP_FE_FOOTPRINTS=1` is the probe: the knob trims its footprint
//! ladder from four rows to one, so a dropped knob shows up as extra rows.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FIGURE: &str = "fe01_l1i_mpki";
const SCALE: &str = "2500,10000";

/// The directory holding this crate's binaries — and, after a workspace
/// build, the figure binaries too.
fn bin_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_experiments"))
        .parent()
        .expect("test binary has a parent directory")
        .to_path_buf()
}

/// `cargo test -p ipcp-tools` alone does not build the figure binaries
/// (they belong to ipcp-bench); build them on demand so the test is
/// self-sufficient.
fn ensure_figure_bins(dir: &Path) {
    if dir.join(FIGURE).exists() {
        return;
    }
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["build", "-p", "ipcp-bench"]);
    if dir.ends_with("release") {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("cannot invoke cargo");
    assert!(status.success(), "building the figure binaries failed");
}

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("experiments-env-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create scratch dir");
    dir
}

/// A command with every catalogued knob stripped, so ambient shell state
/// cannot skew the comparison, then `knobs` applied.
fn command(program: &Path, knobs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(program);
    for knob in ipcp_bench::env::KNOBS {
        cmd.env_remove(knob.name);
    }
    cmd.envs(knobs.iter().copied());
    cmd
}

/// Runs `experiments` over `FIGURE` into `results`.
fn run_experiments(knobs: &[(&str, &str)], results: &Path) -> Output {
    command(&bin_dir().join("experiments"), knobs)
        .arg(FIGURE)
        .arg("--results-dir")
        .arg(results)
        .output()
        .expect("cannot run experiments")
}

#[test]
fn experiments_output_matches_a_direct_run_under_the_same_knobs() {
    let bins = bin_dir();
    ensure_figure_bins(&bins);
    let knobs = [("IPCP_SCALE", SCALE), ("IPCP_FE_FOOTPRINTS", "1")];

    let results = scratch("sweep");
    let sweep = run_experiments(&knobs, &results);
    assert!(
        sweep.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&sweep.stderr)
    );

    // `experiments` captures stdout then stderr into <figure>.txt; the direct
    // run writes its sidecar elsewhere so the two cannot collide.
    let sidecars = scratch("direct");
    let direct = command(&bins.join(FIGURE), &knobs)
        .env("IPCP_JSON", &sidecars)
        .output()
        .expect("cannot run the figure directly");
    assert!(direct.status.success(), "direct run failed");
    let mut want = direct.stdout;
    want.extend_from_slice(&direct.stderr);

    let got =
        std::fs::read(results.join(format!("{FIGURE}.txt"))).expect("experiments wrote no .txt");
    assert!(
        got == want,
        "experiments output differs from the direct run:\n--- experiments\n{}\n--- direct\n{}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    let sidecar = |dir: &Path| std::fs::read(dir.join(format!("{FIGURE}.data.json"))).ok();
    assert_eq!(sidecar(&results), sidecar(&sidecars), "sidecars differ");
    assert!(
        sidecar(&results).is_some(),
        "experiments defaults IPCP_JSON"
    );
}

#[test]
fn malformed_knobs_stop_experiments_before_any_figure_runs() {
    ensure_figure_bins(&bin_dir());
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
