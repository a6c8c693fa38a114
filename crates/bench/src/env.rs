//! Typed, consolidated parsing of every `IPCP_*` environment knob.
//!
//! Before this module the knobs were parsed ad hoc at their use sites with
//! three different failure policies: `IPCP_SCALE` failed loudly,
//! `IPCP_INTERVAL` panicked, and `IPCP_JOBS` / `IPCP_MIXES` /
//! `IPCP_SIMCACHE` silently fell back to defaults on garbage — so a typo
//! like `IPCP_JOBS=fuor` ran a sweep serially without a word. Every knob
//! now parses through one catalogue with one policy: **a set-but-malformed
//! value is an error carrying the knob name and the offending value**, and
//! the [`or_die`] wrapper turns that into the same loud `exit(2)` that
//! [`RunScale::from_env`] established.
//!
//! The catalogue ([`KNOBS`]) is machine-readable: `experiments --list-env`
//! dumps every knob with its current value, so "what is this sweep
//! actually configured to do" has a one-command answer, and each entry
//! carries its typed parser, so [`validate_all`] checks every knob.
//!
//! Boolean knobs accept `1/true/on/yes` and `0/false/off/no` (case
//! insensitive; empty = unset). Note the behavior fix for
//! `IPCP_NO_FASTPATH`: it used to be presence-tested, so
//! `IPCP_NO_FASTPATH=0` *enabled* the naive paths — it now parses as a
//! proper boolean.
//!
//! Each `pub fn <knob>()` reads the live environment; the `parse_*`
//! helpers underneath are pure functions of the value, so they are
//! testable without mutating process-global state (tests that set real
//! variables race with every other test reading them).

use std::fmt;
use std::path::PathBuf;

use crate::runner::RunScale;

/// One documented environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Variable name, e.g. `IPCP_JOBS`.
    pub name: &'static str,
    /// What it accepts and does, one line.
    pub summary: &'static str,
    /// Runs the knob's typed parser over the live environment, discarding
    /// the value (see [`validate_all`]).
    pub check: fn() -> Result<(), EnvError>,
}

/// Every `IPCP_*` knob the bench/tools layer reads, in display order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "IPCP_JOBS",
        summary: "simulation workers of the point pool (positive integer; default: all cores; 1 = serial reference mode)",
        check: || jobs().map(drop),
    },
    Knob {
        name: "IPCP_SCALE",
        summary: "run scale: \"paper\" or \"<warmup>,<instructions>\" (default: 100000,400000)",
        check: || scale().map(drop),
    },
    Knob {
        name: "IPCP_CSV",
        summary: "directory for per-table CSV exports (empty/unset: no CSVs)",
        check: || csv_dir().map(drop),
    },
    Knob {
        name: "IPCP_JSON",
        summary: "directory for <name>.data.json figure sidecars (empty: disabled; `experiments` defaults it to the results dir)",
        check: || json_dir().map(drop),
    },
    Knob {
        name: "IPCP_SIMCACHE",
        summary: "boolean: enable the content-addressed simulation result cache",
        check: || simcache_enabled().map(drop),
    },
    Knob {
        name: "IPCP_SIMCACHE_DIR",
        summary: "simcache directory (default: target/simcache)",
        check: || simcache_dir().map(drop),
    },
    Knob {
        name: "IPCP_MIXES",
        summary: "number of random 4-core mixes in fig15_multicore (non-negative integer; default 4)",
        check: || mixes(0).map(drop),
    },
    Knob {
        name: "IPCP_FE_FOOTPRINTS",
        summary: "number of fe-deep footprint-ladder traces (smallest first) fe01_l1i_mpki sweeps (non-negative integer; default 4 = full ladder; fe02 always runs the full suite)",
        check: || fe_footprints(0).map(drop),
    },
    Knob {
        name: "IPCP_INTERVAL",
        summary: "interval-sampler period in retired instructions (positive integer; unset/empty: sampler off)",
        check: || interval().map(drop),
    },
    Knob {
        name: "IPCP_NO_FASTPATH",
        summary: "boolean: oracle mode — the same cycle loop with every exact-behavior fast arm off, plus per-cycle shadow checks of the wakeup scheduler's skip decisions",
        check: || no_fastpath().map(drop),
    },
    Knob {
        name: "IPCP_SCHED_STATS",
        summary: "boolean: export wakeup-scheduler counters (wakeups fired, executed/skipped cycles, heap peak) into report JSON as a \"sched\" object — changes report bytes, so leave unset for golden/oracle comparisons",
        check: || sched_stats().map(drop),
    },
    Knob {
        name: "IPCP_PHASE_STATS",
        summary: "boolean: export coarse wall-clock phase timers (decode/issue/fill/train/drain ns) into report JSON as a \"phases\" object — nondeterministic and changes report bytes, so leave unset for golden/oracle comparisons (perf_smoke --profile sets it)",
        check: || phase_stats().map(drop),
    },
];

/// A set-but-malformed environment value: which knob, what it held, and
/// what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The knob name, e.g. `IPCP_JOBS`.
    pub knob: &'static str,
    /// The offending value as given (or a placeholder for non-unicode).
    pub value: String,
    /// What was expected instead.
    pub reason: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} {:?}: {}", self.knob, self.value, self.reason)
    }
}

impl std::error::Error for EnvError {}

/// Unwraps an env parse, printing the error and exiting with status 2 on
/// failure — the workspace's standard "never run at an unintended
/// configuration" policy (same as [`RunScale::from_env`] callers).
pub fn or_die<T>(result: Result<T, EnvError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The raw value of a knob: `Ok(None)` when unset, an error when set to
/// non-unicode bytes.
pub fn raw(knob: &'static str) -> Result<Option<String>, EnvError> {
    match std::env::var(knob) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(EnvError {
            knob,
            value: "<non-unicode>".to_string(),
            reason: "value is not valid unicode".to_string(),
        }),
    }
}

// ---------------------------------------------------------------------
// Pure value parsers (testable without touching the environment)
// ---------------------------------------------------------------------

/// Parses a boolean knob value: `1/true/on/yes` ⇒ true, `0/false/off/no`
/// ⇒ false, `None` or empty ⇒ `default`.
pub fn parse_bool(
    knob: &'static str,
    value: Option<&str>,
    default: bool,
) -> Result<bool, EnvError> {
    let Some(v) = value else {
        return Ok(default);
    };
    match v.trim().to_ascii_lowercase().as_str() {
        "" => Ok(default),
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        _ => Err(EnvError {
            knob,
            value: v.to_string(),
            reason: "expected a boolean (1/true/on/yes or 0/false/off/no)".to_string(),
        }),
    }
}

/// Parses a positive-count knob value; `None` or empty ⇒ `Ok(None)`.
pub fn parse_positive(knob: &'static str, value: Option<&str>) -> Result<Option<u64>, EnvError> {
    let Some(v) = value else { return Ok(None) };
    if v.trim().is_empty() {
        return Ok(None);
    }
    match v.trim().parse::<u64>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(EnvError {
            knob,
            value: v.to_string(),
            reason: "expected a positive count".to_string(),
        }),
    }
}

/// Parses a non-negative-count knob value with a default for unset.
pub fn parse_count(
    knob: &'static str,
    value: Option<&str>,
    default: usize,
) -> Result<usize, EnvError> {
    let Some(v) = value else { return Ok(default) };
    v.trim().parse::<usize>().map_err(|_| EnvError {
        knob,
        value: v.to_string(),
        reason: "expected a non-negative count".to_string(),
    })
}

// ---------------------------------------------------------------------
// The knobs (live environment)
// ---------------------------------------------------------------------

/// A directory-valued knob: set and non-empty ⇒ `Some(path)`. An empty
/// value means "explicitly disabled", same as unset for consumers.
fn dir_knob(knob: &'static str) -> Result<Option<PathBuf>, EnvError> {
    Ok(raw(knob)?.filter(|v| !v.is_empty()).map(PathBuf::from))
}

/// `IPCP_JOBS`: the in-process fan-out width. `Ok(None)` when unset
/// (callers default to the core count).
pub fn jobs() -> Result<Option<usize>, EnvError> {
    Ok(parse_positive("IPCP_JOBS", raw("IPCP_JOBS")?.as_deref())?.map(|n| n as usize))
}

/// `IPCP_SCALE` as a [`RunScale`] (the knob's original loud parser,
/// surfaced through the unified error type).
pub fn scale() -> Result<RunScale, EnvError> {
    RunScale::from_env().map_err(|e| EnvError {
        knob: "IPCP_SCALE",
        value: e.spec,
        reason: e.reason,
    })
}

/// `IPCP_CSV`: per-table CSV export directory.
pub fn csv_dir() -> Result<Option<PathBuf>, EnvError> {
    dir_knob("IPCP_CSV")
}

/// `IPCP_JSON`: figure sidecar directory.
pub fn json_dir() -> Result<Option<PathBuf>, EnvError> {
    dir_knob("IPCP_JSON")
}

/// `IPCP_SIMCACHE`: whether the simulation result cache is on.
pub fn simcache_enabled() -> Result<bool, EnvError> {
    parse_bool("IPCP_SIMCACHE", raw("IPCP_SIMCACHE")?.as_deref(), false)
}

/// `IPCP_SIMCACHE_DIR`: where the simulation result cache lives.
pub fn simcache_dir() -> Result<Option<PathBuf>, EnvError> {
    dir_knob("IPCP_SIMCACHE_DIR")
}

/// `IPCP_MIXES`: random-mix count for `fig15_multicore`.
pub fn mixes(default: usize) -> Result<usize, EnvError> {
    parse_count("IPCP_MIXES", raw("IPCP_MIXES")?.as_deref(), default)
}

/// `IPCP_FE_FOOTPRINTS`: how many fe-deep footprint-ladder traces
/// `fe01_l1i_mpki` sweeps, smallest first (so `1` is a quick smoke run
/// over the 256 KB footprint only).
pub fn fe_footprints(default: usize) -> Result<usize, EnvError> {
    parse_count(
        "IPCP_FE_FOOTPRINTS",
        raw("IPCP_FE_FOOTPRINTS")?.as_deref(),
        default,
    )
}

/// `IPCP_INTERVAL`: interval-sampler period. `Ok(None)` when unset or
/// empty (sampler off).
pub fn interval() -> Result<Option<u64>, EnvError> {
    parse_positive("IPCP_INTERVAL", raw("IPCP_INTERVAL")?.as_deref()).map_err(|mut e| {
        e.reason = "expected a positive instruction count per sample".to_string();
        e
    })
}

/// `IPCP_NO_FASTPATH`: whether to run in oracle mode (fast arms off,
/// shadow checks on).
pub fn no_fastpath() -> Result<bool, EnvError> {
    parse_bool(
        "IPCP_NO_FASTPATH",
        raw("IPCP_NO_FASTPATH")?.as_deref(),
        false,
    )
}

/// `IPCP_SCHED_STATS`: whether simulator reports carry wakeup-scheduler
/// observability counters (the `System` reads the variable itself at
/// construction with the same boolean grammar; this accessor exists so
/// bench-layer tooling can gate aggregation and validation on it).
pub fn sched_stats() -> Result<bool, EnvError> {
    parse_bool(
        "IPCP_SCHED_STATS",
        raw("IPCP_SCHED_STATS")?.as_deref(),
        false,
    )
}

/// `IPCP_PHASE_STATS`: whether simulator reports carry wall-clock phase
/// timers (the `System` reads the variable itself at construction; this
/// accessor exists so bench-layer tooling can gate on it with the shared
/// boolean grammar).
pub fn phase_stats() -> Result<bool, EnvError> {
    parse_bool(
        "IPCP_PHASE_STATS",
        raw("IPCP_PHASE_STATS")?.as_deref(),
        false,
    )
}

/// Runs every catalogued knob's typed parser over the live environment —
/// what `experiments` calls before any figure runs, so a malformed value
/// in any knob stops the sweep loudly instead of reaching some figures
/// unchecked.
///
/// # Errors
///
/// The first set-but-malformed knob, in catalogue order.
pub fn validate_all() -> Result<(), EnvError> {
    KNOBS.iter().try_for_each(|k| (k.check)())
}

/// Every catalogued knob that is set (empty values included), with its
/// value, in catalogue order — a sweep's provenance as recorded in the
/// manifest. Non-unicode values are skipped ([`validate_all`] rejects
/// them).
pub fn set_knobs() -> Vec<(&'static str, String)> {
    KNOBS
        .iter()
        .filter_map(|k| Some((k.name, std::env::var(k.name).ok()?)))
        .collect()
}

/// Renders the knob catalogue with current values — the body of
/// `experiments --list-env`.
pub fn render_catalogue() -> String {
    let mut out = String::new();
    for k in KNOBS {
        let current = match std::env::var(k.name) {
            Ok(v) if v.is_empty() => "(set, empty)".to_string(),
            Ok(v) => format!("= {v}"),
            Err(_) => "(unset)".to_string(),
        };
        out.push_str(&format!("{:<22} {current}\n", k.name));
        out.push_str(&format!("{:<22}   {}\n", "", k.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_values_accept_both_polarities_and_reject_garbage() {
        for (v, want) in [
            ("1", true),
            ("true", true),
            ("ON", true),
            ("yes", true),
            ("0", false),
            ("false", false),
            ("Off", false),
            ("no", false),
            ("", false),
        ] {
            assert_eq!(
                parse_bool("IPCP_NO_FASTPATH", Some(v), false).unwrap(),
                want,
                "value {v:?}"
            );
        }
        assert!(!parse_bool("IPCP_NO_FASTPATH", None, false).unwrap());
        assert!(parse_bool("IPCP_SIMCACHE", None, true).unwrap());
        let err = parse_bool("IPCP_NO_FASTPATH", Some("maybe"), false).unwrap_err();
        assert_eq!(err.knob, "IPCP_NO_FASTPATH");
        assert_eq!(err.value, "maybe");
    }

    #[test]
    fn positive_counts_are_loud_on_garbage() {
        assert_eq!(parse_positive("IPCP_JOBS", Some("4")).unwrap(), Some(4));
        assert_eq!(parse_positive("IPCP_JOBS", None).unwrap(), None);
        assert_eq!(parse_positive("IPCP_INTERVAL", Some("  ")).unwrap(), None);
        for bad in ["0", "-3", "many", "1.5"] {
            let err = parse_positive("IPCP_JOBS", Some(bad)).unwrap_err();
            assert_eq!(err.knob, "IPCP_JOBS");
            assert_eq!(err.value, bad, "error must carry the offending value");
        }
    }

    #[test]
    fn counts_with_defaults_parse_or_fail_loudly() {
        assert_eq!(parse_count("IPCP_MIXES", Some("7"), 4).unwrap(), 7);
        assert_eq!(parse_count("IPCP_MIXES", Some("0"), 4).unwrap(), 0);
        assert_eq!(parse_count("IPCP_MIXES", None, 4).unwrap(), 4);
        assert_eq!(
            parse_count("IPCP_MIXES", Some("lots"), 4).unwrap_err().knob,
            "IPCP_MIXES"
        );
    }

    #[test]
    fn catalogue_covers_every_knob_and_renders() {
        let names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        for expected in [
            "IPCP_JOBS",
            "IPCP_SCALE",
            "IPCP_CSV",
            "IPCP_JSON",
            "IPCP_SIMCACHE",
            "IPCP_SIMCACHE_DIR",
            "IPCP_MIXES",
            "IPCP_FE_FOOTPRINTS",
            "IPCP_INTERVAL",
            "IPCP_NO_FASTPATH",
            "IPCP_SCHED_STATS",
            "IPCP_PHASE_STATS",
        ] {
            assert!(names.contains(&expected), "catalogue missing {expected}");
        }
        let text = render_catalogue();
        for k in KNOBS {
            assert!(
                text.contains(k.name),
                "rendered catalogue missing {}",
                k.name
            );
        }
    }

    #[test]
    fn error_message_names_knob_and_value() {
        let e = EnvError {
            knob: "IPCP_JOBS",
            value: "fuor".to_string(),
            reason: "expected a positive worker count".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("IPCP_JOBS"));
        assert!(msg.contains("\"fuor\""));
    }
}
