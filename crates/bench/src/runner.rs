//! Shared experiment machinery for the figures and tables.
//!
//! The centerpiece is the [`Experiment`] builder: a figure function
//! ([`crate::figures`]) runs simulations through the builder's helpers —
//! every one a request to the process's [`PointPool`] — and appends
//! [`Table`]s and note lines. The harness then renders the same structure
//! three ways:
//!
//! * **aligned text** ([`Experiment::render_text`], the `.txt` output),
//! * **CSV** per table when `IPCP_CSV=<dir>` is set,
//! * a **JSON sidecar** (`<dir>/<name>.data.json`) — schema below —
//!   carrying every table with *typed* cells plus any interval
//!   time-series collected during the runs (`IPCP_INTERVAL=<n>` enables
//!   the sampler for all runs made through the builder).
//!
//! Sidecar schema (`schema: 1`):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "fig07_l1_only",
//!   "scale": {"warmup": 100000, "instructions": 400000, "spec": "default"},
//!   "tables": [{"title": "...", "columns": ["trace", ...],
//!               "rows": [["gather", 1.234, ...], ...]}],
//!   "notes": ["paper: ..."],
//!   "series": [{"label": "gather/ipcp", "samples": [{"instructions": ...,
//!               "ipc": ..., "l1d_mpki": ..., ...}, ...]}]
//! }
//! ```
//!
//! The free helpers (`run_combo`, `geomean`, `print_table`, `write_csv`)
//! remain available for tests and ad-hoc tools.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ipcp_sim::prefetch::Prefetcher;
use ipcp_sim::telemetry::{JsonValue, ToJson};
use ipcp_sim::{SimConfig, SimReport};
use ipcp_trace::TraceSource;
use ipcp_workloads::SynthTrace;

use crate::pool::{Point, PointPool};

/// Warm-up / measured instruction counts for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instructions: u64,
}

/// A malformed `IPCP_SCALE` value, carrying the offending spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidScale {
    /// The spec as given.
    pub spec: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for InvalidScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid IPCP_SCALE {:?}: {} (expected \"paper\" or \"<warmup>,<instructions>\")",
            self.spec, self.reason
        )
    }
}

impl std::error::Error for InvalidScale {}

impl RunScale {
    /// The paper-depth scale selected by `IPCP_SCALE=paper`.
    pub const PAPER: Self = Self {
        warmup: 1_000_000,
        instructions: 4_000_000,
    };

    /// Parses an `IPCP_SCALE` spec: `paper`, or `<warmup>,<instructions>`.
    ///
    /// # Errors
    ///
    /// Any other shape — trailing fields, empty fields, unparseable
    /// numbers, a zero measured count — is an error naming the offending
    /// value; nothing silently falls back to the default.
    pub fn parse(spec: &str) -> Result<Self, InvalidScale> {
        let err = |reason: &str| InvalidScale {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        if spec.trim() == "paper" {
            return Ok(Self::PAPER);
        }
        let fields: Vec<&str> = spec.split(',').collect();
        if fields.len() != 2 {
            return Err(err("expected exactly two comma-separated counts"));
        }
        let parse = |field: &str, what: &str| {
            field.trim().parse::<u64>().map_err(|_| {
                err(&format!(
                    "cannot parse {what} {:?} as a count",
                    field.trim()
                ))
            })
        };
        let warmup = parse(fields[0], "warm-up")?;
        let instructions = parse(fields[1], "instruction count")?;
        if instructions == 0 {
            return Err(err("measured instruction count must be positive"));
        }
        Ok(Self {
            warmup,
            instructions,
        })
    }

    /// The scale selected by the `IPCP_SCALE` environment variable, or the
    /// default quick scale when unset. The default regenerates every figure
    /// in minutes; the paper uses 50 M + 200 M — `IPCP_SCALE=paper` selects
    /// 10× deeper runs (relative orderings are stable; see DESIGN.md §4)
    /// and `IPCP_SCALE=<warmup>,<instructions>` anything else.
    ///
    /// # Errors
    ///
    /// A set-but-malformed value is an error (see [`RunScale::parse`]);
    /// callers are expected to fail loudly rather than run at an
    /// unintended scale.
    pub fn from_env() -> Result<Self, InvalidScale> {
        match std::env::var("IPCP_SCALE") {
            Ok(spec) => Self::parse(&spec),
            Err(std::env::VarError::NotPresent) => Ok(Self::default()),
            Err(std::env::VarError::NotUnicode(_)) => Err(InvalidScale {
                spec: "<non-unicode>".to_string(),
                reason: "value is not valid unicode".to_string(),
            }),
        }
    }
}

impl Default for RunScale {
    fn default() -> Self {
        Self {
            warmup: 100_000,
            instructions: 400_000,
        }
    }
}

/// The interval-sampler period selected by `IPCP_INTERVAL` (retired
/// instructions per sample), or `None` when unset/empty. Parsed through
/// the consolidated [`crate::env`] module: a malformed or zero value
/// prints the offending value and exits with status 2 (it used to panic).
pub fn sample_interval_from_env() -> Option<u64> {
    crate::env::or_die(crate::env::interval())
}

/// Runs one trace under a named combo at the given scale, on the calling
/// thread (through the disk cache when `IPCP_SIMCACHE` is on).
pub fn run_combo(combo: &str, trace: &SynthTrace, scale: RunScale) -> SimReport {
    Point::single(combo, trace, scale, |_| {}).simulate()
}

/// Calls `submit` for every (case, trace) pair trace by trace — so a
/// figure queues each trace's runs together and the pool builds that
/// trace's memo once — and returns the results case by case:
/// `out[case][trace]`.
pub fn trace_major<C, T>(
    traces: &[SynthTrace],
    cases: &[C],
    mut submit: impl FnMut(&C, &SynthTrace) -> T,
) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = cases.iter().map(|_| Vec::new()).collect();
    for t in traces {
        for (case, runs) in cases.iter().zip(&mut out) {
            runs.push(submit(case, t));
        }
    }
    out
}

/// Geometric mean of a slice (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

// ---------------------------------------------------------------------
// Cells, tables, experiments
// ---------------------------------------------------------------------

/// One table cell: the exact text shown on stdout/CSV plus, for numeric
/// cells, the typed value emitted in the JSON sidecar.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A plain text cell (trace names, storage formulas, ...).
    Text(String),
    /// A numeric cell: `text` is what stdout/CSV show, `value` is what the
    /// sidecar carries.
    Num {
        /// Rendered form, e.g. `"1.234"` or `"87%"`.
        text: String,
        /// The underlying number.
        value: f64,
    },
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Self {
        Self::Text(s.into())
    }

    /// A numeric cell with explicit rendering.
    pub fn num(value: f64, text: impl Into<String>) -> Self {
        Self::Num {
            text: text.into(),
            value,
        }
    }

    /// A numeric cell rendered `{:.3}` — the speedup format.
    pub fn f3(value: f64) -> Self {
        Self::num(value, format!("{value:.3}"))
    }

    /// A numeric cell rendered `{:.2}`.
    pub fn f2(value: f64) -> Self {
        Self::num(value, format!("{value:.2}"))
    }

    /// An integer cell.
    pub fn int(value: u64) -> Self {
        Self::num(value as f64, value.to_string())
    }

    /// A percentage cell: `value` is in percent and rendered with
    /// `decimals` fraction digits plus a `%` sign.
    pub fn pct(value: f64, decimals: usize) -> Self {
        Self::num(value, format!("{value:.decimals$}%"))
    }

    /// The rendered text (stdout / CSV form).
    pub fn as_text(&self) -> &str {
        match self {
            Self::Text(s) => s,
            Self::Num { text, .. } => text,
        }
    }

    fn to_json(&self) -> JsonValue {
        match self {
            Self::Text(s) => JsonValue::Str(s.clone()),
            Self::Num { value, .. } => {
                // Integral values serialize as JSON integers so counters
                // stay exact and diffs stay clean.
                if value.fract() == 0.0 && value.abs() < 9e15 {
                    JsonValue::Int(*value as i64)
                } else {
                    JsonValue::Num(*value)
                }
            }
        }
    }
}

/// One titled table: columns plus typed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title, printed as `== title`.
    pub title: String,
    /// Subtitle lines printed verbatim under the title (e.g. the scale
    /// note); not part of the CSV/JSON payload.
    pub subtitles: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A new empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            subtitles: Vec::new(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a subtitle line (builder style).
    #[must_use]
    pub fn subtitle(mut self, line: impl Into<String>) -> Self {
        self.subtitles.push(line.into());
        self
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        self.rows.push(cells);
    }

    fn text_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| r.iter().map(|c| c.as_text().to_string()).collect())
            .collect()
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("title", self.title.as_str())
            .set(
                "columns",
                JsonValue::Arr(
                    self.columns
                        .iter()
                        .map(|c| JsonValue::Str(c.clone()))
                        .collect(),
                ),
            )
            .set(
                "rows",
                JsonValue::Arr(
                    self.rows
                        .iter()
                        .map(|r| JsonValue::Arr(r.iter().map(Cell::to_json).collect()))
                        .collect(),
                ),
            )
    }
}

/// Renders an aligned table (header, dash rule, rows) to a string — the
/// workspace's canonical text-table form.
pub fn format_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |row: &[String]| {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i.min(cols - 1)]))
            .collect();
        cells.join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    print!("{}", format_table(header, rows));
}

/// An ordered output item of an experiment.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    Table(Table),
    Note(String),
    Blank,
}

/// A labeled interval time-series collected from one simulation run. The
/// samples are shared with the originating [`SimReport`] — attaching a
/// series is an `Arc` bump, not a copy.
#[derive(Debug, Clone, PartialEq)]
struct SeriesEntry {
    label: String,
    samples: Arc<[ipcp_sim::telemetry::Sample]>,
}

/// Aggregate of the wakeup-scheduler counters over every report attached
/// to an experiment (non-empty only when `IPCP_SCHED_STATS` was set for
/// the runs). Sums are totals across runs; `heap_peak` is the maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SchedAgg {
    runs: u64,
    wakeups_fired: u64,
    executed_cycles: u64,
    skipped_cycles: u64,
    heap_peak: u64,
}

/// A run submitted through an [`Experiment`] and not yet taken: the
/// pending report plus the series label it attaches under (`None` for a
/// baseline).
#[must_use = "a submitted run is only useful once taken"]
pub struct Ticket {
    pending: crate::pool::Pending,
    label: Option<String>,
}

/// One figure/table experiment: owns the run scale, a handle to the point
/// pool its simulations run on, and the ordered output (tables and
/// notes). See the module docs for the three output forms.
pub struct Experiment {
    name: String,
    scale: RunScale,
    /// The raw `IPCP_SCALE` spec, or `None` when the scale came from the
    /// default (possibly overridden by [`Experiment::default_scale`]).
    scale_spec: Option<String>,
    pool: Arc<PointPool>,
    items: Vec<Item>,
    series: Vec<SeriesEntry>,
    sched: SchedAgg,
}

impl Experiment {
    /// Starts an experiment on `pool`, resolving the scale from
    /// `IPCP_SCALE`. On a malformed value this prints the offending spec
    /// and exits with status 2 — experiments must never silently run at
    /// the wrong scale.
    pub fn new(name: &str, pool: Arc<PointPool>) -> Self {
        let (scale, scale_spec) = match RunScale::from_env() {
            Ok(s) => (s, std::env::var("IPCP_SCALE").ok()),
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(2);
            }
        };
        Self::with_scale_spec(name, scale, scale_spec, pool)
    }

    /// Starts an experiment at an explicit scale, ignoring the environment
    /// (used by tests).
    pub fn with_scale(name: &str, scale: RunScale, pool: Arc<PointPool>) -> Self {
        Self::with_scale_spec(name, scale, None, pool)
    }

    fn with_scale_spec(
        name: &str,
        scale: RunScale,
        scale_spec: Option<String>,
        pool: Arc<PointPool>,
    ) -> Self {
        Self {
            name: name.to_string(),
            scale,
            scale_spec,
            pool,
            items: Vec::new(),
            series: Vec::new(),
            sched: SchedAgg::default(),
        }
    }

    /// The experiment name (registry name, output file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resolved run scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// Overrides the scale used when `IPCP_SCALE` is *unset* — for
    /// experiments whose defaults differ from the global quick scale
    /// (fig15's mixes, ext_temporal's long recurrence distances). An
    /// explicit `IPCP_SCALE` still wins.
    pub fn default_scale(&mut self, scale: RunScale) {
        if self.scale_spec.is_none() {
            self.scale = scale;
        }
    }

    // -- running simulations ------------------------------------------

    // A figure submits runs without waiting, so it can queue all of them
    // — trace by trace, so each trace's memo is built once — before it
    // reads the first one ([`Experiment::take`]).

    /// Submits a run of `trace` under `combo` at the experiment scale; its
    /// interval series attaches under the label `<trace>/<combo>`.
    pub fn submit_combo(&self, combo: &str, trace: &SynthTrace) -> Ticket {
        self.submit_combo_with(combo, trace, |_| {})
    }

    /// [`Experiment::submit_combo`] with a config tweak.
    pub fn submit_combo_with(
        &self,
        combo: &str,
        trace: &SynthTrace,
        tweak: impl FnOnce(&mut SimConfig),
    ) -> Ticket {
        Ticket {
            pending: self
                .pool
                .submit(&self.name, Point::single(combo, trace, self.scale, tweak)),
            label: Some(format!("{}/{combo}", trace.name())),
        }
    }

    /// Submits the no-prefetching baseline run of a trace: the `none`
    /// point, shared with every other request for it. Unlike
    /// [`Experiment::submit_combo`], it attaches no series.
    pub fn submit_baseline(&self, trace: &SynthTrace) -> Ticket {
        Ticket {
            pending: self
                .pool
                .submit(&self.name, Point::single("none", trace, self.scale, |_| {})),
            label: None,
        }
    }

    /// Submits explicitly constructed prefetchers on `trace`; the series
    /// attaches under `<trace>/<label>`. Custom runs are never
    /// deduplicated.
    pub fn submit_custom(
        &self,
        label: &str,
        trace: &SynthTrace,
        l1: Box<dyn Prefetcher>,
        l2: Box<dyn Prefetcher>,
        llc: Box<dyn Prefetcher>,
    ) -> Ticket {
        let mut cfg =
            SimConfig::default().with_instructions(self.scale.warmup, self.scale.instructions);
        cfg.sample_interval = sample_interval_from_env();
        Ticket {
            pending: self
                .pool
                .submit_custom(&self.name, trace, cfg, [l1, l2, llc]),
            label: Some(format!("{}/{label}", trace.name())),
        }
    }

    /// Waits for a submitted run and attaches its interval series (and
    /// scheduler counters) to the experiment.
    pub fn take(&mut self, ticket: Ticket) -> Arc<SimReport> {
        let r = ticket.pending.wait();
        if let Some(label) = ticket.label {
            self.attach_series(label, &r);
        }
        r
    }

    /// Runs keyed points as one batch over the pool's workers, reports in
    /// input order (no series attached).
    pub fn run_points(&self, points: Vec<Point>) -> Vec<Arc<SimReport>> {
        self.pool.run_batch(&self.name, points)
    }

    /// Attaches a report's interval time-series (if any) to the sidecar
    /// under `label`. Runs made through the experiment helpers attach
    /// automatically; use this for reports produced by hand-rolled
    /// [`ipcp_sim::System`] setups.
    pub fn attach_series(&mut self, label: impl Into<String>, report: &SimReport) {
        // Scheduler observability rides along with series attachment: every
        // run helper funnels its report through here, so a sidecar's
        // `sched` block covers the same runs its tables do.
        if let Some(st) = report.sched {
            self.sched.runs += 1;
            self.sched.wakeups_fired += st.wakeups_fired;
            self.sched.executed_cycles += st.executed_cycles;
            self.sched.skipped_cycles += st.skipped_cycles;
            self.sched.heap_peak = self.sched.heap_peak.max(st.heap_peak);
        }
        if !report.samples.is_empty() {
            self.series.push(SeriesEntry {
                label: label.into(),
                samples: report.samples.clone(),
            });
        }
    }

    // -- collecting output --------------------------------------------

    /// Appends a table.
    pub fn table(&mut self, table: Table) {
        self.items.push(Item::Table(table));
    }

    /// Appends a free-form note line (the `paper: ...` footers).
    pub fn note(&mut self, line: impl Into<String>) {
        self.items.push(Item::Note(line.into()));
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.items.push(Item::Blank);
    }

    /// The standard speedup comparison: every trace × every combo,
    /// normalized to no prefetching, as a table with a geomean footer.
    /// Returns per-combo speedup lists in trace order.
    ///
    /// The (trace × combo) simulations — including the per-trace
    /// baselines — go to the pool as one batch, so they fan out over its
    /// workers. Results are assembled in input order and every simulation
    /// is deterministic, so the output is byte-identical for any worker
    /// count.
    pub fn speedup_comparison(
        &mut self,
        title: &str,
        traces: &[SynthTrace],
        combo_names: &[&str],
    ) -> HashMap<String, Vec<f64>> {
        let scale = self.scale;
        // One baseline run per trace, then one per (trace, combo), all
        // queued before the first is read.
        let tickets: Vec<Ticket> = traces
            .iter()
            .flat_map(|t| {
                std::iter::once("none")
                    .chain(combo_names.iter().copied())
                    .map(move |c| (t, c))
            })
            .map(|(t, c)| self.submit_combo(c, t))
            .collect();
        let reports: Vec<Arc<SimReport>> = tickets.into_iter().map(|t| self.take(t)).collect();
        let mut results: HashMap<String, Vec<f64>> = HashMap::new();
        let mut columns = vec!["trace"];
        columns.extend_from_slice(combo_names);
        let mut table = Table::new(title, &columns).subtitle(format!(
            "   (scale: {}k warm-up + {}k measured instructions; speedups normalized to no prefetching)",
            scale.warmup / 1000,
            scale.instructions / 1000
        ));
        let per_trace = 1 + combo_names.len();
        for (ti, trace) in traces.iter().enumerate() {
            let base_ipc = reports[ti * per_trace].ipc();
            let mut row = vec![Cell::text(trace.name())];
            for (ci, &combo) in combo_names.iter().enumerate() {
                let sp = reports[ti * per_trace + 1 + ci].ipc() / base_ipc;
                results.entry(combo.to_string()).or_default().push(sp);
                row.push(Cell::f3(sp));
            }
            table.row(row);
        }
        let mut footer = vec![Cell::text("GEOMEAN")];
        for &combo in combo_names {
            footer.push(Cell::f3(geomean(&results[combo])));
        }
        table.row(footer);
        self.table(table);
        results
    }

    // -- rendering -----------------------------------------------------

    /// The aligned-text rendering (exactly what `finish` prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Table(t) => {
                    out.push_str(&format!("== {}\n", t.title));
                    for s in &t.subtitles {
                        out.push_str(s);
                        out.push('\n');
                    }
                    out.push_str(&format_table(&t.columns, &t.text_rows()));
                }
                Item::Note(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
                Item::Blank => out.push('\n'),
            }
        }
        out
    }

    /// The JSON sidecar document.
    pub fn sidecar_json(&self) -> JsonValue {
        let mut v = JsonValue::obj()
            .set("schema", 1i64)
            .set("name", self.name.as_str())
            .set(
                "scale",
                JsonValue::obj()
                    .set("warmup", self.scale.warmup)
                    .set("instructions", self.scale.instructions)
                    .set(
                        "spec",
                        self.scale_spec.clone().unwrap_or_else(|| "default".into()),
                    ),
            )
            .set(
                "tables",
                JsonValue::Arr(
                    self.items
                        .iter()
                        .filter_map(|i| match i {
                            Item::Table(t) => Some(t.to_json()),
                            _ => None,
                        })
                        .collect(),
                ),
            )
            .set(
                "notes",
                JsonValue::Arr(
                    self.items
                        .iter()
                        .filter_map(|i| match i {
                            Item::Note(line) => Some(JsonValue::Str(line.clone())),
                            _ => None,
                        })
                        .collect(),
                ),
            );
        if !self.series.is_empty() {
            v.insert(
                "series",
                JsonValue::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            JsonValue::obj().set("label", s.label.as_str()).set(
                                "samples",
                                JsonValue::Arr(s.samples.iter().map(ToJson::to_json).collect()),
                            )
                        })
                        .collect(),
                ),
            );
        }
        // Present only when the runs carried scheduler counters
        // (`IPCP_SCHED_STATS`): default sidecars stay byte-identical.
        if self.sched.runs > 0 {
            v.insert(
                "sched",
                JsonValue::obj()
                    .set("runs", self.sched.runs)
                    .set("wakeups_fired", self.sched.wakeups_fired)
                    .set("executed_cycles", self.sched.executed_cycles)
                    .set("skipped_cycles", self.sched.skipped_cycles)
                    .set("heap_peak", self.sched.heap_peak),
            );
        }
        v
    }

    /// Writes the JSON sidecar to `<dir>/<name>.data.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_sidecar(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.data.json", self.name));
        std::fs::write(&path, self.sidecar_json().to_pretty_string())?;
        Ok(path)
    }

    /// Writes each table as `<dir>/<slug>.csv` (slug: title with
    /// non-alphanumerics mapped to `_`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the files.
    pub fn write_csvs(&self, dir: &Path) -> std::io::Result<()> {
        for item in &self.items {
            let Item::Table(t) = item else { continue };
            let slug: String = t
                .title
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            write_csv(
                &Path::new(dir).join(format!("{slug}.csv")),
                &t.columns,
                &t.text_rows(),
            )?;
        }
        Ok(())
    }
}

/// Writes a header + rows as CSV.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_csv(
    path: &std::path::Path,
    header: &[String],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn scale_parse_accepts_valid_specs() {
        assert_eq!(RunScale::parse("paper").unwrap(), RunScale::PAPER);
        assert_eq!(
            RunScale::parse("10000,40000").unwrap(),
            RunScale {
                warmup: 10_000,
                instructions: 40_000
            }
        );
        assert_eq!(
            RunScale::parse(" 5000 , 20000 ").unwrap(),
            RunScale {
                warmup: 5_000,
                instructions: 20_000
            }
        );
    }

    /// Satellite regression: malformed IPCP_SCALE values must be errors
    /// carrying the offending spec, never silent defaults.
    #[test]
    fn scale_parse_rejects_malformed_specs() {
        for bad in [
            "paper,",
            "",
            ",",
            "10000",
            "10a,40000",
            "10000,40b",
            "1,2,3",
            "10000,",
            ",40000",
            "10000,0",
            "-5,100",
        ] {
            let err = RunScale::parse(bad).unwrap_err();
            assert_eq!(err.spec, bad, "error must carry the offending value");
            assert!(
                err.to_string().contains(&format!("{bad:?}")),
                "message must show the spec: {err}"
            );
        }
    }

    fn pool() -> Arc<PointPool> {
        Arc::new(PointPool::new(1))
    }

    /// Baselines are `none` points: asking twice (or asking for the same
    /// run under its combo name) reuses one simulation.
    #[test]
    fn baseline_cache_reuses() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[0];
        let scale = RunScale {
            warmup: 5_000,
            instructions: 20_000,
        };
        let pool = pool();
        let mut exp = Experiment::with_scale("demo", scale, Arc::clone(&pool));
        let a = exp.take(exp.submit_baseline(t));
        let b = exp.take(exp.submit_baseline(t));
        let c = exp.take(exp.submit_combo("none", t));
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c));
        assert_eq!(*a, run_combo("none", t, scale), "pooled = direct");
        let stats = pool.stats();
        assert_eq!((stats.requests, stats.simulated), (3, 1));
    }

    #[test]
    fn run_combo_quick_smoke() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let scale = RunScale {
            warmup: 5_000,
            instructions: 20_000,
        };
        let r = run_combo("ipcp", &traces[1], scale);
        assert!(r.ipc() > 0.0);
        assert!(r.cores[0].l1d.pf_issued > 0);
    }

    #[test]
    fn format_table_aligns_and_rules() {
        let header = vec!["trace".to_string(), "ipcp".to_string()];
        let rows = vec![
            vec!["gather".to_string(), "1.234".to_string()],
            vec!["s".to_string(), "0.9".to_string()],
        ];
        let out = format_table(&header, &rows);
        assert_eq!(
            out,
            " trace   ipcp\n------  -----\ngather  1.234\n     s    0.9\n"
        );
    }

    #[test]
    fn experiment_renders_items_in_order() {
        let mut exp = Experiment::with_scale("demo", RunScale::default(), pool());
        let mut t = Table::new("Demo table", &["trace", "x"]).subtitle("   (sub)");
        t.row(vec![Cell::text("a"), Cell::f3(1.5)]);
        exp.table(t);
        exp.blank();
        exp.note("paper: demo note");
        let text = exp.render_text();
        assert_eq!(
            text,
            "== Demo table\n   (sub)\ntrace      x\n-----  -----\n    a  1.500\n\npaper: demo note\n"
        );
    }

    #[test]
    fn experiment_sidecar_schema() {
        let mut exp = Experiment::with_scale(
            "demo",
            RunScale {
                warmup: 5_000,
                instructions: 20_000,
            },
            pool(),
        );
        let mut t = Table::new("Demo table", &["trace", "speedup", "count", "share"]);
        t.row(vec![
            Cell::text("a"),
            Cell::f3(1.2345),
            Cell::int(42),
            Cell::pct(87.3, 1),
        ]);
        exp.table(t);
        exp.note("n1");
        let j = exp.sidecar_json();
        assert_eq!(j.get("schema").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("name").unwrap().as_str(), Some("demo"));
        let scale = j.get("scale").unwrap();
        assert_eq!(scale.get("warmup").unwrap().as_u64(), Some(5_000));
        assert_eq!(scale.get("spec").unwrap().as_str(), Some("default"));
        let tables = j.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let row = &tables[0].get("rows").unwrap().as_array().unwrap()[0];
        let cells = row.as_array().unwrap();
        assert_eq!(cells[0].as_str(), Some("a"));
        assert_eq!(cells[1].as_f64(), Some(1.2345));
        assert_eq!(cells[2].as_u64(), Some(42), "integral cells are integers");
        assert_eq!(cells[3].as_f64(), Some(87.3), "pct cells carry percent");
        assert!(j.get("series").is_none(), "no runs ⇒ no series key");
        // The document survives a parse round-trip.
        let rendered = j.to_pretty_string();
        assert_eq!(
            JsonValue::parse(&rendered).unwrap().to_pretty_string(),
            rendered
        );
    }

    #[test]
    fn experiment_sidecar_writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("ipcp-sidecar-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut exp = Experiment::with_scale("demo_exp", RunScale::default(), pool());
        exp.table(Table::new("T", &["a"]));
        let path = exp.write_sidecar(&dir).unwrap();
        assert_eq!(path, dir.join("demo_exp.data.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("demo_exp"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_collects_series_from_sampled_runs() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let mut exp = Experiment::with_scale(
            "series_demo",
            RunScale {
                warmup: 2_000,
                instructions: 10_000,
            },
            pool(),
        );
        // No IPCP_INTERVAL in the test env: enable sampling via the tweak.
        let r = exp.take(exp.submit_combo_with("ipcp", &traces[0], |cfg| {
            cfg.sample_interval = Some(2_000);
        }));
        assert!(!r.samples.is_empty());
        let j = exp.sidecar_json();
        let series = j.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(
            series[0].get("label").unwrap().as_str(),
            Some(format!("{}/ipcp", traces[0].name()).as_str())
        );
        let samples = series[0].get("samples").unwrap().as_array().unwrap();
        assert_eq!(samples.len(), r.samples.len());
        for key in ["instructions", "ipc", "l1d_mpki", "dram_bus_utilization"] {
            assert!(samples[0].get(key).is_some(), "sample missing {key}");
        }
    }

    #[test]
    fn default_scale_yields_to_explicit_env_spec() {
        let mut exp = Experiment::with_scale_spec(
            "demo",
            RunScale {
                warmup: 1,
                instructions: 2,
            },
            Some("1,2".into()),
            pool(),
        );
        exp.default_scale(RunScale::PAPER);
        assert_eq!(
            exp.scale(),
            RunScale {
                warmup: 1,
                instructions: 2
            },
            "explicit IPCP_SCALE wins over an experiment default"
        );
        let mut exp = Experiment::with_scale("demo", RunScale::default(), pool());
        exp.default_scale(RunScale::PAPER);
        assert_eq!(exp.scale(), RunScale::PAPER);
    }
}
