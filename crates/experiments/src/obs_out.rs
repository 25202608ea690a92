//! Run-artifact output for the experiments binary: the table of file kinds
//! an artifact directory holds ([`Artifact`]: each kind's file name,
//! printed label and `obs-diff` rule), the figure pipeline
//! ([`run_and_write`]) that runs one figure under the armed observation
//! planes and writes each plane's files, the run-artifact and summary
//! documents, the end-of-run phase-timing table printed under `--obs`, and
//! the wall-clock-blind artifact diff behind `obs-diff`.

use crate::divergence::digest_doc;
use crate::profile_out::profile_doc;
use crate::report::{aggregate_replicates, FigureReport};
use crate::scale::Scale;
use crate::timeprof_out::timeprof_doc;
use crate::trace_out::write_figure_trace;
use crate::{run_figure_ctx, RunCtx};
use cdnc_obs::{
    chain_hex, digest_str, json, DigestConfig, HealthMonitor, HealthMonitorConfig, Json,
    ProfileSnapshot, Registry, SpanStore,
};
use cdnc_trace::Trace;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default artifact directory, relative to the working directory.
pub const DEFAULT_OBS_DIR: &str = "results/obs";

/// Flight-recorder anomaly threshold: adoption lag above this many
/// seconds retains the update's full trace.
pub const DEFAULT_TRACE_THRESHOLD_S: f64 = 60.0;

/// Subdirectory of the artifact dir holding flight-recorder dumps.
pub const FLIGHTREC_SUBDIR: &str = "flightrec";

/// How `obs-diff` compares the two copies of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffRule {
    /// Parsed, stripped of [`VOLATILE_KEYS`], then compared exactly.
    Scrubbed,
    /// Compared by ordered stack paths: the self-nanosecond values are
    /// wall clock.
    StackPaths,
    /// Compared byte for byte.
    Bytes,
    /// Never compared: live wall-clock telemetry, and a run may be torn
    /// down mid-beat.
    Skipped,
}

/// Every kind of file the figure pipeline writes into an artifact
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Artifact {
    Run,
    Workload,
    Series,
    Digest,
    Trace,
    FlightDump,
    Profile,
    Timeprof,
    Folded,
    Health,
    Summary,
}

/// The table: each kind, the subdirectory its files live in, their name
/// (`{id}` stands for the figure id, or a dump's `<figure>_<stem>`), the
/// label printed before a written file's path, and the `obs-diff` rule. A
/// file name is matched against the rows in order, so the fixed summary
/// name comes first and the `.json` catch-all last.
const ARTIFACTS: [(Artifact, &str, &str, &str, DiffRule); 11] = {
    use DiffRule::*;
    [
        (Artifact::Summary, "", "summary.json", "observability summary", Scrubbed),
        (Artifact::Workload, "", "{id}.workload.json", "workload curves", Scrubbed),
        (Artifact::Series, "", "{id}.series.json", "series", Scrubbed),
        (Artifact::Digest, "", "{id}.digest.json", "digest", Scrubbed),
        (Artifact::Trace, "", "{id}.trace.json", "trace", Bytes),
        (Artifact::Profile, "", "{id}.profile.json", "profile artifact", Scrubbed),
        (Artifact::Timeprof, "", "{id}.timeprof.json", "timeprof artifact", Scrubbed),
        (Artifact::Folded, "", "{id}.folded", "flamegraph stacks", StackPaths),
        (Artifact::Health, "", "{id}.health.json", "health heartbeat", Skipped),
        (Artifact::FlightDump, FLIGHTREC_SUBDIR, "{id}.json", "flight recorder", Scrubbed),
        (Artifact::Run, "", "{id}.json", "run artifact", Scrubbed),
    ]
};

impl Artifact {
    /// This kind's row of [`ARTIFACTS`], without the kind.
    fn row(self) -> (&'static str, &'static str, &'static str, DiffRule) {
        let row = ARTIFACTS.iter().find(|row| row.0 == self).expect("every kind has a row");
        (row.1, row.2, row.3, row.4)
    }

    /// The label printed before a written file's path.
    pub fn label(self) -> &'static str {
        self.row().2
    }

    /// How `obs-diff` compares two copies of this kind's file.
    pub fn diff_rule(self) -> DiffRule {
        self.row().3
    }

    /// The path of this kind's file for `id` under artifact directory
    /// `dir` (the summary's name is fixed, so it ignores `id`).
    pub fn path(self, dir: &Path, id: &str) -> PathBuf {
        let (sub, name, ..) = self.row();
        dir.join(sub).join(name.replace("{id}", id))
    }

    /// Creates the directories this kind's file needs and writes `body`
    /// as the file for `id` under `dir`; returns its path.
    pub fn write(self, dir: &Path, id: &str, body: impl AsRef<[u8]>) -> io::Result<PathBuf> {
        let path = self.path(dir, id);
        std::fs::create_dir_all(path.parent().unwrap_or(dir))?;
        std::fs::write(&path, body)?;
        Ok(path)
    }

    /// The kind and id of the file at `name`, a path relative to an
    /// artifact directory as [`list_files`] returns it; `None` for a file
    /// the pipeline does not write.
    pub fn classify(name: &str) -> Option<(Artifact, &str)> {
        let (sub, file) = name.rsplit_once('/').unwrap_or(("", name));
        ARTIFACTS.iter().find_map(|&(kind, kind_sub, pattern, ..)| {
            let id = match pattern.split_once("{id}") {
                _ if kind_sub != sub => None,
                None => (file == pattern).then_some(""),
                Some((pre, post)) => {
                    file.strip_prefix(pre)?.strip_suffix(post).filter(|id| !id.is_empty())
                }
            };
            Some((kind, id?))
        })
    }
}

/// The files of an artifact directory — its top level and the dumps under
/// [`FLIGHTREC_SUBDIR`] — as sorted `/`-separated paths relative to `dir`.
/// No dump directory means no dumps; a missing `dir` is an error.
pub fn list_files(dir: &Path) -> io::Result<BTreeSet<String>> {
    let mut names = BTreeSet::new();
    for sub in ["", FLIGHTREC_SUBDIR] {
        let at = dir.join(sub);
        if !sub.is_empty() && !at.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&at)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                let name = entry.file_name().to_string_lossy().into_owned();
                names.insert(if sub.is_empty() { name } else { format!("{sub}/{name}") });
            }
        }
    }
    Ok(names)
}

/// The observation planes the command line armed: one switch per plane.
/// Each plane's tuning is a fixed constant: the flight recorder keeps
/// updates adopted more than [`DEFAULT_TRACE_THRESHOLD_S`] (60 s) late, the
/// series sampler and memory-spike probe tick every
/// [`cdnc_obs::DEFAULT_CADENCE_US`] (0.25 s of simulated time), a spike is
/// an interval allocating [`cdnc_obs::DEFAULT_SPIKE_MULTIPLE`] (8) times the
/// running median, the digest checkpoints every
/// [`cdnc_obs::DEFAULT_CHECKPOINT_EVERY`] (4096) folds, and the health
/// watchdog declares a stall after [`cdnc_obs::DEFAULT_STALL_AFTER_MS`]
/// (10 s) without an event.
#[derive(Debug, Clone)]
pub struct ObsSettings {
    /// `--obs`: collect metrics and write per-figure artifacts.
    pub enabled: bool,
    /// Where artifacts go (`results/obs` unless overridden).
    pub dir: PathBuf,
    /// `--trace`: record causal update-propagation traces and write them as
    /// Chrome trace-event JSON (plus flight-recorder dumps under
    /// `flightrec/`) next to the figure artifacts.
    pub trace: bool,
    /// `--series`: sample registered gauges/counters on a sim-time cadence
    /// and write per-figure `<figure>.series.json` next to the artifacts.
    pub series: bool,
    /// `profile` subcommand: arm the registry's profiling gate (structural
    /// probes: queue depth at pop, per-kind network accounting, state-size
    /// estimates, the memory-spike probe).
    pub profile: bool,
    /// `timeprof` subcommand: arm the registry's time-profiling gate
    /// (hierarchical span-frame attribution, per-event-kind handler time,
    /// worker utilization).
    pub timeprof: bool,
    /// `--digest`: arm the determinism audit trail (chained event digests,
    /// periodic checkpoints) and write `<figure>.digest.json`.
    pub digest: bool,
    /// `--digest-perturb <idx>`: flip one bit of the folded word at this
    /// local fold index in every segment (divergence self-test).
    pub digest_perturb: Option<u64>,
    /// `--health`: arm the run-health counters and stream a live-updating
    /// `<figure>.health.json` heartbeat while figures run.
    pub health: bool,
}

impl ObsSettings {
    /// Disabled settings: no registry, no files.
    pub fn off() -> Self {
        ObsSettings {
            enabled: false,
            dir: PathBuf::from(DEFAULT_OBS_DIR),
            trace: false,
            series: false,
            profile: false,
            timeprof: false,
            digest: false,
            digest_perturb: None,
            health: false,
        }
    }

    /// A fresh registry per these settings: enabled (with each requested
    /// plane armed) or the inert disabled registry.
    pub fn registry(&self) -> Registry {
        if !self.enabled
            && !self.trace
            && !self.series
            && !self.profile
            && !self.timeprof
            && !self.digest
            && !self.health
        {
            return Registry::disabled();
        }
        let reg = Registry::enabled();
        if self.trace {
            reg.enable_tracing();
        }
        if self.series {
            reg.enable_series(cdnc_obs::DEFAULT_CADENCE_US);
        }
        if self.profile {
            reg.enable_profiling();
        }
        if self.timeprof {
            reg.enable_timeprof();
        }
        if self.digest {
            reg.enable_digest(DigestConfig {
                perturb: self.digest_perturb,
                ..DigestConfig::default()
            });
        }
        if self.health {
            reg.enable_health();
        }
        reg
    }
}

/// One figure run through [`run_and_write`].
pub struct FigureRun {
    /// The report, aggregated over replicates.
    pub report: FigureReport,
    /// Wall-clock seconds the replicates took.
    pub wall_s: f64,
    /// The registry every replicate recorded into.
    pub reg: Registry,
    /// The allocator window bracketing the run (profiling armed only).
    pub window: Option<ProfileSnapshot>,
    /// The recorded spans (tracing armed only).
    pub spans: Option<SpanStore>,
    /// Every file written under `dir` (the dumps aside), in writing order.
    pub written: Vec<(Artifact, PathBuf)>,
    /// Flight-recorder dumps written under `<dir>/flightrec/`.
    pub dumps: usize,
    /// The error that stopped the writing, if any.
    pub error: Option<io::Error>,
}

/// The figure pipeline behind `all`, `<figure>`, `profile` and `timeprof`.
///
/// Runs figure `id` once per replicate (`seeds` of them, §3 figures
/// reading `traces[r]` when given, building their trace otherwise) into
/// one fresh registry under the `--health` heartbeat, and folds the
/// replicates into one report. When profiling is armed, the allocator
/// window brackets exactly the replicate runs. It then writes every armed
/// plane's files into `obs.dir`:
///
/// * `--obs`: `<id>.json`, plus `<id>.workload.json` when the report
///   carries curves;
/// * `--series`: `<id>.series.json`; `--digest`: `<id>.digest.json`;
/// * `--trace`: `<id>.trace.json` and `flightrec/` dumps;
/// * profiling: `<id>.profile.json`;
/// * timeprof: `<id>.timeprof.json` and `<id>.folded`.
///
/// Returns `None` for an unknown figure id, before running anything.
pub fn run_and_write(
    obs: &ObsSettings,
    id: &str,
    ctx: RunCtx,
    seeds: u64,
    traces: &[Trace],
) -> Option<FigureRun> {
    if !crate::figure_ids().any(|f| f == id) {
        return None;
    }
    let reg = obs.registry();
    let health = HealthMonitor::start(
        &reg,
        HealthMonitorConfig {
            figure: id.to_owned(),
            path: Artifact::Health.path(&obs.dir, id),
            interval: Duration::from_millis(cdnc_obs::DEFAULT_HEARTBEAT_MS),
            stall_after: Duration::from_millis(cdnc_obs::DEFAULT_STALL_AFTER_MS),
        },
    );
    let base = obs.profile.then(|| {
        cdnc_obs::profile::set_enabled(true);
        cdnc_obs::profile::reset_window_peaks();
        cdnc_obs::profile::snapshot()
    });
    let started = Instant::now();
    let runs: Vec<FigureReport> = (0..seeds.max(1))
        .map(|r| {
            run_figure_ctx(id, ctx.replicate(r), traces.get(r as usize), &reg).expect("known id")
        })
        .collect();
    let window = base.map(|base| {
        cdnc_obs::profile::set_enabled(false);
        cdnc_obs::profile::snapshot().window_since(&base)
    });
    let wall_s = started.elapsed().as_secs_f64();
    drop(health);
    let mut run = FigureRun {
        report: aggregate_replicates(&runs),
        wall_s,
        spans: obs.trace.then(|| reg.tracer().store()),
        reg,
        window,
        written: Vec::new(),
        dumps: 0,
        error: None,
    };
    run.error = write_planes(obs, id, ctx.scale, &mut run).err();
    Some(run)
}

/// Writes every armed plane's files for [`run_and_write`], recording each
/// into `run.written`; stops at the first failure.
fn write_planes(obs: &ObsSettings, id: &str, scale: Scale, run: &mut FigureRun) -> io::Result<()> {
    let dir = obs.dir.as_path();
    if obs.enabled {
        let doc = run_artifact_doc(id, scale, &run.report, run.wall_s, &run.reg);
        run.put(dir, id, Artifact::Run, doc.to_pretty())?;
        if let Some(doc) = workload_doc(id, &run.report) {
            run.put(dir, id, Artifact::Workload, doc.to_pretty())?;
        }
    }
    if run.reg.sampler().is_enabled() {
        let doc = run.reg.series_snapshot().to_json();
        run.put(dir, id, Artifact::Series, doc.to_pretty())?;
    }
    if let Some(doc) = digest_doc(id, scale, &run.reg) {
        run.put(dir, id, Artifact::Digest, doc.to_pretty())?;
    }
    if let Some(spans) = &run.spans {
        if let Some((path, dumps)) = write_figure_trace(dir, id, spans)? {
            run.written.push((Artifact::Trace, path));
            run.dumps = dumps;
        }
    }
    if let Some(window) = &run.window {
        let doc = profile_doc(id, scale, window, &run.reg, run.wall_s);
        run.put(dir, id, Artifact::Profile, doc.to_pretty())?;
    }
    if let Some(snap) = run.reg.timeprof_snapshot() {
        let doc = timeprof_doc(id, scale, &snap, run.wall_s);
        run.put(dir, id, Artifact::Timeprof, doc.to_pretty())?;
        run.put(dir, id, Artifact::Folded, cdnc_obs::to_folded(&snap.frames))?;
    }
    Ok(())
}

impl FigureRun {
    /// Writes `body` as `kind`'s file for `id` under `dir` and records it.
    fn put(&mut self, dir: &Path, id: &str, kind: Artifact, body: String) -> io::Result<()> {
        self.written.push((kind, kind.write(dir, id, body)?));
        Ok(())
    }
}

/// The `<figure-id>.workload.json` document of one figure's report: the
/// named `(x, y)` distribution curves (latency/staleness CDFs) the figure
/// recorded. Purely derived from simulation output, so deterministic and
/// safe to diff. `None` when the report carries no curves.
pub fn workload_doc(id: &str, report: &FigureReport) -> Option<Json> {
    if report.curves.is_empty() {
        return None;
    }
    let curves = report
        .curves
        .iter()
        .map(|(name, points)| {
            let pts = points
                .iter()
                .map(|&(x, y)| Json::Arr(vec![Json::from(x), Json::from(y)]))
                .collect();
            Json::obj().field("name", name.as_str()).field("points", Json::Arr(pts))
        })
        .collect();
    Some(Json::obj().field("figure", id).field("curves", Json::Arr(curves)))
}

/// The figure's headline numbers as the artifact's `summary` object.
pub fn figure_summary(report: &FigureReport, scale: Scale, wall_s: f64) -> Json {
    let keyvals =
        report.keyvals.iter().fold(Json::obj(), |obj, (name, value)| obj.field(name, *value));
    Json::obj()
        .field("title", report.title)
        .field("scale", format!("{scale:?}"))
        .field("wall_s", wall_s)
        .field("keyvals", keyvals)
}

/// The `<figure-id>.json` run artifact: run identity (id, master seed,
/// config digest), the figure's headline numbers, and every metric and
/// phase timing `reg` recorded.
pub fn run_artifact_doc(
    id: &str,
    scale: Scale,
    report: &FigureReport,
    wall_s: f64,
    reg: &Registry,
) -> Json {
    let snap = reg.snapshot();
    Json::obj()
        .field("run_id", id)
        .field("seed", scale.crawl_config().seed)
        .field("config_digest", digest_str(&format!("{id}:{scale:?}")))
        .field("summary", figure_summary(report, scale, wall_s))
        .field("metrics", snap.metrics_json())
        .field("phases", snap.spans_json())
}

/// Formats the phase-timing table printed at the end of an `--obs` run.
/// Returns `None` when no spans were recorded.
pub fn timing_table(reg: &Registry) -> Option<String> {
    let snap = reg.snapshot();
    if snap.spans.is_empty() {
        return None;
    }
    let width = snap.spans.iter().map(|(p, _)| p.len()).max().unwrap_or(5).max(5);
    let mut out = String::new();
    out.push_str(&format!("  {:<width$}  {:>7}  {:>10}\n", "phase", "count", "total"));
    for (path, timing) in &snap.spans {
        out.push_str(&format!(
            "  {:<width$}  {:>7}  {:>9.3}s\n",
            path,
            timing.count,
            timing.total_secs()
        ));
    }
    Some(out)
}

/// One row of the consolidated `summary.json` written by `experiments all`.
/// Scheduler pressure rides along: the queue-depth high-water mark always,
/// and the pop-depth histogram's moments when the profiling gate armed it.
/// Figures that ran a request plane additionally get a `request_plane`
/// object with the workload counters (requests, hit/delayed/miss split,
/// evictions, origin fetches, churn events).
pub fn summary_entry(id: &str, wall_s: f64, jobs: usize, reg: &Registry) -> Json {
    let snap = reg.snapshot();
    let events = snap.counter("sched_events_processed");
    let events_per_s = if wall_s > 0.0 { events as f64 / wall_s } else { 0.0 };
    let queue_hwm = snap
        .gauges
        .iter()
        .find(|(name, _)| name == "sched_queue_depth")
        .map_or(0, |(_, g)| g.high_water);
    let mut entry = Json::obj()
        .field("figure", id)
        .field("wall_s", wall_s)
        .field("jobs", jobs as u64)
        .field("events", events)
        .field("events_per_s", events_per_s)
        .field("msgs_lost_to_failed", snap.counter("sim_msgs_lost_to_failed"))
        .field("queue_depth_high_water", queue_hwm);
    if let Some(h) = snap.histogram("sched_queue_depth_at_pop") {
        let mean = if h.count > 0 { h.sum / h.count as f64 } else { 0.0 };
        entry = entry.field(
            "pop_depth",
            Json::obj()
                .field("count", h.count)
                .field("mean", mean)
                .field("max", if h.count > 0 { h.max } else { 0.0 }),
        );
    }
    if let Some(digest) = reg.digest_snapshot() {
        entry = entry.field(
            "digest",
            Json::obj()
                .field("chain", chain_hex(digest.chain))
                .field("events", digest.events)
                .field("segments", digest.segments.len() as u64),
        );
    }
    if let Some(health) = reg.health_snapshot() {
        entry = entry.field(
            "health",
            Json::obj()
                .field("sims_done", health.sims_done)
                .field("sims_total", health.sims_total)
                .field("stalls", health.stalls),
        );
    }
    if snap.counter("wl_requests") > 0 {
        entry = entry.field(
            "request_plane",
            Json::obj()
                .field("requests", snap.counter("wl_requests"))
                .field("hits", snap.counter("wl_hits"))
                .field("delayed_hits", snap.counter("wl_delayed_hits"))
                .field("misses", snap.counter("wl_misses"))
                .field("evictions", snap.counter("wl_evictions"))
                .field("origin_fetches", snap.counter("wl_origin_fetches"))
                .field("churn_events", snap.counter("wl_churn_events")),
        );
    }
    entry
}

/// Artifact fields that legitimately differ between bit-identical runs:
/// wall-clock measurements, memory footprints, and everything derived from
/// them. Scrubbed before artifact comparison.
pub const VOLATILE_KEYS: [&str; 11] = [
    "wall_s",
    "phases",
    "events_per_s",
    "total_wall_s",
    "jobs",
    "peak_rss_kb",
    "alloc_mb_estimate",
    "allocator_telemetry",
    "spikes",
    "time_telemetry",
    // Stall detection keys off wall-clock silence, so the count can differ
    // between bit-identical runs on a loaded machine.
    "stalls",
];

/// Strips the [`VOLATILE_KEYS`] from an artifact document, recursively.
/// What remains is the run's deterministic content: seeds, digests,
/// headline numbers, metrics, event counts.
pub fn scrub_volatile(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(key, _)| !VOLATILE_KEYS.contains(&key.as_str()))
                .map(|(key, value)| (key.clone(), scrub_volatile(value)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(scrub_volatile).collect()),
        other => other.clone(),
    }
}

/// Number of leaf fields (scalars) in a JSON document.
fn leaf_count(doc: &Json) -> usize {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(_, v)| leaf_count(v)).sum(),
        Json::Arr(items) => items.iter().map(leaf_count).sum(),
        _ => 1,
    }
}

/// One step from a document's root: an object key or an array index.
enum Step<'j> {
    Key(&'j str),
    Index(usize),
}

/// Walks two documents together — objects by key union in key order,
/// arrays by index — and calls `found(path, a, b, fields)` once for each
/// differing leaf and each subtree only one side has, `fields` being the
/// leaf fields it counts for (a one-sided subtree counts its size).
fn walk_diffs<'j>(
    a: Option<&'j Json>,
    b: Option<&'j Json>,
    path: &mut Vec<Step<'j>>,
    found: &mut impl FnMut(&[Step<'j>], Option<&Json>, Option<&Json>, usize),
) {
    fn field<'j>(fields: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    match (a, b) {
        (Some(Json::Obj(fa)), Some(Json::Obj(fb))) => {
            let keys: BTreeSet<&str> = fa.iter().chain(fb).map(|(k, _)| k.as_str()).collect();
            for key in keys {
                path.push(Step::Key(key));
                walk_diffs(field(fa, key), field(fb, key), path, found);
                path.pop();
            }
        }
        (Some(Json::Arr(ia)), Some(Json::Arr(ib))) => {
            for i in 0..ia.len().max(ib.len()) {
                path.push(Step::Index(i));
                walk_diffs(ia.get(i), ib.get(i), path, found);
                path.pop();
            }
        }
        _ if a == b => {}
        (Some(x), None) | (None, Some(x)) => found(path, a, b, leaf_count(x).max(1)),
        _ => found(path, a, b, 1),
    }
}

/// The differences between two documents, from one walk: per-top-level-key
/// counts of differing leaf fields (non-zero entries only, key order; a
/// non-object root folds under the pseudo-key `<root>`), and up to `limit`
/// `path: a-value != b-value` lines (dotted object keys, `[i]` array
/// indices, `<missing>` when one side lacks the subtree), depth-first in
/// key order, so the first line is the shallowest-leftmost difference.
pub fn diff_docs(a: &Json, b: &Json, limit: usize) -> (Vec<(String, usize)>, Vec<String>) {
    let (mut counts, mut lines) = (Vec::<(String, usize)>::new(), Vec::new());
    walk_diffs(Some(a), Some(b), &mut Vec::new(), &mut |path, x, y, fields| {
        let key = match path.first() {
            Some(Step::Key(key)) => *key,
            _ => "<root>",
        };
        match counts.last_mut() {
            Some((last, n)) if last == key => *n += fields,
            _ => counts.push((key.to_owned(), fields)),
        }
        if lines.len() < limit {
            let mut rendered = String::new();
            for step in path {
                match step {
                    Step::Key(key) if rendered.is_empty() => rendered.push_str(key),
                    Step::Key(key) => rendered.extend([".", key]),
                    Step::Index(i) => rendered.push_str(&format!("[{i}]")),
                }
            }
            let value = |v: Option<&Json>| v.map_or("<missing>".to_owned(), Json::to_compact);
            lines.push(format!("{rendered}: {} != {}", value(x), value(y)));
        }
    });
    (counts, lines)
}

impl DiffRule {
    /// What differs between two copies of a file under this rule; `None`
    /// when they match.
    fn compare(self, a: &[u8], b: &[u8]) -> Option<String> {
        let text = |body| String::from_utf8_lossy(body).into_owned();
        match self {
            DiffRule::Skipped => None,
            DiffRule::Bytes => (a != b).then(|| "byte-level".to_owned()),
            DiffRule::StackPaths => {
                let stacks = |body| {
                    let lines = cdnc_obs::parse_folded(&text(body))?;
                    Some(lines.into_iter().map(|(path, _)| path).collect::<Vec<_>>())
                };
                match (stacks(a), stacks(b)) {
                    (Some(sa), Some(sb)) => (sa != sb).then(|| "stack paths differ".to_owned()),
                    _ => (a != b).then(|| "unparseable".to_owned()),
                }
            }
            DiffRule::Scrubbed => {
                let parsed = |body| json::parse(&text(body)).map(|doc| scrub_volatile(&doc));
                match (parsed(a), parsed(b)) {
                    (Ok(doc_a), Ok(doc_b)) => {
                        let (counts, paths) = diff_docs(&doc_a, &doc_b, 10);
                        (!counts.is_empty()).then(|| {
                            let per_key: Vec<String> =
                                counts.iter().map(|(key, n)| format!("{key}: {n}")).collect();
                            format!(
                                "differing fields per key: {}\n    {}",
                                per_key.join(", "),
                                paths.join("\n    ")
                            )
                        })
                    }
                    _ => (a != b).then(|| "unparseable".to_owned()),
                }
            }
        }
    }
}

/// Compares two artifact directories file by file — the top level and the
/// flight-recorder dumps, by name and content — each under its kind's
/// [`DiffRule`]: JSON documents scrubbed of [`VOLATILE_KEYS`] (a mismatch
/// reports the per-key count of differing fields), `.folded` stacks by
/// path, `.trace.json` (simulated time) and unknown files byte for byte,
/// health heartbeats skipped. Returns one line per difference — empty
/// means the runs produced identical observable output, the determinism
/// contract `--jobs` promises.
pub fn diff_artifact_dirs(a: &Path, b: &Path) -> io::Result<Vec<String>> {
    let (names_a, names_b) = (list_files(a)?, list_files(b)?);
    let mut diffs = Vec::new();
    for name in names_a.union(&names_b) {
        let rule = match Artifact::classify(name) {
            Some((kind, _)) => kind.diff_rule(),
            // A heartbeat's temporary sibling, left by a run stopped mid-rename.
            None if name.ends_with(".health.json.tmp") => DiffRule::Skipped,
            None => DiffRule::Bytes,
        };
        if rule == DiffRule::Skipped {
            continue;
        }
        match (names_a.contains(name), names_b.contains(name)) {
            (true, false) => diffs.push(format!("{name}: only in {}", a.display())),
            (false, true) => diffs.push(format!("{name}: only in {}", b.display())),
            _ => {
                let (body_a, body_b) = (std::fs::read(a.join(name))?, std::fs::read(b.join(name))?);
                if let Some(detail) = rule.compare(&body_a, &body_b) {
                    diffs.push(format!("{name}: contents differ ({detail})"));
                }
            }
        }
    }
    Ok(diffs)
}

/// The `summary.json` document consolidating every figure of an `all` run.
/// Besides the per-figure rows it records the process's memory footprint:
/// peak RSS (kernel accounting, Linux only) and the cumulative-allocation
/// estimate (when the binary installed [`cdnc_obs::ProfiledAlloc`]).
/// Both are volatile — see [`VOLATILE_KEYS`].
pub fn summary_doc(scale: Scale, entries: Vec<Json>) -> Json {
    let total_wall: f64 =
        entries.iter().filter_map(|e| e.get("wall_s").and_then(Json::as_f64)).sum();
    let total_events: f64 =
        entries.iter().filter_map(|e| e.get("events").and_then(Json::as_f64)).sum();
    Json::obj()
        .field("scale", format!("{scale:?}"))
        .field("total_wall_s", total_wall)
        .field("total_events", total_events)
        .field("peak_rss_kb", cdnc_obs::vm_hwm_kb())
        .field(
            "alloc_mb_estimate",
            cdnc_obs::profile::total_allocated_bytes().map(|b| b as f64 / (1024.0 * 1024.0)),
        )
        .field("figures", Json::Arr(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divergence::digest_doc;

    #[test]
    fn disabled_settings_yield_inert_registry() {
        let s = ObsSettings::off();
        assert!(!s.registry().is_enabled());
    }

    #[test]
    fn obs_flag_arms_metrics_only() {
        let s = ObsSettings { enabled: true, ..ObsSettings::off() };
        let reg = s.registry();
        assert!(reg.is_enabled());
        assert!(!reg.tracer().is_enabled(), "tracing stays off without --trace");
        assert!(!reg.sampler().is_enabled() && !reg.profiling_enabled());
        assert!(!reg.timeprof_enabled() && !reg.digest_enabled() && !reg.health_enabled());
    }

    #[test]
    fn trace_flag_arms_tracer_even_without_obs() {
        let s = ObsSettings { trace: true, ..ObsSettings::off() };
        let reg = s.registry();
        assert!(reg.is_enabled());
        assert!(reg.tracer().is_enabled());
    }

    #[test]
    fn summary_entry_computes_rate() {
        let reg = Registry::enabled();
        reg.counter("sched_events_processed").add(500);
        reg.counter("sim_msgs_lost_to_failed").add(3);
        let e = summary_entry("figX", 2.0, 4, &reg);
        assert_eq!(e.get("events").and_then(Json::as_f64), Some(500.0));
        assert_eq!(e.get("events_per_s").and_then(Json::as_f64), Some(250.0));
        assert_eq!(e.get("jobs").and_then(Json::as_f64), Some(4.0));
        assert_eq!(e.get("msgs_lost_to_failed").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn summary_entry_surfaces_the_request_plane() {
        let reg = Registry::enabled();
        let plain = summary_entry("figX", 1.0, 1, &reg);
        assert!(plain.get("request_plane").is_none(), "absent without workload traffic");
        reg.counter("wl_requests").add(10);
        reg.counter("wl_hits").add(6);
        reg.counter("wl_delayed_hits").add(1);
        reg.counter("wl_misses").add(3);
        reg.counter("wl_origin_fetches").add(3);
        let e = summary_entry("figX", 1.0, 1, &reg);
        let rp = e.get("request_plane").expect("request plane surfaced");
        assert_eq!(rp.get("requests").and_then(Json::as_f64), Some(10.0));
        assert_eq!(rp.get("hits").and_then(Json::as_f64), Some(6.0));
        assert_eq!(rp.get("delayed_hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(rp.get("misses").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn workload_file_written_only_with_curves() {
        let dir = std::env::temp_dir().join(format!("cdnc-workload-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut report = FigureReport::new("figX", "test");
        assert!(workload_doc("figX", &report).is_none());
        report.curve("latency_cdf", vec![(0.0, 0.5), (1.0, 1.0)]);
        let doc = workload_doc("figX", &report).expect("curves present");
        let path = Artifact::Workload.write(&dir, "figX", doc.to_pretty()).unwrap();
        assert!(path.ends_with("figX.workload.json"));
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some("figX"));
        let Some(Json::Arr(curves)) = doc.get("curves") else { panic!("curves array") };
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].get("name").and_then(Json::as_str), Some("latency_cdf"));
        let Some(Json::Arr(points)) = curves[0].get("points") else { panic!("points array") };
        assert_eq!(points.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeprof_flag_arms_gate_even_without_obs() {
        let s = ObsSettings { timeprof: true, ..ObsSettings::off() };
        let reg = s.registry();
        assert!(reg.is_enabled());
        assert!(reg.timeprof_enabled());
        assert!(!ObsSettings::off().registry().timeprof_enabled());
    }

    #[test]
    fn summary_entry_reports_scheduler_pressure() {
        let reg = Registry::enabled();
        let depth = reg.gauge("sched_queue_depth");
        depth.add(12);
        depth.sub(10);
        let plain = summary_entry("figX", 1.0, 1, &reg);
        assert_eq!(plain.get("queue_depth_high_water").and_then(Json::as_f64), Some(12.0));
        assert!(plain.get("pop_depth").is_none(), "histogram absent when profiling is off");
        reg.histogram("sched_queue_depth_at_pop").record(4.0);
        let probed = summary_entry("figX", 1.0, 1, &reg);
        let pop = probed.get("pop_depth").expect("histogram surfaced");
        assert_eq!(pop.get("count").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn dir_diff_compares_folded_stacks_structurally() {
        let base = std::env::temp_dir().join(format!("cdnc-folded-diff-{}", std::process::id()));
        let (da, db) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&da).unwrap();
        std::fs::create_dir_all(&db).unwrap();
        std::fs::write(da.join("fig17.folded"), "run;step 100\nrun 900\n").unwrap();
        std::fs::write(db.join("fig17.folded"), "run;step 350\nrun 651\n").unwrap();
        assert!(
            diff_artifact_dirs(&da, &db).unwrap().is_empty(),
            "self-time drift over identical stacks is ignored"
        );
        std::fs::write(db.join("fig17.folded"), "run;other 350\nrun 651\n").unwrap();
        let diffs = diff_artifact_dirs(&da, &db).unwrap();
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("stack paths differ"), "{diffs:?}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn dir_diff_compares_flight_recorder_dumps() {
        let base = std::env::temp_dir().join(format!("cdnc-flight-diff-{}", std::process::id()));
        let (da, db) = (base.join("a"), base.join("b"));
        let dump = |seed: u64| Json::obj().field("update", seed).field("wall_s", 0.5).to_pretty();
        for dir in [&da, &db] {
            std::fs::create_dir_all(dir.join(FLIGHTREC_SUBDIR)).unwrap();
            std::fs::write(dir.join("fig17.json"), dump(0)).unwrap();
            for id in [1, 2] {
                std::fs::write(
                    dir.join(FLIGHTREC_SUBDIR).join(format!("fig17_u{id}.json")),
                    dump(id),
                )
                .unwrap();
            }
        }
        assert!(diff_artifact_dirs(&da, &db).unwrap().is_empty(), "identical dumps match");
        std::fs::write(db.join(FLIGHTREC_SUBDIR).join("fig17_u1.json"), dump(9)).unwrap();
        std::fs::remove_file(db.join(FLIGHTREC_SUBDIR).join("fig17_u2.json")).unwrap();
        let diffs = diff_artifact_dirs(&da, &db).unwrap();
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].starts_with("flightrec/fig17_u1.json: contents differ"), "{diffs:?}");
        assert!(diffs[1].starts_with("flightrec/fig17_u2.json: only in"), "{diffs:?}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn scrub_drops_wall_clock_fields_recursively() {
        let doc = Json::obj()
            .field("seed", 7u64)
            .field("wall_s", 1.25)
            .field("phases", Json::obj().field("crawl", 0.5))
            .field(
                "figures",
                Json::Arr(vec![Json::obj().field("figure", "fig3").field("events_per_s", 9.0)]),
            );
        let clean = scrub_volatile(&doc);
        assert_eq!(clean.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(clean.get("wall_s").is_none());
        assert!(clean.get("phases").is_none());
        let Some(Json::Arr(figs)) = clean.get("figures") else { panic!("figures kept") };
        assert!(figs[0].get("events_per_s").is_none());
        assert_eq!(figs[0].get("figure"), Some(&Json::Str("fig3".into())));
    }

    #[test]
    fn dir_diff_ignores_volatile_but_catches_real_drift() {
        let base = std::env::temp_dir().join(format!("cdnc-obs-diff-{}", std::process::id()));
        let (da, db) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&da).unwrap();
        std::fs::create_dir_all(&db).unwrap();
        let doc = |wall: f64, seed: u64| {
            Json::obj().field("seed", seed).field("wall_s", wall).to_pretty()
        };
        std::fs::write(da.join("fig3.json"), doc(1.0, 7)).unwrap();
        std::fs::write(db.join("fig3.json"), doc(9.0, 7)).unwrap();
        assert!(diff_artifact_dirs(&da, &db).unwrap().is_empty(), "wall-clock drift ignored");
        std::fs::write(db.join("fig3.json"), doc(9.0, 8)).unwrap();
        std::fs::write(db.join("fig4.jsonl"), "x").unwrap();
        let diffs = diff_artifact_dirs(&da, &db).unwrap();
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn series_flag_arms_sampler_even_without_obs() {
        let s = ObsSettings { series: true, ..ObsSettings::off() };
        let reg = s.registry();
        assert!(reg.is_enabled());
        assert!(reg.sampler().is_enabled());
        assert!(!reg.tracer().is_enabled(), "tracing stays off without --trace");
        assert!(!ObsSettings::off().registry().sampler().is_enabled());
    }

    #[test]
    fn series_file_written_only_when_armed() {
        let dir = std::env::temp_dir().join(format!("cdnc-series-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let off = Registry::enabled();
        let run = |reg: &Registry| FigureRun {
            report: FigureReport::new("figX", "test"),
            wall_s: 0.0,
            reg: reg.clone(),
            window: None,
            spans: None,
            written: Vec::new(),
            dumps: 0,
            error: None,
        };
        let obs = ObsSettings { dir: dir.clone(), ..ObsSettings::off() };
        let mut unarmed = run(&off);
        write_planes(&obs, "figX", Scale::Smoke, &mut unarmed).unwrap();
        assert!(unarmed.written.is_empty());
        let reg = Registry::enabled();
        reg.enable_series(1_000);
        reg.series_gauge("g");
        reg.sampler().tick(5_000);
        let mut armed = run(&reg);
        write_planes(&obs, "figX", Scale::Smoke, &mut armed).unwrap();
        let [(Artifact::Series, path)] = &armed.written[..] else { panic!("armed sampler") };
        let body = std::fs::read_to_string(path).unwrap();
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("cadence_us").and_then(Json::as_f64), Some(1_000.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_counts_fields_per_top_level_key() {
        let a = Json::obj()
            .field("seed", 7u64)
            .field("metrics", Json::obj().field("x", 1u64).field("y", 2u64));
        let b = Json::obj()
            .field("seed", 8u64)
            .field("metrics", Json::obj().field("x", 1u64).field("y", 3u64).field("z", 4u64));
        let counts = diff_docs(&a, &b, 0).0;
        assert_eq!(counts, vec![("metrics".to_owned(), 2), ("seed".to_owned(), 1)]);
        assert!(diff_docs(&a, &a, 0).0.is_empty());
        // Arrays count element-wise; missing tails count by leaf size.
        let xa = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64), Json::from(2u64)]));
        let xb = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64)]));
        assert_eq!(diff_docs(&xa, &xb, 0).0, vec![("rows".to_owned(), 1)]);
    }

    #[test]
    fn digest_flag_arms_audit_trail_and_writes_artifact() {
        let s = ObsSettings { digest: true, digest_perturb: Some(3), ..ObsSettings::off() };
        let reg = s.registry();
        assert!(reg.is_enabled());
        assert!(reg.digest_enabled());
        let config = reg.digest_config().expect("armed");
        assert_eq!(config.checkpoint_every, cdnc_obs::DEFAULT_CHECKPOINT_EVERY);
        assert_eq!(config.perturb, Some(3));
        assert!(!ObsSettings::off().registry().digest_enabled());
        reg.digest().fold("probe", 1, 10, &[7]);
        let dir = std::env::temp_dir().join(format!("cdnc-digest-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(digest_doc("figX", Scale::Smoke, &Registry::enabled()).is_none());
        let doc = digest_doc("figX", Scale::Smoke, &reg).expect("digest armed");
        let path = Artifact::Digest.write(&dir, "figX", doc.to_pretty()).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some("figX"));
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("smoke"));
        let every = cdnc_obs::DEFAULT_CHECKPOINT_EVERY as f64;
        assert_eq!(doc.get("checkpoint_every").and_then(Json::as_f64), Some(every));
        assert_eq!(doc.get("perturb").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("events").and_then(Json::as_f64), Some(1.0));
        let chain = doc.get("chain").and_then(Json::as_str).expect("hex chain");
        assert!(cdnc_obs::parse_chain_hex(chain).is_some(), "chain parses: {chain}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_flag_arms_counters_and_summary_surfaces_them() {
        let s = ObsSettings { health: true, ..ObsSettings::off() };
        let reg = s.registry();
        assert!(reg.health_enabled());
        assert!(!ObsSettings::off().registry().health_enabled());
        reg.health().add_sims(3);
        reg.health().sim_done();
        let e = summary_entry("figX", 1.0, 1, &reg);
        let health = e.get("health").expect("health surfaced");
        assert_eq!(health.get("sims_total").and_then(Json::as_f64), Some(3.0));
        assert_eq!(health.get("sims_done").and_then(Json::as_f64), Some(1.0));
        assert_eq!(health.get("stalls").and_then(Json::as_f64), Some(0.0));
        assert!(
            summary_entry("figX", 1.0, 1, &Registry::enabled()).get("health").is_none(),
            "absent when health is not armed"
        );
    }

    #[test]
    fn summary_entry_carries_digest_chain() {
        let reg = Registry::enabled();
        assert!(summary_entry("figX", 1.0, 1, &reg).get("digest").is_none());
        reg.enable_digest(cdnc_obs::DigestConfig::default());
        reg.digest().fold("probe", 1, 10, &[]);
        let e = summary_entry("figX", 1.0, 1, &reg);
        let digest = e.get("digest").expect("digest surfaced");
        assert_eq!(digest.get("events").and_then(Json::as_f64), Some(1.0));
        let chain = digest.get("chain").and_then(Json::as_str).expect("hex chain");
        assert!(cdnc_obs::parse_chain_hex(chain).is_some());
    }

    #[test]
    fn dir_diff_skips_health_heartbeats_and_prints_paths() {
        let base = std::env::temp_dir().join(format!("cdnc-health-diff-{}", std::process::id()));
        let (da, db) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&da).unwrap();
        std::fs::create_dir_all(&db).unwrap();
        std::fs::write(da.join("fig3.health.json"), "{\"events\": 1}").unwrap();
        std::fs::write(db.join("fig3.health.json"), "{\"events\": 2}").unwrap();
        assert!(
            diff_artifact_dirs(&da, &db).unwrap().is_empty(),
            "health heartbeats are wall-clock and never count as drift"
        );
        let doc = |seed: u64| Json::obj().field("seed", seed).to_pretty();
        std::fs::write(da.join("fig3.json"), doc(7)).unwrap();
        std::fs::write(db.join("fig3.json"), doc(8)).unwrap();
        let diffs = diff_artifact_dirs(&da, &db).unwrap();
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("seed: 7 != 8"), "paths with values: {diffs:?}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn leaf_paths_render_values_and_respect_the_cap() {
        let a = Json::obj()
            .field("seed", 7u64)
            .field("metrics", Json::obj().field("x", 1u64).field("y", 2u64));
        let b = Json::obj()
            .field("seed", 8u64)
            .field("metrics", Json::obj().field("x", 1u64).field("y", 3u64).field("z", 4u64));
        let paths = diff_docs(&a, &b, 10).1;
        assert_eq!(paths, ["metrics.y: 2 != 3", "metrics.z: <missing> != 4", "seed: 7 != 8"]);
        assert_eq!(diff_docs(&a, &b, 1).1.len(), 1, "cap respected");
        let xa = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64), Json::from(2u64)]));
        let xb = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64)]));
        assert_eq!(diff_docs(&xa, &xb, 10).1, ["rows[1]: 2 != <missing>"]);
    }

    #[test]
    fn artifact_json_carries_identity_and_metrics() {
        let reg = Registry::enabled();
        reg.counter("events_processed").add(41);
        let mut report = FigureReport::new("fig9-test", "test");
        report.keyval("rows", 3.0);
        let j = run_artifact_doc("fig9-test", Scale::Smoke, &report, 1.0, &reg);
        assert_eq!(j.get("run_id").and_then(Json::as_str), Some("fig9-test"));
        let seed = Scale::Smoke.crawl_config().seed as f64;
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(seed));
        let digest = digest_str("fig9-test:Smoke");
        assert_eq!(j.get("config_digest").and_then(Json::as_str), Some(digest.as_str()));
        let keyvals = j.get("summary").and_then(|s| s.get("keyvals"));
        assert_eq!(keyvals.and_then(|k| k.get("rows")).and_then(Json::as_f64), Some(3.0));
        let counters = j.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(counters.get("events_processed").and_then(Json::as_f64), Some(41.0));
        let keys: Vec<&str> = match &j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("artifact is an object"),
        };
        assert_eq!(keys, ["run_id", "seed", "config_digest", "summary", "metrics", "phases"]);
    }

    #[test]
    fn writes_artifact_file() {
        let dir = std::env::temp_dir().join(format!("cdnc-run-artifact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::enabled();
        let doc =
            run_artifact_doc("unit", Scale::Smoke, &FigureReport::new("unit", "t"), 0.0, &reg);
        let json_path = Artifact::Run.write(&dir, "unit", doc.to_pretty()).unwrap();
        assert!(json_path.ends_with("unit.json"));
        let body = std::fs::read_to_string(&json_path).unwrap();
        assert!(body.contains("\"run_id\": \"unit\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timing_table_lists_phases() {
        let reg = Registry::enabled();
        {
            let _g = reg.span("outer");
            let _h = reg.span("inner");
        }
        let table = timing_table(&reg).expect("spans recorded");
        assert!(table.contains("outer"));
        assert!(table.contains("outer/inner"));
        assert!(timing_table(&Registry::disabled()).is_none());
    }
}
