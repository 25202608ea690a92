//! Run-artifact output for the experiments binary: the figure pipeline
//! ([`run_and_write`]) that runs one figure under the armed observation
//! planes and writes each plane's files, the per-plane writers it calls,
//! a consolidated summary, the end-of-run phase-timing table printed
//! under `--obs`, and the wall-clock-blind artifact diff behind `obs-diff`.

use crate::profile_out::write_profile_artifact;
use crate::report::{aggregate_replicates, FigureReport};
use crate::scale::Scale;
use crate::timeprof_out::write_timeprof_artifact;
use crate::trace_out::{write_figure_trace, FLIGHTREC_SUBDIR};
use crate::{run_figure_ctx, RunCtx};
use cdnc_obs::{
    chain_hex, digest_str, json, DigestConfig, HealthMonitor, HealthMonitorConfig, Json,
    ProfileSnapshot, Registry, RunArtifact, SpanStore,
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
    /// Every file written, as `(what, path)` in writing order.
    pub written: Vec<(&'static str, PathBuf)>,
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
            path: obs.dir.join(format!("{id}.health.json")),
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
    let (report, reg) = (&run.report, &run.reg);
    let written = &mut run.written;
    let mut put = |what, path: Option<PathBuf>| written.extend(path.map(|p| (what, p)));
    if obs.enabled {
        put("run artifact", Some(write_figure_artifact(dir, id, scale, report, run.wall_s, reg)?));
        put("workload curves", write_figure_workload(dir, id, report)?);
    }
    if obs.series {
        put("series", write_figure_series(dir, id, reg)?);
    }
    if obs.digest {
        put("digest", write_figure_digest(dir, id, scale, reg)?);
    }
    if let Some(spans) = &run.spans {
        if let Some((path, dumps)) = write_figure_trace(dir, id, spans)? {
            put("trace", Some(path));
            run.dumps = dumps;
        }
    }
    if let Some(window) = &run.window {
        put(
            "profile artifact",
            Some(write_profile_artifact(dir, id, scale, window, reg, run.wall_s)?),
        );
    }
    if obs.timeprof {
        let (json_path, folded_path) = write_timeprof_artifact(dir, id, scale, reg, run.wall_s)?;
        put("timeprof artifact", Some(json_path));
        put("flamegraph stacks", Some(folded_path));
    }
    Ok(())
}

/// Writes `<dir>/<figure-id>.digest.json` from one figure's registry: the
/// determinism audit trail (run chain, per-segment chains, periodic
/// checkpoints) plus the scenario identity (`figure`, `scale`,
/// `checkpoint_every`, `perturb`) the `divergence` subcommand needs to
/// re-run the recorded scenario. Returns `None` when the digest is not
/// armed.
pub fn write_figure_digest(
    dir: &Path,
    id: &str,
    scale: Scale,
    reg: &Registry,
) -> io::Result<Option<PathBuf>> {
    let Some(snap) = reg.digest_snapshot() else { return Ok(None) };
    let config = reg.digest_config().unwrap_or_default();
    std::fs::create_dir_all(dir)?;
    let mut doc = Json::obj()
        .field("figure", id)
        .field("scale", scale.arg_name())
        .field("checkpoint_every", config.checkpoint_every)
        .field("perturb", config.perturb.map_or(Json::Null, Json::from));
    if let (Json::Obj(dst), Json::Obj(src)) = (&mut doc, snap.to_json()) {
        dst.extend(src);
    }
    let path = dir.join(format!("{id}.digest.json"));
    std::fs::write(&path, doc.to_pretty())?;
    Ok(Some(path))
}

/// Writes `<dir>/<figure-id>.series.json` from one figure's registry:
/// every sampled series (sim-time timestamps, so deterministic and safe to
/// diff). Returns `None` when the sampler is not armed.
pub fn write_figure_series(dir: &Path, id: &str, reg: &Registry) -> io::Result<Option<PathBuf>> {
    if !reg.sampler().is_enabled() {
        return Ok(None);
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.series.json"));
    std::fs::write(&path, reg.series_snapshot().to_json().to_pretty())?;
    Ok(Some(path))
}

/// Writes `<dir>/<figure-id>.workload.json` from one figure's report: the
/// named `(x, y)` distribution curves (latency/staleness CDFs) the figure
/// recorded. Purely derived from simulation output, so deterministic and
/// safe to diff. Returns `None` when the report carries no curves.
pub fn write_figure_workload(
    dir: &Path,
    id: &str,
    report: &FigureReport,
) -> io::Result<Option<PathBuf>> {
    if report.curves.is_empty() {
        return Ok(None);
    }
    std::fs::create_dir_all(dir)?;
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
    let doc = Json::obj().field("figure", id).field("curves", Json::Arr(curves));
    let path = dir.join(format!("{id}.workload.json"));
    std::fs::write(&path, doc.to_pretty())?;
    Ok(Some(path))
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

/// Writes `<dir>/<figure-id>.json` from one figure's registry. Returns the
/// artifact path.
pub fn write_figure_artifact(
    dir: &Path,
    id: &str,
    scale: Scale,
    report: &FigureReport,
    wall_s: f64,
    reg: &Registry,
) -> io::Result<PathBuf> {
    let seed = scale.crawl_config().seed;
    let artifact = RunArtifact::new(id, seed, digest_str(&format!("{id}:{scale:?}")))
        .with_summary(figure_summary(report, scale, wall_s));
    artifact.write_to_dir(dir, reg)
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

/// Number of leaf fields that differ between two documents: recursing into
/// matching objects/arrays, counting a missing subtree by its size.
fn count_leaf_diffs(a: &Json, b: &Json) -> usize {
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            let keys: BTreeSet<&str> = fa.iter().chain(fb).map(|(k, _)| k.as_str()).collect();
            let find = |fields: &'_ [(String, Json)], key: &str| {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
            };
            keys.iter()
                .map(|key| match (find(fa, key), find(fb, key)) {
                    (Some(x), Some(y)) => count_leaf_diffs(&x, &y),
                    (Some(x), None) | (None, Some(x)) => leaf_count(&x).max(1),
                    (None, None) => 0,
                })
                .sum()
        }
        (Json::Arr(ia), Json::Arr(ib)) => (0..ia.len().max(ib.len()))
            .map(|i| match (ia.get(i), ib.get(i)) {
                (Some(x), Some(y)) => count_leaf_diffs(x, y),
                (Some(x), None) | (None, Some(x)) => leaf_count(x).max(1),
                (None, None) => 0,
            })
            .sum(),
        _ if a == b => 0,
        _ => 1,
    }
}

/// Collects up to `limit` leaf-level differences between two documents as
/// `path: a-value != b-value` lines (dotted object keys, `[i]` array
/// indices, `<missing>` when one side lacks the subtree). Depth-first in
/// key order, so the first line is the shallowest-leftmost difference.
pub fn diff_leaf_paths(a: &Json, b: &Json, limit: usize) -> Vec<String> {
    fn walk(a: Option<&Json>, b: Option<&Json>, path: &str, out: &mut Vec<String>, limit: usize) {
        if out.len() >= limit {
            return;
        }
        let render = |v: Option<&Json>| v.map_or("<missing>".to_owned(), Json::to_compact);
        match (a, b) {
            (Some(Json::Obj(fa)), Some(Json::Obj(fb))) => {
                let keys: BTreeSet<&str> = fa.iter().chain(fb).map(|(k, _)| k.as_str()).collect();
                for key in keys {
                    let sub =
                        if path.is_empty() { key.to_owned() } else { format!("{path}.{key}") };
                    fn find<'j>(fields: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
                        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                    }
                    walk(find(fa, key), find(fb, key), &sub, out, limit);
                }
            }
            (Some(Json::Arr(ia)), Some(Json::Arr(ib))) => {
                for i in 0..ia.len().max(ib.len()) {
                    walk(ia.get(i), ib.get(i), &format!("{path}[{i}]"), out, limit);
                }
            }
            _ if a == b => {}
            _ => out.push(format!("{path}: {} != {}", render(a), render(b))),
        }
    }
    let mut out = Vec::new();
    walk(Some(a), Some(b), "", &mut out, limit);
    out
}

/// Per-top-level-key counts of differing leaf fields between two documents
/// (non-zero entries only, key order). Non-object roots fold under the
/// pseudo-key `<root>`.
pub fn diff_field_counts(a: &Json, b: &Json) -> Vec<(String, usize)> {
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            let keys: BTreeSet<&str> = fa.iter().chain(fb).map(|(k, _)| k.as_str()).collect();
            let find = |fields: &'_ [(String, Json)], key: &str| {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
            };
            keys.iter()
                .filter_map(|key| {
                    let n = match (find(fa, key), find(fb, key)) {
                        (Some(x), Some(y)) => count_leaf_diffs(&x, &y),
                        (Some(x), None) | (None, Some(x)) => leaf_count(&x).max(1),
                        (None, None) => 0,
                    };
                    (n > 0).then(|| ((*key).to_owned(), n))
                })
                .collect()
        }
        _ => {
            let n = count_leaf_diffs(a, b);
            if n > 0 {
                vec![("<root>".to_owned(), n)]
            } else {
                Vec::new()
            }
        }
    }
}

/// Compares two artifact directories, ignoring wall-clock fields: `.json`
/// documents are parsed and [`scrub_volatile`]bed before comparison (a
/// mismatch reports the per-key count of differing fields), `.folded`
/// flamegraph stacks are compared by their ordered stack paths (the
/// self-nanosecond values are wall clock), `.health.json` heartbeats are
/// skipped entirely (live wall-clock telemetry), all other files (such as
/// `.trace.json` in simulated time) compared byte-for-byte. The
/// flight-recorder dumps under `flightrec/`, the one subdirectory the
/// pipeline writes, are compared by name and content under the same rules.
/// Returns one line per difference — empty means the runs produced
/// identical observable output, the determinism contract `--jobs`
/// promises.
pub fn diff_artifact_dirs(a: &Path, b: &Path) -> io::Result<Vec<String>> {
    // Paths relative to `dir` of the top-level files and the dumps.
    let list = |dir: &Path| -> io::Result<BTreeSet<String>> {
        let mut names = BTreeSet::new();
        let dumps = (dir.join(FLIGHTREC_SUBDIR), format!("{FLIGHTREC_SUBDIR}/"));
        for (sub, prefix) in [(dir.to_path_buf(), String::new()), dumps] {
            // No dump directory means no dumps; a missing top level is an error.
            if !prefix.is_empty() && !sub.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&sub)? {
                let entry = entry?;
                if entry.file_type()?.is_file() {
                    names.insert(format!("{prefix}{}", entry.file_name().to_string_lossy()));
                }
            }
        }
        Ok(names)
    };
    let (names_a, names_b) = (list(a)?, list(b)?);
    let mut diffs = Vec::new();
    for name in names_a.union(&names_b) {
        // Health heartbeats are wall-clock by nature (rates, ETA, RSS) and
        // a run may be torn down mid-beat, so they never count as drift.
        if name.ends_with(".health.json") || name.ends_with(".health.json.tmp") {
            continue;
        }
        match (names_a.contains(name), names_b.contains(name)) {
            (true, false) => diffs.push(format!("{name}: only in {}", a.display())),
            (false, true) => diffs.push(format!("{name}: only in {}", b.display())),
            _ => {
                let (body_a, body_b) = (std::fs::read(a.join(name))?, std::fs::read(b.join(name))?);
                let detail = if name.ends_with(".json") && !name.ends_with(".trace.json") {
                    let parsed = |body: &[u8]| {
                        json::parse(&String::from_utf8_lossy(body)).map(|doc| scrub_volatile(&doc))
                    };
                    match (parsed(&body_a), parsed(&body_b)) {
                        (Ok(doc_a), Ok(doc_b)) => {
                            let counts = diff_field_counts(&doc_a, &doc_b);
                            (!counts.is_empty()).then(|| {
                                let per_key = counts
                                    .iter()
                                    .map(|(key, n)| format!("{key}: {n}"))
                                    .collect::<Vec<_>>()
                                    .join(", ");
                                let paths = diff_leaf_paths(&doc_a, &doc_b, 10);
                                format!(
                                    "differing fields per key: {per_key}\n    {}",
                                    paths.join("\n    ")
                                )
                            })
                        }
                        _ => (body_a != body_b).then(|| "unparseable".to_owned()),
                    }
                } else if name.ends_with(".folded") {
                    let stacks = |body: &[u8]| {
                        cdnc_obs::parse_folded(&String::from_utf8_lossy(body)).map(|lines| {
                            lines.into_iter().map(|(path, _)| path).collect::<Vec<_>>()
                        })
                    };
                    match (stacks(&body_a), stacks(&body_b)) {
                        (Some(sa), Some(sb)) => (sa != sb).then(|| "stack paths differ".to_owned()),
                        _ => (body_a != body_b).then(|| "unparseable".to_owned()),
                    }
                } else {
                    (body_a != body_b).then(|| "byte-level".to_owned())
                };
                if let Some(detail) = detail {
                    diffs.push(format!("{name}: contents differ ({detail})"));
                }
            }
        }
    }
    Ok(diffs)
}

/// Writes `<dir>/summary.json` consolidating every figure of an `all` run.
/// Besides the per-figure rows it records the process's memory footprint:
/// peak RSS (kernel accounting, Linux only) and the cumulative-allocation
/// estimate (when the binary installed [`cdnc_obs::ProfiledAlloc`]).
/// Both are volatile — see [`VOLATILE_KEYS`].
pub fn write_summary(dir: &Path, scale: Scale, entries: Vec<Json>) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let total_wall: f64 =
        entries.iter().filter_map(|e| e.get("wall_s").and_then(Json::as_f64)).sum();
    let total_events: f64 =
        entries.iter().filter_map(|e| e.get("events").and_then(Json::as_f64)).sum();
    let doc = Json::obj()
        .field("scale", format!("{scale:?}"))
        .field("total_wall_s", total_wall)
        .field("total_events", total_events)
        .field("peak_rss_kb", cdnc_obs::vm_hwm_kb())
        .field(
            "alloc_mb_estimate",
            cdnc_obs::profile::total_allocated_bytes().map(|b| b as f64 / (1024.0 * 1024.0)),
        )
        .field("figures", Json::Arr(entries));
    let path = dir.join("summary.json");
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(write_figure_workload(&dir, "figX", &report).unwrap().is_none());
        report.curve("latency_cdf", vec![(0.0, 0.5), (1.0, 1.0)]);
        let path = write_figure_workload(&dir, "figX", &report).unwrap().expect("curves present");
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
        assert!(write_figure_series(&dir, "figX", &off).unwrap().is_none());
        let reg = Registry::enabled();
        reg.enable_series(1_000);
        reg.series_gauge("g");
        reg.sampler().tick(5_000);
        let path = write_figure_series(&dir, "figX", &reg).unwrap().expect("armed sampler");
        let body = std::fs::read_to_string(&path).unwrap();
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
        let counts = diff_field_counts(&a, &b);
        assert_eq!(counts, vec![("metrics".to_owned(), 2), ("seed".to_owned(), 1)]);
        assert!(diff_field_counts(&a, &a).is_empty());
        // Arrays count element-wise; missing tails count by leaf size.
        let xa = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64), Json::from(2u64)]));
        let xb = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64)]));
        assert_eq!(diff_field_counts(&xa, &xb), vec![("rows".to_owned(), 1)]);
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
        assert!(write_figure_digest(&dir, "figX", Scale::Smoke, &Registry::enabled())
            .unwrap()
            .is_none());
        let path =
            write_figure_digest(&dir, "figX", Scale::Smoke, &reg).unwrap().expect("digest armed");
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
        let paths = diff_leaf_paths(&a, &b, 10);
        assert_eq!(paths, ["metrics.y: 2 != 3", "metrics.z: <missing> != 4", "seed: 7 != 8"]);
        assert_eq!(diff_leaf_paths(&a, &b, 1).len(), 1, "cap respected");
        let xa = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64), Json::from(2u64)]));
        let xb = Json::obj().field("rows", Json::Arr(vec![Json::from(1u64)]));
        assert_eq!(diff_leaf_paths(&xa, &xb, 10), ["rows[1]: 2 != <missing>"]);
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
