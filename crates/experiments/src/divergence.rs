//! Divergence bisection over determinism audit trails.
//!
//! `experiments divergence <a.digest.json> <b.digest.json>` compares two
//! runs' chained digests and, when they disagree, localizes the *first*
//! diverging event:
//!
//! 1. compare run-level chains — identical chains end the search;
//! 2. find the first absorb-order segment (simulation) whose chain differs;
//! 3. binary-search that segment's periodic checkpoints for the first
//!    checkpoint where the chains disagree — the divergence lies in the
//!    window between the last agreeing checkpoint and that one;
//! 4. re-run both recorded scenarios serially with a digest-window trap
//!    over exactly that window, then zip the trapped folds to the first
//!    index whose chain-after differs.
//!
//! The re-run is possible because `<figure>.digest.json` records the
//! scenario identity (figure, scale, checkpoint stride, perturbation), and
//! the simulator is deterministic in that identity. The diverging run's
//! registry gets a `digest_divergence` control span, so the flight
//! recorder writes a `control_digest_divergence` dump next to the usual
//! anomaly reports.

use crate::ctx::RunCtx;
use crate::obs_out::{ObsSettings, DEFAULT_TRACE_THRESHOLD_S};
use crate::run_figure_ctx;
use crate::scale::Scale;
use crate::trace_out::write_flight_dump;
use cdnc_obs::{
    json, DigestConfig, DigestSnapshot, FlightRecorder, Json, Registry, SegmentSnapshot, SpanKind,
    TrapEntry, TrapWindow,
};
use std::fmt::Write as _;
use std::path::Path;

/// The scenario a `<figure>.digest.json` records ahead of its audit trail:
/// what `divergence` needs to re-run it.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub figure: String,
    pub scale: Scale,
    pub checkpoint_every: u64,
    pub perturb: Option<u64>,
}

/// The `<figure>.digest.json` document of a run of `figure` at `scale`:
/// the [`Scenario`] header, then the audit trail
/// ([`DigestSnapshot::to_json`]). `None` when the digest is not armed.
pub fn digest_doc(figure: &str, scale: Scale, reg: &Registry) -> Option<Json> {
    let trail = reg.digest_snapshot()?;
    let config = reg.digest_config().unwrap_or_default();
    let mut doc = Json::obj()
        .field("figure", figure)
        .field("scale", scale.arg_name())
        .field("checkpoint_every", config.checkpoint_every)
        .field("perturb", config.perturb.map_or(Json::Null, Json::from));
    if let (Json::Obj(dst), Json::Obj(src)) = (&mut doc, trail.to_json()) {
        dst.extend(src);
    }
    Some(doc)
}

/// Reads back a file [`digest_doc`] wrote: its scenario header and its
/// audit trail. `Err` names the file and the first missing or malformed
/// field.
pub fn load_digest(path: &Path) -> Result<(Scenario, DigestSnapshot), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: missing or malformed `{what}`", path.display());
    let figure = doc.get("figure").and_then(Json::as_str).ok_or_else(|| bad("figure"))?.to_owned();
    let scale_name = doc.get("scale").and_then(Json::as_str).ok_or_else(|| bad("scale"))?;
    let scale = Scale::parse(scale_name)
        .ok_or_else(|| format!("{}: unknown scale `{scale_name}`", path.display()))?;
    let checkpoint_every =
        doc.get("checkpoint_every").and_then(Json::as_f64).ok_or_else(|| bad("checkpoint_every"))?
            as u64;
    let perturb = match doc.get("perturb") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_f64().ok_or_else(|| bad("perturb"))? as u64),
    };
    let trail = DigestSnapshot::from_json(&doc).map_err(bad)?;
    Ok((Scenario { figure, scale, checkpoint_every, perturb }, trail))
}

/// The first absorb-order segment whose recorded state differs (chain or
/// fold count), or `None` when every common segment agrees. A run with
/// extra segments diverges at the first segment the other run lacks.
pub fn first_diverging_segment(a: &DigestSnapshot, b: &DigestSnapshot) -> Option<usize> {
    let common = a.segments.len().min(b.segments.len());
    for i in 0..common {
        let (sa, sb) = (&a.segments[i], &b.segments[i]);
        if sa.chain != sb.chain || sa.events != sb.events {
            return Some(i);
        }
    }
    (a.segments.len() != b.segments.len()).then_some(common)
}

/// The local fold-index window `[lo, hi)` within segment pair `(sa, sb)`
/// that must contain the first diverging fold: checkpoints shared by both
/// runs partition the segment, the chains agree at `lo`'s checkpoint and
/// disagree at the first common checkpoint past it. `partition_point` does
/// the binary search — once chains diverge they stay diverged (the fold is
/// a chained hash), so "diverged by checkpoint k" is monotonic in k.
pub fn bisect_window(sa: &SegmentSnapshot, sb: &SegmentSnapshot) -> (u64, u64) {
    // Checkpoints shared by both runs (stride doubling keeps indexes on a
    // power-of-two grid, so a common prefix of the grids always exists).
    let mut pairs: Vec<(u64, u64, u64)> = Vec::new();
    let mut j = 0usize;
    for ca in &sa.checkpoints {
        while j < sb.checkpoints.len() && sb.checkpoints[j].index < ca.index {
            j += 1;
        }
        if j < sb.checkpoints.len() && sb.checkpoints[j].index == ca.index {
            pairs.push((ca.index, ca.chain, sb.checkpoints[j].chain));
        }
    }
    let pos = pairs.partition_point(|&(_, ca, cb)| ca == cb);
    let lo = if pos == 0 { 0 } else { pairs[pos - 1].0 };
    let hi = if pos < pairs.len() { pairs[pos].0 } else { sa.events.max(sb.events) };
    (lo, hi)
}

/// The exact first diverging fold, with the trapped context from both
/// re-runs.
#[derive(Debug)]
pub struct Localization {
    /// Absorb-order segment (simulation) index.
    pub segment: usize,
    /// Local (segment-relative, 0-based) fold index of the first
    /// divergence.
    pub local: u64,
    /// Run-level fold index (earlier segments' folds included).
    pub global: u64,
    /// The bisected window the trap recorded.
    pub window: (u64, u64),
    /// Trapped folds from run A within the window.
    pub entries_a: Vec<TrapEntry>,
    /// Trapped folds from run B within the window.
    pub entries_b: Vec<TrapEntry>,
    /// Set when a re-run failed to reproduce its recorded segment chain —
    /// the environment itself is non-deterministic and the localization is
    /// best-effort.
    pub rerun_mismatch: bool,
}

/// What `divergence` found.
#[derive(Debug)]
pub enum Outcome {
    /// Run-level chains (and all segments) agree.
    Identical,
    /// First diverging fold localized.
    Diverged(Box<Localization>),
}

fn rerun_with_trap(doc: &Scenario, trap: TrapWindow) -> Result<(DigestSnapshot, Registry), String> {
    let reg = Registry::enabled();
    reg.enable_tracing();
    reg.enable_digest(DigestConfig {
        checkpoint_every: doc.checkpoint_every,
        perturb: doc.perturb,
        trap: Some(trap),
    });
    run_figure_ctx(&doc.figure, RunCtx::new(doc.scale), None, &reg)
        .ok_or_else(|| format!("unknown figure id in digest doc: {}", doc.figure))?;
    let snap = reg.digest_snapshot().expect("digest armed above");
    Ok((snap, reg))
}

/// Compares two digest docs and localizes the first diverging event,
/// re-running both recorded scenarios with a trap when they disagree. The
/// diverging re-run's registry gets a `digest_divergence` control span and
/// a flight-recorder dump lands under `<obs-dir>/flightrec/`.
pub fn run(path_a: &Path, path_b: &Path, settings: &ObsSettings) -> Result<Outcome, String> {
    let (a, trail_a) = load_digest(path_a)?;
    let (b, trail_b) = load_digest(path_b)?;
    if a.figure != b.figure || a.scale != b.scale {
        return Err(format!(
            "digest docs describe different scenarios: {} @ {} vs {} @ {}",
            a.figure,
            a.scale.arg_name(),
            b.figure,
            b.scale.arg_name()
        ));
    }
    if a.checkpoint_every != b.checkpoint_every {
        return Err(format!(
            "digest docs use different checkpoint strides ({} vs {}) — re-record one run",
            a.checkpoint_every, b.checkpoint_every
        ));
    }
    let Some(segment) = first_diverging_segment(&trail_a, &trail_b) else {
        return Ok(Outcome::Identical);
    };
    if segment >= trail_a.segments.len().min(trail_b.segments.len()) {
        return Err(format!(
            "runs absorbed different segment counts ({} vs {}) — structural difference, \
             not an event-level divergence",
            trail_a.segments.len(),
            trail_b.segments.len()
        ));
    }
    let (lo, hi) = bisect_window(&trail_a.segments[segment], &trail_b.segments[segment]);
    let trap = TrapWindow { segment, lo, hi };
    let (snap_a, _reg_a) = rerun_with_trap(&a, trap)?;
    let (snap_b, reg_b) = rerun_with_trap(&b, trap)?;
    let rerun_mismatch = snap_a.segments.get(segment).map(|s| s.chain)
        != Some(trail_a.segments[segment].chain)
        || snap_b.segments.get(segment).map(|s| s.chain) != Some(trail_b.segments[segment].chain);
    // First trapped index whose chain-after differs (or present on one side
    // only): both traps cover the same window, so zip by position.
    let mut local = None;
    let max_len = snap_a.trap.len().max(snap_b.trap.len());
    for i in 0..max_len {
        match (snap_a.trap.get(i), snap_b.trap.get(i)) {
            (Some(ea), Some(eb)) if ea.after == eb.after => continue,
            (Some(ea), _) => {
                local = Some(ea.index);
                break;
            }
            (None, Some(eb)) => {
                local = Some(eb.index);
                break;
            }
            (None, None) => break,
        }
    }
    let local = local.ok_or_else(|| {
        format!(
            "checkpoint window [{lo}, {hi}) of segment {segment} re-ran clean — the recorded \
             divergence did not reproduce (non-deterministic environment?)"
        )
    })?;
    let global = snap_b.global_index(segment, local);
    // Flag the diverging fold for the flight recorder on the re-run's
    // registry: one control span at the event's node and sim-time.
    let at = snap_b
        .trap
        .iter()
        .find(|e| e.index == local)
        .or(snap_a.trap.iter().find(|e| e.index == local));
    if let Some(entry) = at {
        reg_b.tracer().control(SpanKind::DigestDivergence, entry.node, entry.t_us, "bisect");
        let store = reg_b.tracer().store();
        let reports = FlightRecorder::new(DEFAULT_TRACE_THRESHOLD_S).scan(&store);
        for report in reports.iter().filter(|r| r.file_stem().contains("digest_divergence")) {
            let _ = write_flight_dump(&settings.dir, &a.figure, report);
        }
    }
    Ok(Outcome::Diverged(Box::new(Localization {
        segment,
        local,
        global,
        window: (lo, hi),
        entries_a: snap_a.trap,
        entries_b: snap_b.trap,
        rerun_mismatch,
    })))
}

/// How many trapped folds to print on each side of the divergence.
const CONTEXT: u64 = 5;

fn entry_line(entry: Option<&TrapEntry>) -> String {
    match entry {
        Some(e) => format!(
            "{:<18} node {:>5}  t {:>12} µs  chain {}",
            e.label,
            e.node,
            e.t_us,
            cdnc_obs::chain_hex(e.after)
        ),
        None => "<no fold>".to_owned(),
    }
}

impl Localization {
    /// The human rendering: the headline index (the line CI greps for)
    /// followed by the context window from both runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "first diverging event: global index {} (segment {}, local index {})",
            self.global, self.segment, self.local
        );
        let _ = writeln!(
            out,
            "checkpoint window: [{}, {}) of segment {}",
            self.window.0, self.window.1, self.segment
        );
        if self.rerun_mismatch {
            let _ = writeln!(
                out,
                "warning: a re-run did not reproduce its recorded chain — localization is \
                 best-effort"
            );
        }
        let from = self.local.saturating_sub(CONTEXT).max(self.window.0);
        let to = (self.local + CONTEXT + 1).min(self.window.1);
        let find = |entries: &[TrapEntry], index: u64| -> Option<TrapEntry> {
            entries.iter().find(|e| e.index == index).cloned()
        };
        for index in from..to {
            let ea = find(&self.entries_a, index);
            let eb = find(&self.entries_b, index);
            let marker = if index == self.local { ">>" } else { "  " };
            let _ = writeln!(out, "{marker} [{index}] A: {}", entry_line(ea.as_ref()));
            if ea.as_ref().map(|e| (e.label, e.node, e.t_us, e.after))
                == eb.as_ref().map(|e| (e.label, e.node, e.t_us, e.after))
            {
                let _ = writeln!(out, "{marker}       B: (identical)");
            } else {
                let _ = writeln!(out, "{marker}       B: {}", entry_line(eb.as_ref()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs_out::Artifact;
    use cdnc_obs::Checkpoint;

    fn seg(events: u64, chain: u64, checkpoints: &[(u64, u64)]) -> SegmentSnapshot {
        let checkpoints = checkpoints.iter().map(|&(index, chain)| Checkpoint { index, chain });
        SegmentSnapshot { index: 0, events, chain, checkpoints: checkpoints.collect() }
    }

    /// Writes `<dir>/<id>.digest.json` from a digest-armed registry.
    fn write_digest(dir: &Path, id: &str, reg: &Registry) -> std::path::PathBuf {
        let doc = digest_doc(id, Scale::Smoke, reg).expect("digest armed");
        Artifact::Digest.write(dir, id, doc.to_pretty()).unwrap()
    }

    #[test]
    fn segment_scan_finds_first_difference() {
        let doc = |chains: &[u64]| DigestSnapshot {
            events: 100 * chains.len() as u64,
            chain: 1,
            segments: chains.iter().map(|&c| seg(100, c, &[])).collect(),
            trap: Vec::new(),
        };
        let a = doc(&[10, 20, 30]);
        assert_eq!(first_diverging_segment(&a, &doc(&[10, 20, 30])), None);
        assert_eq!(first_diverging_segment(&a, &doc(&[10, 99, 30])), Some(1));
        assert_eq!(first_diverging_segment(&a, &doc(&[10, 20])), Some(2));
    }

    #[test]
    fn bisect_brackets_the_diverging_checkpoint() {
        let a = seg(300, 1, &[(64, 5), (128, 6), (192, 7), (256, 8)]);
        let b = seg(300, 2, &[(64, 5), (128, 6), (192, 9), (256, 10)]);
        assert_eq!(bisect_window(&a, &b), (128, 192));
        // Divergence before the first checkpoint.
        let c = seg(300, 2, &[(64, 99), (128, 98), (192, 97), (256, 96)]);
        assert_eq!(bisect_window(&a, &c), (0, 64));
        // Divergence past the last checkpoint: window runs to segment end.
        let d = seg(300, 2, &[(64, 5), (128, 6), (192, 7), (256, 8)]);
        assert_eq!(bisect_window(&a, &d), (256, 300));
        // Stride doubling on one side: only the shared grid is used.
        let e = seg(300, 2, &[(128, 6), (256, 11)]);
        assert_eq!(bisect_window(&a, &e), (128, 256));
    }

    #[test]
    fn docs_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("cdnc-divergence-doc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::enabled();
        reg.enable_digest(DigestConfig { checkpoint_every: 2, perturb: Some(9), trap: None });
        for i in 0..5 {
            reg.digest().fold("probe", 1, i * 10, &[i]);
        }
        let path = write_digest(&dir, "fig14", &reg);
        let (doc, trail) = load_digest(&path).expect("parses");
        assert_eq!(doc.figure, "fig14");
        assert_eq!(doc.scale, Scale::Smoke);
        assert_eq!(doc.checkpoint_every, 2);
        assert_eq!(doc.perturb, Some(9));
        let snap = reg.digest_snapshot().unwrap();
        assert_eq!(trail.chain, snap.chain);
        assert_eq!(trail.segments.len(), snap.segments.len());
        assert_eq!(trail.segments[0].events, 5);
        assert_eq!(trail.segments[0].checkpoints.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_digest_files_are_rejected_by_field() {
        let dir = std::env::temp_dir().join(format!("cdnc-divergence-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::enabled();
        reg.enable_digest(DigestConfig { checkpoint_every: 2, perturb: None, trap: None });
        for i in 0..5 {
            reg.digest().fold("probe", 1, i * 10, &[i]);
        }
        let good = write_digest(&dir, "fig14", &reg);
        let doc = json::parse(&std::fs::read_to_string(&good).unwrap()).unwrap();
        // Each case sets `key` (or drops it, for `None`) in the object at
        // `path` (keys and array indexes) of a good document.
        let cases: [(&[&str], &str, Option<&str>, &str); 4] = [
            (&[], "segments", None, "`segments`"),
            (&[], "chain", Some("0xnothex"), "`chain`"),
            (&["segments", "0", "checkpoints", "0"], "index", None, "`checkpoints`"),
            (&[], "scale", Some("huge"), "unknown scale `huge`"),
        ];
        for (path, key, value, field) in cases {
            let name = format!("{}{key}", path.join("_"));
            let mut bad = doc.clone();
            let mut at = &mut bad;
            for step in path {
                at = match at {
                    Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1,
                    Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
                    _ => panic!("{name}: no {step} in the written digest"),
                };
            }
            let Json::Obj(fields) = at else { panic!("{name}: edit target is an object") };
            fields.retain(|(k, _)| k != key);
            fields.extend(value.map(|v| (key.to_owned(), Json::from(v))));
            let file = dir.join(format!("{name}.digest.json"));
            std::fs::write(&file, bad.to_pretty()).unwrap();
            let err = run(&file, &good, &ObsSettings::off()).unwrap_err();
            assert!(err.contains(field), "{name}: {err}");
            assert!(err.starts_with(&file.display().to_string()), "{name}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_scenarios_are_rejected() {
        let dir = std::env::temp_dir().join(format!("cdnc-divergence-mix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let write = |id: &str| {
            let reg = Registry::enabled();
            reg.enable_digest(DigestConfig::default());
            reg.digest().fold("probe", 1, 10, &[]);
            write_digest(&dir, id, &reg)
        };
        let a = write("fig14");
        let b = write("fig15");
        let err = run(&a, &b, &ObsSettings::off()).unwrap_err();
        assert!(err.contains("different scenarios"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
