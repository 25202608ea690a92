//! Sim-time time-series sampling: the third leg of `cdnc-obs`.
//!
//! [`crate::Registry::enable_series`] attaches a `SeriesCore` to a
//! registry; instrumented components then register *sources* — named
//! gauges or counters to snapshot — and the event loop's
//! [`EventHook`](crate::EventHook) drives the [`Sampler`] handle with the
//! simulation clock. Whenever the clock
//! crosses a cadence boundary every source is sampled at that boundary,
//! so a run yields one aligned `(sim-time, value)` series per source.
//!
//! # Contract
//!
//! Same rules as the registry and tracer:
//!
//! - **Zero overhead when off.** A disabled registry (or one without
//!   series enabled) hands out `Sampler(None)`; a tick costs one branch.
//!   When enabled, the tick fast path is one relaxed atomic load.
//! - **Observation only.** Sampling reads instrument cells and writes
//!   into its own buffers — nothing feeds back into simulated state.
//! - **Deterministic under `--jobs N`.** Parallel tasks sample into their
//!   own registry shards; [`crate::Registry::absorb`] replays shard points
//!   through the same push path in task order, so the merged series are
//!   bit-identical for any worker count.
//!
//! # Bounded memory
//!
//! Each series holds at most [`SERIES_CAPACITY`] points. On overflow it is
//! downsampled in place to half capacity with [`lttb`]
//! (largest-triangle-three-buckets), a deterministic pure function that
//! keeps the first and last points and picks the visually dominant point
//! per bucket — long runs degrade resolution gracefully instead of
//! growing without bound.

use crate::json::Json;
use crate::metrics::GaugeCore;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Maximum points a series buffers before LTTB halves it.
pub const SERIES_CAPACITY: usize = 4096;

/// Default sampling cadence: 250 ms of simulated time.
pub const DEFAULT_CADENCE_US: u64 = 250_000;

/// One sample: simulated time (µs) and the sampled value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Simulated time of the cadence boundary this sample was taken at.
    pub t_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// How a source turns its instrument into samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// Instantaneous gauge level.
    Gauge,
    /// Cumulative counter value.
    Counter,
    /// Per-second rate derived from counter deltas between samples.
    Rate,
}

impl SeriesKind {
    /// Stable wire name used in `*.series.json`.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
            SeriesKind::Rate => "rate",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<SeriesKind> {
        match s {
            "gauge" => Some(SeriesKind::Gauge),
            "counter" => Some(SeriesKind::Counter),
            "rate" => Some(SeriesKind::Rate),
            _ => None,
        }
    }
}

/// The instrument cell a source reads. Registry-side code interns the
/// cell by name so a source and the matching [`crate::Counter`] /
/// [`crate::Gauge`] handles share storage.
#[derive(Debug, Clone)]
pub(crate) enum SourceCell {
    Gauge(Arc<GaugeCore>),
    Counter(Arc<AtomicU64>),
}

impl SourceCell {
    fn read(&self) -> u64 {
        match self {
            SourceCell::Gauge(core) => core.value.load(Relaxed),
            SourceCell::Counter(cell) => cell.load(Relaxed),
        }
    }
}

#[derive(Debug)]
struct Source {
    name: String,
    kind: SeriesKind,
    cell: SourceCell,
    /// Counter reading at the previous sample ([`SeriesKind::Rate`] only).
    last: u64,
    points: Vec<SeriesPoint>,
}

impl Source {
    /// Appends one point, compacting with LTTB at capacity. All point
    /// ingestion — live sampling and shard absorption alike — goes
    /// through here so both paths compact identically.
    fn push(&mut self, point: SeriesPoint) {
        self.points.push(point);
        if self.points.len() >= SERIES_CAPACITY {
            self.points = lttb(&self.points, SERIES_CAPACITY / 2);
        }
    }
}

#[derive(Debug, Default)]
struct SeriesState {
    sources: Vec<Source>,
    /// Boundary of the last sample in the current segment.
    last_us: u64,
    /// Whether the current segment has sampled at least once.
    sampled: bool,
    /// Points pushed since creation, before any compaction (the series
    /// artifact's `total_points`).
    total_points: u64,
}

impl SeriesState {
    /// The `(name, kind)` source, registered reading `cell` if absent.
    fn source(&mut self, name: &str, kind: SeriesKind, cell: SourceCell) -> &mut Source {
        let idx = match self.sources.iter().position(|s| s.name == name && s.kind == kind) {
            Some(idx) => idx,
            None => {
                let last = if kind == SeriesKind::Rate { cell.read() } else { 0 };
                let points = Vec::new();
                self.sources.push(Source { name: name.to_owned(), kind, cell, last, points });
                self.sources.len() - 1
            }
        };
        &mut self.sources[idx]
    }
}

/// The attached sampling engine; lives behind
/// [`crate::Registry::enable_series`].
#[derive(Debug)]
pub(crate) struct SeriesCore {
    pub(crate) cadence_us: u64,
    /// The next cadence boundary; the tick fast path compares against
    /// this without locking.
    next_due: AtomicU64,
    state: Mutex<SeriesState>,
}

impl SeriesCore {
    pub(crate) fn new(cadence_us: u64) -> Self {
        SeriesCore {
            cadence_us: cadence_us.max(1),
            next_due: AtomicU64::new(0),
            state: Mutex::new(SeriesState::default()),
        }
    }

    /// Registers a source; a `(name, kind)` pair already present is left
    /// untouched, so every simulation sharing a registry can register its
    /// sources.
    pub(crate) fn add_source(&self, name: &str, kind: SeriesKind, cell: SourceCell) {
        self.state.lock().source(name, kind, cell);
    }

    /// Starts a fresh sampling segment: the next sim starting its clock at
    /// zero re-arms the boundary and re-bases rate deltas. Series points
    /// keep accumulating — a later segment simply restarts the timestamps,
    /// which consumers treat as a segment break.
    pub(crate) fn begin_segment(&self) {
        let mut state = self.state.lock();
        state.last_us = 0;
        state.sampled = false;
        for source in &mut state.sources {
            if source.kind == SeriesKind::Rate {
                source.last = source.cell.read();
            }
        }
        self.next_due.store(0, Relaxed);
    }

    /// Samples every source at the latest cadence boundary ≤ `now_us`.
    /// A clock jump across several boundaries collapses to one sample
    /// with rates averaged over the whole gap, keeping idle periods from
    /// flooding the buffers.
    fn sample(&self, now_us: u64) {
        let _prof = crate::profile::scope(crate::profile::Subsystem::Series);
        let mut state = self.state.lock();
        let boundary = now_us - now_us % self.cadence_us;
        if state.sampled && boundary <= state.last_us {
            return;
        }
        let dt_us = if state.sampled { boundary - state.last_us } else { self.cadence_us };
        let dt_s = dt_us.max(1) as f64 / 1e6;
        state.total_points += state.sources.len() as u64;
        for source in &mut state.sources {
            let raw = source.cell.read();
            let value = match source.kind {
                SeriesKind::Gauge | SeriesKind::Counter => raw as f64,
                SeriesKind::Rate => {
                    let delta = raw.saturating_sub(source.last);
                    source.last = raw;
                    delta as f64 / dt_s
                }
            };
            source.push(SeriesPoint { t_us: boundary, value });
        }
        state.last_us = boundary;
        state.sampled = true;
        self.next_due.store(boundary + self.cadence_us, Relaxed);
    }

    /// Appends externally recorded points (a shard's series) through the
    /// normal push path, creating the source if needed.
    pub(crate) fn append(
        &self,
        name: &str,
        kind: SeriesKind,
        cell: SourceCell,
        points: &[SeriesPoint],
    ) {
        let _prof = crate::profile::scope(crate::profile::Subsystem::Series);
        let mut state = self.state.lock();
        state.total_points += points.len() as u64;
        let source = state.source(name, kind, cell);
        for &p in points {
            source.push(p);
        }
    }

    /// Every source's recorded points, for [`crate::Registry::absorb`].
    pub(crate) fn export(&self) -> Vec<(String, SeriesKind, Vec<SeriesPoint>)> {
        self.state
            .lock()
            .sources
            .iter()
            .map(|s| (s.name.clone(), s.kind, s.points.clone()))
            .collect()
    }

    /// A point-in-time copy of all series, sorted by `(name, kind)`.
    pub(crate) fn snapshot(&self) -> SeriesSnapshot {
        let state = self.state.lock();
        let mut series: Vec<SeriesEntry> = state
            .sources
            .iter()
            .map(|s| SeriesEntry { name: s.name.clone(), kind: s.kind, points: s.points.clone() })
            .collect();
        series.sort_by(|a, b| (&a.name, a.kind).cmp(&(&b.name, b.kind)));
        SeriesSnapshot { cadence_us: self.cadence_us, total_points: state.total_points, series }
    }
}

/// Cloneable handle the event hook drives; inert (`None`) unless series
/// sampling is enabled on the registry.
#[derive(Debug, Clone, Default)]
pub struct Sampler(pub(crate) Option<Arc<SeriesCore>>);

impl Sampler {
    /// Advances the sampling clock to `now_us`, taking a sample if a
    /// cadence boundary was crossed. One branch when disabled; one
    /// relaxed load between boundaries when enabled.
    #[inline]
    pub fn tick(&self, now_us: u64) {
        if let Some(core) = &self.0 {
            if now_us >= core.next_due.load(Relaxed) {
                core.sample(now_us);
            }
        }
    }

    /// Whether a [`Sampler::tick`] at `now_us` would take a sample: the
    /// event hook stores the instruments it owns back into their cells
    /// first. One branch when disabled; one relaxed load when enabled.
    #[inline]
    pub(crate) fn due(&self, now_us: u64) -> bool {
        self.0.as_ref().is_some_and(|core| now_us >= core.next_due.load(Relaxed))
    }

    /// Whether sampling is live behind this handle.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Marks the start of a new simulation sharing this sampler (sim
    /// clocks restart at zero); no-op when disabled.
    pub fn begin_segment(&self) {
        if let Some(core) = &self.0 {
            core.begin_segment();
        }
    }
}

/// One named series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesEntry {
    /// Instrument name the source samples.
    pub name: String,
    /// Sampling mode.
    pub kind: SeriesKind,
    /// Recorded points. Timestamps are non-decreasing within a segment; a
    /// decrease marks the start of the next simulation's segment.
    pub points: Vec<SeriesPoint>,
}

/// All series a registry recorded, in exportable form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// Sampling cadence, µs of simulated time.
    pub cadence_us: u64,
    /// Points pushed before compaction — sampling throughput.
    pub total_points: u64,
    /// Series sorted by `(name, kind)`.
    pub series: Vec<SeriesEntry>,
}

impl SeriesSnapshot {
    /// A series by name and kind.
    pub fn get(&self, name: &str, kind: SeriesKind) -> Option<&SeriesEntry> {
        self.series.iter().find(|s| s.name == name && s.kind == kind)
    }

    /// The snapshot as the `*.series.json` document.
    pub fn to_json(&self) -> Json {
        let series = self
            .series
            .iter()
            .map(|entry| {
                let points = entry
                    .points
                    .iter()
                    .map(|p| Json::Arr(vec![Json::from(p.t_us), Json::from(p.value)]))
                    .collect();
                Json::obj()
                    .field("name", entry.name.as_str())
                    .field("kind", entry.kind.name())
                    .field("points", Json::Arr(points))
            })
            .collect();
        Json::obj()
            .field("cadence_us", self.cadence_us)
            .field("total_points", self.total_points)
            .field("series", Json::Arr(series))
    }

    /// Parses a `*.series.json` document written by [`Self::to_json`].
    /// Returns `None` when the shape does not match.
    pub fn from_json(doc: &Json) -> Option<SeriesSnapshot> {
        let cadence_us = doc.get("cadence_us")?.as_f64()? as u64;
        let total_points = doc.get("total_points")?.as_f64()? as u64;
        let Json::Arr(items) = doc.get("series")? else { return None };
        let mut series = Vec::with_capacity(items.len());
        for item in items {
            let Json::Str(name) = item.get("name")? else { return None };
            let Json::Str(kind) = item.get("kind")? else { return None };
            let kind = SeriesKind::parse(kind)?;
            let Json::Arr(raw) = item.get("points")? else { return None };
            let mut points = Vec::with_capacity(raw.len());
            for p in raw {
                let Json::Arr(pair) = p else { return None };
                let (t, v) = (pair.first()?.as_f64()?, pair.get(1)?.as_f64()?);
                points.push(SeriesPoint { t_us: t as u64, value: v });
            }
            series.push(SeriesEntry { name: name.clone(), kind, points });
        }
        Some(SeriesSnapshot { cadence_us, total_points, series })
    }
}

/// Largest-triangle-three-buckets downsampling to at most `threshold`
/// points (Steinarsson 2013). Keeps the first and last points and, for
/// each interior bucket, the point forming the largest triangle with the
/// previously kept point and the next bucket's centroid. Output is a
/// subsequence of the input, so ordering (and within-segment timestamp
/// monotonicity) is preserved. Deterministic: pure f64 arithmetic, ties
/// resolved to the earliest candidate.
pub fn lttb(points: &[SeriesPoint], threshold: usize) -> Vec<SeriesPoint> {
    if threshold >= points.len() {
        return points.to_vec();
    }
    if threshold < 3 {
        let mut kept = vec![points[0]];
        if threshold >= 2 {
            kept.push(points[points.len() - 1]);
        }
        return kept;
    }
    let mut kept = Vec::with_capacity(threshold);
    kept.push(points[0]);
    // Interior points split into threshold-2 buckets of equal f64 width.
    let interior = (points.len() - 2) as f64;
    let buckets = (threshold - 2) as f64;
    let mut prev = points[0];
    for b in 0..threshold - 2 {
        let lo = 1 + (b as f64 * interior / buckets).floor() as usize;
        let hi = 1 + (((b + 1) as f64) * interior / buckets).floor() as usize;
        let hi = hi.max(lo + 1).min(points.len() - 1);
        // Centroid of the *next* bucket (the final point for the last one).
        let (nlo, nhi) = if b + 1 < threshold - 2 {
            let nlo = 1 + (((b + 1) as f64) * interior / buckets).floor() as usize;
            let nhi = (1 + (((b + 2) as f64) * interior / buckets).floor() as usize).max(nlo + 1);
            (nlo, nhi.min(points.len() - 1))
        } else {
            (points.len() - 1, points.len())
        };
        let n = (nhi - nlo).max(1) as f64;
        let (cx, cy) = points[nlo..nhi.max(nlo + 1)]
            .iter()
            .fold((0.0, 0.0), |(x, y), p| (x + p.t_us as f64, y + p.value));
        let (cx, cy) = (cx / n, cy / n);
        let mut best = points[lo];
        let mut best_area = -1.0f64;
        for &p in &points[lo..hi] {
            let area = ((prev.t_us as f64 - cx) * (p.value - prev.value)
                - (prev.t_us as f64 - p.t_us as f64) * (cy - prev.value))
                .abs();
            if area > best_area {
                best_area = area;
                best = p;
            }
        }
        kept.push(best);
        prev = best;
    }
    kept.push(points[points.len() - 1]);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn pts(n: usize) -> Vec<SeriesPoint> {
        (0..n)
            .map(|i| SeriesPoint { t_us: i as u64 * 1000, value: ((i * 37) % 101) as f64 })
            .collect()
    }

    #[test]
    fn lttb_small_inputs_pass_through() {
        let p = pts(5);
        assert_eq!(lttb(&p, 10), p);
        assert_eq!(lttb(&p, 5), p);
        let two = lttb(&p, 2);
        assert_eq!(two, vec![p[0], p[4]]);
        assert_eq!(lttb(&p, 1), vec![p[0]]);
    }

    #[test]
    fn lttb_downsamples_to_threshold_keeping_ends() {
        for n in [10usize, 100, 1000] {
            for threshold in [3usize, 7, 64] {
                let p = pts(n);
                let out = lttb(&p, threshold);
                assert_eq!(out.len(), threshold.min(n));
                assert_eq!(out[0], p[0], "first point kept");
                assert_eq!(*out.last().unwrap(), *p.last().unwrap(), "last point kept");
                assert!(
                    out.windows(2).all(|w| w[0].t_us < w[1].t_us),
                    "monotone timestamps (n={n}, threshold={threshold})"
                );
            }
        }
    }

    #[test]
    fn lttb_is_deterministic() {
        let p = pts(500);
        assert_eq!(lttb(&p, 50), lttb(&p, 50));
    }

    #[test]
    fn disabled_sampler_is_inert() {
        let off = Registry::disabled();
        off.enable_series(1000);
        off.series_gauge("g");
        let sampler = off.sampler();
        assert!(!sampler.is_enabled());
        sampler.tick(10_000);
        assert!(off.series_snapshot().series.is_empty());
        // Enabled registry without enable_series: same inertness.
        let on = Registry::enabled();
        on.series_gauge("g");
        assert!(!on.sampler().is_enabled());
        assert!(on.series_snapshot().series.is_empty());
    }

    #[test]
    fn sampler_snapshots_on_cadence_boundaries() {
        let reg = Registry::enabled();
        reg.enable_series(1000);
        let gauge = reg.gauge("depth");
        let counter = reg.counter("events");
        reg.series_gauge("depth");
        reg.series_counter("events");
        reg.series_rate("events");
        let sampler = reg.sampler();
        assert!(sampler.is_enabled());

        gauge.set(5);
        counter.add(10);
        sampler.tick(0); // boundary 0
        gauge.set(7);
        counter.add(10);
        sampler.tick(500); // between boundaries: no sample
        sampler.tick(1500); // boundary 1000
        sampler.tick(1700); // still boundary 1000: no sample

        let snap = reg.series_snapshot();
        assert_eq!(snap.cadence_us, 1000);
        let depth = snap.get("depth", SeriesKind::Gauge).unwrap();
        assert_eq!(
            depth.points,
            vec![SeriesPoint { t_us: 0, value: 5.0 }, SeriesPoint { t_us: 1000, value: 7.0 }]
        );
        let cum = snap.get("events", SeriesKind::Counter).unwrap();
        assert_eq!(cum.points[1].value, 20.0);
        let rate = snap.get("events", SeriesKind::Rate).unwrap();
        // First window covers one cadence (10 events / 1 ms), second the
        // 10 events landing between the two boundaries.
        assert_eq!(rate.points[0].value, 10.0 / 1e-3);
        assert_eq!(rate.points[1].value, 10.0 / 1e-3);
    }

    #[test]
    fn clock_jump_collapses_to_one_sample_with_averaged_rate() {
        let reg = Registry::enabled();
        reg.enable_series(1000);
        let counter = reg.counter("c");
        reg.series_rate("c");
        let sampler = reg.sampler();
        sampler.tick(0);
        counter.add(8);
        sampler.tick(4000); // four boundaries crossed at once
        let snap = reg.series_snapshot();
        let rate = snap.get("c", SeriesKind::Rate).unwrap();
        assert_eq!(rate.points.len(), 2, "one sample per jump, not per boundary");
        assert_eq!(rate.points[1].t_us, 4000);
        assert_eq!(rate.points[1].value, 8.0 / 4e-3, "rate averaged over the gap");
    }

    #[test]
    fn begin_segment_restarts_clock_and_rebases_rates() {
        let reg = Registry::enabled();
        reg.enable_series(1000);
        let counter = reg.counter("c");
        reg.series_rate("c");
        let sampler = reg.sampler();
        counter.add(5);
        sampler.tick(0);
        sampler.tick(2000);
        sampler.begin_segment();
        counter.add(3);
        sampler.tick(1000);
        let snap = reg.series_snapshot();
        let rate = snap.get("c", SeriesKind::Rate).unwrap();
        let ts: Vec<u64> = rate.points.iter().map(|p| p.t_us).collect();
        assert_eq!(ts, vec![0, 2000, 1000], "second segment restarts timestamps");
        assert_eq!(
            rate.points[2].value,
            3.0 / 1e-3,
            "rate counts only increments since the segment started"
        );
    }

    #[test]
    fn capacity_triggers_lttb_compaction() {
        let reg = Registry::enabled();
        reg.enable_series(10);
        let gauge = reg.gauge("g");
        reg.series_gauge("g");
        let sampler = reg.sampler();
        for i in 0..(SERIES_CAPACITY as u64 + 100) {
            gauge.set(i % 17);
            sampler.tick(i * 10);
        }
        let snap = reg.series_snapshot();
        let g = snap.get("g", SeriesKind::Gauge).unwrap();
        assert!(g.points.len() < SERIES_CAPACITY, "compacted below capacity");
        assert_eq!(g.points[0].t_us, 0, "first point survives compaction");
        assert!(
            g.points.windows(2).all(|w| w[0].t_us < w[1].t_us),
            "timestamps stay monotone through compaction"
        );
        assert_eq!(snap.total_points, SERIES_CAPACITY as u64 + 100, "pre-compaction count kept");
    }

    #[test]
    fn shard_mirrors_series_arming_and_absorb_appends_in_order() {
        let parent = Registry::enabled();
        parent.enable_series(1000);
        let mut expected = Vec::new();
        for task in 0..3u64 {
            let shard = parent.shard();
            let sampler = shard.sampler();
            assert!(sampler.is_enabled(), "shard mirrors series arming");
            let gauge = shard.gauge("depth");
            shard.series_gauge("depth");
            for step in 0..4u64 {
                gauge.set(task * 10 + step);
                sampler.tick(step * 1000);
                expected.push(SeriesPoint { t_us: step * 1000, value: (task * 10 + step) as f64 });
            }
            parent.absorb(&shard);
        }
        let snap = parent.series_snapshot();
        let depth = snap.get("depth", SeriesKind::Gauge).unwrap();
        assert_eq!(depth.points, expected, "shard points appended in absorb order");
        assert_eq!(snap.total_points, expected.len() as u64);
    }

    #[test]
    fn unarmed_shard_of_armed_parent_records_nothing_extra() {
        let parent = Registry::enabled();
        let shard = parent.shard();
        assert!(!shard.sampler().is_enabled(), "series was not armed");
        parent.absorb(&shard);
        assert!(parent.series_snapshot().series.is_empty());
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = Registry::enabled();
        reg.enable_series(500);
        reg.gauge("g").set(3);
        reg.counter("c").add(7);
        reg.series_gauge("g");
        reg.series_counter("c");
        reg.series_rate("c");
        let sampler = reg.sampler();
        sampler.tick(0);
        sampler.tick(600);
        let snap = reg.series_snapshot();
        let doc = snap.to_json();
        let parsed = crate::json::parse(&doc.to_pretty()).expect("valid json");
        let back = SeriesSnapshot::from_json(&parsed).expect("round-trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_sorts_by_name_and_kind() {
        let reg = Registry::enabled();
        reg.enable_series(100);
        reg.series_rate("zeta");
        reg.series_counter("zeta");
        reg.series_gauge("alpha");
        reg.sampler().tick(0);
        let snap = reg.series_snapshot();
        let order: Vec<(&str, SeriesKind)> =
            snap.series.iter().map(|s| (s.name.as_str(), s.kind)).collect();
        assert_eq!(
            order,
            vec![
                ("alpha", SeriesKind::Gauge),
                ("zeta", SeriesKind::Counter),
                ("zeta", SeriesKind::Rate),
            ]
        );
    }
}
