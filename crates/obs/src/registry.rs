//! The metrics registry: named instruments, phase timers, and the opt-in
//! observation planes behind one cloneable handle.
//!
//! # Disabled mode
//!
//! [`Registry::disabled()`] holds no allocation at all. Instruments minted
//! from it are inert, and every operation on the registry or its handles
//! costs exactly one branch (`Option` check on an `Arc`). Code under
//! instrumentation therefore never needs `if obs.enabled()` guards.
//!
//! # Interning
//!
//! Instruments are interned by name: two `counter("x")` calls return handles
//! to the same cell, wherever they happen. Callers grab handles once and
//! update through them on hot paths; name lookup is the cold path.
//!
//! # Planes
//!
//! Tracing, series, profiling, timeprof, digest and health are opt-in
//! planes, each armed at most once through its `enable_*` method (the
//! first arming wins) and read without a lock afterwards.
//!
//! # One simulation at a time
//!
//! One simulation records into a registry (or a shard) at a time: figure
//! batches give each task its own [`Registry::shard`] through `cdnc-par`,
//! and the entry points of `cdnc-core` run one simulation to its end before
//! the next starts. While it runs, the simulation's armed
//! [`EventHook`](crate::EventHook) is the only writer of the instruments it
//! feeds and holds their values itself; a read of the registry sees them as
//! of the hook's last write-back (a series sample, [`EventHook::close`] or
//! the hook's drop). Every other writer — the simulator's protocol
//! instruments, health, phase spans and [`Registry::absorb`] — updates the
//! shared cells directly. Minting a second armed hook on a registry while
//! one is live breaks the rule and fails a debug assertion.
//!
//! [`EventHook::close`]: crate::EventHook::close

use crate::digest::{Digest, DigestConfig, DigestCore, DigestSnapshot};
use crate::health::{Health, HealthSnapshot, HealthState};
use crate::json::Json;
use crate::metrics::{Counter, Gauge, GaugeCore, Histogram, HistogramCore, HistogramSnapshot};
use crate::series::{Sampler, SeriesCore, SeriesKind, SeriesSnapshot, SourceCell};
use crate::timeprof::{FrameTree, PhaseTiming, SpanGuard, TimeProfCore, TimeProfSnapshot};
use crate::trace::{Tracer, TracerCore};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, OnceLock};

#[derive(Default)]
struct Inner {
    /// Whether an armed event hook is live on this registry.
    hook_live: AtomicBool,
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, Arc<GaugeCore>)>>,
    histograms: Mutex<Vec<(String, Arc<HistogramCore>)>>,
    spans: Arc<FrameTree>,
    tracer: OnceLock<Arc<TracerCore>>,
    series: OnceLock<Arc<SeriesCore>>,
    profile: OnceLock<()>,
    timeprof: OnceLock<Arc<TimeProfCore>>,
    digest: OnceLock<Arc<DigestCore>>,
    health: OnceLock<Arc<HealthState>>,
}

fn intern<T: Default>(table: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut table = table.lock();
    match table.iter().find(|(n, _)| n == name) {
        Some((_, cell)) => Arc::clone(cell),
        None => {
            let cell = Arc::new(T::default());
            table.push((name.to_owned(), Arc::clone(&cell)));
            cell
        }
    }
}

/// A shard's slot for one plane: armed with `init(parent's value)` when
/// the parent's slot is armed, empty otherwise.
fn mirror<T>(parent: &OnceLock<T>, init: impl FnOnce(&T) -> T) -> OnceLock<T> {
    parent.get().map(init).map_or_else(OnceLock::new, OnceLock::from)
}

/// A cloneable handle to one run's metrics. See the module docs.
#[derive(Clone, Default)]
pub struct Registry(Option<Arc<Inner>>);

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "Registry(enabled)" } else { "Registry(disabled)" })
    }
}

impl Registry {
    /// A live registry.
    pub fn enabled() -> Registry {
        Registry(Some(Arc::new(Inner::default())))
    }

    /// The inert registry: every operation is a no-op behind one branch.
    pub fn disabled() -> Registry {
        Registry(None)
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Arms the plane in `slot` with `init()` unless it is already armed
    /// (the first arming wins). No-op on a disabled registry.
    fn arm<T>(&self, slot: fn(&Inner) -> &OnceLock<T>, init: impl FnOnce() -> T) {
        if let Some(inner) = &self.0 {
            slot(inner).get_or_init(init);
        }
    }

    /// The plane in `slot`, if this registry is enabled and the plane armed.
    fn armed<T>(&self, slot: fn(&Inner) -> &OnceLock<T>) -> Option<&T> {
        self.0.as_deref().and_then(|inner| slot(inner).get())
    }

    /// Marks an armed event hook live on this registry until
    /// [`Registry::release_hook`]. A debug assertion fails when one is
    /// live already (see the module docs).
    pub(crate) fn claim_hook(&self) {
        if let Some(inner) = &self.0 {
            let live = inner.hook_live.swap(true, std::sync::atomic::Ordering::Relaxed);
            debug_assert!(!live, "a second event hook minted while one records into the registry");
        }
    }

    /// Marks the registry's event hook gone.
    pub(crate) fn release_hook(&self) {
        if let Some(inner) = &self.0 {
            inner.hook_live.store(false, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// The counter named `name` (inert handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|inner| intern(&inner.counters, name)))
    }

    /// The gauge named `name` (inert handle when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|inner| intern(&inner.gauges, name)))
    }

    /// The histogram named `name` (inert handle when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.0.as_ref().map(|inner| intern(&inner.histograms, name)))
    }

    /// Opens a phase timer; the scope it lives for is recorded under `name`,
    /// nested inside any enclosing span on this thread.
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.0 {
            None => SpanGuard::disabled(),
            Some(inner) => SpanGuard::enter(Arc::clone(&inner.spans), name),
        }
    }

    /// Attaches the causal update tracer. Until this is called (and always
    /// on a disabled registry) [`Registry::tracer`] hands out inert tracers.
    pub fn enable_tracing(&self) {
        self.arm(|i| &i.tracer, Arc::default);
    }

    /// The attached tracer (inert when disabled or tracing not enabled).
    pub fn tracer(&self) -> Tracer {
        Tracer(self.armed(|i| &i.tracer).cloned())
    }

    /// Attaches the sim-time series sampler with the given cadence (µs of
    /// simulated time). Until this is called (and always on a disabled
    /// registry) [`Registry::sampler`] hands out inert samplers and the
    /// `series_*` registration methods are no-ops — the same opt-in gate
    /// the tracer uses.
    pub fn enable_series(&self, cadence_us: u64) {
        self.arm(|i| &i.series, || Arc::new(SeriesCore::new(cadence_us)));
    }

    /// Arms the profiling structural probes: the queue-depth log-histogram
    /// at pop time, the allocation-spike probe and per-packet-kind byte
    /// accounting (all fed by [`EventHook`](crate::EventHook)), and
    /// per-node state-size estimation in the simulator. Like tracing/series this is an opt-in gate mirrored by
    /// [`Registry::shard`] — the probes record through ordinary interned
    /// instruments, so `--jobs N` merges bit-identically.
    ///
    /// This does *not* flip the process-global allocator attribution
    /// ([`crate::profile::set_enabled`]); binaries that installed
    /// [`crate::profile::ProfiledAlloc`] switch that separately.
    pub fn enable_profiling(&self) {
        self.arm(|i| &i.profile, || ());
    }

    /// Whether profiling probes are armed.
    pub fn profiling_enabled(&self) -> bool {
        self.armed(|i| &i.profile).is_some()
    }

    /// Arms the hot-path time profiler: per-event-kind handler time
    /// (charged at event boundaries by [`EventHook`](crate::EventHook)) and
    /// per-worker utilization accounting ([`Registry::record_worker_use`])
    /// start recording, and [`Registry::timeprof_snapshot`] returns `Some`.
    /// Like the other opt-in gates this is mirrored by [`Registry::shard`]
    /// and merged in task order by [`Registry::absorb`]: handler *counts*
    /// and frame structure are bit-identical at any `--jobs`, while the
    /// nanosecond moments and worker stats are volatile wall-clock
    /// telemetry.
    pub fn enable_timeprof(&self) {
        self.arm(|i| &i.timeprof, Arc::default);
    }

    /// Whether the time profiler is armed.
    pub fn timeprof_enabled(&self) -> bool {
        self.armed(|i| &i.timeprof).is_some()
    }

    /// The time profiler's state, if armed.
    pub(crate) fn timeprof_core(&self) -> Option<&TimeProfCore> {
        self.armed(|i| &i.timeprof).map(Arc::as_ref)
    }

    /// Accumulates one parallel map's per-worker utilization. No-op
    /// unless timeprof is armed.
    pub fn record_worker_use(&self, stats: &[crate::timeprof::WorkerUse]) {
        if let Some(core) = self.armed(|i| &i.timeprof) {
            core.record_workers(stats);
        }
    }

    /// A point-in-time copy of the time profiler's state (`None` when
    /// disabled or timeprof not armed). Frames always come from the span
    /// tree, which records whenever the registry is enabled.
    pub fn timeprof_snapshot(&self) -> Option<TimeProfSnapshot> {
        let inner = self.0.as_ref()?;
        let core = inner.timeprof.get()?;
        Some(TimeProfSnapshot {
            frames: inner.spans.snapshot(),
            handlers: core.handlers.snapshot(),
            workers: core.workers_snapshot(),
        })
    }

    /// Arms the determinism audit trail: [`Registry::digest`] handles start
    /// folding, [`Registry::digest_snapshot`] returns `Some`, and
    /// [`Registry::shard`] arms shards with the same configuration — each
    /// shard records its own segment chain, absorbed in task order, so the
    /// run-level chain is bit-identical at any `--jobs`. Like the other
    /// opt-in gates, idempotent: the first configuration wins.
    pub fn enable_digest(&self, config: DigestConfig) {
        self.arm(|i| &i.digest, || Arc::new(DigestCore::new(config)));
    }

    /// Whether the digest audit trail is armed.
    pub fn digest_enabled(&self) -> bool {
        self.armed(|i| &i.digest).is_some()
    }

    /// The armed digest configuration, if any.
    pub fn digest_config(&self) -> Option<DigestConfig> {
        self.armed(|i| &i.digest).map(|core| core.config())
    }

    /// A fold handle on the audit trail (inert when disabled or digest not
    /// armed). Fold points grab the handle once and fold through it on the
    /// hot path.
    pub fn digest(&self) -> Digest {
        Digest::from_core(self.armed(|i| &i.digest).cloned())
    }

    /// The run-level audit trail so far (`None` when disabled or digest not
    /// armed). Non-destructive.
    pub fn digest_snapshot(&self) -> Option<DigestSnapshot> {
        Some(self.armed(|i| &i.digest)?.snapshot())
    }

    /// Checkpoint view of the digest's currently-recording local segment as
    /// `(events, chain, stride, checkpoints)`, or `None` when disabled or
    /// digest not armed. Together with [`Registry::restore_digest_local`]
    /// this lets a restored simulation continue the saved run's chain, so a
    /// restore-then-run audit trail is bit-identical to the straight run.
    pub fn digest_local_state(&self) -> Option<(u64, u64, u64, Vec<crate::digest::Checkpoint>)> {
        Some(self.armed(|i| &i.digest)?.export_local())
    }

    /// Overwrites the digest's local segment with state captured by
    /// [`Registry::digest_local_state`]. Returns `false` (and does nothing)
    /// when disabled or digest not armed.
    pub fn restore_digest_local(
        &self,
        events: u64,
        chain: u64,
        stride: u64,
        checkpoints: Vec<crate::digest::Checkpoint>,
    ) -> bool {
        match self.armed(|i| &i.digest) {
            Some(core) => {
                core.restore_local(events, chain, stride, checkpoints);
                true
            }
            None => false,
        }
    }

    /// Arms the run-health counters: [`Registry::health`] handles start
    /// recording and [`Registry::health_snapshot`] returns `Some`. Health
    /// is wall-clock telemetry — shards *share* the parent's state (live
    /// aggregation across workers) and [`Registry::absorb`] has nothing to
    /// fold, so arming it never perturbs determinism artifacts.
    pub fn enable_health(&self) {
        self.arm(|i| &i.health, Arc::default);
    }

    /// Whether run-health counters are armed.
    pub fn health_enabled(&self) -> bool {
        self.armed(|i| &i.health).is_some()
    }

    /// A health handle (inert when disabled or health not armed).
    pub fn health(&self) -> Health {
        Health::from_state(self.armed(|i| &i.health).cloned())
    }

    /// A point-in-time reading of the health counters (`None` when disabled
    /// or health not armed).
    pub fn health_snapshot(&self) -> Option<HealthSnapshot> {
        self.armed(|i| &i.health).map(|state| HealthSnapshot::read(state))
    }

    /// The attached sampler (inert when disabled or series not enabled).
    pub fn sampler(&self) -> Sampler {
        Sampler(self.armed(|i| &i.series).cloned())
    }

    /// Registers a series source sampling the gauge `name`'s level on
    /// every cadence boundary. No-op unless series sampling is enabled.
    pub fn series_gauge(&self, name: &str) {
        if let Some((inner, series)) = self.series_core() {
            series.add_source(
                name,
                SeriesKind::Gauge,
                SourceCell::Gauge(intern(&inner.gauges, name)),
            );
        }
    }

    /// Registers a series source sampling the counter `name`'s cumulative
    /// value. No-op unless series sampling is enabled.
    pub fn series_counter(&self, name: &str) {
        if let Some((inner, series)) = self.series_core() {
            series.add_source(
                name,
                SeriesKind::Counter,
                SourceCell::Counter(intern(&inner.counters, name)),
            );
        }
    }

    /// Registers a series source deriving a per-second rate from counter
    /// `name`'s deltas between samples. No-op unless series sampling is
    /// enabled.
    pub fn series_rate(&self, name: &str) {
        if let Some((inner, series)) = self.series_core() {
            series.add_source(
                name,
                SeriesKind::Rate,
                SourceCell::Counter(intern(&inner.counters, name)),
            );
        }
    }

    /// A point-in-time copy of every recorded series (empty when disabled
    /// or series not enabled).
    pub fn series_snapshot(&self) -> SeriesSnapshot {
        self.armed(|i| &i.series).map(|core| core.snapshot()).unwrap_or_default()
    }

    fn series_core(&self) -> Option<(&Inner, &SeriesCore)> {
        let inner = self.0.as_deref()?;
        Some((inner, inner.series.get()?))
    }

    /// A point-in-time copy of every instrument, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.0 else {
            return MetricsSnapshot::default();
        };
        use std::sync::atomic::Ordering::Relaxed;
        let mut counters: Vec<(String, u64)> =
            inner.counters.lock().iter().map(|(n, c)| (n.clone(), c.load(Relaxed))).collect();
        counters.sort();
        let mut gauges: Vec<(String, GaugeSnapshot)> = inner
            .gauges
            .lock()
            .iter()
            .map(|(n, g)| {
                (
                    n.clone(),
                    GaugeSnapshot {
                        value: g.value.load(Relaxed),
                        high_water: g.high_water.load(Relaxed),
                    },
                )
            })
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> = inner
            .histograms
            .lock()
            .iter()
            .map(|(n, h)| (n.clone(), Histogram(Some(Arc::clone(h))).snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, histograms, spans: inner.spans.snapshot() }
    }

    /// A fresh registry configured like this one — same enabled state and
    /// the same planes armed with the same parameters — but with empty
    /// instruments. Parallel tasks record into their own shard and the
    /// runner folds shards back with [`Registry::absorb`] in task order, so
    /// the merged result is bit-identical to recording everything into one
    /// registry sequentially. Disabled registries shard to disabled handles,
    /// preserving zero overhead when observability is off.
    pub fn shard(&self) -> Registry {
        let Some(inner) = &self.0 else {
            return Registry::disabled();
        };
        Registry(Some(Arc::new(Inner {
            tracer: mirror(&inner.tracer, |_| Arc::default()),
            series: mirror(&inner.series, |series| Arc::new(SeriesCore::new(series.cadence_us))),
            profile: inner.profile.clone(),
            timeprof: mirror(&inner.timeprof, |_| Arc::default()),
            // Fresh segment chain, same configuration.
            digest: mirror(&inner.digest, |digest| Arc::new(DigestCore::new(digest.config()))),
            // Shared state: health aggregates live across workers.
            health: mirror(&inner.health, Arc::clone),
            ..Inner::default()
        })))
    }

    /// Folds everything `shard` recorded into this registry: counters add,
    /// gauges take the shard's last level (skipping gauges the shard never
    /// touched) and raise the high-water mark, histograms merge, phase
    /// timings accumulate, and traces renumber past everything already
    /// recorded. Instruments keep shard-side first-use order, so absorbing
    /// shards in task order yields exactly the state of a single registry
    /// that ran the tasks in order.
    ///
    /// No-op when either side is disabled or `shard` is this registry.
    pub fn absorb(&self, shard: &Registry) {
        use std::sync::atomic::Ordering::Relaxed;
        let (Some(inner), Some(other)) = (&self.0, &shard.0) else { return };
        if Arc::ptr_eq(inner, other) {
            return;
        }
        for (name, cell) in other.counters.lock().iter() {
            self.counter(name).add(cell.load(Relaxed));
        }
        for (name, core) in other.gauges.lock().iter() {
            let (value, high) = (core.value.load(Relaxed), core.high_water.load(Relaxed));
            if value == 0 && high == 0 {
                continue; // interned but never moved: don't clobber ours
            }
            if let Some(mine) = self.gauge(name).0 {
                mine.value.store(value, Relaxed);
                mine.high_water.fetch_max(high, Relaxed);
            }
        }
        for (name, core) in other.histograms.lock().iter() {
            if let Some(mine) = self.histogram(name).0 {
                let snap = Histogram(Some(Arc::clone(core))).snapshot();
                crate::metrics::merge_into_core(&mine, &snap);
            }
        }
        for (path, timing) in other.spans.snapshot() {
            inner.spans.absorb(&path, timing);
        }
        if let (Some(mine), Some(theirs)) = (inner.timeprof.get(), other.timeprof.get()) {
            mine.absorb(theirs);
        }
        if let (Some(mine), Some(theirs)) = (inner.tracer.get(), other.tracer.get()) {
            Tracer(Some(Arc::clone(mine))).absorb(&Tracer(Some(Arc::clone(theirs))).store());
        }
        if let (Some(mine), Some(theirs)) = (inner.digest.get(), other.digest.get()) {
            mine.absorb(theirs);
        }
        // Health needs no absorb: shards share the parent's state.
        if let (Some(mine), Some(theirs)) = (inner.series.get(), other.series.get()) {
            // Shard points replay through the normal push path against
            // cells interned in *this* registry, so a later absorb or
            // live sample cannot alias shard storage.
            for (name, kind, points) in theirs.export() {
                let cell = match kind {
                    SeriesKind::Gauge => SourceCell::Gauge(intern(&inner.gauges, &name)),
                    SeriesKind::Counter | SeriesKind::Rate => {
                        SourceCell::Counter(intern(&inner.counters, &name))
                    }
                };
                mine.append(&name, kind, cell, &points);
            }
        }
    }
}

/// Final value and high-water mark of a gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Level at snapshot time.
    pub value: u64,
    /// Highest level observed.
    pub high_water: u64,
}

/// Everything a registry recorded, in exportable form.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// Histogram contents, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span timings in first-entered order (wall-clock, non-deterministic).
    pub spans: Vec<(String, PhaseTiming)>,
}

impl MetricsSnapshot {
    /// The value of a counter, or 0 if it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The metrics (not spans) as a JSON object.
    pub fn metrics_json(&self) -> Json {
        let counters = self.counters.iter().fold(Json::obj(), |obj, (n, v)| obj.field(n, *v));
        let gauges = self.gauges.iter().fold(Json::obj(), |obj, (n, g)| {
            obj.field(n, Json::obj().field("value", g.value).field("high_water", g.high_water))
        });
        let histograms = self.histograms.iter().fold(Json::obj(), |obj, (n, h)| {
            let mut j = Json::obj()
                .field("count", h.count)
                .field("sum", h.sum)
                .field("mean", h.mean())
                .field("min", h.count.gt(&0).then_some(h.min))
                .field("max", h.count.gt(&0).then_some(h.max))
                .field("p50", h.quantile(0.50))
                .field("p95", h.quantile(0.95))
                .field("p99", h.quantile(0.99));
            // Only the occupied tail of the bucket array, as (index, count)
            // pairs — 64 mostly-zero entries per histogram add noise.
            let occupied: Vec<Json> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| Json::Arr(vec![Json::from(i), Json::from(c)]))
                .collect();
            j = j.field("buckets", Json::Arr(occupied));
            obj.field(n, j)
        });
        Json::obj()
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms)
    }

    /// The span timings as a JSON array (in first-entered order).
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|(path, t)| {
                    Json::obj()
                        .field("phase", path.as_str())
                        .field("count", t.count)
                        .field("total_s", t.total_secs())
                        .field("self_s", t.self_secs())
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_cells() {
        let reg = Registry::enabled();
        reg.counter("events").add(2);
        reg.counter("events").add(3);
        assert_eq!(reg.counter("events").get(), 5);
        assert_eq!(reg.snapshot().counter("events"), 5);
        assert_eq!(reg.snapshot().counter("never"), 0);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        reg.counter("x").inc();
        reg.gauge("g").add(10);
        reg.histogram("h").record(1.0);
        let _span = reg.span("phase");
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_sorts_names() {
        let reg = Registry::enabled();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn spans_aggregate_under_paths() {
        let reg = Registry::enabled();
        {
            let _outer = reg.span("run");
            let _inner = reg.span("observe");
        }
        let spans = reg.snapshot().spans;
        let paths: Vec<&str> = spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["run/observe", "run"]);
    }

    #[test]
    fn span_overhead_stays_flat_across_path_counts() {
        // Mean nanoseconds per enter/exit over a few distinct paths versus
        // many. Interned O(1) recording keeps the ratio near 1; a linear
        // scan over recorded paths sits near the path-count quotient (64×).
        const OPS: usize = 20_000;
        let ns_per_op = |paths: usize| {
            let reg = Registry::enabled();
            let names: Vec<String> = (0..paths).map(|i| format!("span_{i}")).collect();
            for name in &names {
                let _warm = reg.span(name);
            }
            let started = std::time::Instant::now();
            for i in 0..OPS {
                let _g = reg.span(&names[i % paths]);
            }
            started.elapsed().as_nanos() as f64 / OPS as f64
        };
        let (small, large) = (ns_per_op(64), ns_per_op(4096));
        let ratio = large / small.max(1e-9);
        assert!(ratio > 0.0);
        assert!(
            ratio <= 8.0,
            "interned span recording must not scale with distinct-path count: ratio {ratio:.2}"
        );
    }

    #[test]
    fn tracing_gated_behind_enable() {
        let reg = Registry::enabled();
        assert!(!reg.tracer().is_enabled(), "tracing is opt-in even when enabled");
        reg.enable_tracing();
        let t = reg.tracer();
        assert!(t.is_enabled());
        assert!(t.publish(1, 0, 0, "s").is_active());
        assert_eq!(reg.tracer().store().traces.len(), 1, "handles share one core");
        let off = Registry::disabled();
        off.enable_tracing();
        assert!(!off.tracer().is_enabled());
        assert!(!off.tracer().publish(1, 0, 0, "s").is_active());
    }

    /// Drives one "task" worth of recording against `reg`, salted so the
    /// contributions of different tasks are distinguishable after merging.
    fn record_task(reg: &Registry, salt: u64) {
        reg.counter("polls").add(salt);
        reg.counter("updates").inc();
        reg.gauge("inflight").set(salt);
        reg.histogram("lag_s").record(salt as f64 * 0.5);
        reg.histogram("lag_s").record(salt as f64 * 0.25);
        {
            let _g = reg.span("task");
        }
        reg.tracer().publish(salt as u32, 0, salt * 100, "shard");
    }

    /// The shard/absorb contract: shards absorbed in task order leave the
    /// parent with exactly the state of one registry driven sequentially
    /// (wall-clock span durations excepted — their counts and paths match).
    #[test]
    fn absorbing_shards_in_order_matches_sequential_recording() {
        let serial = Registry::enabled();
        serial.enable_tracing();
        let parallel = serial.shard();
        for salt in [3u64, 5, 9] {
            record_task(&serial, salt);
            let shard = parallel.shard();
            record_task(&shard, salt);
            parallel.absorb(&shard);
        }

        let (a, b) = (serial.snapshot(), parallel.snapshot());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(a.histograms, b.histograms);
        let phases = |s: &MetricsSnapshot| {
            s.spans.iter().map(|(p, t)| (p.clone(), t.count)).collect::<Vec<_>>()
        };
        assert_eq!(phases(&a), phases(&b));
        assert_eq!(serial.tracer().store(), parallel.tracer().store());
    }

    #[test]
    fn shard_mirrors_arming_and_first_arming_wins() {
        let reg = Registry::enabled();
        reg.enable_series(1_000);
        reg.enable_series(5); // already armed: ignored
        reg.enable_profiling();
        assert_eq!(reg.series_snapshot().cadence_us, 1_000, "the first arming wins");
        let shard = reg.shard();
        assert!(!shard.tracer().is_enabled(), "tracing was not armed");
        assert!(!shard.timeprof_enabled() && !shard.digest_enabled() && !shard.health_enabled());
        assert_eq!(shard.series_snapshot().cadence_us, 1_000, "same cadence");
        assert!(shard.profiling_enabled(), "profiling was armed");
    }

    #[test]
    fn absorb_keeps_untouched_shard_gauges_from_clobbering() {
        let reg = Registry::enabled();
        reg.gauge("level").set(7);
        let shard = reg.shard();
        let _ = shard.gauge("level"); // interned but never moved
        shard.counter("polls").inc();
        reg.absorb(&shard);
        assert_eq!(reg.gauge("level").get(), 7);
        let active = reg.shard();
        active.gauge("level").set(3);
        reg.absorb(&active);
        assert_eq!(reg.gauge("level").get(), 3, "a touched shard gauge wins");
        assert_eq!(reg.gauge("level").high_water(), 7, "high-water only rises");
    }

    #[test]
    fn disabled_registries_shard_and_absorb_inertly() {
        let off = Registry::disabled();
        let shard = off.shard();
        assert!(!shard.is_enabled());
        shard.counter("x").inc();
        off.absorb(&shard);
        assert!(off.snapshot().counters.is_empty());

        let on = Registry::enabled();
        on.counter("x").inc();
        on.absorb(&off); // disabled shard: no-op
        on.absorb(&on); // self-absorb: guarded no-op, not a double count
        assert_eq!(on.snapshot().counter("x"), 1);
    }

    #[test]
    fn timeprof_gated_behind_enable_and_mirrored_by_shard() {
        const KINDS: &[crate::EventKind] = &[("n_publish", "ev_publish"), ("n_probe", "ev_probe")];
        // One simulation recording `kinds` through its hook, then closing.
        let run = |reg: &Registry, kinds: &[usize]| {
            let mut hook = crate::EventHook::new(reg, KINDS, &[], 0);
            for &kind in kinds {
                hook.record(crate::EventRecord { t_us: 0, kind, node: 0, tags: &[], depth: 0 });
            }
            hook.close(0);
        };
        let reg = Registry::enabled();
        assert!(!reg.timeprof_enabled(), "timeprof is opt-in even when enabled");
        assert!(reg.timeprof_snapshot().is_none());
        run(&reg, &[0]); // inert before arming
        reg.enable_timeprof();
        run(&reg, &[0]);
        let shard = reg.shard();
        assert!(shard.timeprof_enabled(), "shard mirrors the arming");
        run(&shard, &[0, 1]);
        shard.record_worker_use(&[crate::timeprof::WorkerUse {
            worker: 0,
            busy_ns: 10,
            tasks: 2,
            ..Default::default()
        }]);
        reg.absorb(&shard);
        let snap = reg.timeprof_snapshot().expect("armed");
        let labels: Vec<(&str, u64)> =
            snap.handlers.iter().map(|(n, h)| (n.as_str(), h.count)).collect();
        assert_eq!(labels, [("ev_probe", 1), ("ev_publish", 2)], "pre-arming record dropped");
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.workers[0].tasks, 2);

        let off = Registry::disabled();
        off.enable_timeprof();
        assert!(!off.timeprof_enabled());
        assert!(off.timeprof_snapshot().is_none());
    }

    #[test]
    fn digest_gated_behind_enable_and_sharded_per_segment() {
        use crate::digest::DigestConfig;
        let reg = Registry::enabled();
        assert!(!reg.digest_enabled(), "digest is opt-in even when enabled");
        assert!(reg.digest_snapshot().is_none());
        reg.digest().fold("ev", 0, 1, &[]); // inert before arming
        reg.enable_digest(DigestConfig::default());
        assert!(reg.digest_enabled());
        assert_eq!(reg.digest_snapshot().unwrap().events, 0, "pre-arming fold dropped");

        // Two shards, each one segment; absorb order decides segment order.
        let s1 = reg.shard();
        assert!(s1.digest_enabled(), "shard mirrors the arming");
        s1.digest().fold("a", 1, 10, &[7]);
        let s2 = reg.shard();
        s2.digest().fold("b", 2, 20, &[8]);
        reg.absorb(&s1);
        reg.absorb(&s2);
        let snap = reg.digest_snapshot().unwrap();
        assert_eq!(snap.events, 2);
        assert_eq!(snap.segments.len(), 2);

        // A sequential registry absorbing identical shards in the same
        // order produces the identical run chain.
        let reg2 = Registry::enabled();
        reg2.enable_digest(DigestConfig::default());
        let t1 = reg2.shard();
        t1.digest().fold("a", 1, 10, &[7]);
        let t2 = reg2.shard();
        t2.digest().fold("b", 2, 20, &[8]);
        reg2.absorb(&t1);
        reg2.absorb(&t2);
        assert_eq!(reg2.digest_snapshot().unwrap().chain, snap.chain);

        let off = Registry::disabled();
        off.enable_digest(DigestConfig::default());
        assert!(!off.digest_enabled());
        assert!(off.digest_snapshot().is_none());
    }

    #[test]
    fn health_shards_share_live_state() {
        let reg = Registry::enabled();
        assert!(!reg.health_enabled(), "health is opt-in even when enabled");
        reg.health().tick(1); // inert before arming
        reg.enable_health();
        let shard = reg.shard();
        assert!(shard.health_enabled());
        shard.health().tick(42);
        // Live before any absorb: shards write the parent's state directly.
        let snap = reg.health_snapshot().unwrap();
        assert_eq!(snap.events, 1);
        assert_eq!(snap.sim_time_us, 42);
        reg.absorb(&shard); // no double counting
        assert_eq!(reg.health_snapshot().unwrap().events, 1);
    }

    #[test]
    fn metrics_json_shape() {
        let reg = Registry::enabled();
        reg.counter("c").add(2);
        reg.gauge("g").set(4);
        reg.histogram("h").record(0.5);
        let j = reg.snapshot().metrics_json();
        assert_eq!(j.get("counters").and_then(|c| c.get("c")).and_then(Json::as_f64), Some(2.0));
        let g = j.get("gauges").and_then(|g| g.get("g")).unwrap();
        assert_eq!(g.get("high_water").and_then(Json::as_f64), Some(4.0));
        let h = j.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(1.0));
    }
}
