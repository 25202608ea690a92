//! `cdnc-obs` — the observability layer of the workspace.
//!
//! One [`Registry`] handle per run gives instrumented code:
//!
//! - **Counters, gauges, histograms** ([`Counter`], [`Gauge`],
//!   [`Histogram`]): named, interned, updated with relaxed atomics through
//!   their handles. The histogram uses 64 fixed doubling buckets (log
//!   scale) plus exact count / sum / min / max.
//! - **Phase timers** ([`Registry::span`]): scoped guards that nest, so
//!   `build_tree` containing `flush` records `build_tree/flush`.
//! - **JSON** ([`Json`]): a hand-rolled writer and parser (no
//!   serde_json). [`MetricsSnapshot::metrics_json`] and
//!   [`MetricsSnapshot::spans_json`] render what a registry recorded for
//!   the run artifacts the experiments binary writes.
//! - **Causal tracing** ([`Registry::enable_tracing`]): one span per hop
//!   of every update's journey, exported as Chrome trace-event JSON, with
//!   a [`FlightRecorder`] that keeps the full tree of anomalous updates.
//! - **Time series** ([`Registry::enable_series`]): event-loop-driven
//!   sim-time sampling of registered gauges/counters (and derived rates)
//!   into fixed-capacity series with deterministic LTTB downsampling.
//! - **Determinism audit trail** ([`Registry::enable_digest`]): a chained
//!   64-bit digest over every fold point's structural identity, with
//!   periodic checkpoints — the divergence-bisection substrate.
//! - **Profiling** ([`Registry::enable_profiling`],
//!   [`Registry::enable_timeprof`]): structural memory probes, and
//!   per-event-kind handler time with worker utilization.
//! - **The event hook** ([`EventHook`]): the simulation's one observation
//!   point, feeding every armed plane from one record per popped event and
//!   one per packet sent or delivered. While the simulation runs the hook
//!   is the only writer of the instruments it feeds: it holds them as
//!   plain values and writes them back at sample boundaries and `close`.
//! - **Run health** ([`Registry::enable_health`]): wall-clock progress
//!   counters, a heartbeat file writer, and a stall watchdog.
//!
//! # Zero overhead when off
//!
//! [`Registry::disabled()`] is the default wiring everywhere. A disabled
//! registry and its handles are `None` inside; every operation is one
//! branch and no allocation, so simulation hot paths carry instrumentation
//! unconditionally.
//!
//! # Observation only
//!
//! Instrumentation must never feed back into simulated state: nothing read
//! from a registry (values, wall-clock timings) may influence scheduling,
//! RNG draws, or results. The experiments suite enforces this with a
//! paired-run test asserting instrumented and uninstrumented runs produce
//! bit-identical reports.

pub mod chrome;
pub mod digest;
pub mod flight;
pub mod health;
pub mod hook;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod series;
pub mod timeprof;
pub mod trace;

pub use chrome::{from_chrome, parse_chrome, to_chrome};
pub use digest::{
    chain_hex, digest_str, parse_chain_hex, Checkpoint, Digest, DigestConfig, DigestSnapshot,
    SegmentSnapshot, TrapEntry, TrapWindow, DEFAULT_CHECKPOINT_EVERY,
};
pub use flight::{Anomaly, FlightRecorder, FlightReport};
pub use health::{
    vm_hwm_kb, vm_rss_kb, Health, HealthMonitor, HealthMonitorConfig, HealthSnapshot,
    DEFAULT_HEARTBEAT_MS, DEFAULT_STALL_AFTER_MS,
};
pub use hook::{EventHook, EventKind, EventRecord, Fate, PacketNames, SendRecord};
pub use json::{parse, Json};
pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS,
    HISTOGRAM_MIN,
};
pub use profile::{
    MemProbe, ProfileSnapshot, ProfiledAlloc, SpikeDetector, SpikeRecord, Subsystem,
    SubsystemStats, DEFAULT_SPIKE_MULTIPLE, SUBSYSTEMS,
};
pub use registry::{GaugeSnapshot, MetricsSnapshot, Registry};
pub use series::{
    lttb, Sampler, SeriesEntry, SeriesKind, SeriesPoint, SeriesSnapshot, DEFAULT_CADENCE_US,
    SERIES_CAPACITY,
};
pub use timeprof::{
    detach_spans, parse_folded, to_folded, DetachedSpans, PhaseTiming, SpanGuard, TimeProfSnapshot,
    WorkerUse,
};
pub use trace::{
    CriticalPath, PathStep, PropagationTree, SpanId, SpanKind, SpanRecord, SpanStore, StoreSummary,
    TraceCtx, TraceId, TraceMeta, Tracer,
};
