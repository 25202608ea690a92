//! Causal update-propagation tracing.
//!
//! Where [`Registry::span`](crate::Registry::span) times *phases* of the
//! host program in wall-clock time, this module records *simulated*
//! causality: every published update
//! gets a [`TraceId`], and each step of its journey — the network hops, the
//! adoption or rejection at each replica, the user views — appends a
//! [`SpanRecord`] linked to its causal parent. The result is a per-update
//! flight record that turns the simulator into ground truth for the paper's
//! outside-in inference (§3): the analysis pipeline *infers* TTLs and tree
//! structure from polls; the tracer *knows* them.
//!
//! # Zero overhead when off
//!
//! [`Tracer`] follows the registry convention: a disabled handle holds
//! `None`, every operation is one branch, and the context values threaded
//! through simulation messages stay [`TraceCtx::NONE`]. Simulation logic
//! never reads a context, so results are bit-identical with tracing on or
//! off (the paired-run tests enforce this).
//!
//! # Identifiers
//!
//! Trace and span ids are dense sequence numbers in record order. The
//! simulators are single-threaded and deterministic, so ids are stable
//! across runs of the same configuration.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Identifies one published update's causal trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u32);

impl TraceId {
    /// "No trace": the sentinel carried by untraced messages.
    pub const NONE: TraceId = TraceId(u32::MAX);

    /// `true` unless this is the [`TraceId::NONE`] sentinel.
    pub fn is_some(self) -> bool {
        self != TraceId::NONE
    }
}

/// Identifies one span within a tracer's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// "No span": the root's parent, and the sentinel in inactive contexts.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// `true` unless this is the [`SpanId::NONE`] sentinel.
    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }
}

/// The causal position a message carries: which trace it belongs to and
/// which span caused it. `Copy` and two words, so it rides inside simulation
/// messages for free; simulation logic must never branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The update's trace, or [`TraceId::NONE`].
    pub trace: TraceId,
    /// The causing span, or [`SpanId::NONE`].
    pub span: SpanId,
}

impl TraceCtx {
    /// The inactive context: untraced runs carry exactly this everywhere.
    pub const NONE: TraceCtx = TraceCtx { trace: TraceId::NONE, span: SpanId::NONE };

    /// `true` when this context belongs to a live trace.
    pub fn is_active(self) -> bool {
        self.trace.is_some()
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::NONE
    }
}

/// What a span represents in an update's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The provider publishes the update (each trace's root).
    Publish,
    /// A message carrying the update (or its invalidation) crosses the
    /// network; begin = send, end = delivery.
    Hop,
    /// A replica adopts the update as its content.
    Adopt,
    /// A replica receives the update but already holds it (or newer) —
    /// a routinely superseded delivery, *not* an anomaly.
    Skip,
    /// The message reached a failed/absent node and was dropped.
    Lost,
    /// An invalidation notice marks a replica stale.
    Stale,
    /// Algorithm 1 mode transition (control plane, no trace).
    ModeSwitch,
    /// Distribution-tree repair: orphan re-attach or recovery re-join
    /// (control plane, no trace).
    TreeRepair,
    /// An end-user observes the update at a replica.
    UserView,
    /// An interval allocated far more memory than the running median
    /// (control plane, no trace; recorded by the profiling probe).
    MemorySpike,
    /// The determinism audit trail diverged from a reference run at this
    /// point (control plane, no trace; recorded by `divergence`).
    DigestDivergence,
    /// The stall watchdog saw no scheduler progress for its wall-clock
    /// window (control plane, no trace; recorded by the health monitor).
    Stall,
    /// A node lifecycle event — join, graceful leave, or crash-restart
    /// (control plane, no trace; recorded by the churn plane).
    NodeChurn,
}

impl SpanKind {
    /// The lowercase name used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Publish => "publish",
            SpanKind::Hop => "hop",
            SpanKind::Adopt => "adopt",
            SpanKind::Skip => "skip",
            SpanKind::Lost => "lost",
            SpanKind::Stale => "stale",
            SpanKind::ModeSwitch => "mode_switch",
            SpanKind::TreeRepair => "tree_repair",
            SpanKind::UserView => "user_view",
            SpanKind::MemorySpike => "memory_spike",
            SpanKind::DigestDivergence => "digest_divergence",
            SpanKind::Stall => "stall",
            SpanKind::NodeChurn => "node_churn",
        }
    }

    /// Parses the name written by [`SpanKind::as_str`].
    pub fn parse(s: &str) -> Option<SpanKind> {
        match s {
            "publish" => Some(SpanKind::Publish),
            "hop" => Some(SpanKind::Hop),
            "adopt" => Some(SpanKind::Adopt),
            "skip" => Some(SpanKind::Skip),
            "lost" => Some(SpanKind::Lost),
            "stale" => Some(SpanKind::Stale),
            "mode_switch" => Some(SpanKind::ModeSwitch),
            "tree_repair" => Some(SpanKind::TreeRepair),
            "user_view" => Some(SpanKind::UserView),
            "memory_spike" => Some(SpanKind::MemorySpike),
            "digest_divergence" => Some(SpanKind::DigestDivergence),
            "stall" => Some(SpanKind::Stall),
            "node_churn" => Some(SpanKind::NodeChurn),
            _ => None,
        }
    }

    /// `true` for kinds that end a delivery chain: a hop whose delivery
    /// produced one of these is accounted for, anything else is orphaned.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SpanKind::Adopt
                | SpanKind::Skip
                | SpanKind::Lost
                | SpanKind::Stale
                | SpanKind::UserView
        )
    }
}

/// The closed vocabulary of span labels the workspace records. Labels are
/// `&'static str` so recording never allocates; the Chrome-trace importer
/// maps parsed strings back through this table.
pub const LABELS: [&str; 31] = [
    "publish",
    "adopt",
    "superseded",
    "absent",
    "stale",
    "view",
    "update",
    "poll",
    "poll-unchanged",
    "invalidation",
    "method-switch",
    "tree-maintenance",
    "user-request",
    "user-response",
    "ack",
    "origin-fetch",
    "to_invalidation",
    "to_ttl",
    "reattach",
    "rejoin",
    "fault-drop",
    "fault-dup",
    "failover",
    "degrade",
    "abandoned",
    "convergence",
    "memory-spike",
    "digest-divergence",
    "stall",
    "watchdog",
    "other",
];

/// Maps a label back into the static vocabulary ([`LABELS`]); unknown
/// strings map to `"other"`.
pub fn intern_label(s: &str) -> &'static str {
    LABELS.iter().find(|&&k| k == s).copied().unwrap_or("other")
}

/// One recorded step of an update's journey.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id (dense, record order).
    pub id: SpanId,
    /// The trace it belongs to ([`TraceId::NONE`] for control-plane spans).
    pub trace: TraceId,
    /// The causing span, or [`SpanId::NONE`] for roots and control spans.
    pub parent: SpanId,
    /// What happened.
    pub kind: SpanKind,
    /// Node where the span completed (hop: the destination).
    pub node: u32,
    /// Hop source node, or user id for [`SpanKind::UserView`].
    pub src: Option<u32>,
    /// Simulated begin, microseconds.
    pub begin_us: u64,
    /// Simulated end, microseconds (≥ begin; instant events have equal).
    pub end_us: u64,
    /// Short detail: the message class for hops ("update", "invalidation",
    /// …), the transition for mode switches, the repair type, …
    pub label: &'static str,
}

/// Per-trace metadata: which update it records and where it started.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// The trace.
    pub id: TraceId,
    /// The update (snapshot) number published.
    pub update: u32,
    /// Publish instant, microseconds.
    pub published_us: u64,
    /// The scheme/scope label the publishing simulation ran under, so
    /// traces from different sims sharing one registry stay separable.
    pub scope: String,
}

#[derive(Default)]
struct TracerState {
    spans: Vec<SpanRecord>,
    traces: Vec<TraceMeta>,
}

/// Shared storage behind enabled [`Tracer`] handles.
#[derive(Default)]
pub struct TracerCore {
    state: Mutex<TracerState>,
    /// Latest simulated instant any attached event loop reached.
    horizon_us: AtomicU64,
}

/// A cloneable handle recording causal spans, or an inert stub.
///
/// Obtained from [`crate::Registry::tracer`] after
/// [`crate::Registry::enable_tracing`]; defaults to disabled.
#[derive(Clone, Default)]
pub struct Tracer(pub(crate) Option<Arc<TracerCore>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "Tracer(enabled)" } else { "Tracer(disabled)" })
    }
}

impl Tracer {
    /// The inert tracer: every call is a no-op behind one branch.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// `true` when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn push(&self, mut make: impl FnMut(SpanId) -> SpanRecord) -> TraceCtx {
        match &self.0 {
            None => TraceCtx::NONE,
            Some(core) => {
                let _prof = crate::profile::scope(crate::profile::Subsystem::Trace);
                let mut state = core.state.lock();
                let id = SpanId(state.spans.len() as u32);
                let record = make(id);
                let ctx = TraceCtx { trace: record.trace, span: id };
                state.spans.push(record);
                ctx
            }
        }
    }

    /// Starts a new trace for `update` published at `node`: allocates a
    /// trace id and records the root [`SpanKind::Publish`] span. `scope`
    /// labels the publishing simulation (e.g. the scheme label) so traces
    /// from different sims sharing one registry stay separable.
    pub fn publish(&self, update: u32, node: u32, at_us: u64, scope: &str) -> TraceCtx {
        let Some(core) = &self.0 else { return TraceCtx::NONE };
        let _prof = crate::profile::scope(crate::profile::Subsystem::Trace);
        let mut state = core.state.lock();
        let trace = TraceId(state.traces.len() as u32);
        let id = SpanId(state.spans.len() as u32);
        state.traces.push(TraceMeta {
            id: trace,
            update,
            published_us: at_us,
            scope: scope.to_owned(),
        });
        state.spans.push(SpanRecord {
            id,
            trace,
            parent: SpanId::NONE,
            kind: SpanKind::Publish,
            node,
            src: None,
            begin_us: at_us,
            end_us: at_us,
            label: "publish",
        });
        TraceCtx { trace, span: id }
    }

    /// Records a network hop of `ctx`'s trace (begin = send, end =
    /// delivery) and returns the hop's context for the receive side to
    /// parent its spans on. Inactive contexts record nothing.
    pub fn hop(
        &self,
        ctx: TraceCtx,
        label: &'static str,
        src: u32,
        dst: u32,
        sent_us: u64,
        arrive_us: u64,
    ) -> TraceCtx {
        if !ctx.is_active() {
            return ctx;
        }
        self.push(|id| SpanRecord {
            id,
            trace: ctx.trace,
            parent: ctx.span,
            kind: SpanKind::Hop,
            node: dst,
            src: Some(src),
            begin_us: sent_us,
            end_us: arrive_us,
            label,
        })
    }

    /// Records an instant child span of `ctx` and returns its context.
    /// Inactive contexts record nothing and pass through unchanged.
    pub fn child(
        &self,
        ctx: TraceCtx,
        kind: SpanKind,
        node: u32,
        at_us: u64,
        label: &'static str,
    ) -> TraceCtx {
        if !ctx.is_active() {
            return ctx;
        }
        self.push(|id| SpanRecord {
            id,
            trace: ctx.trace,
            parent: ctx.span,
            kind,
            node,
            src: None,
            begin_us: at_us,
            end_us: at_us,
            label,
        })
    }

    /// Records a replica adopting the update; the returned context is the
    /// node's new content provenance (parents further distribution).
    pub fn adopt(&self, ctx: TraceCtx, node: u32, at_us: u64) -> TraceCtx {
        self.child(ctx, SpanKind::Adopt, node, at_us, "adopt")
    }

    /// Records a superseded/duplicate delivery (terminal, not anomalous).
    pub fn skip(&self, ctx: TraceCtx, node: u32, at_us: u64) {
        self.child(ctx, SpanKind::Skip, node, at_us, "superseded");
    }

    /// Records a delivery dropped at a failed/absent node (terminal).
    pub fn lost(&self, ctx: TraceCtx, node: u32, at_us: u64) {
        self.child(ctx, SpanKind::Lost, node, at_us, "absent");
    }

    /// Records an invalidation marking `node` stale; the returned context
    /// parents any forwarded invalidations.
    pub fn stale(&self, ctx: TraceCtx, node: u32, at_us: u64) -> TraceCtx {
        self.child(ctx, SpanKind::Stale, node, at_us, "stale")
    }

    /// Records a user observing the content whose provenance is `ctx`.
    pub fn user_view(&self, ctx: TraceCtx, user: u32, node: u32, at_us: u64) {
        if !ctx.is_active() {
            return;
        }
        self.push(|id| SpanRecord {
            id,
            trace: ctx.trace,
            parent: ctx.span,
            kind: SpanKind::UserView,
            node,
            src: Some(user),
            begin_us: at_us,
            end_us: at_us,
            label: "view",
        });
    }

    /// Records a control-plane span outside any trace (Algorithm 1 mode
    /// switches, tree repairs).
    pub fn control(&self, kind: SpanKind, node: u32, at_us: u64, label: &'static str) {
        if self.0.is_none() {
            return;
        }
        self.push(|id| SpanRecord {
            id,
            trace: TraceId::NONE,
            parent: SpanId::NONE,
            kind,
            node,
            src: None,
            begin_us: at_us,
            end_us: at_us,
            label,
        });
    }

    /// Advances the recorded simulation horizon (driven by the simulation
    /// clock as events are processed).
    #[inline]
    pub fn tick(&self, now_us: u64) {
        if let Some(core) = &self.0 {
            core.horizon_us.fetch_max(now_us, Relaxed);
        }
    }

    /// Appends a finished shard's records onto this tracer, renumbering
    /// trace and span ids past everything already recorded (sentinels stay
    /// sentinels). Absorbing shard stores in task order reproduces exactly
    /// the ids a single tracer would have assigned running the same tasks
    /// sequentially — the parallel-determinism contract for tracing.
    pub fn absorb(&self, other: &SpanStore) {
        let Some(core) = &self.0 else { return };
        let _prof = crate::profile::scope(crate::profile::Subsystem::Trace);
        let mut state = core.state.lock();
        let trace_off = state.traces.len() as u32;
        let span_off = state.spans.len() as u32;
        state.traces.extend(
            other
                .traces
                .iter()
                .map(|meta| TraceMeta { id: TraceId(meta.id.0 + trace_off), ..meta.clone() }),
        );
        state.spans.extend(other.spans.iter().map(|s| offset_record(s, span_off, trace_off)));
        core.horizon_us.fetch_max(other.horizon_us, Relaxed);
    }

    /// A point-in-time copy of everything recorded.
    pub fn store(&self) -> SpanStore {
        match &self.0 {
            None => SpanStore::default(),
            Some(core) => {
                let state = core.state.lock();
                SpanStore {
                    spans: state.spans.clone(),
                    traces: state.traces.clone(),
                    horizon_us: core.horizon_us.load(Relaxed),
                }
            }
        }
    }
}

/// `record` with its ids shifted by the given offsets; the NONE sentinels
/// are preserved (a control span stays a control span, a root stays a root).
fn offset_record(record: &SpanRecord, span_off: u32, trace_off: u32) -> SpanRecord {
    SpanRecord {
        id: SpanId(record.id.0 + span_off),
        trace: if record.trace.is_some() {
            TraceId(record.trace.0 + trace_off)
        } else {
            TraceId::NONE
        },
        parent: if record.parent.is_some() {
            SpanId(record.parent.0 + span_off)
        } else {
            SpanId::NONE
        },
        ..record.clone()
    }
}

/// One step of a critical path, with latency attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The span this step corresponds to.
    pub span: SpanId,
    /// What the step is.
    pub kind: SpanKind,
    /// Node at which the step completed.
    pub node: u32,
    /// The span's detail label.
    pub label: &'static str,
    /// Time spent waiting at the previous node before this step began
    /// (processing, queue residence, poll-interval waits), microseconds.
    pub wait_us: u64,
    /// The step's own duration (network time for hops), microseconds.
    pub self_us: u64,
}

/// The slowest root-to-terminal chain of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The trace.
    pub trace: TraceId,
    /// The update it carries.
    pub update: u32,
    /// The publishing simulation's scope label.
    pub scope: String,
    /// Steps from the publish root to the slowest terminal span.
    pub steps: Vec<PathStep>,
    /// End-to-end latency of the path, microseconds.
    pub total_us: u64,
}

/// The reconstructed propagation tree of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationTree {
    /// The root (publish) span.
    pub root: SpanId,
    /// Spans of the trace, in record order.
    pub spans: Vec<SpanRecord>,
    children: HashMap<SpanId, Vec<SpanId>>,
}

impl PropagationTree {
    /// Builds the tree of one trace's spans (record order, as yielded by
    /// [`SpanStore::trace_spans`]). Returns `None` when the spans contain
    /// no publish root.
    pub fn build(spans: Vec<SpanRecord>) -> Option<PropagationTree> {
        let root = spans.iter().find(|s| s.kind == SpanKind::Publish)?.id;
        let mut children: HashMap<SpanId, Vec<SpanId>> = HashMap::new();
        for s in &spans {
            if s.parent.is_some() {
                children.entry(s.parent).or_default().push(s.id);
            }
        }
        Some(PropagationTree { root, spans, children })
    }

    /// Children of `span`, in record order.
    pub fn children(&self, span: SpanId) -> &[SpanId] {
        self.children.get(&span).map_or(&[], Vec::as_slice)
    }

    /// The record for `span`, if it belongs to this tree. Record order is
    /// id order, so this is a binary search.
    pub fn span(&self, span: SpanId) -> Option<&SpanRecord> {
        let i = self.spans.binary_search_by_key(&span, |s| s.id).ok()?;
        Some(&self.spans[i])
    }

    /// The critical path of this tree's trace (see
    /// [`SpanStore::critical_path`]); `meta` must describe the same trace.
    pub fn critical_path(&self, meta: &TraceMeta) -> Option<CriticalPath> {
        let slowest =
            self.spans.iter().filter(|s| s.kind.is_terminal()).max_by_key(|s| (s.end_us, s.id))?.id;
        // Walk parents back to the root.
        let mut chain = vec![slowest];
        let mut cursor = slowest;
        while let Some(record) = self.span(cursor) {
            if !record.parent.is_some() {
                break;
            }
            cursor = record.parent;
            chain.push(cursor);
        }
        chain.reverse();
        let mut steps = Vec::with_capacity(chain.len());
        let mut prev_end = None;
        for id in chain {
            let s = self.span(id).expect("chain spans exist");
            let wait_us = prev_end.map_or(0, |p: u64| s.begin_us.saturating_sub(p));
            steps.push(PathStep {
                span: s.id,
                kind: s.kind,
                node: s.node,
                label: s.label,
                wait_us,
                self_us: s.end_us.saturating_sub(s.begin_us),
            });
            prev_end = Some(s.end_us);
        }
        let root_begin = steps.first().map_or(0, |_| self.span(self.root).unwrap().begin_us);
        let end = prev_end.unwrap_or(root_begin);
        Some(CriticalPath {
            trace: meta.id,
            update: meta.update,
            scope: meta.scope.clone(),
            steps,
            total_us: end.saturating_sub(root_begin),
        })
    }

    /// Hop spans whose delivery left no terminal child: the message never
    /// produced an adopt/skip/lost/stale at its destination — in flight at
    /// the horizon or silently swallowed. Routinely superseded deliveries
    /// are *not* orphans (they get [`SpanKind::Skip`] children).
    pub fn orphan_hops(&self) -> Vec<SpanId> {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Hop)
            .filter(|s| {
                !self
                    .children(s.id)
                    .iter()
                    .any(|&c| self.span(c).is_some_and(|r| r.kind.is_terminal()))
            })
            .map(|s| s.id)
            .collect()
    }
}

/// Aggregate numbers over a whole store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreSummary {
    /// Number of traces (published updates).
    pub traces: usize,
    /// Total spans recorded.
    pub spans: usize,
    /// Spans by kind, in [`SpanKind`] declaration order.
    pub by_kind: Vec<(&'static str, usize)>,
    /// Adoptions recorded.
    pub adoptions: usize,
    /// Deliveries dropped at absent nodes.
    pub lost: usize,
    /// Orphaned hops across all traces.
    pub orphan_hops: usize,
    /// Mean publish→adopt lag over all adoptions, seconds.
    pub mean_adopt_lag_s: f64,
    /// Worst publish→adopt lag, seconds.
    pub max_adopt_lag_s: f64,
}

/// An owned snapshot of a tracer's records, plus reconstruction helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStore {
    /// All spans, in record order (ids are dense indices into this).
    pub spans: Vec<SpanRecord>,
    /// Per-trace metadata, in trace-id order.
    pub traces: Vec<TraceMeta>,
    /// Latest simulated instant reached, microseconds.
    pub horizon_us: u64,
}

impl SpanStore {
    /// Metadata of `trace`, if recorded.
    pub fn meta(&self, trace: TraceId) -> Option<&TraceMeta> {
        self.traces.get(trace.0 as usize).filter(|m| m.id == trace)
    }

    /// The record for `span`, if any.
    pub fn span(&self, span: SpanId) -> Option<&SpanRecord> {
        self.spans.get(span.0 as usize).filter(|s| s.id == span)
    }

    /// Spans belonging to `trace`, in record order.
    pub fn trace_spans(&self, trace: TraceId) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.spans.iter().filter(move |s| s.trace == trace)
    }

    /// Rebuilds the propagation tree of `trace`: its spans indexed by
    /// parent. Returns `None` when the trace has no publish root. Scans the
    /// whole store — when walking every trace, use [`SpanStore::forest`]
    /// instead.
    pub fn tree(&self, trace: TraceId) -> Option<PropagationTree> {
        PropagationTree::build(self.trace_spans(trace).cloned().collect())
    }

    /// Clones the store's spans grouped per trace in one pass; element `i`
    /// holds trace `i`'s spans in record order.
    pub fn spans_by_trace(&self) -> Vec<Vec<SpanRecord>> {
        let mut grouped: Vec<Vec<SpanRecord>> = vec![Vec::new(); self.traces.len()];
        for s in &self.spans {
            if let Some(bucket) = grouped.get_mut(s.trace.0 as usize) {
                bucket.push(s.clone());
            }
        }
        grouped
    }

    /// Rebuilds every trace's propagation tree in one pass over the store;
    /// element `i` is trace `i`'s tree, `None` when it has no publish root.
    /// Per-trace [`SpanStore::tree`] calls re-scan all spans each time, so
    /// store-wide walks must go through this instead.
    pub fn forest(&self) -> Vec<Option<PropagationTree>> {
        self.spans_by_trace().into_iter().map(PropagationTree::build).collect()
    }

    /// Extracts the critical path of `trace`: the chain from the publish
    /// root to the latest-ending terminal span, with per-step latency split
    /// into wait (time at the node before the step) and self time (the
    /// step's own duration). Returns `None` when the trace has no terminal
    /// span (nothing was ever delivered).
    pub fn critical_path(&self, trace: TraceId) -> Option<CriticalPath> {
        self.tree(trace)?.critical_path(self.meta(trace)?)
    }

    /// Publish→adopt lags of `trace`, one per adoption, seconds.
    pub fn adopt_lags_s(&self, trace: TraceId) -> Vec<f64> {
        let Some(meta) = self.meta(trace) else { return Vec::new() };
        self.trace_spans(trace)
            .filter(|s| s.kind == SpanKind::Adopt)
            .map(|s| s.end_us.saturating_sub(meta.published_us) as f64 / 1e6)
            .collect()
    }

    /// Aggregates the whole store.
    pub fn summary(&self) -> StoreSummary {
        const KINDS: [SpanKind; 13] = [
            SpanKind::Publish,
            SpanKind::Hop,
            SpanKind::Adopt,
            SpanKind::Skip,
            SpanKind::Lost,
            SpanKind::Stale,
            SpanKind::ModeSwitch,
            SpanKind::TreeRepair,
            SpanKind::UserView,
            SpanKind::MemorySpike,
            SpanKind::DigestDivergence,
            SpanKind::Stall,
            SpanKind::NodeChurn,
        ];
        let mut counts = [0usize; KINDS.len()];
        let mut lags = Vec::new();
        for s in &self.spans {
            if let Some(i) = KINDS.iter().position(|&k| k == s.kind) {
                counts[i] += 1;
            }
            if s.kind == SpanKind::Adopt {
                if let Some(meta) = self.meta(s.trace) {
                    lags.push(s.end_us.saturating_sub(meta.published_us) as f64 / 1e6);
                }
            }
        }
        let by_kind: Vec<(&'static str, usize)> =
            KINDS.iter().zip(counts).map(|(&k, c)| (k.as_str(), c)).collect();
        let lost = counts[KINDS.iter().position(|&k| k == SpanKind::Lost).expect("listed")];
        let orphans: usize = self.forest().iter().flatten().map(|t| t.orphan_hops().len()).sum();
        let adoptions = lags.len();
        StoreSummary {
            traces: self.traces.len(),
            spans: self.spans.len(),
            adoptions,
            lost,
            orphan_hops: orphans,
            mean_adopt_lag_s: if adoptions == 0 {
                0.0
            } else {
                lags.iter().sum::<f64>() / adoptions as f64
            },
            max_adopt_lag_s: lags.iter().copied().fold(0.0, f64::max),
            by_kind,
        }
    }

    /// Appends `other`'s traces and spans after this store's, renumbering
    /// ids exactly like [`Tracer::absorb`]: merging per-shard stores in
    /// task order yields the store a single sequential tracer would have
    /// produced. Dense-id invariants are preserved, so every reconstruction
    /// helper keeps working on the merged store.
    pub fn merge(&mut self, other: &SpanStore) {
        let trace_off = self.traces.len() as u32;
        let span_off = self.spans.len() as u32;
        self.traces.extend(
            other
                .traces
                .iter()
                .map(|meta| TraceMeta { id: TraceId(meta.id.0 + trace_off), ..meta.clone() }),
        );
        self.spans.extend(other.spans.iter().map(|s| offset_record(s, span_off, trace_off)));
        self.horizon_us = self.horizon_us.max(other.horizon_us);
    }

    /// The distinct scope labels present, in first-seen order.
    pub fn scopes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for meta in &self.traces {
            if !out.contains(&meta.scope.as_str()) {
                out.push(&meta.scope);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled() -> Tracer {
        Tracer(Some(Arc::new(TracerCore::default())))
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        let ctx = t.publish(1, 0, 100, "test");
        assert_eq!(ctx, TraceCtx::NONE);
        let h = t.hop(ctx, "update", 0, 1, 100, 200);
        assert_eq!(h, TraceCtx::NONE);
        t.skip(h, 1, 200);
        t.tick(500);
        let store = t.store();
        assert!(store.spans.is_empty());
        assert!(store.traces.is_empty());
        assert_eq!(store.horizon_us, 0);
    }

    #[test]
    fn publish_hop_adopt_chain_links_causally() {
        let t = enabled();
        let root = t.publish(7, 0, 1_000, "unicast push");
        let hop = t.hop(root, "update", 0, 3, 1_000, 51_000);
        let adopt = t.adopt(hop, 3, 51_000);
        t.user_view(adopt, 9, 3, 60_000);
        let store = t.store();
        assert_eq!(store.traces.len(), 1);
        assert_eq!(store.traces[0].update, 7);
        assert_eq!(store.spans.len(), 4);
        let spans = &store.spans;
        assert_eq!(spans[0].kind, SpanKind::Publish);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].src, Some(0));
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[3].parent, spans[2].id);
        assert_eq!(spans[3].src, Some(9), "user id rides in src");
        assert!(spans.iter().all(|s| s.trace == TraceId(0)));
    }

    #[test]
    fn critical_path_attributes_wait_and_self_time() {
        let t = enabled();
        let root = t.publish(1, 0, 0, "s");
        // Fast branch: arrives at 10 ms.
        let fast = t.hop(root, "update", 0, 1, 0, 10_000);
        t.adopt(fast, 1, 10_000);
        // Slow branch: leaves 5 ms after publish, arrives at 100 ms, adopted
        // at 100 ms.
        let slow = t.hop(root, "update", 0, 2, 5_000, 100_000);
        t.adopt(slow, 2, 100_000);
        let path = t.store().critical_path(TraceId(0)).expect("path exists");
        assert_eq!(path.total_us, 100_000);
        assert_eq!(path.steps.len(), 3); // publish → hop → adopt
        assert_eq!(path.steps[1].wait_us, 5_000, "sender-side wait");
        assert_eq!(path.steps[1].self_us, 95_000, "network time");
        assert_eq!(path.steps[2].node, 2);
    }

    #[test]
    fn orphan_hops_exclude_superseded_deliveries() {
        let t = enabled();
        let root = t.publish(1, 0, 0, "s");
        let delivered = t.hop(root, "update", 0, 1, 0, 10);
        t.skip(delivered, 1, 10); // superseded: NOT an orphan
        let dropped = t.hop(root, "update", 0, 2, 0, 10);
        t.lost(dropped, 2, 10); // dropped at absent node: NOT an orphan
        let vanished = t.hop(root, "update", 0, 3, 0, 10); // no terminal child
        let tree = t.store().tree(TraceId(0)).unwrap();
        assert_eq!(tree.orphan_hops(), vec![vanished.span]);
    }

    #[test]
    fn control_spans_stay_outside_traces() {
        let t = enabled();
        t.publish(1, 0, 0, "s");
        t.control(SpanKind::ModeSwitch, 4, 50, "to_invalidation");
        t.control(SpanKind::TreeRepair, 5, 60, "reattach");
        let store = t.store();
        assert_eq!(store.trace_spans(TraceId(0)).count(), 1);
        let control: Vec<_> = store.trace_spans(TraceId::NONE).collect();
        assert_eq!(control.len(), 2);
        assert!(control.iter().all(|s| !s.parent.is_some()));
    }

    #[test]
    fn summary_counts_and_lags() {
        let t = enabled();
        let a = t.publish(1, 0, 0, "s");
        let h = t.hop(a, "update", 0, 1, 0, 2_000_000);
        t.adopt(h, 1, 2_000_000);
        let b = t.publish(2, 0, 1_000_000, "s");
        let h2 = t.hop(b, "update", 0, 1, 1_000_000, 5_000_000);
        t.adopt(h2, 1, 5_000_000);
        t.tick(6_000_000);
        let store = t.store();
        assert_eq!(store.horizon_us, 6_000_000);
        let sum = store.summary();
        assert_eq!(sum.traces, 2);
        assert_eq!(sum.adoptions, 2);
        assert_eq!(sum.orphan_hops, 0);
        assert!((sum.mean_adopt_lag_s - 3.0).abs() < 1e-9);
        assert!((sum.max_adopt_lag_s - 4.0).abs() < 1e-9);
    }

    /// The one-pass store-wide views must agree with the per-trace APIs.
    #[test]
    fn forest_matches_per_trace_reconstruction() {
        let t = enabled();
        let a = t.publish(1, 0, 0, "s");
        let h = t.hop(a, "update", 0, 1, 0, 2_000_000);
        t.adopt(h, 1, 2_000_000);
        let b = t.publish(2, 0, 1_000_000, "s");
        t.hop(b, "update", 0, 2, 1_000_000, 4_000_000); // orphan: no terminal
        let store = t.store();
        let forest = store.forest();
        assert_eq!(forest.len(), store.traces.len());
        for (meta, (tree, spans)) in
            store.traces.iter().zip(forest.iter().zip(store.spans_by_trace()))
        {
            assert_eq!(tree, &store.tree(meta.id), "trace {:?}", meta.id);
            let per_trace: Vec<SpanRecord> = store.trace_spans(meta.id).cloned().collect();
            assert_eq!(spans, per_trace, "trace {:?}", meta.id);
            assert_eq!(
                tree.as_ref().and_then(|t| t.critical_path(meta)),
                store.critical_path(meta.id),
                "trace {:?}",
                meta.id
            );
        }
        assert_eq!(forest[1].as_ref().expect("rooted").orphan_hops().len(), 1);
    }

    #[test]
    fn scopes_deduplicate_in_order() {
        let t = enabled();
        t.publish(1, 0, 0, "unicast ttl");
        t.publish(2, 0, 0, "hat");
        t.publish(3, 0, 0, "unicast ttl");
        assert_eq!(t.store().scopes(), vec!["unicast ttl", "hat"]);
    }

    /// Records one trace + one control span into `t`, with all values
    /// shifted by `salt` so two shards are distinguishable after a merge.
    fn record_shard(t: &Tracer, salt: u32) {
        let root = t.publish(salt, salt, u64::from(salt) * 1_000, "shard");
        let hop = t.hop(root, "update", salt, salt + 1, 0, 10);
        t.adopt(hop, salt + 1, 10);
        t.control(SpanKind::ModeSwitch, salt, 50, "to_invalidation");
        t.tick(u64::from(salt) * 2_000);
    }

    /// Merging shard stores in task order must reproduce bit-for-bit the
    /// store one tracer would have produced recording the same tasks
    /// sequentially — the determinism contract `Pool::map` relies on.
    #[test]
    fn merge_in_task_order_equals_sequential_recording() {
        let serial = enabled();
        record_shard(&serial, 1);
        record_shard(&serial, 5);
        record_shard(&serial, 9);

        let shards: Vec<SpanStore> = [1, 5, 9]
            .iter()
            .map(|&salt| {
                let t = enabled();
                record_shard(&t, salt);
                t.store()
            })
            .collect();
        let mut merged = SpanStore::default();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged, serial.store());

        // Tracer::absorb is the in-place flavor of the same operation.
        let absorbed = enabled();
        for shard in &shards {
            absorbed.absorb(shard);
        }
        assert_eq!(absorbed.store(), serial.store());
    }

    #[test]
    fn merge_preserves_sentinels_and_dense_ids() {
        let a = enabled();
        record_shard(&a, 1);
        let b = enabled();
        record_shard(&b, 7);
        let mut merged = a.store();
        merged.merge(&b.store());
        for (i, s) in merged.spans.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i, "span ids stay dense");
        }
        for (i, m) in merged.traces.iter().enumerate() {
            assert_eq!(m.id.0 as usize, i, "trace ids stay dense");
        }
        let control: Vec<_> = merged.trace_spans(TraceId::NONE).collect();
        assert_eq!(control.len(), 2, "control spans stay outside traces");
        assert!(control.iter().all(|s| !s.parent.is_some()));
        // The second shard's trace is fully reconstructible post-merge.
        let tree = merged.tree(TraceId(1)).expect("rooted");
        assert_eq!(tree.spans.len(), 3);
        assert_eq!(merged.meta(TraceId(1)).unwrap().update, 7);
    }

    #[test]
    fn absorb_into_disabled_tracer_is_inert() {
        let src = enabled();
        record_shard(&src, 1);
        let dst = Tracer::disabled();
        dst.absorb(&src.store());
        assert!(dst.store().spans.is_empty());
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            SpanKind::Publish,
            SpanKind::Hop,
            SpanKind::Adopt,
            SpanKind::Skip,
            SpanKind::Lost,
            SpanKind::Stale,
            SpanKind::ModeSwitch,
            SpanKind::TreeRepair,
            SpanKind::UserView,
            SpanKind::MemorySpike,
            SpanKind::DigestDivergence,
            SpanKind::Stall,
            SpanKind::NodeChurn,
        ] {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(SpanKind::parse("bogus"), None);
    }
}
