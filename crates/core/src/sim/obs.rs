//! The simulator's observation handles. Everything here is
//! observation-only: no handler ever reads a metric back.

use super::wire::{event_label, Event, Msg, EVENT_COUNTERS};
use crate::method::MethodKind;
use crate::metrics::SimReport;
use cdnc_net::{NodeId, PacketKind, PACKET_KINDS};
use cdnc_obs::{
    Counter, Digest, Gauge, HandlerTimer, Histogram, Registry, SpanKind, TraceCtx, Tracer,
};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimTime;

/// Per wire class, indexed by `PacketKind as usize`: the sent-message
/// counter and the in-flight gauge. Literal names, so building the handles
/// allocates nothing beyond what the registry interns.
const KIND_NAMES: [(&str, &str); PACKET_KINDS] = [
    ("sim_msgs_update", "sim_inflight_update"),
    ("sim_msgs_poll", "sim_inflight_poll"),
    ("sim_msgs_poll_unchanged", "sim_inflight_poll_unchanged"),
    ("sim_msgs_invalidation", "sim_inflight_invalidation"),
    ("sim_msgs_method_switch", "sim_inflight_method_switch"),
    ("sim_msgs_tree_maintenance", "sim_inflight_tree_maintenance"),
    ("sim_msgs_user_request", "sim_inflight_user_request"),
    ("sim_msgs_user_response", "sim_inflight_user_response"),
    ("sim_msgs_ack", "sim_inflight_ack"),
    ("sim_msgs_origin_fetch", "sim_inflight_origin_fetch"),
];

/// Per method slot ([`SimObs::method_slot`]): the publish→adopt histogram
/// and the pending-update gauge.
const METHOD_NAMES: [(&str, &str); 6] = [
    ("sim_adopt_lag_s_push", "sim_pending_updates_push"),
    ("sim_adopt_lag_s_invalidation", "sim_pending_updates_invalidation"),
    ("sim_adopt_lag_s_ttl", "sim_pending_updates_ttl"),
    ("sim_adopt_lag_s_self_adaptive", "sim_pending_updates_self_adaptive"),
    ("sim_adopt_lag_s_adaptive_ttl", "sim_pending_updates_adaptive_ttl"),
    ("sim_adopt_lag_s_other", "sim_pending_updates_other"),
];

/// Pre-grabbed instrumentation handles for the simulator's hot paths.
///
/// Handles are resolved once at construction so the per-event cost with a
/// disabled registry is a single branch, and label lookup never happens
/// inside the event loop. Tallies the [`SimReport`] already keeps have no
/// handle here: they reach the registry once, through [`record_report`].
pub(super) struct SimObs {
    pub(super) registry: Registry,
    /// Messages sent, by class — indexed by `PacketKind as usize`.
    msgs: [Counter; PACKET_KINDS],
    /// Event-loop dispatches, by event kind — indexed by
    /// [`Event::obs_idx`].
    pub(super) events: [Counter; 16],
    /// Algorithm 1 transitions (paper lines 7–8 and 12–13).
    pub(super) switch_to_invalidation: Counter,
    pub(super) switch_to_ttl: Counter,
    /// §5.2 failure repair: orphans re-parented after a member failed, and
    /// recovered members re-joining the tree.
    pub(super) orphan_reattach: Counter,
    pub(super) tree_rejoin: Counter,
    /// Publish→adopt latency per update method, indexed like
    /// [`MethodKind::ALL`]; the last slot catches method-less nodes.
    adopt_lag: [Histogram; 6],
    /// Messages sent but not yet arrived, by class — indexed like `msgs`.
    pub(super) inflight: [Gauge; PACKET_KINDS],
    /// Server replicas currently holding content they know is stale
    /// (invalidation received, refresh not yet adopted).
    pub(super) stale_replicas: Gauge,
    /// Published-but-unadopted updates across servers, per method —
    /// indexed like `adopt_lag` — plus one gauge for end users.
    pending_updates: [Gauge; 6],
    pub(super) pending_user_updates: Gauge,
    /// Self-adaptive nodes currently in invalidation mode (Algorithm 1
    /// mode occupancy).
    pub(super) inval_mode_nodes: Gauge,
    /// Failure-detector verdicts (zero when no fault plan is attached).
    pub(super) upstream_suspects: Counter,
    /// Tracked deliveries currently awaiting an ack.
    pub(super) pending_retransmits: Gauge,
    /// Request-plane arrivals and misses, sampled as rate series (dark
    /// without a [`WorkloadPlan`](crate::WorkloadPlan)).
    pub(super) wl_requests: Counter,
    pub(super) wl_misses: Counter,
    /// Structural profiling probes, armed only when the registry has
    /// profiling enabled: per-node / per-user resident state-size estimates,
    /// one sample each at the end of the run.
    pub(super) node_state_bytes: Histogram,
    pub(super) user_state_bytes: Histogram,
    /// Causal update tracer (inert unless enabled on the registry).
    pub(super) tracer: Tracer,
    /// Per-event-kind dispatch timers, indexed by [`Event::obs_idx`] —
    /// wall-clock handler cost where the scheduler hands events to the
    /// run loop (timeprof gate; inert unless armed).
    pub(super) ev_timers: [HandlerTimer; 16],
    /// Per-message-kind dispatch timers for `on_arrive`, indexed by wire
    /// class with the tracked envelope last ([`SimObs::msg_timer`]; same
    /// gate).
    msg_timers: [HandlerTimer; 10],
    /// Determinism audit chain (inert unless the registry armed it): one
    /// fold per dispatched event, keyed on structural identity only.
    digest: Digest,
}

impl SimObs {
    pub(super) fn new(registry: &Registry) -> Self {
        // Series sources (no-ops unless series sampling is enabled): the
        // per-class message counters become traffic-rate series; the
        // consistency gauges are sampled directly.
        for (msgs, _) in KIND_NAMES {
            registry.series_rate(msgs);
        }
        for (_, inflight) in KIND_NAMES {
            registry.series_gauge(inflight);
        }
        for (_, pending) in METHOD_NAMES {
            registry.series_gauge(pending);
        }
        registry.series_gauge("sim_stale_replicas");
        registry.series_gauge("sim_pending_updates_users");
        registry.series_gauge("sim_mode_invalidation_nodes");
        registry.series_gauge("sim_pending_retransmits");
        registry.series_rate("wl_requests");
        registry.series_rate("wl_misses");
        let profiled = |name| {
            if registry.profiling_enabled() {
                registry.histogram(name)
            } else {
                Histogram::default()
            }
        };
        SimObs {
            registry: registry.clone(),
            msgs: KIND_NAMES.map(|(n, _)| registry.counter(n)),
            events: EVENT_COUNTERS.map(|n| registry.counter(n)),
            switch_to_invalidation: registry.counter("sim_switch_to_invalidation"),
            switch_to_ttl: registry.counter("sim_switch_to_ttl"),
            orphan_reattach: registry.counter("sim_orphan_reattach"),
            tree_rejoin: registry.counter("sim_tree_rejoin"),
            adopt_lag: METHOD_NAMES.map(|(n, _)| registry.histogram(n)),
            inflight: KIND_NAMES.map(|(_, n)| registry.gauge(n)),
            stale_replicas: registry.gauge("sim_stale_replicas"),
            pending_updates: METHOD_NAMES.map(|(_, n)| registry.gauge(n)),
            pending_user_updates: registry.gauge("sim_pending_updates_users"),
            inval_mode_nodes: registry.gauge("sim_mode_invalidation_nodes"),
            upstream_suspects: registry.counter("sim_upstream_suspects"),
            pending_retransmits: registry.gauge("sim_pending_retransmits"),
            wl_requests: registry.counter("wl_requests"),
            wl_misses: registry.counter("wl_misses"),
            node_state_bytes: profiled("sim_node_state_bytes"),
            user_state_bytes: profiled("sim_user_state_bytes"),
            tracer: registry.tracer(),
            ev_timers: std::array::from_fn(|i| registry.handler_timer(event_label(i))),
            msg_timers: [
                "msg_update",
                "msg_poll",
                "msg_poll_unchanged",
                "msg_invalidation",
                "msg_method_switch",
                "msg_tree_maintenance",
                "msg_user_request",
                "msg_user_response",
                "msg_ack",
                "msg_tracked",
            ]
            .map(|n| registry.handler_timer(n)),
            digest: registry.digest(),
        }
    }

    /// Folds one dispatched event's structural identity into the
    /// determinism digest: per-kind label, acting node, simulated time, and
    /// the variant's payload tags. Only values that are themselves
    /// deterministic functions of the configuration enter the chain —
    /// never wall-clock readings or addresses — so for a fixed config the
    /// chain is bit-identical across runs and job counts.
    pub(super) fn fold_event(&self, now: SimTime, ev: &Event) {
        if !self.digest.is_enabled() {
            return;
        }
        let fold = |node: u32, tags: &[u64]| {
            self.digest.fold(event_label(ev.obs_idx()), node, now.as_micros(), tags);
        };
        match ev {
            Event::Publish(idx) => fold(0, &[u64::from(*idx)]),
            Event::PollTimer(node, gen) | Event::Heartbeat(node, gen) | Event::Probe(node, gen) => {
                fold(node.0, &[*gen])
            }
            Event::Arrive(node, msg) => fold(node.0, &[msg.kind() as u64, msg.digest_tag()]),
            Event::UserVisit(u) | Event::Request(u) => fold(*u, &[]),
            Event::Fail(node)
            | Event::Recover(node)
            | Event::NodeLeave(node)
            | Event::NodeCrash(node)
            | Event::NodeJoin(node) => fold(node.0, &[]),
            Event::FetchTimeout(node, token) => fold(node.0, &[*token]),
            Event::Retransmit(id, attempt) => fold(0, &[*id, u64::from(*attempt)]),
            Event::Fill(edge, id, snap) => {
                let obj = (u64::from(id.slot) << 32) | u64::from(id.gen);
                fold(edge.0, &[obj, u64::from(*snap)]);
            }
            Event::Churn => fold(0, &[]),
        }
    }

    pub(super) fn msg(&self, kind: PacketKind) -> &Counter {
        &self.msgs[kind as usize]
    }

    /// The dispatch timer for an arriving message: its wire class's, except
    /// tracked envelopes get their own (their payload recurses through
    /// `on_arrive` and is timed under its own kind).
    pub(super) fn msg_timer(&self, msg: &Msg) -> &HandlerTimer {
        let slot = match msg {
            Msg::Tracked { .. } => 9,
            m => m.kind() as usize,
        };
        &self.msg_timers[slot]
    }

    /// The instrument slot for `method`: its [`MethodKind::ALL`] position,
    /// or the catch-all last slot for method-less nodes.
    fn method_slot(method: Option<MethodKind>) -> usize {
        match method {
            Some(m) => MethodKind::ALL.iter().position(|&k| k == m).unwrap_or(5),
            None => 5,
        }
    }

    /// The publish→adopt histogram for a node running `method`.
    pub(super) fn adopt_lag(&self, method: Option<MethodKind>) -> &Histogram {
        &self.adopt_lag[Self::method_slot(method)]
    }

    /// The pending-update gauge for a node running `method`.
    pub(super) fn pending(&self, method: Option<MethodKind>) -> &Gauge {
        &self.pending_updates[Self::method_slot(method)]
    }

    /// Records a control-plane span of `kind` at `node`.
    pub(super) fn control(&self, kind: SpanKind, node: NodeId, now: SimTime, label: &'static str) {
        self.tracer.control(kind, node.index() as u32, now.as_micros(), label);
    }

    /// Ends the journey `ctx` with a `Lost` span at `node`, labelled `why`.
    pub(super) fn lost(&self, ctx: TraceCtx, node: NodeId, at: SimTime, why: &'static str) {
        self.tracer.child(ctx, SpanKind::Lost, node.index() as u32, at.as_micros(), why);
    }

    /// Walks the determinism-digest segment, so a restored run continues
    /// the saved run's chain and the audit trail stays bit-identical. Its
    /// presence follows the saving run's registry, not the configuration.
    pub(super) fn persist_digest(&self, c: &mut Ckpt) -> Result<(), CkptError> {
        let mut digest = if c.is_reading() { None } else { self.registry.digest_local_state() };
        let mut present = digest.is_some();
        c.bool("digest", &mut present)?;
        if present {
            let (events, chain, stride, checkpoints) = digest.get_or_insert_with(Default::default);
            c.u64("dg_events", events)?;
            c.u64("dg_chain", chain)?;
            c.u64("dg_stride", stride)?;
            c.seq("dg_checkpoints", checkpoints, |cp, c| {
                c.u64("dg_idx", &mut cp.index)?;
                c.u64("dg_val", &mut cp.chain)
            })?;
            if c.is_reading() {
                // `false` just means this run's registry has no digest armed
                // — the chain continuation is then irrelevant, not an error.
                let _ = self.registry.restore_digest_local(
                    *events,
                    *chain,
                    *stride,
                    std::mem::take(checkpoints),
                );
            }
        }
        Ok(())
    }
}

/// Adds a finished run's protocol and request-plane tallies to their
/// registry counters — zeros too, so every name is listed — and replays
/// its latency and staleness samples into their histograms, in order.
pub(super) fn record_report(registry: &Registry, r: &SimReport) {
    let w = &r.workload;
    for (name, tally) in [
        ("sim_msgs_lost_to_failed", r.msgs_lost_to_failed),
        ("sim_rtx_sent", r.retransmits),
        ("sim_rtx_abandoned", r.abandoned_deliveries),
        ("sim_abandoned_to_departed", r.abandoned_to_departed),
        ("sim_dup_suppressed", r.duplicates_suppressed),
        ("sim_failovers", r.failovers),
        ("sim_ttl_fallbacks", r.ttl_fallbacks),
        ("sim_convergence_violations", r.convergence_violations),
        ("wl_hits", w.hits),
        ("wl_delayed_hits", w.delayed_hits),
        ("wl_evictions", w.evictions),
        ("wl_origin_fetches", w.origin_fetches),
        ("wl_churn_events", w.churn_events),
        ("wl_waiters_aborted", w.waiters_aborted),
        ("wl_orphan_fills", w.orphan_fills),
    ] {
        registry.counter(name).add(tally);
    }
    for (name, samples) in
        [("wl_latency_s", &w.latency_s), ("wl_staleness_served_s", &w.staleness_served_s)]
    {
        let hist = registry.histogram(name);
        samples.iter().for_each(|&v| hist.record(v));
    }
}
