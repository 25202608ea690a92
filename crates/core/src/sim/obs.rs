//! The simulator's observation handles. Everything here is
//! observation-only: no handler ever reads a metric back.

use super::wire::Event;
use crate::method::MethodKind;
use crate::metrics::SimReport;
use cdnc_net::NodeId;
use cdnc_obs::{
    Counter, EventHook, EventRecord, Gauge, Histogram, Registry, SpanKind, TraceCtx, Tracer,
};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimTime;

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
/// handle here: they reach the registry once, through [`record_report`];
/// per-class message counts are the network's.
pub(super) struct SimObs {
    pub(super) registry: Registry,
    /// The event loop's one observation point: each popped event is
    /// recorded here once ([`SimObs::record`]).
    pub(super) hook: EventHook,
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
}

impl SimObs {
    /// The handles on `registry`, with `hook` as the event loop's
    /// observation point.
    pub(super) fn new(registry: &Registry, hook: EventHook) -> Self {
        // Series sources (no-ops unless series sampling is enabled): the
        // consistency gauges are sampled directly.
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
            hook,
            switch_to_invalidation: registry.counter("sim_switch_to_invalidation"),
            switch_to_ttl: registry.counter("sim_switch_to_ttl"),
            orphan_reattach: registry.counter("sim_orphan_reattach"),
            tree_rejoin: registry.counter("sim_tree_rejoin"),
            adopt_lag: METHOD_NAMES.map(|(n, _)| registry.histogram(n)),
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
        }
    }

    /// Records one popped event, which left `depth` events queued, into the
    /// hook: its kind, acting node and the variant's payload tags. Tags
    /// enter the digest, so they are deterministic functions of the
    /// configuration, never wall-clock readings or addresses. One branch
    /// when the registry is disabled: tags are computed for an armed hook.
    #[inline]
    pub(super) fn record(&mut self, now: SimTime, ev: &Event, depth: usize) {
        if !self.hook.is_armed() {
            return;
        }
        let (t_us, kind) = (now.as_micros(), ev.obs_idx());
        let mut rec = |node: u32, tags: &[u64]| {
            self.hook.record(EventRecord { t_us, kind, node, tags, depth });
        };
        match ev {
            Event::Publish(idx) => rec(0, &[u64::from(*idx)]),
            Event::PollTimer(node, gen) | Event::Heartbeat(node, gen) | Event::Probe(node, gen) => {
                rec(node.0, &[*gen])
            }
            Event::Arrive(node, msg) => rec(node.0, &[msg.kind() as u64, msg.digest_tag()]),
            Event::UserVisit(u) | Event::Request(u) => rec(*u, &[]),
            Event::Fail(node)
            | Event::Recover(node)
            | Event::NodeLeave(node)
            | Event::NodeCrash(node)
            | Event::NodeJoin(node) => rec(node.0, &[]),
            Event::FetchTimeout(node, token) => rec(node.0, &[*token]),
            Event::Retransmit(id, attempt) => rec(0, &[*id, u64::from(*attempt)]),
            Event::Fill(edge, id, snap) => {
                let obj = (u64::from(id.slot) << 32) | u64::from(id.gen);
                rec(edge.0, &[obj, u64::from(*snap)]);
            }
            Event::Churn => rec(0, &[]),
        }
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
