//! The simulator's observation handles. Everything here is
//! observation-only: no handler ever reads a metric back.

use super::wire::Event;
use crate::method::MethodKind;
use crate::metrics::SimReport;
use cdnc_net::{FaultDecision, NodeId, Packet, Sent};
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
/// per-class message counts are the hook's.
pub(super) struct SimObs {
    pub(super) registry: Registry,
    /// The simulation's one observation point: each popped event
    /// ([`SimObs::record`]), each send and each delivery is recorded here
    /// once.
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

    /// Extends `ctx`'s trace with one send's spans: a `Lost` child labelled
    /// `fault-drop` for a dropped packet, else a hop per delivered copy as
    /// the returned iterator reaches it, labelled with the packet's wire
    /// name (`fault-dup` for the in-network duplicate). Yields each copy's
    /// delivery instant paired with the context its receiver continues from
    /// (`ctx` itself while the tracer is off or `ctx` inactive).
    pub(super) fn hops<'a>(
        &'a self,
        ctx: TraceCtx,
        now: SimTime,
        packet: &Packet,
        sent: &Sent,
    ) -> impl Iterator<Item = (SimTime, TraceCtx)> + 'a {
        if let FaultDecision::Drop { .. } = sent.fault {
            self.lost(ctx, packet.dst, now, "fault-drop");
        }
        let (src, dst, t) = (packet.src.0, packet.dst.0, now.as_micros());
        let labels = [packet.kind.name(), "fault-dup"];
        sent.deliveries()
            .zip(labels)
            .map(move |(at, label)| (at, self.tracer.hop(ctx, label, src, dst, t, at.as_micros())))
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
    /// The writer reads the registry's segment, which the hook stored back
    /// when the run paused; the reader overwrites it and the hook reloads it.
    pub(super) fn persist_digest(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
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
                self.hook.reload_digest();
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

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_geo::{GeoPoint, IspId};
    use cdnc_net::{FaultConfig, FaultPlane, LinkPartition, Network, NetworkConfig, PACKET_NAMES};

    fn two_node_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new(NetworkConfig::default(), 9);
        let a = net.add_node(GeoPoint::new(33.7, -84.4).unwrap(), IspId(0));
        let b = net.add_node(GeoPoint::new(34.0, -118.2).unwrap(), IspId(1));
        (net, a, b)
    }

    /// A simulation's observation handles on a tracing registry, and its
    /// tracer.
    fn traced() -> (SimObs, Tracer) {
        let reg = Registry::enabled();
        reg.enable_tracing();
        let hook = EventHook::new(&reg, &crate::sim::wire::EVENT_KINDS, &PACKET_NAMES, 0);
        (SimObs::new(&reg, hook), reg.tracer())
    }

    #[test]
    fn hops_record_each_copy_without_changing_delivery() {
        let (mut plain, a, b) = two_node_net();
        let (mut wired, _, _) = two_node_net();
        let (mut obs, t) = traced();
        let root = t.publish(0, a.0, 0, "net-test");
        let p = Packet::update(a, b, 10.0);
        let plain_arrival = plain.send(SimTime::ZERO, &p).arrival;
        let sent = wired.send_faulted(SimTime::ZERO, &p);
        obs.hook.send(|| sent.record(SimTime::ZERO, &p));
        let copies: Vec<_> = obs.hops(root, SimTime::ZERO, &p, &sent).collect();
        let [(arrival, hop)] = copies[..] else { panic!("one copy: {copies:?}") };
        assert_eq!(arrival, plain_arrival, "tracing must not change delivery");
        assert!(hop.is_active() && hop.span != root.span);
        let store = t.store();
        let span = store.span(hop.span).unwrap();
        assert_eq!(span.kind, SpanKind::Hop);
        assert_eq!(span.label, "update");
        assert_eq!((span.src, span.node), (Some(a.0), b.0));
        assert_eq!(span.end_us, arrival.as_micros());
        // Inactive context: passthrough, no span recorded.
        let sent = wired.send_faulted(SimTime::ZERO, &p);
        let copies: Vec<_> = obs.hops(TraceCtx::NONE, SimTime::ZERO, &p, &sent).collect();
        assert!(!copies[0].1.is_active());
        assert_eq!(t.store().spans.len(), store.spans.len());
    }

    #[test]
    fn faulted_sends_tag_the_trace() {
        let (obs, t) = traced();
        let (mut net, a, b) = two_node_net();
        let root = t.publish(0, a.0, 0, "net-test");
        let p = Packet::update(a, b, 2.0);
        // A duplicate rides its own hop, labelled and trailing the original.
        let cfg = FaultConfig { dup_prob: 1.0, ..FaultConfig::none() };
        net.set_fault_plane(FaultPlane::new(cfg, 1, 2));
        let sent = net.send_faulted(SimTime::ZERO, &p);
        let copies: Vec<_> = obs.hops(root, SimTime::ZERO, &p, &sent).collect();
        let [(at, hop), (dup_at, dup_hop)] = copies[..] else { panic!("two copies: {copies:?}") };
        let store = t.store();
        let (first, dup) = (store.span(hop.span).unwrap(), store.span(dup_hop.span).unwrap());
        assert_eq!((first.label, first.end_us), ("update", at.as_micros()));
        assert_eq!((dup.label, dup.end_us), ("fault-dup", dup_at.as_micros()));
        assert!(dup_at >= at, "the copy trails the original");
        // A partitioned link drops the packet and ends the journey there.
        let cfg = FaultConfig {
            link_partitions: vec![LinkPartition {
                a,
                b,
                from: SimTime::ZERO,
                until: SimTime::from_secs(10),
            }],
            ..FaultConfig::none()
        };
        net.set_fault_plane(FaultPlane::new(cfg, 1, 2));
        let now = SimTime::from_secs(5);
        assert_eq!(obs.hops(root, now, &p, &net.send_faulted(now, &p)).count(), 0);
        let store = t.store();
        let drop_span = store
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Lost && s.label == "fault-drop")
            .expect("drop recorded on the trace");
        assert_eq!((drop_span.node, drop_span.parent), (b.0, root.span));
    }
}
