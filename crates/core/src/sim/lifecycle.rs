//! Servers leaving and returning: failure injection (fail, recover, tree
//! repair, readmission and resync) and node churn (graceful leave, crash,
//! join).

use super::wire::{Event, Msg};
use super::CdnSimulation;
use crate::config::{ChurnKind, ChurnPlan, ChurnTarget, SimConfig};
use crate::method::{AdaptiveMode, MethodKind};
use crate::topology::Topology;
use cdnc_net::NodeId;
use cdnc_obs::{SpanKind, TraceCtx};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{stream_tag, Scheduler, SimDuration, SimRng, SimTime};
use cdnc_trace::SnapshotId;

/// Node-lifecycle bookkeeping, allocated only when a [`ChurnPlan`] is
/// attached.
#[derive(Debug)]
pub(super) struct LifecycleState {
    /// Why each node is currently down (`None` = up): the one record of a
    /// departure. A departed node is also absent; a `NodeJoin` for a node
    /// with no recorded departure is stale and ignored.
    down_kind: Vec<Option<ChurnKind>>,
    joins: u64,
    leaves: u64,
    crashes: u64,
}

impl LifecycleState {
    /// Expands `plan` into all its departure and join events up front (like
    /// failure injection), drawing from a dedicated stream (`seed ^ CHURN`),
    /// and returns the empty bookkeeping for `nodes` nodes.
    pub(super) fn new(
        plan: &ChurnPlan,
        config: &SimConfig,
        topo: &Topology,
        nodes: usize,
        sched: &mut Scheduler<Event>,
    ) -> Self {
        let mut churn_rng = SimRng::seed_from_u64(config.seed ^ stream_tag::CHURN);
        // Fence every cycle `settle` before the horizon so the run has a
        // quiet tail to reconverge in (mirrors the fault-plan fence).
        let fence = SimTime::from_micros(
            config.horizon().as_micros().saturating_sub(plan.settle.as_micros()),
        );
        let span_s = fence.since(SimTime::ZERO).as_secs_f64();
        for &s in &topo.servers {
            // Fork unconditionally so each server's sub-stream is
            // independent of other servers' draws (stream-stable under plan
            // parameter changes).
            let mut r = churn_rng.fork();
            if span_s <= 0.0 || r.uniform_f64() >= plan.churn_fraction {
                continue;
            }
            let expected = plan.cycles_per_server.max(0.0);
            let mut cycles = expected.floor() as u64;
            if r.uniform_f64() < expected.fract() {
                cycles += 1;
            }
            if cycles == 0 {
                continue;
            }
            let window_s = span_s / cycles as f64;
            for c in 0..cycles {
                // Depart in the first half of the cycle's window so even a
                // long downtime draw fits before the next cycle.
                let offset_s = r.uniform_range(0.0, window_s * 0.5);
                let down_s = c as f64 * window_s + offset_s;
                let downtime_s = r
                    .exponential(1.0 / plan.mean_downtime_s.max(1e-9))
                    .clamp(1.0, (window_s - offset_s - 1.0).max(1.0));
                let graceful = r.uniform_f64() < plan.graceful_fraction;
                let down_at = SimTime::ZERO + SimDuration::from_secs_f64(down_s);
                let up_at = down_at + SimDuration::from_secs_f64(downtime_s);
                let depart = if graceful { Event::NodeLeave(s) } else { Event::NodeCrash(s) };
                sched.schedule_at(down_at, depart);
                sched.schedule_at(up_at, Event::NodeJoin(s));
            }
        }
        // Deterministic scheduled events (e.g. a supernode kill) ride on top
        // of the stochastic plan.
        for ev in &plan.scheduled {
            let node = match ev.target {
                ChurnTarget::Supernode(k) if !topo.supernodes.is_empty() => {
                    topo.supernodes[k % topo.supernodes.len()]
                }
                ChurnTarget::Server(k) | ChurnTarget::Supernode(k) => {
                    topo.servers[k % topo.servers.len()]
                }
            };
            let down_at = SimTime::ZERO + ev.at;
            let depart = match ev.kind {
                ChurnKind::Leave => Event::NodeLeave(node),
                ChurnKind::Crash => Event::NodeCrash(node),
            };
            sched.schedule_at(down_at, depart);
            sched.schedule_at(down_at + ev.downtime, Event::NodeJoin(node));
        }
        LifecycleState { down_kind: vec![None; nodes], joins: 0, leaves: 0, crashes: 0 }
    }

    /// `true` while `node` has departed (left or crashed) and not yet
    /// rejoined — a long-term state, unlike a transient failure window.
    pub(super) fn departed(&self, node: NodeId) -> bool {
        self.down_kind[node.index()].is_some()
    }

    /// `(joins, leaves, crashes)` so far.
    pub(super) fn counts(&self) -> (u64, u64, u64) {
        (self.joins, self.leaves, self.crashes)
    }

    /// Walks each node's departure kind and the three tallies.
    pub(super) fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        const TAGS: [Option<ChurnKind>; 3] = [None, Some(ChurnKind::Leave), Some(ChurnKind::Crash)];
        c.fixed("lc_nodes", self.down_kind.len())?;
        for kind in &mut self.down_kind {
            let mut tag = TAGS.iter().position(|k| k == kind).expect("every kind is tagged") as u64;
            c.u64("lc_down", &mut tag)?;
            *kind = *TAGS
                .get(tag as usize)
                .ok_or_else(|| CkptError(format!("unknown churn-kind tag {tag}")))?;
        }
        c.u64("lc_joins", &mut self.joins)?;
        c.u64("lc_leaves", &mut self.leaves)?;
        c.u64("lc_crashes", &mut self.crashes)
    }
}

impl CdnSimulation<'_> {
    /// A server fails: it stops sending/receiving; if it is a distribution-
    /// tree member, its orphaned children re-attach immediately (the paper's
    /// §5.2 repair rule), each re-attachment costing one structure-
    /// maintenance message and a re-synchronising conditional poll.
    pub(super) fn on_fail(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].absent {
            return;
        }
        self.nodes[node.index()].absent = true;
        self.drop_waiters(now, node);
        self.nodes[node.index()].fetch_pending = false;
        self.nodes[node.index()].awaiting_probe = None;
        // Open tracked deliveries FROM the failed node die with its
        // protocol state (deliveries TO it stay pending: retransmits keep
        // trying, and may land after it recovers).
        self.drain_reliable_from(node);
        self.repair_tree_around(now, node);
    }

    /// Everything queued on a node that dies without a hand-off is lost:
    /// waiting children are dropped, and waiting users' requests time out
    /// against the cached copy.
    fn drop_waiters(&mut self, now: SimTime, node: NodeId) {
        self.nodes[node.index()].waiting_children.clear();
        let snap = self.nodes[node.index()].content;
        for u in std::mem::take(&mut self.nodes[node.index()].waiting_users) {
            self.observe(u, node, snap, now);
        }
    }

    /// Removes `node` from the distribution tree (if it is a member) and
    /// re-attaches its orphans, each re-attachment costing one structure-
    /// maintenance message and a re-synchronising conditional poll.
    fn repair_tree_around(&mut self, now: SimTime, node: NodeId) {
        let Some(tree) = self.tree.as_mut().filter(|t| t.contains(node)) else { return };
        let moves = tree.remove_and_reattach(node, |id| self.net.node(id).location());
        self.topo.detach(node);
        for (orphan, new_parent) in moves {
            self.obs.orphan_reattach.inc();
            self.obs.control(SpanKind::TreeRepair, orphan, now, "reattach");
            self.topo.rewire(orphan, new_parent);
            let invalidation_mode = self.expects_invalidations(orphan);
            self.send(now, orphan, new_parent, Msg::TreeJoin { from: orphan, invalidation_mode });
            self.resync(now, orphan);
        }
    }

    /// A failed server recovers: it re-joins the distribution tree (if any)
    /// and re-synchronises its content with a conditional poll.
    pub(super) fn on_recover(&mut self, now: SimTime, node: NodeId) {
        if !self.nodes[node.index()].absent {
            return;
        }
        if self.lifecycle.as_ref().is_some_and(|lc| lc.departed(node)) {
            // The node *departed* under the lifecycle plan while this
            // failure-injection recovery was pending; only its NodeJoin
            // brings it back.
            return;
        }
        self.nodes[node.index()].absent = false;
        self.net.reset_uplink(node, now);
        self.nodes[node.index()].awaiting_probe = None;
        self.readmit(now, node);
    }

    /// Re-admits a returning server into the consistency structure: HAT
    /// cluster re-attachment (leadership may have moved while it was away),
    /// or a distribution-tree rejoin, followed by a resync poll.
    fn readmit(&mut self, now: SimTime, node: NodeId) {
        // Under HAT degradation, recovering cluster members (including a
        // demoted ex-supernode) re-attach to the cluster's *current*
        // supernode instead of joining the supernode tree — failover may
        // have moved leadership while they were away.
        if let Some(sn) = self.supernode_of(node).filter(|&sn| sn != node) {
            if self.topo.upstream_of(node) != Some(sn) {
                self.topo.rewire(node, sn);
            }
            if self.expects_invalidations(node) {
                self.send(now, node, sn, Msg::SwitchMode { from: node, to_invalidation: true });
            }
            self.resync(now, node);
            return;
        }
        if let Some(tree) = self.tree.as_mut().filter(|t| !t.contains(node)) {
            let parent = tree.join(node, |id| self.net.node(id).location());
            self.obs.tree_rejoin.inc();
            self.obs.control(SpanKind::TreeRepair, node, now, "rejoin");
            self.topo.rewire(node, parent);
            let invalidation_mode = self.expects_invalidations(node);
            self.send(now, node, parent, Msg::TreeJoin { from: node, invalidation_mode });
        }
        self.resync(now, node);
    }

    /// Sends a conditional poll to catch any updates missed while detached.
    pub(super) fn resync(&mut self, now: SimTime, node: NodeId) {
        if let Some(up) = self.topo.upstream_of(node) {
            let have = self.nodes[node.index()].content;
            self.send(now, node, up, Msg::Poll { from: node, have, conditional: true });
        }
    }

    /// A server departs gracefully: it first hands its waiters off (children
    /// get its current content, queued users observe it), then goes dark,
    /// drains its protocol state, and is removed from the update structure —
    /// via supernode failover when it led a HAT cluster.
    pub(super) fn on_node_leave(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].absent {
            return;
        }
        let lc = self.lifecycle.as_mut().expect("churn events need a plan");
        lc.leaves += 1;
        lc.down_kind[node.index()] = Some(ChurnKind::Leave);
        self.obs.control(SpanKind::NodeChurn, node, now, "leave");
        // Graceful hand-off BEFORE going dark (an absent node sends nothing).
        self.serve_waiters(now, node);
        self.go_offline(now, node);
        self.depart_structure(now, node, true);
        self.abort_edge_fetches(node, false);
    }

    /// A server crashes: it goes dark instantly (no hand-off) and its
    /// consistency state is lost — the eventual restart comes back with a
    /// cold cache and no memory of versions, invalidations, or mode.
    pub(super) fn on_node_crash(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].absent {
            return;
        }
        let lc = self.lifecycle.as_mut().expect("churn events need a plan");
        lc.crashes += 1;
        lc.down_kind[node.index()] = Some(ChurnKind::Crash);
        self.obs.control(SpanKind::NodeChurn, node, now, "crash");
        self.drop_waiters(now, node);
        self.go_offline(now, node);
        // State loss: version, staleness knowledge, adaptive estimate, and
        // downstream registrations all evaporate with the process.
        let state = &mut self.nodes[node.index()];
        if state.known_stale.take().is_some() {
            self.obs.stale_replicas.sub(1);
        }
        state.content = SnapshotId(0);
        state.content_ctx = TraceCtx::NONE;
        state.adaptive_interval_s = 0.0;
        state.last_invalidated = SnapshotId(0);
        state.inval_registry.clear();
        if self.topo.method_of(node) == Some(MethodKind::SelfAdaptive) {
            self.set_mode(node, AdaptiveMode::Ttl);
        }
        self.depart_structure(now, node, false);
        self.abort_edge_fetches(node, true);
    }

    /// Takes a departing server off the network: it goes dark, its timer
    /// chains die, and its queued transmissions and the deliveries it had
    /// open are dropped.
    fn go_offline(&mut self, now: SimTime, node: NodeId) {
        let state = &mut self.nodes[node.index()];
        state.absent = true;
        state.fetch_pending = false;
        state.awaiting_probe = None;
        state.timer_gen += 1;
        self.net.reset_uplink(node, now);
        self.drain_reliable_from(node);
    }

    /// A departed server returns: it re-enters the network, bootstraps into
    /// the update structure (tree admission + uplink registration + resync
    /// from its parent), and restarts its timer chains. After a crash the
    /// node is cold — its resync fetches everything anew.
    pub(super) fn on_node_join(&mut self, now: SimTime, node: NodeId) {
        let Some(lc) = self.lifecycle.as_mut() else { return };
        if lc.down_kind[node.index()].take().is_none() {
            return; // never departed (a duplicate or superseded join)
        }
        lc.joins += 1;
        self.obs.control(SpanKind::NodeChurn, node, now, "join");
        self.nodes[node.index()].absent = false;
        self.nodes[node.index()].awaiting_probe = None;
        // An idle uplink: the pre-departure backlog is gone, not resumed.
        self.net.reset_uplink(node, now);
        self.readmit(now, node);
        // Restart the node's timer chains: polling (or the invalidation-
        // mode heartbeat) and, under a fault plan, the probe detector.
        self.nodes[node.index()].timer_gen += 1;
        let gen = self.nodes[node.index()].timer_gen;
        let inval_mode = self.expects_invalidations(node);
        if self.topo.method_of(node).is_some_and(MethodKind::polls) && !inval_mode {
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(node, gen));
        } else if inval_mode && (self.config.failures.is_some() || self.config.faults.is_some()) {
            self.sched.schedule_at(now + self.config.server_ttl * 5, Event::Heartbeat(node, gen));
        }
        if let Some(interval) = self.config.faults.as_ref().map(|plan| plan.probe_interval) {
            self.nodes[node.index()].probe_gen += 1;
            let pgen = self.nodes[node.index()].probe_gen;
            self.sched.schedule_at(now + interval, Event::Probe(node, pgen));
        }
    }

    /// Removes a departed server from the update structure. A graceful
    /// departure of a HAT cluster's supernode hands leadership off
    /// proactively (failover); everything else — including a crashed
    /// supernode, whose loss only the probe detector notices — is repaired
    /// like a failure.
    fn depart_structure(&mut self, now: SimTime, node: NodeId, graceful: bool) {
        match self.led_by(node) {
            Some(c) if graceful && self.config.faults.is_some() => self.failover(now, c),
            _ => self.repair_tree_around(now, node),
        }
    }
}
