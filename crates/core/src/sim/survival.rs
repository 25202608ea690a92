//! The fault-plane survival protocol around the reliable-delivery ledger:
//! tracked sends and retransmits, the probe failure detector, HAT
//! supernode failover, and the end-of-run convergence check.

use super::reliable::Fired;
use super::wire::{Bounds, Event, Msg};
use super::CdnSimulation;
use crate::method::{AdaptiveMode, MethodKind};
use crate::topology::Topology;
use cdnc_net::NodeId;
use cdnc_obs::SpanKind;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimTime;

/// HAT cluster bookkeeping for graceful degradation (hybrid schemes under
/// a [`FaultPlan`](crate::FaultPlan) with `hat_degradation` on).
#[derive(Debug)]
pub(super) struct ClusterState {
    /// `cluster_of[node.index()]`: the cluster a server belongs to.
    cluster_of: Vec<Option<usize>>,
    /// The current supernode of each cluster (updated on failover).
    supernode: Vec<NodeId>,
    /// The method demoted supernodes fall back to.
    member_method: MethodKind,
}

impl ClusterState {
    pub(super) fn from_topology(topo: &Topology, n: usize, member_method: MethodKind) -> Self {
        let mut cluster_of = vec![None; n];
        let supernode = topo.supernodes.clone();
        for (k, &sn) in supernode.iter().enumerate() {
            cluster_of[sn.index()] = Some(k);
            // A supernode's downstream mixes its cluster members with its
            // child supernodes in the distribution tree — only the former
            // belong to the cluster.
            for &m in topo.downstream_of(sn) {
                if !supernode.contains(&m) {
                    cluster_of[m.index()] = Some(k);
                }
            }
        }
        ClusterState { cluster_of, supernode, member_method }
    }

    /// The current supernode of `node`'s cluster, if it belongs to one.
    pub(super) fn supernode_of(&self, node: NodeId) -> Option<NodeId> {
        self.cluster_of[node.index()].map(|c| self.supernode[c])
    }

    /// The cluster `node` currently leads, if any.
    pub(super) fn led_by(&self, node: NodeId) -> Option<usize> {
        self.cluster_of[node.index()].filter(|&c| self.supernode[c] == node)
    }

    /// Walks the supernode vector, the only part failover mutates;
    /// membership is rebuilt from the checkpointed topology.
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        c.fixed("cl_supernodes", self.supernode.len())?;
        self.supernode.iter_mut().try_for_each(|sn| c.index("cl_sn", &mut sn.0, b.nodes))
    }
}

impl CdnSimulation<'_> {
    /// Sends `msg` under ack/retransmit protection when a fault plan is
    /// attached (a plain [`CdnSimulation::send`] otherwise): the payload is
    /// wrapped in a [`Msg::Tracked`] envelope, a pending entry is recorded,
    /// and a retransmit timer armed with jittered exponential backoff.
    pub(super) fn send_reliable(&mut self, now: SimTime, src: NodeId, dst: NodeId, msg: Msg) {
        let Some(rel) = self.reliable.as_mut() else {
            return self.send(now, src, dst, msg);
        };
        if self.nodes[src.index()].absent {
            return; // mirror send(): a failed node sends nothing
        }
        let (id, wait) = rel.open(src, dst, &msg);
        self.obs.pending_retransmits.add(1);
        self.send(now, src, dst, Msg::Tracked { id, from: src, inner: Box::new(msg) });
        self.sched.schedule_at(now + wait, Event::Retransmit(id, 0));
    }

    pub(super) fn on_retransmit(&mut self, now: SimTime, id: u64, attempt: u32) {
        let Some(rel) = self.reliable.as_mut() else { return };
        match rel.fire(id, attempt, |n| self.net.is_departed(n), |n| self.nodes[n.index()].absent) {
            Fired::Stale => {}
            Fired::SenderGone => self.obs.pending_retransmits.sub(1),
            Fired::Abandoned { dst, ctx, departed } => {
                self.obs.pending_retransmits.sub(1);
                self.chaos.abandoned += 1;
                self.chaos.abandoned_to_departed += u64::from(departed);
                let why = if departed { "departed" } else { "abandoned" };
                self.obs.lost(ctx, dst, now, why);
            }
            Fired::Resend { src, dst, envelope, attempt, wait } => {
                self.chaos.retransmits += 1;
                self.send(now, src, dst, envelope);
                self.sched.schedule_at(now + wait, Event::Retransmit(id, attempt));
            }
        }
    }

    /// A tracked delivery reaches `node`: ack it, then handle the payload
    /// unless it is a duplicate.
    pub(super) fn on_tracked(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: u64,
        from: NodeId,
        inner: Msg,
    ) {
        // Always ack — the ack itself may be lost, in which case the sender
        // retransmits and we suppress the duplicate here.
        self.send(now, node, from, Msg::Ack { id });
        if self.reliable.as_mut().is_none_or(|rel| rel.accept(node, id)) {
            self.on_arrive(now, node, inner);
        } else {
            self.chaos.dup_suppressed += 1;
            // Terminal for this delivery's hop span.
            self.obs.tracer.skip(inner.trace_ctx(), node.index() as u32, now.as_micros());
        }
    }

    pub(super) fn on_ack(&mut self, id: u64) {
        if self.reliable.as_mut().is_some_and(|rel| rel.ack(id)) {
            self.obs.pending_retransmits.sub(1);
        }
    }

    /// Drops every open tracked delivery originated by `node` (its
    /// protocol state is gone with it).
    pub(super) fn drain_reliable_from(&mut self, node: NodeId) {
        if let Some(rel) = &mut self.reliable {
            self.obs.pending_retransmits.sub(rel.drop_from(node));
        }
    }

    /// The fault-plane failure detector (a generalisation of the
    /// invalidation-mode heartbeat to every upstream link): each probe is a
    /// conditional poll, so a successful probe also delivers any content
    /// the node missed; an unanswered probe older than `probe_timeout`
    /// marks the upstream suspect.
    pub(super) fn on_probe(&mut self, now: SimTime, node: NodeId, gen: u64) {
        let Some(plan) = &self.config.faults else { return };
        let (interval, timeout) = (plan.probe_interval, plan.probe_timeout);
        if gen != self.nodes[node.index()].probe_gen {
            return; // a stale chain (killed by a failover re-wiring)
        }
        // Keep the chain alive unconditionally; the checks below only
        // decide what this tick does.
        self.sched.schedule_at(now + interval, Event::Probe(node, gen));
        if self.nodes[node.index()].absent {
            return;
        }
        let Some(up) = self.topo.upstream_of(node) else { return };
        match self.nodes[node.index()].awaiting_probe {
            Some(sent) if now.since(sent) >= timeout => {
                self.nodes[node.index()].awaiting_probe = None;
                self.obs.upstream_suspects.inc();
                self.on_upstream_suspect(now, node, up);
            }
            Some(_) => {} // still within the timeout; wait
            None => {
                self.nodes[node.index()].awaiting_probe = Some(now);
                self.resync(now, node);
            }
        }
    }

    /// `node` has declared its upstream `up` suspect. For a HAT cluster
    /// whose supernode is the suspect this triggers failover; otherwise the
    /// node simply re-synchronises (the suspect may be transient loss, and
    /// the probe chain keeps watching).
    fn on_upstream_suspect(&mut self, now: SimTime, node: NodeId, up: NodeId) {
        // The cluster `node` belongs to, if `up` is that cluster's supernode.
        let led_by_up = self
            .clusters
            .as_ref()
            .and_then(|cl| cl.cluster_of[node.index()].filter(|&c| cl.supernode[c] == up));
        match led_by_up {
            Some(c) if up != self.topo.provider => self.failover(now, c),
            _ => self.resync(now, node),
        }
    }

    /// HAT graceful degradation: the cluster's supernode is unreachable, so
    /// the nearest present member is promoted into its distribution-tree
    /// slot, every other member (including the demoted supernode) re-wires
    /// to the promotee, and invalidation-mode members fall back to TTL
    /// polling until Algorithm 1 switches them again.
    pub(super) fn failover(&mut self, now: SimTime, cluster: usize) {
        let cl = self.clusters.as_ref().expect("failover needs clusters");
        let (old, member_method) = (cl.supernode[cluster], cl.member_method);
        let members: Vec<NodeId> = self
            .topo
            .servers
            .iter()
            .copied()
            .filter(|&s| s != old && cl.cluster_of[s.index()] == Some(cluster))
            .collect();
        // Promote the present member nearest the old supernode (its cluster
        // was built on proximity, so this preserves locality); ties break
        // on node id for determinism.
        let Some(promoted) =
            members.iter().copied().filter(|&m| !self.nodes[m.index()].absent).min_by(|&a, &b| {
                self.net
                    .distance_km(old, a)
                    .partial_cmp(&self.net.distance_km(old, b))
                    .expect("finite distances")
                    .then(a.0.cmp(&b.0))
            })
        else {
            return; // the whole cluster is down; probes will retry
        };
        self.chaos.failovers += 1;
        self.obs.control(SpanKind::TreeRepair, promoted, now, "failover");
        // Tree surgery: the promotee takes the old supernode's slot, or
        // joins fresh if a node failure already removed the old one. Child
        // supernodes under the old one in the tree follow it (when a node
        // failure removed it, the tree repair already re-homed them).
        let child_supernodes: Vec<NodeId> = self
            .topo
            .downstream_of(old)
            .iter()
            .copied()
            .filter(|c| self.topo.supernodes.contains(c))
            .collect();
        let tree = self.tree.as_mut().expect("hybrid schemes have a tree");
        let parent = if tree.contains(old) {
            tree.substitute(old, promoted)
        } else {
            tree.join(promoted, |id| self.net.node(id).location())
        };
        // Topology re-wiring: promotee under its tree parent as a pusher...
        self.topo.rewire(promoted, parent);
        self.set_method(promoted, MethodKind::Push);
        self.set_mode(promoted, AdaptiveMode::Ttl);
        self.nodes[promoted.index()].timer_gen += 1; // pushers do not poll
        self.nodes[promoted.index()].awaiting_probe = None;
        self.nodes[promoted.index()].probe_gen += 1;
        let gen = self.nodes[promoted.index()].probe_gen;
        let interval = self.config.faults.as_ref().expect("fault mode").probe_interval;
        self.sched.schedule_at(now + interval, Event::Probe(promoted, gen));
        for &c in &child_supernodes {
            self.topo.rewire(c, promoted);
        }
        // ...every other member under the promotee...
        for &m in members.iter().filter(|&&m| m != promoted) {
            self.topo.rewire(m, promoted);
            self.nodes[m.index()].awaiting_probe = None;
        }
        // ...and the demoted supernode becomes an ordinary member (it polls
        // the promotee when it returns).
        self.topo.rewire(old, promoted);
        self.set_method(old, member_method);
        self.nodes[old.index()].awaiting_probe = None;
        self.nodes[old.index()].timer_gen += 1;
        let old_gen = self.nodes[old.index()].timer_gen;
        if member_method.polls() {
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(old, old_gen));
        }
        let slot = self.topo.supernodes.iter_mut().find(|s| **s == old);
        *slot.expect("old supernode is registered") = promoted;
        self.clusters.as_mut().expect("checked").supernode[cluster] = promoted;
        // The promotee announces itself upstream and re-synchronises.
        self.send(
            now,
            promoted,
            parent,
            Msg::TreeJoin { from: promoted, invalidation_mode: false },
        );
        self.resync(now, promoted);
        // Graceful degradation: members that were waiting for invalidations
        // from the dead supernode fall back to TTL polling (Algorithm 1
        // reverts them once the first poll finds silence again).
        for &m in members.iter().filter(|&&m| m != promoted) {
            let state = &self.nodes[m.index()];
            if !state.absent
                && self.topo.method_of(m) == Some(MethodKind::SelfAdaptive)
                && state.mode == AdaptiveMode::Invalidation
            {
                self.chaos.ttl_fallbacks += 1;
                self.obs.control(SpanKind::ModeSwitch, m, now, "degrade");
                self.set_mode(m, AdaptiveMode::Ttl);
                self.nodes[m.index()].timer_gen += 1;
                let gen = self.nodes[m.index()].timer_gen;
                self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(m, gen));
            }
        }
    }

    /// Moves `node` to `method` during a failover. The updates pending at it
    /// move from the old method's pending gauge to the new one's, so the
    /// per-method gauges keep reading the servers' real backlog.
    fn set_method(&mut self, node: NodeId, method: MethodKind) {
        let head = self.head();
        let pending = self.nodes[node.index()].pending(head);
        self.obs.pending(self.topo.method_of(node)).sub(pending);
        self.topo.method[node.index()] = Some(method);
        self.obs.pending(Some(method)).add(pending);
    }

    /// The convergence invariant, checked once the event queue drains: with
    /// a fault plan attached (all faults fenced `settle` before the
    /// horizon), every present replica must have caught up with the
    /// provider's head version. Violations are counted and, when tracing,
    /// dumped as `Lost` spans labelled `convergence` so the flight recorder
    /// classifies them separately from in-flight losses.
    pub(super) fn check_convergence(&mut self) {
        if self.config.faults.is_none() {
            return;
        }
        let head = self.head();
        let head_ctx = self.nodes[self.topo.provider.index()].content_ctx;
        let mut violations = 0u64;
        for &s in &self.topo.servers {
            let state = &self.nodes[s.index()];
            if state.absent || self.net.is_departed(s) || state.content >= head {
                continue;
            }
            violations += 1;
            self.obs.lost(head_ctx, s, self.config.horizon(), "convergence");
        }
        self.chaos.convergence_violations = violations;
    }
}
