//! The reliable-delivery ledger of the fault-plane survival protocol: the
//! tracked deliveries awaiting an ack, and the ids already handled. A state
//! machine over ids, nodes and messages — its callers do the sending,
//! scheduling, tracing and counting.

use super::wire::{Bounds, Msg};
use crate::config::FaultPlan;
use cdnc_net::NodeId;
use cdnc_obs::TraceCtx;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{SimDuration, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// One tracked delivery awaiting an ack.
#[derive(Debug, Clone, Default)]
struct PendingDelivery {
    src: NodeId,
    dst: NodeId,
    /// The unwrapped payload, re-enveloped on each retransmission.
    msg: Msg,
    /// Retransmissions sent so far (the original send is attempt 0).
    attempts: u32,
    /// Current (backed-off) retransmit timeout.
    rto: SimDuration,
}

/// Reliable-delivery state, allocated only when a [`FaultPlan`] is
/// attached. `BTreeMap`/`BTreeSet` keep every walk deterministic.
#[derive(Debug)]
pub(super) struct ReliableState {
    plan: FaultPlan,
    next_id: u64,
    pending: BTreeMap<u64, PendingDelivery>,
    /// Tracked ids already handled (duplicate suppression). Each id is
    /// minted for one delivery, so it has one destination and one set
    /// serves every node.
    seen: BTreeSet<u64>,
    /// Dedicated stream for backoff jitter (forked only in fault mode, so
    /// `faults: None` runs keep their pre-existing stream layout).
    jitter_rng: SimRng,
}

/// What a fired retransmit timer does.
#[derive(Debug)]
pub(super) enum Fired {
    /// The delivery was acked, or a newer timer owns it.
    Stale,
    /// The sender failed with the delivery open; the entry died with it.
    SenderGone,
    /// The delivery is given up: its destination departed, or the last
    /// retransmission went unanswered. `ctx` is the payload's trace context.
    Abandoned { dst: NodeId, ctx: TraceCtx, departed: bool },
    /// Send `envelope` again and re-arm the timer for `attempt` after `wait`.
    Resend { src: NodeId, dst: NodeId, envelope: Msg, attempt: u32, wait: SimDuration },
}

impl ReliableState {
    /// An empty ledger under `plan`.
    pub(super) fn new(plan: &FaultPlan, jitter_rng: SimRng) -> Self {
        ReliableState {
            plan: plan.clone(),
            next_id: 0,
            pending: BTreeMap::new(),
            seen: BTreeSet::new(),
            jitter_rng,
        }
    }

    /// Opens a tracked delivery of `msg` from `src` to `dst`. Returns its
    /// id and the wait before its first retransmit timer fires.
    pub(super) fn open(&mut self, src: NodeId, dst: NodeId, msg: &Msg) -> (u64, SimDuration) {
        self.next_id += 1;
        let id = self.next_id;
        let rto = self.plan.rto;
        self.pending.insert(id, PendingDelivery { src, dst, msg: msg.clone(), attempts: 0, rto });
        (id, self.jittered(rto))
    }

    /// Takes the ack for `id`: `true` when it closes a pending delivery.
    pub(super) fn ack(&mut self, id: u64) -> bool {
        self.pending.remove(&id).is_some()
    }

    /// Accepts delivery `id` at `node`: `true` the first time, `false` for a
    /// duplicate, which the receiver suppresses.
    pub(super) fn accept(&mut self, node: NodeId, id: u64) -> bool {
        debug_assert!(
            self.pending.get(&id).is_none_or(|p| p.dst == node),
            "delivery {id} accepted at {node}, not its destination"
        );
        self.seen.insert(id)
    }

    /// Decides what the retransmit timer armed for `attempt` of `id` does
    /// when it fires. A delivery whose destination `departed` is abandoned
    /// at once; one out of retransmissions is abandoned; otherwise the
    /// timeout doubles (capped at `rto_max`) and, unless its sender is
    /// `absent`, the delivery goes out again.
    pub(super) fn fire(
        &mut self,
        id: u64,
        attempt: u32,
        departed: impl Fn(NodeId) -> bool,
        absent: impl Fn(NodeId) -> bool,
    ) -> Fired {
        let Some(p) = self.pending.get_mut(&id) else {
            return Fired::Stale; // acked in the meantime
        };
        if p.attempts != attempt {
            return Fired::Stale; // a newer timer owns this delivery
        }
        // A destination that *departed* (left the system, not a transient
        // failure window) is abandoned immediately: backing off against it
        // is wasted wire, and a later rejoin reconverges through its
        // bootstrap resync. Any delivery may still converge later through
        // polls, probes, or a recovery resync.
        let departed = departed(p.dst);
        if departed || p.attempts >= self.plan.max_retransmits {
            let p = self.pending.remove(&id).expect("present");
            return Fired::Abandoned { dst: p.dst, ctx: p.msg.trace_ctx(), departed };
        }
        p.attempts += 1;
        p.rto =
            SimDuration::from_micros(p.rto.as_micros().saturating_mul(2)).min(self.plan.rto_max);
        let (src, dst, attempt, rto) = (p.src, p.dst, p.attempts, p.rto);
        if absent(src) {
            // The sender died with the delivery open; its protocol state
            // dies with it.
            self.pending.remove(&id);
            return Fired::SenderGone;
        }
        let envelope = Msg::Tracked { id, from: src, inner: Box::new(p.msg.clone()) };
        Fired::Resend { src, dst, envelope, attempt, wait: self.jittered(rto) }
    }

    /// Tracked deliveries still awaiting their ack.
    pub(super) fn outstanding(&self) -> u64 {
        self.pending.len() as u64
    }

    /// The payloads held for resending.
    pub(super) fn held(&self) -> impl Iterator<Item = &Msg> {
        self.pending.values().map(|p| &p.msg)
    }

    /// Drops every open delivery `node` sent (its protocol state is gone
    /// with it); returns how many.
    pub(super) fn drop_from(&mut self, node: NodeId) -> u64 {
        let before = self.pending.len();
        self.pending.retain(|_, p| p.src != node);
        (before - self.pending.len()) as u64
    }

    /// `base` scaled by a factor drawn uniformly from
    /// `[1 - jitter, 1 + jitter]` (deterministic: the factor comes from the
    /// fault plan's dedicated stream).
    fn jittered(&mut self, base: SimDuration) -> SimDuration {
        let j = self.plan.jitter;
        if j <= 0.0 {
            return base;
        }
        base.mul_f64(self.jitter_rng.uniform_range(1.0 - j, 1.0 + j).max(0.0))
    }

    /// Walks the ledger: next id, pending deliveries, the seen ids, jitter
    /// stream.
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        c.u64("rel_next_id", &mut self.next_id)?;
        c.seq("rel_pending", &mut self.pending, |(id, p), c| {
            c.u64("rp_id", id)?;
            c.index("rp_src", &mut p.src.0, b.nodes)?;
            c.index("rp_dst", &mut p.dst.0, b.nodes)?;
            c.u32("rp_attempts", &mut p.attempts)?;
            let mut rto = p.rto.as_micros();
            c.u64("rp_rto_us", &mut rto)?;
            p.rto = SimDuration::from_micros(rto);
            p.msg.persist(c, b)
        })?;
        c.seq("rel_seen", &mut self.seen, |id, c| c.u64("rs_id", id))?;
        c.rng("rel_jitter", &mut self.jitter_rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_trace::SnapshotId;

    fn ledger() -> ReliableState {
        let plan = FaultPlan { jitter: 0.0, ..FaultPlan::default() };
        ReliableState::new(&plan, SimRng::seed_from_u64(1))
    }

    fn poll() -> Msg {
        Msg::Poll { from: NodeId(1), have: SnapshotId(0), conditional: true }
    }

    const NOBODY: fn(NodeId) -> bool = |_| false;

    #[test]
    fn unacked_delivery_backs_off_to_the_cap_then_is_abandoned() {
        let mut rel = ledger();
        let (id, first) = rel.open(NodeId(1), NodeId(2), &poll());
        let mut waits = vec![first.as_secs_f64()];
        let mut attempt = 0;
        loop {
            match rel.fire(id, attempt, NOBODY, NOBODY) {
                Fired::Resend { src, dst, envelope, attempt: next, wait } => {
                    assert_eq!((src, dst, next), (NodeId(1), NodeId(2), attempt + 1));
                    assert!(
                        matches!(envelope, Msg::Tracked { id: i, from, .. } if i == id && from == src)
                    );
                    waits.push(wait.as_secs_f64());
                    attempt = next;
                }
                Fired::Abandoned { dst, departed, .. } => {
                    assert_eq!((dst, departed), (NodeId(2), false));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(attempt, 10, "resent max_retransmits times");
        assert_eq!(waits, [2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0, 30.0, 30.0, 30.0, 30.0]);
        assert!(matches!(rel.fire(id, attempt, NOBODY, NOBODY), Fired::Stale), "entry is gone");
    }

    #[test]
    fn departed_destination_and_dead_sender_close_the_delivery() {
        let mut rel = ledger();
        let (id, _) = rel.open(NodeId(1), NodeId(2), &poll());
        let gone = |n: NodeId| n == NodeId(2);
        assert!(matches!(rel.fire(id, 0, gone, NOBODY), Fired::Abandoned { departed: true, .. }));
        let (id, _) = rel.open(NodeId(1), NodeId(2), &poll());
        let dead = |n: NodeId| n == NodeId(1);
        assert!(matches!(rel.fire(id, 0, NOBODY, dead), Fired::SenderGone));
        assert!(!rel.ack(id), "nothing left to ack");
    }

    #[test]
    fn acked_or_superseded_timers_are_stale() {
        let mut rel = ledger();
        let (id, _) = rel.open(NodeId(1), NodeId(2), &poll());
        assert!(matches!(rel.fire(id, 0, NOBODY, NOBODY), Fired::Resend { attempt: 1, .. }));
        assert!(matches!(rel.fire(id, 0, NOBODY, NOBODY), Fired::Stale), "old attempt number");
        assert!(rel.ack(id));
        assert!(matches!(rel.fire(id, 1, NOBODY, NOBODY), Fired::Stale), "acked");
        assert!(!rel.ack(id), "a second ack closes nothing");
    }

    #[test]
    fn duplicate_accepts_are_suppressed_per_node() {
        let mut rel = ledger();
        assert!(rel.accept(NodeId(2), 7));
        assert!(!rel.accept(NodeId(2), 7), "second copy at the same node");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not its destination")]
    fn an_open_delivery_is_accepted_only_at_its_destination() {
        let mut rel = ledger();
        let (id, _) = rel.open(NodeId(1), NodeId(2), &poll());
        rel.accept(NodeId(0), id);
    }

    #[test]
    fn a_failed_sender_drops_only_its_own_deliveries() {
        let mut rel = ledger();
        let (a, _) = rel.open(NodeId(1), NodeId(2), &poll());
        let (b, _) = rel.open(NodeId(2), NodeId(1), &poll());
        rel.open(NodeId(1), NodeId(0), &poll());
        assert_eq!(rel.drop_from(NodeId(1)), 2);
        assert!(!rel.ack(a));
        assert!(rel.ack(b));
    }
}
