//! What the event queue carries: the simulator's [`Event`] kinds and the
//! protocol [`Msg`]s delivered between nodes, with their checkpoint walks,
//! determinism-digest tags and dispatch labels.

use cdnc_net::{NodeId, PacketKind};
use cdnc_obs::TraceCtx;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_trace::SnapshotId;
use cdnc_workload::ObjectId;

#[derive(Debug, Clone)]
pub(super) enum Event {
    /// The provider publishes update `idx` of the sequence.
    Publish(u32),
    /// A polling server's TTL timer fires (with its generation).
    PollTimer(NodeId, u64),
    /// A message is delivered to a node.
    Arrive(NodeId, Msg),
    /// An end-user visits a server.
    UserVisit(u32),
    /// A server fails / becomes overloaded (failure injection).
    Fail(NodeId),
    /// A failed server recovers.
    Recover(NodeId),
    /// An on-demand fetch has waited too long for a response.
    FetchTimeout(NodeId, u64),
    /// Under failure injection: an invalidation-mode node periodically
    /// re-registers with its upstream in case the switch notice was lost.
    Heartbeat(NodeId, u64),
    /// Fault plan: a tracked delivery's retransmit timer fires. The second
    /// field is the attempt count at arming; a mismatch with the pending
    /// entry means the timer is stale.
    Retransmit(u64, u32),
    /// Fault plan: the failure detector checks `node`'s upstream (with a
    /// generation, like poll timers, so re-wiring kills old chains).
    Probe(NodeId, u64),
    /// Request plane: user `.0` requests an object from their current server.
    Request(u32),
    /// Request plane: an origin fetch lands at an edge — cache the object
    /// (filled at provider snapshot `.2`) and release its waiters.
    Fill(NodeId, ObjectId, u32),
    /// Request plane: one catalog publish/perish churn event.
    Churn,
    /// Churn plan: a server departs gracefully — it hands off its waiters
    /// and drains its protocol state before going dark.
    NodeLeave(NodeId),
    /// Churn plan: a server crashes — it goes dark instantly and loses its
    /// consistency state and cache.
    NodeCrash(NodeId),
    /// Churn plan: a departed server comes back and bootstraps — tree
    /// admission, uplink registration, and a resync from its parent.
    NodeJoin(NodeId),
}

/// Each [`Event`] kind's dispatch counter and its digest and handler-time
/// label, indexed by [`Event::obs_idx`]: the kind table of the simulation's
/// [`EventHook`](cdnc_obs::EventHook).
pub(super) const EVENT_KINDS: [cdnc_obs::EventKind; 16] = [
    ("sim_ev_publish", "ev_publish"),
    ("sim_ev_poll_timer", "ev_poll_timer"),
    ("sim_ev_arrive", "ev_arrive"),
    ("sim_ev_user_visit", "ev_user_visit"),
    ("sim_ev_fail", "ev_fail"),
    ("sim_ev_recover", "ev_recover"),
    ("sim_ev_fetch_timeout", "ev_fetch_timeout"),
    ("sim_ev_heartbeat", "ev_heartbeat"),
    ("sim_ev_retransmit", "ev_retransmit"),
    ("sim_ev_probe", "ev_probe"),
    ("sim_ev_request", "ev_request"),
    ("sim_ev_fill", "ev_fill"),
    ("sim_ev_churn", "ev_churn"),
    ("sim_ev_node_leave", "ev_node_leave"),
    ("sim_ev_node_crash", "ev_node_crash"),
    ("sim_ev_node_join", "ev_node_join"),
];

impl Event {
    /// This event's slot in [`EVENT_KINDS`].
    pub(super) fn obs_idx(&self) -> usize {
        match self {
            Event::Publish(..) => 0,
            Event::PollTimer(..) => 1,
            Event::Arrive(..) => 2,
            Event::UserVisit(..) => 3,
            Event::Fail(..) => 4,
            Event::Recover(..) => 5,
            Event::FetchTimeout(..) => 6,
            Event::Heartbeat(..) => 7,
            Event::Retransmit(..) => 8,
            Event::Probe(..) => 9,
            Event::Request(..) => 10,
            Event::Fill(..) => 11,
            Event::Churn => 12,
            Event::NodeLeave(..) => 13,
            Event::NodeCrash(..) => 14,
            Event::NodeJoin(..) => 15,
        }
    }

    /// Walks this event (its [`Event::obs_idx`] as the variant tag, then
    /// the payload); ids past `b` are rejected.
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        let mut tag = self.obs_idx() as u64;
        c.u64("ev", &mut tag)?;
        if c.is_reading() {
            let n = NodeId(0);
            *self = match tag {
                0 => Event::Publish(0),
                1 => Event::PollTimer(n, 0),
                2 => Event::Arrive(n, Msg::default()),
                3 => Event::UserVisit(0),
                4 => Event::Fail(n),
                5 => Event::Recover(n),
                6 => Event::FetchTimeout(n, 0),
                7 => Event::Heartbeat(n, 0),
                8 => Event::Retransmit(0, 0),
                9 => Event::Probe(n, 0),
                10 => Event::Request(0),
                11 => Event::Fill(n, ObjectId::default(), 0),
                12 => Event::Churn,
                13 => Event::NodeLeave(n),
                14 => Event::NodeCrash(n),
                15 => Event::NodeJoin(n),
                t => return Err(CkptError(format!("unknown event tag {t}"))),
            };
        }
        match self {
            Event::Publish(idx) => c.index("a", idx, b.snapshots),
            Event::PollTimer(node, gen)
            | Event::FetchTimeout(node, gen)
            | Event::Heartbeat(node, gen)
            | Event::Probe(node, gen) => {
                c.index("a", &mut node.0, b.nodes)?;
                c.u64("b", gen)
            }
            Event::Arrive(node, msg) => {
                c.index("a", &mut node.0, b.nodes)?;
                msg.persist(c, b)
            }
            Event::UserVisit(u) | Event::Request(u) => c.index("a", u, b.users),
            Event::Fail(node)
            | Event::Recover(node)
            | Event::NodeLeave(node)
            | Event::NodeCrash(node)
            | Event::NodeJoin(node) => c.index("a", &mut node.0, b.nodes),
            Event::Retransmit(id, attempt) => {
                c.u64("a", id)?;
                c.u32("b", attempt)
            }
            Event::Fill(edge, id, snap) => {
                c.index("a", &mut edge.0, b.nodes)?;
                c.index("b", &mut id.slot, b.slots)?;
                c.u32("c", &mut id.gen)?;
                c.index("d", snap, b.snapshots)
            }
            Event::Churn => Ok(()),
        }
    }
}

/// A placeholder the checkpoint reader overwrites with the stored event.
impl Default for Event {
    fn default() -> Self {
        Event::Churn
    }
}

#[derive(Debug, Clone)]
pub(super) enum Msg {
    /// Content (push, or poll/fetch response). Its Last-Modified instant,
    /// which adaptive TTL keys off, is the snapshot's
    /// [`SimConfig::published_at`](crate::SimConfig::published_at). `ctx` is
    /// the causal trace context of the carried content ([`TraceCtx::NONE`]
    /// unless tracing is on — observation-only, never read by handlers).
    Update { snap: SnapshotId, ctx: TraceCtx },
    /// Invalidation notice for version `.0`, carrying the causal context of
    /// the update that triggered it.
    Invalidate(SnapshotId, TraceCtx),
    /// A downstream node asks for content. `conditional` polls get a light
    /// `Unchanged` when nothing is new; unconditional polls always get the
    /// full content back.
    Poll { from: NodeId, have: SnapshotId, conditional: bool },
    /// Light "nothing new" reply to a conditional poll.
    Unchanged,
    /// Algorithm 1 mode notification: the sender is now in invalidation
    /// mode (`true`) or back to TTL (`false`).
    SwitchMode { from: NodeId, to_invalidation: bool },
    /// Structure maintenance: the sender attaches below the receiver after
    /// a failure repair or re-join, declaring whether it currently expects
    /// invalidations.
    TreeJoin { from: NodeId, invalidation_mode: bool },
    /// Reliable-delivery envelope (only minted under a
    /// [`FaultPlan`](crate::FaultPlan)): the receiver acks `id` back to
    /// `from` and suppresses duplicate ids before handling `inner`. Travels
    /// as `inner`'s wire class.
    Tracked { id: u64, from: NodeId, inner: Box<Msg> },
    /// Acknowledgement of a tracked delivery; cancels its retransmit timer.
    Ack { id: u64 },
}

impl Msg {
    /// The wire class this message travels as.
    pub(super) fn kind(&self) -> PacketKind {
        match self {
            Msg::Update { .. } => PacketKind::Update,
            Msg::Invalidate(..) => PacketKind::Invalidation,
            Msg::Poll { .. } => PacketKind::Poll,
            Msg::Unchanged => PacketKind::PollUnchanged,
            Msg::SwitchMode { .. } => PacketKind::MethodSwitch,
            Msg::TreeJoin { .. } => PacketKind::TreeMaintenance,
            Msg::Tracked { inner, .. } => inner.kind(),
            Msg::Ack { .. } => PacketKind::Ack,
        }
    }

    /// The snapshot this message carries or announces — an update's
    /// content, an invalidation's news — inside a tracked envelope too.
    pub(super) fn snapshot(&self) -> Option<SnapshotId> {
        match self {
            Msg::Update { snap, .. } | Msg::Invalidate(snap, _) => Some(*snap),
            Msg::Tracked { inner, .. } => inner.snapshot(),
            _ => None,
        }
    }

    /// The causal context this message propagates ([`TraceCtx::NONE`] for
    /// message classes outside any update's journey).
    pub(super) fn trace_ctx(&self) -> TraceCtx {
        match self {
            Msg::Update { ctx, .. } | Msg::Invalidate(_, ctx) => *ctx,
            Msg::Tracked { inner, .. } => inner.trace_ctx(),
            _ => TraceCtx::NONE,
        }
    }

    /// A structural payload tag for the determinism digest: the version or
    /// identifier the message carries, independent of trace contexts (which
    /// vary with observation settings) and of heap addresses.
    pub(super) fn digest_tag(&self) -> u64 {
        match self {
            Msg::Update { snap, .. } | Msg::Invalidate(snap, _) => u64::from(snap.0),
            Msg::Poll { from, have, .. } => (u64::from(from.0) << 32) | u64::from(have.0),
            Msg::Unchanged => 0,
            Msg::SwitchMode { from, to_invalidation: flag }
            | Msg::TreeJoin { from, invalidation_mode: flag } => {
                (u64::from(from.0) << 1) | u64::from(*flag)
            }
            Msg::Tracked { id, inner, .. } => id.wrapping_mul(31).wrapping_add(inner.digest_tag()),
            Msg::Ack { id } => *id,
        }
    }

    /// Replaces the carried context (with the hop span the network minted).
    pub(super) fn set_ctx(&mut self, new: TraceCtx) {
        match self {
            Msg::Update { ctx, .. } | Msg::Invalidate(_, ctx) => *ctx = new,
            Msg::Tracked { inner, .. } => inner.set_ctx(new),
            _ => {}
        }
    }

    /// This message's checkpoint variant tag.
    fn ckpt_tag(&self) -> u64 {
        match self {
            Msg::Update { .. } => 0,
            Msg::Invalidate(..) => 1,
            Msg::Poll { .. } => 2,
            Msg::Unchanged => 3,
            Msg::SwitchMode { .. } => 4,
            Msg::TreeJoin { .. } => 5,
            Msg::Tracked { .. } => 6,
            Msg::Ack { .. } => 7,
        }
    }

    /// Walks this message (variant tag, then payload); ids past `b` are
    /// rejected. Trace contexts are observation-only and are not stored — a
    /// read message carries [`TraceCtx::NONE`], which never affects
    /// handlers or the determinism digest (whose tags are
    /// context-independent).
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        let mut tag = self.ckpt_tag();
        c.u64("msg", &mut tag)?;
        if c.is_reading() {
            *self = match tag {
                0 => Msg::Update { snap: SnapshotId(0), ctx: TraceCtx::NONE },
                1 => Msg::Invalidate(SnapshotId(0), TraceCtx::NONE),
                2 => Msg::Poll { from: NodeId(0), have: SnapshotId(0), conditional: false },
                3 => Msg::Unchanged,
                4 => Msg::SwitchMode { from: NodeId(0), to_invalidation: false },
                5 => Msg::TreeJoin { from: NodeId(0), invalidation_mode: false },
                6 => Msg::Tracked { id: 0, from: NodeId(0), inner: Box::default() },
                7 => Msg::Ack { id: 0 },
                t => return Err(CkptError(format!("unknown message tag {t}"))),
            };
        }
        match self {
            Msg::Update { snap, .. } | Msg::Invalidate(snap, _) => {
                c.index("a", &mut snap.0, b.snapshots)
            }
            Msg::Poll { from, have, conditional } => {
                c.index("a", &mut from.0, b.nodes)?;
                c.index("b", &mut have.0, b.snapshots)?;
                c.bool("c", conditional)
            }
            Msg::Unchanged => Ok(()),
            Msg::SwitchMode { from, to_invalidation: flag }
            | Msg::TreeJoin { from, invalidation_mode: flag } => {
                c.index("a", &mut from.0, b.nodes)?;
                c.bool("b", flag)
            }
            Msg::Tracked { id, from, inner } => {
                c.u64("a", id)?;
                c.index("b", &mut from.0, b.nodes)?;
                inner.persist(c, b)
            }
            Msg::Ack { id } => c.u64("a", id),
        }
    }
}

/// A placeholder the checkpoint reader overwrites with the stored message.
impl Default for Msg {
    fn default() -> Self {
        Msg::Unchanged
    }
}

/// Table sizes the checkpoint walk checks stored ids against.
#[derive(Clone, Copy)]
pub(super) struct Bounds {
    pub(super) nodes: usize,
    pub(super) users: usize,
    /// Snapshots in the update sequence (snapshot ids index it).
    pub(super) snapshots: usize,
    /// Catalog slots (0 without a request plane).
    pub(super) slots: usize,
}
