//! The event-driven CDN consistency simulator.
//!
//! Replays an update sequence through a deployment [`Scheme`](crate::Scheme) and measures
//! the paper's §4/§5 quantities: per-server and per-user inconsistency,
//! traffic cost, message counts, and user-observed inconsistency.
//!
//! ## Protocol semantics (matching the paper)
//!
//! * **TTL** polls are *unconditional* GETs: the upstream always returns the
//!   full content, even when unchanged — this is exactly why the paper finds
//!   TTL "wastes traffic in probing unchanged content" (§4.3).
//! * **Self-adaptive** polls are *conditional* (version-carrying): an
//!   unchanged response is a light message and triggers the Algorithm 1
//!   switch to Invalidation.
//! * **Push** forwards content down the distribution topology immediately.
//! * **Invalidation** notices propagate down immediately; a stale replica
//!   fetches on the next user visit, chaining polls up through stale
//!   ancestors (the user's response waits for the fetch, which is why
//!   Invalidation matches Push from the user's perspective, Fig. 14(b)).

use crate::config::{ChurnKind, ChurnTarget, FaultPlan, Scheme, SimConfig, WorkloadPlan};
use crate::method::{AdaptiveMode, MethodKind};
use crate::metrics::{SimReport, WorkloadStats};
use crate::topology::Topology;
use cdnc_geo::{IspId, WorldBuilder};
use cdnc_net::{FaultPlane, Network, NodeId, Packet, PacketKind, PACKET_KINDS};
use cdnc_obs::profile::{self, Subsystem};
use cdnc_obs::{
    Counter, Digest, Gauge, HandlerTimer, Histogram, Level, Registry, SpanKind, TraceCtx, Tracer,
};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::stats::OnlineStats;
use cdnc_simcore::{stream_tag, Scheduler, SimDuration, SimRng, SimTime};
use cdnc_trace::SnapshotId;
use cdnc_workload::{Catalog, Lookup, LruCache, ObjectId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Runs one simulation and returns its report.
///
/// Deterministic in the configuration (including its seed).
///
/// # Panics
///
/// Panics if `config.servers == 0`.
///
/// # Examples
///
/// ```
/// use cdnc_core::{run, MethodKind, Scheme, SimConfig};
/// use cdnc_simcore::{SimDuration, SimTime};
/// use cdnc_trace::UpdateSequence;
///
/// let updates = UpdateSequence::periodic(
///     SimDuration::from_secs(30),
///     SimTime::from_secs(300),
/// );
/// let mut cfg = SimConfig::section4(Scheme::Unicast(MethodKind::Push), updates);
/// cfg.servers = 20;
/// let report = run(&cfg);
/// assert!(report.mean_server_lag_s() < 1.0, "push keeps servers fresh");
/// ```
pub fn run(config: &SimConfig) -> SimReport {
    run_with_obs(config, &Registry::disabled())
}

/// Runs one simulation with instrumentation recording into `obs`.
///
/// Instrumentation is observation-only: for a fixed configuration the
/// returned [`SimReport`] is bit-identical whether `obs` is enabled or
/// disabled (the paired-run test in `cdnc-experiments` enforces this).
/// With [`Registry::disabled`] every hook costs one branch.
pub fn run_with_obs(config: &SimConfig, obs: &Registry) -> SimReport {
    // Allocation attribution: everything the simulation allocates that is
    // not claimed by a nested scope (scheduler, network, tracer, series)
    // lands in the `sim_core` bucket.
    let _prof = profile::scope(Subsystem::SimCore);
    let sim = {
        let _build = obs.span("sim_build");
        CdnSimulation::new(config, obs)
    };
    let _run = obs.span("sim_events");
    sim.run()
}

/// Artifact kind tag of a simulation checkpoint.
const SIM_KIND: &str = "cdn-sim";

/// Runs `config` until simulation time `at` (inclusive) and serializes the
/// paused simulation into a versioned checkpoint artifact.
///
/// The artifact captures the complete dynamic state — scheduler queue, RNG
/// streams, node/tree/cache state, and the determinism-digest segment — so
/// [`resume`] on the same configuration continues the run exactly where it
/// stopped: the resumed report (and, with an armed digest, the audit chain)
/// is bit-identical to an uninterrupted [`run`].
pub fn checkpoint(config: &SimConfig, at: SimTime) -> String {
    checkpoint_with_obs(config, &Registry::disabled(), at)
}

/// [`checkpoint`] with instrumentation recording into `obs`.
pub fn checkpoint_with_obs(config: &SimConfig, obs: &Registry, at: SimTime) -> String {
    let _prof = profile::scope(Subsystem::SimCore);
    let mut sim = {
        let _build = obs.span("sim_build");
        CdnSimulation::new(config, obs)
    };
    let _run = obs.span("sim_events");
    sim.run_until(at);
    Ckpt::write(SIM_KIND, |c| sim.persist(c))
}

/// Restores a [`checkpoint`] artifact on `config` and runs it to completion.
///
/// Errors when the artifact is malformed or was taken under a structurally
/// different configuration (node/user counts, subsystem presence).
pub fn resume(config: &SimConfig, artifact: &str) -> Result<SimReport, CkptError> {
    resume_with_obs(config, &Registry::disabled(), artifact)
}

/// [`resume`] with instrumentation recording into `obs`. When `obs` has a
/// determinism digest armed, the restored run continues the saved chain.
pub fn resume_with_obs(
    config: &SimConfig,
    obs: &Registry,
    artifact: &str,
) -> Result<SimReport, CkptError> {
    let _prof = profile::scope(Subsystem::SimCore);
    let mut sim = {
        let _build = obs.span("sim_build");
        CdnSimulation::new(config, obs)
    };
    Ckpt::read(artifact, SIM_KIND, |c| sim.persist(c))?;
    let _run = obs.span("sim_events");
    Ok(sim.run())
}

/// Restores a [`checkpoint`] artifact on `config`, continues the run until
/// simulation time `until` (inclusive), and re-serializes the paused state
/// into a fresh checkpoint artifact.
///
/// This is the anomaly-replay primitive: restore just before a suspect
/// window, step through it, and capture the state on the far side. The
/// returned artifact is bit-identical to [`checkpoint`] taken at `until`
/// on an uninterrupted run.
pub fn resume_until(
    config: &SimConfig,
    artifact: &str,
    until: SimTime,
) -> Result<String, CkptError> {
    resume_until_with_obs(config, &Registry::disabled(), artifact, until)
}

/// [`resume_until`] with instrumentation recording into `obs`. When `obs`
/// has a determinism digest armed, the restored run continues the saved
/// chain.
pub fn resume_until_with_obs(
    config: &SimConfig,
    obs: &Registry,
    artifact: &str,
    until: SimTime,
) -> Result<String, CkptError> {
    let _prof = profile::scope(Subsystem::SimCore);
    let mut sim = {
        let _build = obs.span("sim_build");
        CdnSimulation::new(config, obs)
    };
    Ckpt::read(artifact, SIM_KIND, |c| sim.persist(c))?;
    let _run = obs.span("sim_events");
    sim.run_until(until);
    Ok(Ckpt::write(SIM_KIND, |c| sim.persist(c)))
}

#[derive(Debug, Clone)]
enum Event {
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
    /// Under a [`FaultPlan`]: a tracked delivery's retransmit timer fires.
    /// The second field is the attempt count at arming; a mismatch with the
    /// pending entry means the timer is stale.
    Retransmit(u64, u32),
    /// Under a [`FaultPlan`]: the failure detector checks `node`'s upstream
    /// (with a generation, like poll timers, so re-wiring kills old chains).
    Probe(NodeId, u64),
    /// Under a [`WorkloadPlan`]: user `.0` requests an object from their
    /// current server.
    Request(u32),
    /// Under a [`WorkloadPlan`]: an origin fetch lands at an edge — cache
    /// the object (filled at provider snapshot `.2`) and release its
    /// waiters.
    Fill(NodeId, ObjectId, u32),
    /// Under a [`WorkloadPlan`]: one catalog publish/perish churn event.
    Churn,
    /// Under a [`ChurnPlan`](crate::ChurnPlan): a server departs gracefully —
    /// it hands off its waiters and drains its protocol state before going
    /// dark.
    NodeLeave(NodeId),
    /// Under a [`ChurnPlan`](crate::ChurnPlan): a server crashes — it goes
    /// dark instantly and loses its consistency state and cache.
    NodeCrash(NodeId),
    /// Under a [`ChurnPlan`](crate::ChurnPlan): a departed server comes
    /// back and bootstraps — tree admission, uplink registration, and a
    /// resync from its parent.
    NodeJoin(NodeId),
}

/// Dispatch-timer labels, one per [`Event`] kind, indexed by
/// [`Event::obs_idx`].
const EVENT_TIMER_LABELS: [&str; 16] = [
    "ev_publish",
    "ev_poll_timer",
    "ev_arrive",
    "ev_user_visit",
    "ev_fail",
    "ev_recover",
    "ev_fetch_timeout",
    "ev_heartbeat",
    "ev_retransmit",
    "ev_probe",
    "ev_request",
    "ev_fill",
    "ev_churn",
    "ev_node_leave",
    "ev_node_crash",
    "ev_node_join",
];

impl Event {
    /// This event's slot in [`EVENT_TIMER_LABELS`].
    fn obs_idx(&self) -> usize {
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
}

#[derive(Debug, Clone)]
enum Msg {
    /// Content (push, or poll/fetch response). `modified_at` is the
    /// provider-side publish instant of the carried snapshot (the HTTP
    /// Last-Modified analogue adaptive TTL keys off). `ctx` is the causal
    /// trace context of the carried content ([`TraceCtx::NONE`] unless
    /// tracing is on — observation-only, never read by handlers).
    Update { snap: SnapshotId, modified_at: SimTime, ctx: TraceCtx },
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
    /// Reliable-delivery envelope (only minted under a [`FaultPlan`]): the
    /// receiver acks `id` back to `from` and suppresses duplicate ids
    /// before handling `inner`. Travels as `inner`'s wire class.
    Tracked { id: u64, from: NodeId, inner: Box<Msg> },
    /// Acknowledgement of a tracked delivery; cancels its retransmit timer.
    Ack { id: u64 },
}

impl Msg {
    /// The wire class this message travels as (must mirror the packet
    /// construction in [`CdnSimulation::send`]).
    fn kind(&self) -> PacketKind {
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

    /// The causal context this message propagates ([`TraceCtx::NONE`] for
    /// message classes outside any update's journey).
    fn trace_ctx(&self) -> TraceCtx {
        match self {
            Msg::Update { ctx, .. } | Msg::Invalidate(_, ctx) => *ctx,
            Msg::Tracked { inner, .. } => inner.trace_ctx(),
            _ => TraceCtx::NONE,
        }
    }

    /// A structural payload tag for the determinism digest: the version or
    /// identifier the message carries, independent of trace contexts (which
    /// vary with observation settings) and of heap addresses.
    fn digest_tag(&self) -> u64 {
        match self {
            Msg::Update { snap, .. } => u64::from(snap.0),
            Msg::Invalidate(snap, _) => u64::from(snap.0),
            Msg::Poll { from, have, .. } => (u64::from(from.0) << 32) | u64::from(have.0),
            Msg::Unchanged => 0,
            Msg::SwitchMode { from, to_invalidation } => {
                (u64::from(from.0) << 1) | u64::from(*to_invalidation)
            }
            Msg::TreeJoin { from, invalidation_mode } => {
                (u64::from(from.0) << 1) | u64::from(*invalidation_mode)
            }
            Msg::Tracked { id, inner, .. } => id.wrapping_mul(31).wrapping_add(inner.digest_tag()),
            Msg::Ack { id } => *id,
        }
    }

    /// Replaces the carried context (with the hop span the network minted).
    fn set_ctx(&mut self, new: TraceCtx) {
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
    fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        let mut tag = self.ckpt_tag();
        c.u64("msg", &mut tag)?;
        if c.is_reading() {
            *self = match tag {
                0 => Msg::Update {
                    snap: SnapshotId(0),
                    modified_at: SimTime::ZERO,
                    ctx: TraceCtx::NONE,
                },
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
            Msg::Update { snap, modified_at, .. } => {
                c.index("a", &mut snap.0, b.snapshots)?;
                c.time("b", modified_at)
            }
            Msg::Invalidate(snap, _) => c.index("a", &mut snap.0, b.snapshots),
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
struct Bounds {
    nodes: usize,
    users: usize,
    /// Snapshots in the update sequence (snapshot ids index it).
    snapshots: usize,
    /// Catalog slots (0 without a request plane).
    slots: usize,
}

impl Event {
    /// Walks this event (its [`Event::obs_idx`] as the variant tag, then
    /// the payload); ids past `b` are rejected.
    fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
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

#[derive(Debug)]
struct NodeState {
    content: SnapshotId,
    /// Highest version this node has been told is newer than its content.
    known_stale: Option<SnapshotId>,
    /// Algorithm 1 state (self-adaptive nodes only).
    mode: AdaptiveMode,
    /// An on-demand fetch to the upstream is in flight.
    fetch_pending: bool,
    /// Poll-timer generation; stale timer events are ignored.
    timer_gen: u64,
    /// On-demand fetch identifier; stale fetch timeouts are ignored.
    fetch_token: u64,
    /// Whether the node is currently failed/overloaded.
    absent: bool,
    /// Provider-side publish instant of the current content (carried on
    /// update messages — the Last-Modified analogue).
    content_modified_at: SimTime,
    /// Adaptive-TTL state: the current poll interval estimate, seconds.
    adaptive_interval_s: f64,
    /// Downstream nodes whose on-demand polls wait on our fetch.
    waiting_children: Vec<NodeId>,
    /// Users whose visits wait on our fetch.
    waiting_users: Vec<u32>,
    /// Downstream self-adaptive nodes currently in invalidation mode.
    inval_registry: Vec<NodeId>,
    /// Highest version we already invalidated our children for.
    last_invalidated: SnapshotId,
    /// Publishes not yet adopted, for lag accounting.
    pending_pubs: VecDeque<(SnapshotId, SimTime)>,
    lag: OnlineStats,
    /// Causal trace context of the current content (terminal adopt span, or
    /// the publish root on the provider). Observation-only.
    content_ctx: TraceCtx,
    /// When the failure detector's outstanding probe was sent (`None` when
    /// no probe is in flight). Only used under a [`FaultPlan`].
    awaiting_probe: Option<SimTime>,
    /// Probe-chain generation; stale probe events are ignored.
    probe_gen: u64,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            content: SnapshotId(0),
            known_stale: None,
            mode: AdaptiveMode::Ttl,
            fetch_pending: false,
            timer_gen: 0,
            fetch_token: 0,
            absent: false,
            content_modified_at: SimTime::ZERO,
            adaptive_interval_s: 0.0,
            waiting_children: Vec::new(),
            waiting_users: Vec::new(),
            inval_registry: Vec::new(),
            last_invalidated: SnapshotId(0),
            pending_pubs: VecDeque::new(),
            lag: OnlineStats::new(),
            content_ctx: TraceCtx::NONE,
            awaiting_probe: None,
            probe_gen: 0,
        }
    }

    fn is_stale(&self) -> bool {
        self.known_stale.is_some_and(|s| s > self.content)
    }

    /// Estimated resident size of this node's state: the struct itself plus
    /// the heap blocks behind its collections (capacity, not length — what
    /// the allocator actually holds).
    fn estimated_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.waiting_children.capacity() * std::mem::size_of::<NodeId>()
            + self.waiting_users.capacity() * std::mem::size_of::<u32>()
            + self.inval_registry.capacity() * std::mem::size_of::<NodeId>()
            + self.pending_pubs.capacity() * std::mem::size_of::<(SnapshotId, SimTime)>())
            as u64
    }

    /// Walks this node's protocol state. The trace context is
    /// observation-only: it is not stored and reads back as
    /// [`TraceCtx::NONE`].
    fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        c.index("n_content", &mut self.content.0, b.snapshots)?;
        let mut stale = self.known_stale.map_or(0, |s| u64::from(s.0) + 1);
        c.u64("n_known_stale", &mut stale)?;
        self.known_stale = match stale {
            0 => None,
            s => match u32::try_from(s - 1) {
                Ok(id) if (id as usize) < b.snapshots => Some(SnapshotId(id)),
                _ => return Err(CkptError(format!("n_known_stale={s} is not a snapshot"))),
            },
        };
        let mut inval = matches!(self.mode, AdaptiveMode::Invalidation);
        c.bool("n_mode_inval", &mut inval)?;
        self.mode = if inval { AdaptiveMode::Invalidation } else { AdaptiveMode::Ttl };
        c.bool("n_fetch_pending", &mut self.fetch_pending)?;
        c.u64("n_timer_gen", &mut self.timer_gen)?;
        c.u64("n_fetch_token", &mut self.fetch_token)?;
        c.bool("n_absent", &mut self.absent)?;
        c.time("n_modified_at", &mut self.content_modified_at)?;
        c.f64("n_adaptive_s", &mut self.adaptive_interval_s)?;
        c.seq("n_waiting_children", &mut self.waiting_children, |kid, c| {
            c.index("n_wc", &mut kid.0, b.nodes)
        })?;
        c.seq("n_waiting_users", &mut self.waiting_users, |u, c| c.index("n_wu", u, b.users))?;
        c.seq("n_inval_registry", &mut self.inval_registry, |kid, c| {
            c.index("n_ir", &mut kid.0, b.nodes)
        })?;
        c.index("n_last_invalidated", &mut self.last_invalidated.0, b.snapshots)?;
        c.seq("n_pending_pubs", &mut self.pending_pubs, |(snap, t), c| {
            c.index("n_pp_snap", &mut snap.0, b.snapshots)?;
            c.time("n_pp_t", t)
        })?;
        self.lag.persist(c, ["n_lag_count", "n_lag_mean", "n_lag_m2", "n_lag_min", "n_lag_max"])?;
        if c.is_reading() {
            self.content_ctx = TraceCtx::NONE;
        }
        let mut probe_wait = self.awaiting_probe.is_some();
        let mut probe_t = self.awaiting_probe.unwrap_or(SimTime::ZERO);
        c.bool("n_probe_wait", &mut probe_wait)?;
        c.time("n_probe_t", &mut probe_t)?;
        self.awaiting_probe = probe_wait.then_some(probe_t);
        c.u64("n_probe_gen", &mut self.probe_gen)
    }
}

#[derive(Debug)]
struct UserState {
    home: NodeId,
    last_server: NodeId,
    /// This user's visit interval (heterogeneous when
    /// `SimConfig::visit_spread > 0`).
    visit_interval: SimDuration,
    seen_max: SnapshotId,
    pending_pubs: VecDeque<(SnapshotId, SimTime)>,
    lag: OnlineStats,
    inconsistent_obs: u64,
    total_obs: u64,
}

impl UserState {
    /// Estimated resident size, like [`NodeState::estimated_bytes`].
    fn estimated_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.pending_pubs.capacity() * std::mem::size_of::<(SnapshotId, SimTime)>())
            as u64
    }

    /// Walks this user's observation state (home server and visit interval
    /// are derived from the configuration, not stored).
    fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        c.index("u_last_server", &mut self.last_server.0, b.nodes)?;
        c.index("u_seen_max", &mut self.seen_max.0, b.snapshots)?;
        c.seq("u_pending_pubs", &mut self.pending_pubs, |(snap, t), c| {
            c.index("u_pp_snap", &mut snap.0, b.snapshots)?;
            c.time("u_pp_t", t)
        })?;
        self.lag.persist(c, ["u_lag_count", "u_lag_mean", "u_lag_m2", "u_lag_min", "u_lag_max"])?;
        c.u64("u_inconsistent", &mut self.inconsistent_obs)?;
        c.u64("u_total", &mut self.total_obs)
    }
}

/// Pre-grabbed instrumentation handles for the simulator's hot paths.
///
/// Handles are resolved once at construction so the per-event cost with a
/// disabled registry is a single branch, and label lookup never happens
/// inside the event loop. Everything here is observation-only: no handler
/// ever reads a metric back.
struct SimObs {
    registry: Registry,
    /// Messages sent, by class — indexed by `PacketKind as usize`.
    msgs: [Counter; PACKET_KINDS],
    /// Event-loop dispatches, by event kind.
    ev_publish: Counter,
    ev_poll_timer: Counter,
    ev_arrive: Counter,
    ev_user_visit: Counter,
    ev_fail: Counter,
    ev_recover: Counter,
    ev_fetch_timeout: Counter,
    ev_heartbeat: Counter,
    ev_retransmit: Counter,
    ev_probe: Counter,
    ev_request: Counter,
    ev_fill: Counter,
    ev_churn: Counter,
    ev_node_leave: Counter,
    ev_node_crash: Counter,
    ev_node_join: Counter,
    /// Algorithm 1 transitions (paper lines 7–8 and 12–13).
    switch_to_invalidation: Counter,
    switch_to_ttl: Counter,
    /// §5.2 failure repair: orphans re-parented after a member failed, and
    /// recovered members re-joining the tree.
    orphan_reattach: Counter,
    tree_rejoin: Counter,
    /// Publish→adopt latency per update method, indexed like
    /// [`MethodKind::ALL`]; the last slot catches method-less nodes.
    adopt_lag: [Histogram; 6],
    /// Messages sent but not yet arrived, by class — indexed like `msgs`.
    inflight: [Gauge; PACKET_KINDS],
    /// Server replicas currently holding content they know is stale
    /// (invalidation received, refresh not yet adopted).
    stale_replicas: Gauge,
    /// Published-but-unadopted updates across servers, per method —
    /// indexed like `adopt_lag` — plus one gauge for end users.
    pending_updates: [Gauge; 6],
    pending_user_updates: Gauge,
    /// Self-adaptive nodes currently in invalidation mode (Algorithm 1
    /// mode occupancy).
    inval_mode_nodes: Gauge,
    /// Fault-plane protocol instruments (all zero when no plan is attached,
    /// except `msgs_lost_to_failed` which also counts under plain failure
    /// injection).
    rtx_sent: Counter,
    rtx_abandoned: Counter,
    dup_suppressed: Counter,
    upstream_suspects: Counter,
    failovers: Counter,
    ttl_fallbacks: Counter,
    msgs_lost_to_failed: Counter,
    convergence_violations: Counter,
    /// Tracked deliveries abandoned immediately because their destination
    /// departed (lifecycle churn; subset of `rtx_abandoned`).
    abandoned_to_departed: Counter,
    /// Tracked deliveries currently awaiting an ack.
    pending_retransmits: Gauge,
    /// Request-plane (workload) instruments — all dark without a
    /// [`WorkloadPlan`].
    wl_requests: Counter,
    wl_hits: Counter,
    wl_delayed_hits: Counter,
    wl_misses: Counter,
    wl_evictions: Counter,
    wl_origin_fetches: Counter,
    wl_churn_events: Counter,
    /// Delayed-hit waiters released as misses because their edge departed
    /// mid-fetch, and origin-fetch payloads dropped at a departed edge
    /// (lifecycle-churn runs only).
    wl_waiters_aborted: Counter,
    wl_orphan_fills: Counter,
    /// User-perceived request latency and staleness-served distributions,
    /// seconds (request-plane runs only).
    wl_latency_s: Histogram,
    wl_staleness_served_s: Histogram,
    /// Structural profiling probes, armed only when the registry has
    /// profiling enabled: per-node / per-user resident state-size estimates,
    /// one sample each at the end of the run.
    node_state_bytes: Histogram,
    user_state_bytes: Histogram,
    /// Causal update tracer (inert unless enabled on the registry).
    tracer: Tracer,
    /// Per-event-kind dispatch timers, indexed by [`Event::obs_idx`] —
    /// wall-clock handler cost where the scheduler hands events to the
    /// run loop (timeprof gate; inert unless armed).
    ev_timers: [HandlerTimer; 16],
    /// Per-message-kind dispatch timers for `on_arrive`, indexed by
    /// [`SimObs::msg_timer_idx`] (same gate).
    msg_timers: [HandlerTimer; 10],
    /// Determinism audit chain (inert unless the registry armed it): one
    /// fold per dispatched event, keyed on structural identity only.
    digest: Digest,
}

impl SimObs {
    fn new(registry: &Registry) -> Self {
        let msg_names = [
            "sim_msgs_update",
            "sim_msgs_poll",
            "sim_msgs_poll_unchanged",
            "sim_msgs_invalidation",
            "sim_msgs_method_switch",
            "sim_msgs_tree_maintenance",
            "sim_msgs_user_request",
            "sim_msgs_user_response",
            "sim_msgs_ack",
            "sim_msgs_origin_fetch",
        ];
        let adopt_names = [
            "sim_adopt_lag_s_push",
            "sim_adopt_lag_s_invalidation",
            "sim_adopt_lag_s_ttl",
            "sim_adopt_lag_s_self_adaptive",
            "sim_adopt_lag_s_adaptive_ttl",
            "sim_adopt_lag_s_other",
        ];
        let inflight_names = [
            "sim_inflight_update",
            "sim_inflight_poll",
            "sim_inflight_poll_unchanged",
            "sim_inflight_invalidation",
            "sim_inflight_method_switch",
            "sim_inflight_tree_maintenance",
            "sim_inflight_user_request",
            "sim_inflight_user_response",
            "sim_inflight_ack",
            "sim_inflight_origin_fetch",
        ];
        let pending_names = [
            "sim_pending_updates_push",
            "sim_pending_updates_invalidation",
            "sim_pending_updates_ttl",
            "sim_pending_updates_self_adaptive",
            "sim_pending_updates_adaptive_ttl",
            "sim_pending_updates_other",
        ];
        // Series sources (no-ops unless series sampling is enabled): the
        // per-class message counters become traffic-rate series; the
        // consistency gauges are sampled directly.
        for name in msg_names {
            registry.series_rate(name);
        }
        for name in inflight_names {
            registry.series_gauge(name);
        }
        for name in pending_names {
            registry.series_gauge(name);
        }
        registry.series_gauge("sim_stale_replicas");
        registry.series_gauge("sim_pending_updates_users");
        registry.series_gauge("sim_mode_invalidation_nodes");
        registry.series_gauge("sim_pending_retransmits");
        registry.series_rate("wl_requests");
        registry.series_rate("wl_misses");
        SimObs {
            registry: registry.clone(),
            msgs: msg_names.map(|n| registry.counter(n)),
            ev_publish: registry.counter("sim_ev_publish"),
            ev_poll_timer: registry.counter("sim_ev_poll_timer"),
            ev_arrive: registry.counter("sim_ev_arrive"),
            ev_user_visit: registry.counter("sim_ev_user_visit"),
            ev_fail: registry.counter("sim_ev_fail"),
            ev_recover: registry.counter("sim_ev_recover"),
            ev_fetch_timeout: registry.counter("sim_ev_fetch_timeout"),
            ev_heartbeat: registry.counter("sim_ev_heartbeat"),
            ev_retransmit: registry.counter("sim_ev_retransmit"),
            ev_probe: registry.counter("sim_ev_probe"),
            ev_request: registry.counter("sim_ev_request"),
            ev_fill: registry.counter("sim_ev_fill"),
            ev_churn: registry.counter("sim_ev_churn"),
            ev_node_leave: registry.counter("sim_ev_node_leave"),
            ev_node_crash: registry.counter("sim_ev_node_crash"),
            ev_node_join: registry.counter("sim_ev_node_join"),
            switch_to_invalidation: registry.counter("sim_switch_to_invalidation"),
            switch_to_ttl: registry.counter("sim_switch_to_ttl"),
            orphan_reattach: registry.counter("sim_orphan_reattach"),
            tree_rejoin: registry.counter("sim_tree_rejoin"),
            adopt_lag: adopt_names.map(|n| registry.histogram(n)),
            inflight: inflight_names.map(|n| registry.gauge(n)),
            stale_replicas: registry.gauge("sim_stale_replicas"),
            pending_updates: pending_names.map(|n| registry.gauge(n)),
            pending_user_updates: registry.gauge("sim_pending_updates_users"),
            inval_mode_nodes: registry.gauge("sim_mode_invalidation_nodes"),
            rtx_sent: registry.counter("sim_rtx_sent"),
            rtx_abandoned: registry.counter("sim_rtx_abandoned"),
            dup_suppressed: registry.counter("sim_dup_suppressed"),
            upstream_suspects: registry.counter("sim_upstream_suspects"),
            failovers: registry.counter("sim_failovers"),
            ttl_fallbacks: registry.counter("sim_ttl_fallbacks"),
            msgs_lost_to_failed: registry.counter("sim_msgs_lost_to_failed"),
            convergence_violations: registry.counter("sim_convergence_violations"),
            abandoned_to_departed: registry.counter("sim_abandoned_to_departed"),
            pending_retransmits: registry.gauge("sim_pending_retransmits"),
            wl_requests: registry.counter("wl_requests"),
            wl_hits: registry.counter("wl_hits"),
            wl_delayed_hits: registry.counter("wl_delayed_hits"),
            wl_misses: registry.counter("wl_misses"),
            wl_evictions: registry.counter("wl_evictions"),
            wl_origin_fetches: registry.counter("wl_origin_fetches"),
            wl_churn_events: registry.counter("wl_churn_events"),
            wl_waiters_aborted: registry.counter("wl_waiters_aborted"),
            wl_orphan_fills: registry.counter("wl_orphan_fills"),
            wl_latency_s: registry.histogram("wl_latency_s"),
            wl_staleness_served_s: registry.histogram("wl_staleness_served_s"),
            node_state_bytes: if registry.profiling_enabled() {
                registry.histogram("sim_node_state_bytes")
            } else {
                Histogram::default()
            },
            user_state_bytes: if registry.profiling_enabled() {
                registry.histogram("sim_user_state_bytes")
            } else {
                Histogram::default()
            },
            tracer: registry.tracer(),
            ev_timers: EVENT_TIMER_LABELS.map(|n| registry.handler_timer(n)),
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
    fn fold_event(&self, now: SimTime, ev: &Event) {
        if !self.digest.is_enabled() {
            return;
        }
        let t = now.as_micros();
        let d = &self.digest;
        match ev {
            Event::Publish(idx) => d.fold("ev_publish", 0, t, &[u64::from(*idx)]),
            Event::PollTimer(node, gen) => d.fold("ev_poll_timer", node.0, t, &[*gen]),
            Event::Arrive(node, msg) => {
                d.fold("ev_arrive", node.0, t, &[msg.kind() as u64, msg.digest_tag()]);
            }
            Event::UserVisit(u) => d.fold("ev_user_visit", *u, t, &[]),
            Event::Fail(node) => d.fold("ev_fail", node.0, t, &[]),
            Event::Recover(node) => d.fold("ev_recover", node.0, t, &[]),
            Event::FetchTimeout(node, token) => d.fold("ev_fetch_timeout", node.0, t, &[*token]),
            Event::Heartbeat(node, gen) => d.fold("ev_heartbeat", node.0, t, &[*gen]),
            Event::Retransmit(id, attempt) => {
                d.fold("ev_retransmit", 0, t, &[*id, u64::from(*attempt)]);
            }
            Event::Probe(node, gen) => d.fold("ev_probe", node.0, t, &[*gen]),
            Event::Request(u) => d.fold("ev_request", *u, t, &[]),
            Event::Fill(edge, id, snap) => {
                let obj = (u64::from(id.slot) << 32) | u64::from(id.gen);
                d.fold("ev_fill", edge.0, t, &[obj, u64::from(*snap)]);
            }
            Event::Churn => d.fold("ev_churn", 0, t, &[]),
            Event::NodeLeave(node) => d.fold("ev_node_leave", node.0, t, &[]),
            Event::NodeCrash(node) => d.fold("ev_node_crash", node.0, t, &[]),
            Event::NodeJoin(node) => d.fold("ev_node_join", node.0, t, &[]),
        }
    }

    fn msg(&self, kind: PacketKind) -> &Counter {
        &self.msgs[kind as usize]
    }

    /// The dispatch-timer slot for an arriving message: its wire class,
    /// except tracked envelopes get their own slot (their payload recurses
    /// through `on_arrive` and is timed under its own kind).
    fn msg_timer_idx(msg: &Msg) -> usize {
        match msg {
            Msg::Tracked { .. } => 9,
            m => m.kind() as usize,
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
    fn adopt_lag(&self, method: Option<MethodKind>) -> &Histogram {
        &self.adopt_lag[Self::method_slot(method)]
    }

    /// The pending-update gauge for a node running `method`.
    fn pending(&self, method: Option<MethodKind>) -> &Gauge {
        &self.pending_updates[Self::method_slot(method)]
    }
}

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
struct ReliableState {
    plan: FaultPlan,
    next_id: u64,
    pending: BTreeMap<u64, PendingDelivery>,
    /// Per-node set of tracked ids already handled (duplicate suppression).
    seen: Vec<BTreeSet<u64>>,
    /// Dedicated stream for backoff jitter (forked only in fault mode, so
    /// `faults: None` runs keep their pre-existing stream layout).
    jitter_rng: SimRng,
}

/// HAT cluster bookkeeping for graceful degradation (hybrid schemes under
/// a [`FaultPlan`] with `hat_degradation` on).
#[derive(Debug)]
struct ClusterState {
    /// `cluster_of[node.index()]`: the cluster a server belongs to.
    cluster_of: Vec<Option<usize>>,
    /// The current supernode of each cluster (updated on failover).
    supernode: Vec<NodeId>,
    /// The method demoted supernodes fall back to.
    member_method: MethodKind,
}

impl ClusterState {
    fn from_topology(topo: &Topology, n: usize, member_method: MethodKind) -> Self {
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
}

/// Request-plane state, allocated only when a [`WorkloadPlan`] is
/// attached. Its RNG is a dedicated stream (`seed ^ stream_tag::WORKLOAD`)
/// and every event it schedules is gated on the plan, so `workload: None`
/// runs stay bit-identical to the pre-workload simulator.
#[derive(Debug)]
struct WorkloadState {
    plan: WorkloadPlan,
    catalog: Catalog,
    /// Per-node caches indexed like the network (the provider's slot is
    /// never requested from; full-width indexing keeps lookups branch-free
    /// and allocation deterministic).
    caches: Vec<LruCache>,
    rng: SimRng,
    /// Provider-side publish instant per snapshot id (index =
    /// `SnapshotId.0`; snapshot 0 pre-exists at t = 0).
    pub_times: Vec<SimTime>,
    stats: WorkloadStats,
}

impl WorkloadState {
    /// Omniscient staleness-served, seconds, of a copy filled at provider
    /// snapshot `snap` and served at `now` against provider head `head`:
    /// zero when the copy is current, otherwise the time since the first
    /// publish the copy misses.
    fn staleness_served_s(&self, head: SnapshotId, snap: u32, now: SimTime) -> f64 {
        if SnapshotId(snap) >= head {
            0.0
        } else {
            now.since(self.pub_times[snap as usize + 1]).as_secs_f64()
        }
    }
}

/// Plain counters mirrored into the [`SimReport`] (the obs counters are
/// observation-only and cannot feed results).
#[derive(Debug, Default)]
struct ChaosStats {
    lost_to_failed: u64,
    retransmits: u64,
    abandoned: u64,
    abandoned_to_departed: u64,
    dup_suppressed: u64,
    failovers: u64,
    ttl_fallbacks: u64,
    convergence_violations: u64,
}

/// Node-lifecycle bookkeeping, allocated only when a
/// [`ChurnPlan`](crate::ChurnPlan) is attached.
#[derive(Debug)]
struct LifecycleState {
    /// Why each node is currently down (`None` = up). A `NodeJoin` for a
    /// node with no recorded departure is stale and ignored.
    down_kind: Vec<Option<ChurnKind>>,
    joins: u64,
    leaves: u64,
    crashes: u64,
}

struct CdnSimulation<'a> {
    config: &'a SimConfig,
    net: Network,
    topo: Topology,
    /// The distribution tree for tree-based schemes, kept live so it can be
    /// repaired when members fail.
    tree: Option<crate::tree::DistributionTree>,
    sched: Scheduler<Event>,
    nodes: Vec<NodeState>,
    users: Vec<UserState>,
    rng: SimRng,
    provider_update_messages: u64,
    server_update_messages: u64,
    /// Ack/retransmit machinery (`Some` iff `config.faults` is).
    reliable: Option<ReliableState>,
    /// HAT failover bookkeeping (`Some` only for hybrid runs with
    /// `hat_degradation`).
    clusters: Option<ClusterState>,
    /// Request-plane machinery (`Some` iff `config.workload` is).
    workload: Option<WorkloadState>,
    /// Node-lifecycle machinery (`Some` iff `config.churn` is).
    lifecycle: Option<LifecycleState>,
    chaos: ChaosStats,
    obs: SimObs,
}

impl<'a> CdnSimulation<'a> {
    fn new(config: &'a SimConfig, registry: &Registry) -> Self {
        assert!(config.servers > 0, "need at least one content server");
        let world = WorldBuilder::new(config.servers).seed(config.seed ^ stream_tag::WORLD).build();
        let mut net = Network::new(config.network, config.seed ^ stream_tag::NET);
        net.set_obs(registry);
        // Node 0 is the provider; its ISP is shared with the nearest server's
        // ISP so the Atlanta metro is intra-ISP, like the measured CDN.
        let provider_isp = world
            .nodes()
            .iter()
            .min_by(|a, b| {
                a.location
                    .distance_km(&world.provider_location())
                    .partial_cmp(&b.location.distance_km(&world.provider_location()))
                    .expect("finite")
            })
            .map(|n| n.isp)
            .unwrap_or(IspId(0));
        net.add_node(world.provider_location(), provider_isp);
        for n in world.nodes() {
            net.add_node(n.location, n.isp);
        }
        let mut rng = SimRng::seed_from_u64(config.seed ^ stream_tag::SIM);
        let (topo, tree) = Topology::build_with_tree(&config.scheme, &net, &mut rng.fork());

        let nodes: Vec<NodeState> = (0..net.len()).map(|_| NodeState::new()).collect();
        let mut user_rng = rng.fork();
        let users: Vec<UserState> = (0..config.users())
            .map(|u| {
                let home = topo.servers[u / config.users_per_server.max(1)];
                let visit_interval = if config.visit_spread > 0.0 {
                    let hi = 1.0 + config.visit_spread;
                    // Log-uniform factor in [1/hi, hi].
                    let factor = hi.powf(user_rng.uniform_range(-1.0, 1.0));
                    config.user_ttl.mul_f64(factor)
                } else {
                    config.user_ttl
                };
                UserState {
                    home,
                    last_server: home,
                    visit_interval,
                    seen_max: SnapshotId(0),
                    pending_pubs: VecDeque::new(),
                    lag: OnlineStats::new(),
                    inconsistent_obs: 0,
                    total_obs: 0,
                }
            })
            .collect();

        let mut sched = Scheduler::with_horizon(config.horizon());
        sched.set_obs(registry);
        // Publishes: snapshot 0 pre-exists everywhere; 1.. are events.
        for (id, t) in config.updates.iter().skip(1) {
            sched.schedule_at(
                SimTime::ZERO + config.update_start + t.since(SimTime::ZERO),
                Event::Publish(id.0),
            );
        }
        // Poll timers for polling servers, at random phases.
        for &s in &topo.servers {
            if topo.method_of(s).is_some_and(MethodKind::polls) {
                let phase = SimDuration::from_secs_f64(
                    rng.uniform_range(0.0, config.server_ttl.as_secs_f64().max(1e-6)),
                );
                sched.schedule_at(SimTime::ZERO + phase, Event::PollTimer(s, 0));
            }
        }
        // User visit starts.
        for u in 0..users.len() as u32 {
            let start = SimDuration::from_secs_f64(
                rng.uniform_range(0.0, config.user_start_window.as_secs_f64().max(1e-6)),
            );
            sched.schedule_at(SimTime::ZERO + start, Event::UserVisit(u));
        }
        // Failure injection: pre-schedule fail/recover pairs per server.
        // Failures stop early enough that every server recovers and
        // re-synchronises before the horizon — otherwise "still failed at
        // the end" would masquerade as undelivered updates.
        if let Some(failures) = &config.failures {
            let settle =
                SimDuration::from_secs_f64(failures.absence.max_len_s) + SimDuration::from_secs(60);
            let failure_horizon = SimTime::from_micros(
                config.horizon().as_micros().saturating_sub(settle.as_micros()),
            );
            let schedule = cdnc_net::AbsenceSchedule::generate(
                topo.servers.len(),
                failure_horizon,
                &failures.absence,
                &mut rng.fork(),
            );
            for (i, &s) in topo.servers.iter().enumerate() {
                for &(start, end) in schedule.intervals(i) {
                    sched.schedule_at(start, Event::Fail(s));
                    sched.schedule_at(end, Event::Recover(s));
                }
            }
        }
        // Chaos plan: the forks below extend — never reorder — the stream
        // layout above, so `faults: None` runs stay bit-identical to the
        // pre-fault-plane simulator.
        let mut reliable = None;
        let mut clusters = None;
        if let Some(plan) = &config.faults {
            plan.faults.validate();
            let mut plane =
                FaultPlane::new(plan.faults.clone(), config.seed ^ stream_tag::FAULT, net.len());
            // Fence every fault `settle` before the horizon so the
            // convergence invariant has a quiet tail to settle in.
            plane.set_active_until(SimTime::from_micros(
                config.horizon().as_micros().saturating_sub(plan.settle.as_micros()),
            ));
            net.set_fault_plane(plane);
            let mut fault_rng = rng.fork();
            // Failure-detector probe chains, one per server, at random
            // phases (like poll timers) to avoid synchronised probe bursts.
            for &s in &topo.servers {
                let phase = SimDuration::from_secs_f64(
                    fault_rng.uniform_range(0.0, plan.probe_interval.as_secs_f64().max(1e-6)),
                );
                sched.schedule_at(SimTime::ZERO + phase, Event::Probe(s, 0));
            }
            reliable = Some(ReliableState {
                plan: plan.clone(),
                next_id: 0,
                pending: BTreeMap::new(),
                seen: vec![BTreeSet::new(); net.len()],
                jitter_rng: fault_rng.fork(),
            });
            if plan.hat_degradation {
                if let Scheme::Hybrid { member_method, .. } = config.scheme {
                    clusters = Some(ClusterState::from_topology(&topo, net.len(), member_method));
                }
            }
        }
        // Request plane: a dedicated stream (`seed ^ WORKLOAD`) and
        // plan-gated scheduling, so `workload: None` runs keep the exact
        // stream layout and event sequence of the pre-workload simulator.
        let mut workload = None;
        if let Some(plan) = &config.workload {
            let mut wl_rng = SimRng::seed_from_u64(config.seed ^ stream_tag::WORKLOAD);
            let catalog = Catalog::new(plan.catalog_size, plan.zipf_s, plan.live_slots());
            let caches: Vec<LruCache> = (0..net.len())
                .map(|_| LruCache::new(plan.cache_capacity, plan.mad_eviction))
                .collect();
            // Poisson arrivals: each user's first request, then the chain
            // re-arms itself; ditto the catalog churn process.
            if plan.request_rate_hz > 0.0 {
                for u in 0..users.len() as u32 {
                    let start =
                        SimDuration::from_secs_f64(wl_rng.exponential(plan.request_rate_hz));
                    sched.schedule_at(SimTime::ZERO + start, Event::Request(u));
                }
            }
            if plan.churn_rate_hz > 0.0 {
                let first = SimDuration::from_secs_f64(wl_rng.exponential(plan.churn_rate_hz));
                sched.schedule_at(SimTime::ZERO + first, Event::Churn);
            }
            // The provider-side publish schedule, for omniscient staleness
            // accounting (mirrors the Publish events armed above).
            let mut pub_times = vec![SimTime::ZERO; config.updates.len()];
            for (id, t) in config.updates.iter().skip(1) {
                pub_times[id.0 as usize] =
                    SimTime::ZERO + config.update_start + t.since(SimTime::ZERO);
            }
            workload = Some(WorkloadState {
                plan: plan.clone(),
                catalog,
                caches,
                rng: wl_rng,
                pub_times,
                stats: WorkloadStats::default(),
            });
        }
        // Node-lifecycle churn: a dedicated stream (`seed ^ CHURN`) and
        // plan-gated scheduling, so `churn: None` runs stay bit-identical
        // to the pre-lifecycle simulator. All departures are pre-expanded
        // here (like failure injection) so the event sequence is a pure
        // function of the configuration.
        let mut lifecycle = None;
        if let Some(plan) = &config.churn {
            let mut churn_rng = SimRng::seed_from_u64(config.seed ^ stream_tag::CHURN);
            // Fence every cycle `settle` before the horizon so the run has
            // a quiet tail to reconverge in (mirrors the fault-plan fence).
            let fence = SimTime::from_micros(
                config.horizon().as_micros().saturating_sub(plan.settle.as_micros()),
            );
            let span_s = fence.since(SimTime::ZERO).as_secs_f64();
            for &s in &topo.servers {
                // Fork unconditionally so each server's sub-stream is
                // independent of other servers' draws (stream-stable under
                // plan parameter changes).
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
                    // Depart in the first half of the cycle's window so even
                    // a long downtime draw fits before the next cycle.
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
            // Deterministic scheduled events (e.g. a supernode kill) ride on
            // top of the stochastic plan.
            for ev in &plan.scheduled {
                let node = match ev.target {
                    ChurnTarget::Server(k) => topo.servers[k % topo.servers.len()],
                    ChurnTarget::Supernode(k) => {
                        if topo.supernodes.is_empty() {
                            topo.servers[k % topo.servers.len()]
                        } else {
                            topo.supernodes[k % topo.supernodes.len()]
                        }
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
            lifecycle = Some(LifecycleState {
                down_kind: vec![None; net.len()],
                joins: 0,
                leaves: 0,
                crashes: 0,
            });
        }

        CdnSimulation {
            config,
            net,
            topo,
            tree,
            sched,
            nodes,
            users,
            rng,
            provider_update_messages: 0,
            server_update_messages: 0,
            reliable,
            clusters,
            workload,
            lifecycle,
            chaos: ChaosStats::default(),
            obs: SimObs::new(registry),
        }
    }

    fn run(mut self) -> SimReport {
        while self.step() {}
        self.finish()
    }

    /// Runs scheduled events with time ≤ `at` (used by checkpointing to
    /// stop mid-run without consuming the remaining queue).
    fn run_until(&mut self, at: SimTime) {
        while self.sched.peek_time().is_some_and(|t| t <= at) {
            if !self.step() {
                break;
            }
        }
    }

    /// Dispatches one scheduled event; `false` when the queue is drained
    /// (or the horizon gate closed).
    fn step(&mut self) -> bool {
        let Some((now, ev)) = self.sched.next() else { return false };
        {
            // Per-event-kind handler timing (observation-only wall clock;
            // one branch when timeprof is off). The guard owns its cell,
            // so the handlers below can borrow `self` mutably.
            let _dispatch = self.obs.ev_timers[ev.obs_idx()].start();
            self.obs.fold_event(now, &ev);
            match ev {
                Event::Publish(idx) => {
                    self.obs.ev_publish.inc();
                    self.on_publish(now, SnapshotId(idx));
                }
                Event::PollTimer(node, gen) => {
                    self.obs.ev_poll_timer.inc();
                    self.on_poll_timer(now, node, gen);
                }
                Event::UserVisit(u) => {
                    self.obs.ev_user_visit.inc();
                    self.on_user_visit(now, u);
                }
                Event::Arrive(node, msg) => {
                    self.obs.ev_arrive.inc();
                    // Delivered or lost, the message leaves the wire.
                    self.obs.inflight[msg.kind() as usize].sub(1);
                    self.net.mark_delivered(msg.kind(), self.packet_kb(msg.kind()));
                    // Messages to a failed node are lost (the silent-loss
                    // class the fault plane's retransmits exist to cover).
                    if self.nodes[node.index()].absent {
                        self.chaos.lost_to_failed += 1;
                        self.obs.msgs_lost_to_failed.inc();
                        self.obs.tracer.lost(msg.trace_ctx(), node.index() as u32, now.as_micros());
                    } else {
                        self.on_arrive(now, node, msg);
                    }
                }
                Event::Fail(node) => {
                    self.obs.ev_fail.inc();
                    self.on_fail(now, node);
                }
                Event::Recover(node) => {
                    self.obs.ev_recover.inc();
                    self.on_recover(now, node);
                }
                Event::FetchTimeout(node, token) => {
                    self.obs.ev_fetch_timeout.inc();
                    let state = &mut self.nodes[node.index()];
                    if state.fetch_pending && state.fetch_token == token {
                        // The upstream died mid-request; give up so the next
                        // visit or poll can retry.
                        state.fetch_pending = false;
                    }
                }
                Event::Heartbeat(node, gen) => {
                    self.obs.ev_heartbeat.inc();
                    self.on_heartbeat(now, node, gen);
                }
                Event::Retransmit(id, attempt) => {
                    self.obs.ev_retransmit.inc();
                    self.on_retransmit(now, id, attempt);
                }
                Event::Probe(node, gen) => {
                    self.obs.ev_probe.inc();
                    self.on_probe(now, node, gen);
                }
                Event::Request(u) => {
                    self.obs.ev_request.inc();
                    self.on_request(now, u);
                }
                Event::Fill(edge, id, snap) => {
                    self.obs.ev_fill.inc();
                    self.on_fill(now, edge, id, snap);
                }
                Event::Churn => {
                    self.obs.ev_churn.inc();
                    self.on_churn(now);
                }
                Event::NodeLeave(node) => {
                    self.obs.ev_node_leave.inc();
                    self.on_node_leave(now, node);
                }
                Event::NodeCrash(node) => {
                    self.obs.ev_node_crash.inc();
                    self.on_node_crash(now, node);
                }
                Event::NodeJoin(node) => {
                    self.obs.ev_node_join.inc();
                    self.on_node_join(now, node);
                }
            }
        }
        true
    }

    /// End-of-run accounting once the queue has drained.
    fn finish(mut self) -> SimReport {
        // Structural profiling probe: per-node / per-user resident state
        // size at quiesce. The handles are dark unless the registry has
        // profiling enabled, so this is one branch per node otherwise.
        for n in &self.nodes {
            self.obs.node_state_bytes.record(n.estimated_bytes() as f64);
        }
        for u in &self.users {
            self.obs.user_state_bytes.record(u.estimated_bytes() as f64);
        }
        self.check_convergence();
        self.into_report()
    }

    /// The convergence invariant, checked once the event queue drains: with
    /// a fault plan attached (all faults fenced `settle` before the
    /// horizon), every present replica must have caught up with the
    /// provider's head version. Violations are counted and, when tracing,
    /// dumped as `Lost` spans labelled `convergence` so the flight recorder
    /// classifies them separately from in-flight losses.
    fn check_convergence(&mut self) {
        if self.reliable.is_none() {
            return;
        }
        let head = self.nodes[self.topo.provider.index()].content;
        let head_ctx = self.nodes[self.topo.provider.index()].content_ctx;
        let horizon_us = self.config.horizon().as_micros();
        let mut violations = 0u64;
        for &s in &self.topo.servers {
            let state = &self.nodes[s.index()];
            if state.absent || self.net.is_departed(s) || state.content >= head {
                continue;
            }
            violations += 1;
            self.obs.convergence_violations.inc();
            self.obs.tracer.child(
                head_ctx,
                SpanKind::Lost,
                s.index() as u32,
                horizon_us,
                "convergence",
            );
            self.obs.registry.event(Level::Warn, "convergence_violation", || {
                cdnc_obs::Json::obj()
                    .field("node", s.index())
                    .field("have", state.content.0)
                    .field("head", head.0)
            });
        }
        self.chaos.convergence_violations = violations;
    }

    // --- message transport -------------------------------------------------

    /// Wire size of a packet of `kind`, KB (updates carry content; every
    /// other message is light).
    fn packet_kb(&self, kind: PacketKind) -> f64 {
        match kind {
            PacketKind::Update => self.config.update_packet_kb,
            _ => 1.0,
        }
    }

    fn send(&mut self, now: SimTime, src: NodeId, dst: NodeId, msg: Msg) {
        // A failed node sends nothing.
        if self.nodes[src.index()].absent {
            return;
        }
        let kind = msg.kind();
        let size = self.packet_kb(kind);
        if kind == PacketKind::Update {
            self.server_update_messages += 1;
            if src == self.topo.provider {
                self.provider_update_messages += 1;
            }
        }
        self.obs.msg(kind).inc();
        let packet = Packet::new(kind, size, src, dst);
        if self.net.fault_plane().is_some() {
            // Fault mode: the plane may drop, duplicate, delay, or deliver —
            // one Arrive per surviving copy. Traffic is still charged once
            // per send (drops waste the wire like real packets do).
            let deliveries = self.net.send_faulted(now, &packet, msg.trace_ctx());
            self.obs.inflight[kind as usize].add(deliveries.len() as u64);
            for (arrival, hop) in deliveries {
                let mut copy = msg.clone();
                copy.set_ctx(hop);
                self.sched.schedule_at(arrival, Event::Arrive(dst, copy));
            }
        } else {
            self.obs.inflight[kind as usize].add(1);
            // Content-carrying and invalidation messages extend their
            // update's causal trace with a hop span; the receiver continues
            // from it.
            let (arrival, hop) = self.net.send_traced(now, &packet, msg.trace_ctx());
            let mut msg = msg;
            msg.set_ctx(hop);
            self.sched.schedule_at(arrival, Event::Arrive(dst, msg));
        }
    }

    /// Sends `msg` under ack/retransmit protection when a fault plan is
    /// attached (a plain [`CdnSimulation::send`] otherwise): the payload is
    /// wrapped in a [`Msg::Tracked`] envelope, a pending entry is recorded,
    /// and a retransmit timer armed with jittered exponential backoff.
    fn send_reliable(&mut self, now: SimTime, src: NodeId, dst: NodeId, msg: Msg) {
        if self.reliable.is_none() {
            self.send(now, src, dst, msg);
            return;
        }
        if self.nodes[src.index()].absent {
            return; // mirror send(): a failed node sends nothing
        }
        let (id, rto) = {
            let rel = self.reliable.as_mut().expect("checked above");
            rel.next_id += 1;
            let id = rel.next_id;
            let rto = rel.plan.rto;
            rel.pending
                .insert(id, PendingDelivery { src, dst, msg: msg.clone(), attempts: 0, rto });
            (id, rto)
        };
        self.obs.pending_retransmits.add(1);
        self.send(now, src, dst, Msg::Tracked { id, from: src, inner: Box::new(msg) });
        let wait = self.jittered(rto);
        self.sched.schedule_at(now + wait, Event::Retransmit(id, 0));
    }

    /// `base` scaled by a factor drawn uniformly from
    /// `[1 - jitter, 1 + jitter]` (deterministic: the factor comes from the
    /// fault plan's dedicated stream).
    fn jittered(&mut self, base: SimDuration) -> SimDuration {
        let rel = self.reliable.as_mut().expect("fault mode only");
        let j = rel.plan.jitter;
        if j <= 0.0 {
            return base;
        }
        base.mul_f64(rel.jitter_rng.uniform_range(1.0 - j, 1.0 + j).max(0.0))
    }

    fn on_retransmit(&mut self, now: SimTime, id: u64, attempt: u32) {
        let Some(rel) = self.reliable.as_mut() else { return };
        let Some(p) = rel.pending.get_mut(&id) else {
            return; // acked in the meantime
        };
        if p.attempts != attempt {
            return; // a newer timer owns this delivery
        }
        if self.net.is_departed(p.dst) {
            // The destination *departed* (left the system, not a transient
            // failure window): backing off against it is wasted wire, so
            // the delivery is abandoned immediately. A later rejoin
            // reconverges through its bootstrap resync.
            let p = rel.pending.remove(&id).expect("present");
            self.obs.pending_retransmits.sub(1);
            self.chaos.abandoned += 1;
            self.chaos.abandoned_to_departed += 1;
            self.obs.rtx_abandoned.inc();
            self.obs.abandoned_to_departed.inc();
            self.obs.tracer.child(
                p.msg.trace_ctx(),
                SpanKind::Lost,
                p.dst.index() as u32,
                now.as_micros(),
                "departed",
            );
            return;
        }
        if p.attempts >= rel.plan.max_retransmits {
            // Give up: the delivery is abandoned (it may still converge
            // later through polls, probes, or a recovery resync).
            let p = rel.pending.remove(&id).expect("present");
            self.obs.pending_retransmits.sub(1);
            self.chaos.abandoned += 1;
            self.obs.rtx_abandoned.inc();
            self.obs.tracer.child(
                p.msg.trace_ctx(),
                SpanKind::Lost,
                p.dst.index() as u32,
                now.as_micros(),
                "abandoned",
            );
            return;
        }
        p.attempts += 1;
        p.rto = SimDuration::from_micros(p.rto.as_micros().saturating_mul(2)).min(rel.plan.rto_max);
        let (src, dst, msg, attempts, rto) = (p.src, p.dst, p.msg.clone(), p.attempts, p.rto);
        if self.nodes[src.index()].absent {
            // The sender died with the delivery open; its protocol state
            // dies with it.
            self.reliable.as_mut().expect("fault mode").pending.remove(&id);
            self.obs.pending_retransmits.sub(1);
            return;
        }
        self.chaos.retransmits += 1;
        self.obs.rtx_sent.inc();
        self.send(now, src, dst, Msg::Tracked { id, from: src, inner: Box::new(msg) });
        let wait = self.jittered(rto);
        self.sched.schedule_at(now + wait, Event::Retransmit(id, attempts));
    }

    // --- event handlers ----------------------------------------------------

    fn on_publish(&mut self, now: SimTime, snap: SnapshotId) {
        let provider = self.topo.provider;
        let ctx = self.obs.tracer.publish(
            snap.0,
            provider.index() as u32,
            now.as_micros(),
            self.config.scheme.label(),
        );
        self.nodes[provider.index()].content = snap;
        self.nodes[provider.index()].content_modified_at = now;
        self.nodes[provider.index()].content_ctx = ctx;
        // Lag accounting starts for every server and user.
        for &s in &self.topo.servers {
            self.nodes[s.index()].pending_pubs.push_back((snap, now));
            self.obs.pending(self.topo.method_of(s)).add(1);
        }
        for u in &mut self.users {
            u.pending_pubs.push_back((snap, now));
        }
        self.obs.pending_user_updates.add(self.users.len() as u64);
        self.notify_downstream(now, provider);
    }

    /// After `node`'s content changed (publish or adoption): push to push
    /// children, invalidate invalidation-expecting children.
    fn notify_downstream(&mut self, now: SimTime, node: NodeId) {
        let content = self.nodes[node.index()].content;
        let ctx = self.nodes[node.index()].content_ctx;
        let children: Vec<NodeId> = self.topo.downstream_of(node).to_vec();
        let mut invalidated_any = false;
        for child in children {
            match self.topo.method_of(child) {
                Some(MethodKind::Push) => {
                    let modified_at = self.nodes[node.index()].content_modified_at;
                    self.send_reliable(
                        now,
                        node,
                        child,
                        Msg::Update { snap: content, modified_at, ctx },
                    );
                }
                Some(MethodKind::Invalidation) => {
                    if content > self.nodes[node.index()].last_invalidated {
                        self.send_reliable(now, node, child, Msg::Invalidate(content, ctx));
                        invalidated_any = true;
                    }
                }
                Some(MethodKind::SelfAdaptive) => {
                    if content > self.nodes[node.index()].last_invalidated
                        && self.nodes[node.index()].inval_registry.contains(&child)
                    {
                        self.send_reliable(now, node, child, Msg::Invalidate(content, ctx));
                        invalidated_any = true;
                    }
                }
                Some(MethodKind::Ttl | MethodKind::AdaptiveTtl) | None => {}
            }
        }
        if invalidated_any {
            self.nodes[node.index()].last_invalidated = content;
        }
    }

    fn on_poll_timer(&mut self, now: SimTime, node: NodeId, gen: u64) {
        let method = self.topo.method_of(node);
        let state = &self.nodes[node.index()];
        if gen != state.timer_gen {
            return; // a stale chain
        }
        if method == Some(MethodKind::SelfAdaptive) && state.mode == AdaptiveMode::Invalidation {
            return; // Algorithm 1: no polling in invalidation mode
        }
        if state.absent {
            // Overloaded/failed: skip this poll but keep the chain alive.
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(node, gen));
            return;
        }
        let Some(up) = self.topo.upstream_of(node) else {
            // Detached by a failure upstream; retry after a TTL (repair or
            // recovery will re-wire us).
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(node, gen));
            return;
        };
        let have = state.content;
        let conditional =
            matches!(method, Some(MethodKind::SelfAdaptive | MethodKind::AdaptiveTtl));
        self.send(now, node, up, Msg::Poll { from: node, have, conditional });
        let next = if method == Some(MethodKind::AdaptiveTtl) {
            SimDuration::from_secs_f64(self.adaptive_interval_s(node))
        } else {
            self.config.server_ttl
        };
        self.sched.schedule_at(now + next, Event::PollTimer(node, gen));
    }

    /// The adaptive-TTL poll interval of `node`: half the predicted update
    /// gap, clamped to `[2 s, 8 × server_ttl]`; the configured TTL until a
    /// first prediction exists.
    fn adaptive_interval_s(&self, node: NodeId) -> f64 {
        let state = &self.nodes[node.index()];
        if state.adaptive_interval_s <= 0.0 {
            self.config.server_ttl.as_secs_f64()
        } else {
            state.adaptive_interval_s
        }
    }

    fn on_user_visit(&mut self, now: SimTime, u: u32) {
        let target = if self.config.users_roam {
            // Fig. 24 scenario: every successive visit goes to a different
            // random server.
            let last = self.users[u as usize].last_server;
            let mut pick = self.topo.servers[self.rng.index(self.topo.servers.len())];
            if pick == last && self.topo.servers.len() > 1 {
                let idx = self.topo.servers.iter().position(|&s| s == pick).expect("present");
                pick = self.topo.servers[(idx + 1) % self.topo.servers.len()];
            }
            pick
        } else {
            self.users[u as usize].home
        };
        self.users[u as usize].last_server = target;

        if self.nodes[target.index()].absent {
            // Failed servers still answer from cache, slowly (paper §3.4.5:
            // users acquire cached IPs of failed servers and observe
            // inconsistent content); they cannot fetch on demand.
            let snap = self.nodes[target.index()].content;
            self.observe(u, target, snap, now);
            let interval = self.users[u as usize].visit_interval;
            self.sched.schedule_at(now + interval, Event::UserVisit(u));
            return;
        }

        let method = self.topo.method_of(target);
        let fetch_on_demand = matches!(method, Some(MethodKind::Invalidation))
            || (method == Some(MethodKind::SelfAdaptive)
                && self.nodes[target.index()].mode == AdaptiveMode::Invalidation);
        if fetch_on_demand && self.nodes[target.index()].is_stale() {
            // Algorithm 1 lines 10–12 / plain invalidation: the visit
            // triggers the fetch; the user's response waits for it.
            self.nodes[target.index()].waiting_users.push(u);
            self.trigger_fetch(now, target);
        } else {
            let snap = self.nodes[target.index()].content;
            self.observe(u, target, snap, now);
        }
        let interval = self.users[u as usize].visit_interval;
        self.sched.schedule_at(now + interval, Event::UserVisit(u));
    }

    /// Starts an on-demand fetch from `node` to its upstream, unless one is
    /// already in flight.
    fn trigger_fetch(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].fetch_pending {
            return;
        }
        let Some(up) = self.topo.upstream_of(node) else { return };
        self.nodes[node.index()].fetch_pending = true;
        let have = self.nodes[node.index()].content;
        self.send(now, node, up, Msg::Poll { from: node, have, conditional: true });
        // Under failure injection the upstream may never answer.
        if let Some(failures) = &self.config.failures {
            self.nodes[node.index()].fetch_token += 1;
            let token = self.nodes[node.index()].fetch_token;
            self.sched.schedule_at(now + failures.fetch_timeout, Event::FetchTimeout(node, token));
        }
    }

    // --- request plane (workload) ------------------------------------------

    /// One workload request from user `u`, routed to their current server
    /// (their home, or the last server a roaming visit landed on). A cache
    /// hit serves at zero latency; a request for an object already being
    /// fetched coalesces behind the in-flight fetch (a delayed hit); a miss
    /// starts an origin fetch. A cached *live* object the edge believes
    /// stale — its own consistency state moved past the copy's fill
    /// snapshot, or an invalidation told it newer content exists — is
    /// revalidated: dropped and refetched, counted as a miss.
    fn on_request(&mut self, now: SimTime, u: u32) {
        let Some(mut wl) = self.workload.take() else { return };
        let edge = self.users[u as usize].last_server;
        let id = wl.catalog.sample(&mut wl.rng);
        wl.stats.requests += 1;
        self.obs.wl_requests.inc();
        let live = wl.catalog.is_live(id.slot);
        let mut lookup = wl.caches[edge.index()].request(id, u, now);
        if let Lookup::Hit { snap } = lookup {
            let state = &self.nodes[edge.index()];
            if live && (SnapshotId(snap) < state.content || state.is_stale()) {
                wl.caches[edge.index()].invalidate(id);
                lookup = wl.caches[edge.index()].request(id, u, now);
                debug_assert_eq!(lookup, Lookup::Miss, "revalidation must refetch");
            }
        }
        match lookup {
            Lookup::Hit { snap } => {
                wl.stats.hits += 1;
                self.obs.wl_hits.inc();
                wl.stats.latency_s.push(0.0);
                self.obs.wl_latency_s.record(0.0);
                if live {
                    let head = self.nodes[self.topo.provider.index()].content;
                    let staleness = wl.staleness_served_s(head, snap, now);
                    wl.stats.staleness_served_s.push(staleness);
                    self.obs.wl_staleness_served_s.record(staleness);
                }
            }
            Lookup::Delayed => {
                wl.stats.delayed_hits += 1;
                self.obs.wl_delayed_hits.inc();
            }
            Lookup::Miss => {
                wl.stats.misses += 1;
                wl.stats.origin_fetches += 1;
                self.obs.wl_misses.inc();
                // The origin serves its head version as of fetch issue.
                let snap = self.nodes[self.topo.provider.index()].content.0;
                self.send_origin_fetch(now, edge, id, snap, wl.plan.object_kb);
            }
        }
        let next = SimDuration::from_secs_f64(wl.rng.exponential(wl.plan.request_rate_hz));
        self.sched.schedule_at(now + next, Event::Request(u));
        self.workload = Some(wl);
    }

    /// Issues one origin fetch: an [`PacketKind::OriginFetch`] content
    /// packet from the provider to `edge`, delivered as an [`Event::Fill`].
    /// Origin fetches ride the plain network path even under a fault plane —
    /// the request plane models delivery latency, not loss — so every
    /// waiter queue is guaranteed a releasing fill (or the horizon).
    fn send_origin_fetch(&mut self, now: SimTime, edge: NodeId, id: ObjectId, snap: u32, kb: f64) {
        self.obs.wl_origin_fetches.inc();
        self.obs.msg(PacketKind::OriginFetch).inc();
        self.obs.inflight[PacketKind::OriginFetch as usize].add(1);
        let packet = Packet::origin_fetch(self.topo.provider, edge, kb);
        let (arrival, _hop) = self.net.send_traced(now, &packet, TraceCtx::NONE);
        self.sched.schedule_at(arrival, Event::Fill(edge, id, snap));
    }

    /// An origin fetch lands at `edge`: cache the object and release every
    /// waiter queued behind the fetch — the miss initiator plus its delayed
    /// hits — exactly once, each sampling the user-perceived latency (and,
    /// for live objects, the staleness of the copy they were served).
    fn on_fill(&mut self, now: SimTime, edge: NodeId, id: ObjectId, snap: u32) {
        let Some(mut wl) = self.workload.take() else { return };
        // The fetch leaves the wire here (its delivery event is the fill).
        self.obs.inflight[PacketKind::OriginFetch as usize].sub(1);
        self.net.mark_delivered(PacketKind::OriginFetch, wl.plan.object_kb);
        wl.stats.origin_kb += wl.plan.object_kb;
        if !wl.caches[edge.index()].is_fetching(id) {
            // The edge departed (or crash-restarted cold) while this fetch
            // was in flight; its waiters were already released as aborted
            // misses, so the payload is dropped — but it still crossed the
            // wire, hence the accounting above stays.
            wl.stats.orphan_fills += 1;
            self.obs.wl_orphan_fills.inc();
            self.workload = Some(wl);
            return;
        }
        let (waiters, evicted) = wl.caches[edge.index()].fill(id, snap, now);
        if evicted.is_some() {
            wl.stats.evictions += 1;
            self.obs.wl_evictions.inc();
        }
        let head = self.nodes[self.topo.provider.index()].content;
        let live = wl.catalog.is_live(id.slot);
        for w in waiters {
            let latency = now.since(w.requested_at).as_secs_f64();
            wl.stats.latency_s.push(latency);
            self.obs.wl_latency_s.record(latency);
            if live {
                let staleness = wl.staleness_served_s(head, snap, now);
                wl.stats.staleness_served_s.push(staleness);
                self.obs.wl_staleness_served_s.record(staleness);
            }
        }
        self.workload = Some(wl);
    }

    /// One catalog publish/perish churn event; the process re-arms itself.
    fn on_churn(&mut self, now: SimTime) {
        let Some(mut wl) = self.workload.take() else { return };
        wl.catalog.churn(&mut wl.rng, now);
        wl.stats.churn_events += 1;
        self.obs.wl_churn_events.inc();
        let next = SimDuration::from_secs_f64(wl.rng.exponential(wl.plan.churn_rate_hz));
        self.sched.schedule_at(now + next, Event::Churn);
        self.workload = Some(wl);
    }

    fn on_arrive(&mut self, now: SimTime, node: NodeId, msg: Msg) {
        let _dispatch = self.obs.msg_timers[SimObs::msg_timer_idx(&msg)].start();
        match msg {
            Msg::Update { snap, modified_at, ctx } => {
                self.on_update(now, node, snap, modified_at, ctx)
            }
            Msg::Invalidate(snap, ctx) => self.on_invalidate(now, node, snap, ctx),
            Msg::Poll { from, have, conditional } => {
                self.on_poll(now, node, from, have, conditional)
            }
            Msg::Unchanged => self.on_unchanged(now, node),
            Msg::SwitchMode { from, to_invalidation }
            | Msg::TreeJoin { from, invalidation_mode: to_invalidation } => {
                let reg = &mut self.nodes[node.index()].inval_registry;
                if to_invalidation {
                    if !reg.contains(&from) {
                        reg.push(from);
                    }
                } else {
                    reg.retain(|&c| c != from);
                }
            }
            Msg::Tracked { id, from, inner } => {
                // Always ack — the ack itself may be lost, in which case the
                // sender retransmits and we suppress the duplicate here.
                self.send(now, node, from, Msg::Ack { id });
                let fresh =
                    self.reliable.as_mut().is_none_or(|rel| rel.seen[node.index()].insert(id));
                if fresh {
                    self.on_arrive(now, node, *inner);
                } else {
                    self.chaos.dup_suppressed += 1;
                    self.obs.dup_suppressed.inc();
                    // Terminal for this delivery's hop span.
                    self.obs.tracer.skip(inner.trace_ctx(), node.index() as u32, now.as_micros());
                }
            }
            Msg::Ack { id } => {
                if let Some(rel) = self.reliable.as_mut() {
                    if rel.pending.remove(&id).is_some() {
                        self.obs.pending_retransmits.sub(1);
                    }
                }
            }
        }
    }

    fn on_update(
        &mut self,
        now: SimTime,
        node: NodeId,
        snap: SnapshotId,
        modified_at: SimTime,
        ctx: TraceCtx,
    ) {
        let was_fetching = std::mem::take(&mut self.nodes[node.index()].fetch_pending);
        // Any content response proves the upstream is alive.
        self.nodes[node.index()].awaiting_probe = None;
        let adopted = snap > self.nodes[node.index()].content;
        if adopted {
            let adopt_ctx = self.obs.tracer.adopt(ctx, node.index() as u32, now.as_micros());
            let method = self.topo.method_of(node);
            let adopt_lag = self.obs.adopt_lag(method);
            let pending = self.obs.pending(method);
            let state = &mut self.nodes[node.index()];
            state.content = snap;
            state.content_modified_at = modified_at;
            state.content_ctx = adopt_ctx;
            if state.known_stale.is_some_and(|s| s <= snap) {
                state.known_stale = None;
                self.obs.stale_replicas.sub(1);
            }
            while let Some(&(p, t)) = state.pending_pubs.front() {
                if p > snap {
                    break;
                }
                let lag_s = now.since(t).as_secs_f64();
                state.lag.push(lag_s);
                adopt_lag.record(lag_s);
                pending.sub(1);
                state.pending_pubs.pop_front();
            }
            // Adaptive TTL (Alex protocol): the next poll interval is a
            // fraction of the content's observed age — young content is
            // polled quickly, old content slowly.
            if self.topo.method_of(node) == Some(MethodKind::AdaptiveTtl) {
                let max_s = 8.0 * self.config.server_ttl.as_secs_f64();
                let age_s = now.saturating_since(modified_at).as_secs_f64();
                self.nodes[node.index()].adaptive_interval_s = (0.3 * age_s).clamp(2.0, max_s);
            }
            self.notify_downstream(now, node);
        } else {
            // Superseded or duplicate delivery: terminal, not anomalous.
            self.obs.tracer.skip(ctx, node.index() as u32, now.as_micros());
        }
        // Serve anyone who was waiting on our fetch.
        let waiting_children = std::mem::take(&mut self.nodes[node.index()].waiting_children);
        let content = self.nodes[node.index()].content;
        let modified_at = self.nodes[node.index()].content_modified_at;
        let content_ctx = self.nodes[node.index()].content_ctx;
        for child in waiting_children {
            self.send(
                now,
                node,
                child,
                Msg::Update { snap: content, modified_at, ctx: content_ctx },
            );
        }
        let waiting_users = std::mem::take(&mut self.nodes[node.index()].waiting_users);
        for u in waiting_users {
            self.observe(u, node, content, now);
        }
        // Algorithm 1 line 12–13: the first fetched update after an
        // invalidation switches the node back to TTL.
        if self.topo.method_of(node) == Some(MethodKind::SelfAdaptive)
            && self.nodes[node.index()].mode == AdaptiveMode::Invalidation
            && was_fetching
        {
            self.obs.switch_to_ttl.inc();
            self.obs.tracer.control(
                SpanKind::ModeSwitch,
                node.index() as u32,
                now.as_micros(),
                "to_ttl",
            );
            self.obs.registry.event(Level::Info, "algo1_switch", || {
                cdnc_obs::Json::obj()
                    .field("node", node.index())
                    .field("to", "ttl")
                    .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
            });
            self.obs.inval_mode_nodes.sub(1);
            self.nodes[node.index()].mode = AdaptiveMode::Ttl;
            self.nodes[node.index()].timer_gen += 1;
            let gen = self.nodes[node.index()].timer_gen;
            if let Some(up) = self.topo.upstream_of(node) {
                self.send(now, node, up, Msg::SwitchMode { from: node, to_invalidation: false });
            }
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(node, gen));
        }
    }

    fn on_invalidate(&mut self, now: SimTime, node: NodeId, snap: SnapshotId, ctx: TraceCtx) {
        let fwd_ctx = {
            let newly_stale = snap > self.nodes[node.index()].content;
            if newly_stale {
                // Terminal for this delivery; forwarded notices chain from it.
                self.obs.tracer.stale(ctx, node.index() as u32, now.as_micros())
            } else {
                self.obs.tracer.skip(ctx, node.index() as u32, now.as_micros());
                ctx
            }
        };
        {
            let state = &mut self.nodes[node.index()];
            if snap > state.content {
                if state.known_stale.is_none() {
                    self.obs.stale_replicas.add(1);
                }
                state.known_stale = Some(state.known_stale.map_or(snap, |s| s.max(snap)));
            }
        }
        // Forward immediately to children that expect invalidations.
        let children: Vec<NodeId> = self.topo.downstream_of(node).to_vec();
        let mut forwarded = false;
        for child in children {
            let expects = match self.topo.method_of(child) {
                Some(MethodKind::Invalidation) => true,
                Some(MethodKind::SelfAdaptive) => {
                    self.nodes[node.index()].inval_registry.contains(&child)
                }
                _ => false,
            };
            if expects && snap > self.nodes[node.index()].last_invalidated {
                self.send_reliable(now, node, child, Msg::Invalidate(snap, fwd_ctx));
                forwarded = true;
            }
        }
        if forwarded {
            self.nodes[node.index()].last_invalidated = snap;
        }
    }

    fn on_poll(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        have: SnapshotId,
        conditional: bool,
    ) {
        let content = self.nodes[node.index()].content;
        let modified_at = self.nodes[node.index()].content_modified_at;
        let ctx = self.nodes[node.index()].content_ctx;
        if content > have {
            self.send(now, node, from, Msg::Update { snap: content, modified_at, ctx });
        } else if self.nodes[node.index()].is_stale() {
            // We know we are stale too: chain the fetch upward and answer
            // the child when our own fetch completes.
            self.nodes[node.index()].waiting_children.push(from);
            self.trigger_fetch(now, node);
        } else if conditional {
            self.send(now, node, from, Msg::Unchanged);
        } else {
            // Unconditional GET: full content goes back even when unchanged —
            // the TTL method's wasted traffic.
            self.send(now, node, from, Msg::Update { snap: content, modified_at, ctx });
        }
    }

    fn on_unchanged(&mut self, now: SimTime, node: NodeId) {
        self.nodes[node.index()].fetch_pending = false;
        // An unchanged response proves the upstream is alive.
        self.nodes[node.index()].awaiting_probe = None;
        // Adaptive TTL: nothing new — back off the poll interval.
        if self.topo.method_of(node) == Some(MethodKind::AdaptiveTtl) {
            let max_s = 8.0 * self.config.server_ttl.as_secs_f64();
            let state = &mut self.nodes[node.index()];
            let current = if state.adaptive_interval_s <= 0.0 {
                self.config.server_ttl.as_secs_f64()
            } else {
                state.adaptive_interval_s
            };
            state.adaptive_interval_s = (current * 1.5).min(max_s);
        }
        // Serve waiters with what we have (rare race: our upstream answered
        // "unchanged" while an invalidation was still in flight to it).
        let waiting_children = std::mem::take(&mut self.nodes[node.index()].waiting_children);
        let content = self.nodes[node.index()].content;
        let modified_at = self.nodes[node.index()].content_modified_at;
        let content_ctx = self.nodes[node.index()].content_ctx;
        for child in waiting_children {
            self.send(
                now,
                node,
                child,
                Msg::Update { snap: content, modified_at, ctx: content_ctx },
            );
        }
        let waiting_users = std::mem::take(&mut self.nodes[node.index()].waiting_users);
        for u in waiting_users {
            self.observe(u, node, content, now);
        }
        // Algorithm 1 line 7–8: a poll that found no update switches the
        // node to invalidation mode.
        if self.topo.method_of(node) == Some(MethodKind::SelfAdaptive)
            && self.nodes[node.index()].mode == AdaptiveMode::Ttl
        {
            self.obs.switch_to_invalidation.inc();
            self.obs.tracer.control(
                SpanKind::ModeSwitch,
                node.index() as u32,
                now.as_micros(),
                "to_invalidation",
            );
            self.obs.registry.event(Level::Info, "algo1_switch", || {
                cdnc_obs::Json::obj()
                    .field("node", node.index())
                    .field("to", "invalidation")
                    .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
            });
            self.obs.inval_mode_nodes.add(1);
            self.nodes[node.index()].mode = AdaptiveMode::Invalidation;
            self.nodes[node.index()].timer_gen += 1; // kill the poll chain
            if let Some(up) = self.topo.upstream_of(node) {
                self.send(now, node, up, Msg::SwitchMode { from: node, to_invalidation: true });
            }
            // Under failure injection or a fault plan the switch notice can
            // be lost; keep re-registering until we leave invalidation mode.
            if self.config.failures.is_some() || self.config.faults.is_some() {
                let gen = self.nodes[node.index()].timer_gen;
                self.sched
                    .schedule_at(now + self.config.server_ttl * 5, Event::Heartbeat(node, gen));
            }
        }
    }

    /// Failure-injection safety net: while in invalidation mode, repeat the
    /// registration with the (possibly changed, possibly previously failed)
    /// upstream.
    fn on_heartbeat(&mut self, now: SimTime, node: NodeId, gen: u64) {
        let state = &self.nodes[node.index()];
        if gen != state.timer_gen || state.mode != AdaptiveMode::Invalidation {
            return;
        }
        if !state.absent {
            if let Some(up) = self.topo.upstream_of(node) {
                self.send(now, node, up, Msg::SwitchMode { from: node, to_invalidation: true });
            }
        }
        self.sched.schedule_at(now + self.config.server_ttl * 5, Event::Heartbeat(node, gen));
    }

    /// The fault-plane failure detector (a generalisation of the
    /// invalidation-mode heartbeat to every upstream link): each probe is a
    /// conditional poll, so a successful probe also delivers any content
    /// the node missed; an unanswered probe older than `probe_timeout`
    /// marks the upstream suspect.
    fn on_probe(&mut self, now: SimTime, node: NodeId, gen: u64) {
        let Some(rel) = self.reliable.as_ref() else { return };
        let (interval, timeout) = (rel.plan.probe_interval, rel.plan.probe_timeout);
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
                self.obs.registry.event(Level::Warn, "upstream_suspect", || {
                    cdnc_obs::Json::obj()
                        .field("node", node.index())
                        .field("upstream", up.index())
                        .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
                });
                self.on_upstream_suspect(now, node, up);
            }
            Some(_) => {} // still within the timeout; wait
            None => {
                self.nodes[node.index()].awaiting_probe = Some(now);
                let have = self.nodes[node.index()].content;
                self.send(now, node, up, Msg::Poll { from: node, have, conditional: true });
            }
        }
    }

    /// `node` has declared its upstream `up` suspect. For a HAT cluster
    /// whose supernode is the suspect this triggers failover; otherwise the
    /// node simply re-synchronises (the suspect may be transient loss, and
    /// the probe chain keeps watching).
    fn on_upstream_suspect(&mut self, now: SimTime, node: NodeId, up: NodeId) {
        if let Some(cl) = &self.clusters {
            if let Some(c) = cl.cluster_of[node.index()] {
                if cl.supernode[c] == up && up != self.topo.provider {
                    self.failover(now, c);
                    return;
                }
            }
        }
        self.resync(now, node);
    }

    /// HAT graceful degradation: the cluster's supernode is unreachable, so
    /// the nearest present member is promoted into its distribution-tree
    /// slot, every other member (including the demoted supernode) re-wires
    /// to the promotee, and invalidation-mode members fall back to TTL
    /// polling until Algorithm 1 switches them again.
    fn failover(&mut self, now: SimTime, cluster: usize) {
        let (old, member_method) = {
            let cl = self.clusters.as_ref().expect("failover needs clusters");
            (cl.supernode[cluster], cl.member_method)
        };
        let members: Vec<NodeId> = {
            let cl = self.clusters.as_ref().expect("checked");
            self.topo
                .servers
                .iter()
                .copied()
                .filter(|&s| s != old && cl.cluster_of[s.index()] == Some(cluster))
                .collect()
        };
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
        self.obs.failovers.inc();
        self.obs.tracer.control(
            SpanKind::TreeRepair,
            promoted.index() as u32,
            now.as_micros(),
            "failover",
        );
        self.obs.registry.event(Level::Warn, "hat_failover", || {
            cdnc_obs::Json::obj()
                .field("cluster", cluster)
                .field("old", old.index())
                .field("promoted", promoted.index())
                .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
        });
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
            let locations: Vec<cdnc_geo::GeoPoint> =
                self.net.nodes().iter().map(|n| n.location()).collect();
            tree.join(promoted, |id| locations[id.index()])
        };
        // Topology re-wiring: promotee under its tree parent as a pusher...
        self.topo.rewire(promoted, parent);
        self.topo.method[promoted.index()] = Some(MethodKind::Push);
        if self.nodes[promoted.index()].mode == AdaptiveMode::Invalidation {
            self.obs.inval_mode_nodes.sub(1);
            self.nodes[promoted.index()].mode = AdaptiveMode::Ttl;
        }
        self.nodes[promoted.index()].timer_gen += 1; // pushers do not poll
        self.nodes[promoted.index()].awaiting_probe = None;
        self.nodes[promoted.index()].probe_gen += 1;
        let gen = self.nodes[promoted.index()].probe_gen;
        self.sched.schedule_at(
            now + self.reliable.as_ref().expect("fault mode").plan.probe_interval,
            Event::Probe(promoted, gen),
        );
        for &c in &child_supernodes {
            self.topo.rewire(c, promoted);
        }
        // ...every other member under the promotee...
        for &m in &members {
            if m == promoted {
                continue;
            }
            self.topo.rewire(m, promoted);
            self.nodes[m.index()].awaiting_probe = None;
        }
        // ...and the demoted supernode becomes an ordinary member (it polls
        // the promotee when it returns).
        self.topo.rewire(old, promoted);
        self.topo.method[old.index()] = Some(member_method);
        self.nodes[old.index()].awaiting_probe = None;
        self.nodes[old.index()].timer_gen += 1;
        let old_gen = self.nodes[old.index()].timer_gen;
        if member_method.polls() {
            self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(old, old_gen));
        }
        let pos = self
            .topo
            .supernodes
            .iter()
            .position(|&s| s == old)
            .expect("old supernode is registered");
        self.topo.supernodes[pos] = promoted;
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
        for &m in &members {
            if m == promoted || self.nodes[m.index()].absent {
                continue;
            }
            if self.topo.method_of(m) == Some(MethodKind::SelfAdaptive)
                && self.nodes[m.index()].mode == AdaptiveMode::Invalidation
            {
                self.chaos.ttl_fallbacks += 1;
                self.obs.ttl_fallbacks.inc();
                self.obs.tracer.control(
                    SpanKind::ModeSwitch,
                    m.index() as u32,
                    now.as_micros(),
                    "degrade",
                );
                self.obs.inval_mode_nodes.sub(1);
                self.nodes[m.index()].mode = AdaptiveMode::Ttl;
                self.nodes[m.index()].timer_gen += 1;
                let gen = self.nodes[m.index()].timer_gen;
                self.sched.schedule_at(now + self.config.server_ttl, Event::PollTimer(m, gen));
            }
        }
    }

    /// A server fails: it stops sending/receiving; if it is a distribution-
    /// tree member, its orphaned children re-attach immediately (the paper's
    /// §5.2 repair rule), each re-attachment costing one structure-
    /// maintenance message and a re-synchronising conditional poll.
    fn on_fail(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].absent {
            return;
        }
        self.nodes[node.index()].absent = true;
        // Everything queued on this node is lost.
        self.nodes[node.index()].waiting_children.clear();
        let orphaned_users = std::mem::take(&mut self.nodes[node.index()].waiting_users);
        for u in orphaned_users {
            // The user's request eventually times out against the cached copy.
            let snap = self.nodes[node.index()].content;
            self.observe(u, node, snap, now);
        }
        self.nodes[node.index()].fetch_pending = false;
        self.nodes[node.index()].awaiting_probe = None;
        // Open tracked deliveries FROM the failed node die with its
        // protocol state (deliveries TO it stay pending: retransmits keep
        // trying, and may land after it recovers).
        self.drain_reliable_from(node);
        self.repair_tree_around(now, node);
    }

    /// Drops every open tracked delivery originated by `node` (its
    /// protocol state is gone with it).
    fn drain_reliable_from(&mut self, node: NodeId) {
        if let Some(rel) = &mut self.reliable {
            let mut dropped = 0u64;
            rel.pending.retain(|_, p| {
                if p.src == node {
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
            self.obs.pending_retransmits.sub(dropped);
        }
    }

    /// Removes `node` from the distribution tree (if it is a member) and
    /// re-attaches its orphans, each re-attachment costing one structure-
    /// maintenance message and a re-synchronising conditional poll.
    fn repair_tree_around(&mut self, now: SimTime, node: NodeId) {
        let in_tree = self.tree.as_ref().is_some_and(|t| t.contains(node));
        if in_tree {
            let locations: Vec<cdnc_geo::GeoPoint> =
                self.net.nodes().iter().map(|n| n.location()).collect();
            let moves = self
                .tree
                .as_mut()
                .expect("checked above")
                .remove_and_reattach(node, |id| locations[id.index()]);
            self.topo.detach(node);
            self.obs.registry.event(Level::Warn, "tree_repair", || {
                cdnc_obs::Json::obj()
                    .field("failed", node.index())
                    .field("orphans", moves.len())
                    .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
            });
            for (orphan, new_parent) in moves {
                self.obs.orphan_reattach.inc();
                self.obs.tracer.control(
                    SpanKind::TreeRepair,
                    orphan.index() as u32,
                    now.as_micros(),
                    "reattach",
                );
                self.topo.rewire(orphan, new_parent);
                let invalidation_mode = self.expects_invalidations(orphan);
                self.send(
                    now,
                    orphan,
                    new_parent,
                    Msg::TreeJoin { from: orphan, invalidation_mode },
                );
                self.resync(now, orphan);
            }
        }
    }

    /// A failed server recovers: it re-joins the distribution tree (if any)
    /// and re-synchronises its content with a conditional poll.
    fn on_recover(&mut self, now: SimTime, node: NodeId) {
        if !self.nodes[node.index()].absent {
            return;
        }
        if self.lifecycle.as_ref().is_some_and(|lc| lc.down_kind[node.index()].is_some()) {
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
        if let Some(cl) = &self.clusters {
            if let Some(c) = cl.cluster_of[node.index()] {
                let sn = cl.supernode[c];
                if sn != node {
                    if self.topo.upstream_of(node) != Some(sn) {
                        self.topo.rewire(node, sn);
                    }
                    if self.expects_invalidations(node) {
                        self.send(
                            now,
                            node,
                            sn,
                            Msg::SwitchMode { from: node, to_invalidation: true },
                        );
                    }
                    self.resync(now, node);
                    return;
                }
            }
        }
        if let Some(tree) = self.tree.as_mut() {
            if !tree.contains(node) {
                let locations: Vec<cdnc_geo::GeoPoint> =
                    self.net.nodes().iter().map(|n| n.location()).collect();
                let parent = tree.join(node, |id| locations[id.index()]);
                self.obs.tree_rejoin.inc();
                self.obs.tracer.control(
                    SpanKind::TreeRepair,
                    node.index() as u32,
                    now.as_micros(),
                    "rejoin",
                );
                self.topo.rewire(node, parent);
                let invalidation_mode = self.expects_invalidations(node);
                self.send(now, node, parent, Msg::TreeJoin { from: node, invalidation_mode });
            }
        }
        self.resync(now, node);
    }

    /// `true` if `node` currently needs invalidation notices from its
    /// upstream (plain invalidation, or a self-adaptive node in
    /// invalidation mode).
    fn expects_invalidations(&self, node: NodeId) -> bool {
        match self.topo.method_of(node) {
            Some(MethodKind::Invalidation) => true,
            Some(MethodKind::SelfAdaptive) => {
                self.nodes[node.index()].mode == AdaptiveMode::Invalidation
            }
            _ => false,
        }
    }

    /// Sends a conditional poll to catch any updates missed while detached.
    fn resync(&mut self, now: SimTime, node: NodeId) {
        if let Some(up) = self.topo.upstream_of(node) {
            let have = self.nodes[node.index()].content;
            self.send(now, node, up, Msg::Poll { from: node, have, conditional: true });
        }
    }

    // --- node lifecycle (churn plan) ---------------------------------------

    /// A server departs gracefully: it first hands its waiters off (children
    /// get its current content, queued users observe it), then goes dark,
    /// drains its protocol state, and is removed from the update structure —
    /// via supernode failover when it led a HAT cluster.
    fn on_node_leave(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].absent || self.net.is_departed(node) {
            return;
        }
        let lc = self.lifecycle.as_mut().expect("churn events need a plan");
        lc.leaves += 1;
        lc.down_kind[node.index()] = Some(ChurnKind::Leave);
        self.obs.tracer.control(SpanKind::NodeChurn, node.index() as u32, now.as_micros(), "leave");
        self.obs.registry.event(Level::Info, "node_leave", || {
            cdnc_obs::Json::obj()
                .field("node", node.index())
                .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
        });
        // Graceful hand-off BEFORE going dark (an absent node sends
        // nothing): waiting children get our content, waiting users
        // observe it.
        let content = self.nodes[node.index()].content;
        let modified_at = self.nodes[node.index()].content_modified_at;
        let ctx = self.nodes[node.index()].content_ctx;
        let waiting_children = std::mem::take(&mut self.nodes[node.index()].waiting_children);
        for child in waiting_children {
            self.send(now, node, child, Msg::Update { snap: content, modified_at, ctx });
        }
        let waiting_users = std::mem::take(&mut self.nodes[node.index()].waiting_users);
        for u in waiting_users {
            self.observe(u, node, content, now);
        }
        self.nodes[node.index()].absent = true;
        self.nodes[node.index()].fetch_pending = false;
        self.nodes[node.index()].awaiting_probe = None;
        self.nodes[node.index()].timer_gen += 1;
        self.net.depart(node, now);
        self.drain_reliable_from(node);
        self.depart_structure(now, node, true);
        self.abort_edge_fetches(node, false);
    }

    /// A server crashes: it goes dark instantly (no hand-off) and its
    /// consistency state is lost — the eventual restart comes back with a
    /// cold cache and no memory of versions, invalidations, or mode.
    fn on_node_crash(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.index()].absent || self.net.is_departed(node) {
            return;
        }
        let lc = self.lifecycle.as_mut().expect("churn events need a plan");
        lc.crashes += 1;
        lc.down_kind[node.index()] = Some(ChurnKind::Crash);
        self.obs.tracer.control(SpanKind::NodeChurn, node.index() as u32, now.as_micros(), "crash");
        self.obs.registry.event(Level::Warn, "node_crash", || {
            cdnc_obs::Json::obj()
                .field("node", node.index())
                .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
        });
        // No hand-off: queued children are dropped; queued users time out
        // against the cached copy (like a plain failure).
        self.nodes[node.index()].waiting_children.clear();
        let snap = self.nodes[node.index()].content;
        let orphaned_users = std::mem::take(&mut self.nodes[node.index()].waiting_users);
        for u in orphaned_users {
            self.observe(u, node, snap, now);
        }
        self.nodes[node.index()].absent = true;
        self.nodes[node.index()].fetch_pending = false;
        self.nodes[node.index()].awaiting_probe = None;
        self.nodes[node.index()].timer_gen += 1;
        self.net.depart(node, now);
        self.drain_reliable_from(node);
        // State loss: version, staleness knowledge, adaptive estimate, and
        // downstream registrations all evaporate with the process.
        if self.nodes[node.index()].known_stale.take().is_some() {
            self.obs.stale_replicas.sub(1);
        }
        {
            let state = &mut self.nodes[node.index()];
            state.content = SnapshotId(0);
            state.content_modified_at = SimTime::ZERO;
            state.content_ctx = TraceCtx::NONE;
            state.adaptive_interval_s = 0.0;
            state.last_invalidated = SnapshotId(0);
            state.inval_registry.clear();
        }
        if self.topo.method_of(node) == Some(MethodKind::SelfAdaptive)
            && self.nodes[node.index()].mode == AdaptiveMode::Invalidation
        {
            self.obs.inval_mode_nodes.sub(1);
            self.nodes[node.index()].mode = AdaptiveMode::Ttl;
        }
        self.depart_structure(now, node, false);
        self.abort_edge_fetches(node, true);
    }

    /// A departed server returns: it re-enters the network, bootstraps into
    /// the update structure (tree admission + uplink registration + resync
    /// from its parent), and restarts its timer chains. After a crash the
    /// node is cold — its resync fetches everything anew.
    fn on_node_join(&mut self, now: SimTime, node: NodeId) {
        let Some(kind) = self.lifecycle.as_mut().and_then(|lc| lc.down_kind[node.index()].take())
        else {
            return; // never departed (a duplicate or superseded join)
        };
        self.lifecycle.as_mut().expect("checked above").joins += 1;
        self.obs.tracer.control(SpanKind::NodeChurn, node.index() as u32, now.as_micros(), "join");
        self.obs.registry.event(Level::Info, "node_join", || {
            cdnc_obs::Json::obj()
                .field("node", node.index())
                .field("cold", kind == ChurnKind::Crash)
                .field("t_s", now.since(SimTime::ZERO).as_secs_f64())
        });
        self.nodes[node.index()].absent = false;
        self.nodes[node.index()].awaiting_probe = None;
        self.net.rejoin(node, now);
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
        if let Some(rel) = &self.reliable {
            let interval = rel.plan.probe_interval;
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
        let led_cluster = self
            .clusters
            .as_ref()
            .and_then(|cl| cl.cluster_of[node.index()].filter(|&c| cl.supernode[c] == node));
        if graceful && self.reliable.is_some() {
            if let Some(c) = led_cluster {
                self.failover(now, c);
                return;
            }
        }
        self.repair_tree_around(now, node);
    }

    /// Releases every delayed-hit waiter queued behind `node`'s in-flight
    /// origin fetches as an unanswered miss (the edge died mid-fetch); a
    /// cold restart additionally drops the cached entries.
    fn abort_edge_fetches(&mut self, node: NodeId, cold: bool) {
        let Some(wl) = self.workload.as_mut() else { return };
        let aborted = if cold {
            wl.caches[node.index()].cold_restart()
        } else {
            wl.caches[node.index()].abort_inflight()
        };
        let n = aborted.len() as u64;
        if n > 0 {
            wl.stats.waiters_aborted += n;
            self.obs.wl_waiters_aborted.add(n);
        }
    }

    fn observe(&mut self, u: u32, server: NodeId, snap: SnapshotId, now: SimTime) {
        // The view descends causally from the served content's provenance
        // (inert when that content predates tracing or tracing is off).
        self.obs.tracer.user_view(
            self.nodes[server.index()].content_ctx,
            u,
            server.index() as u32,
            now.as_micros(),
        );
        let user = &mut self.users[u as usize];
        while let Some(&(p, t)) = user.pending_pubs.front() {
            if p > snap {
                break;
            }
            user.lag.push(now.since(t).as_secs_f64());
            self.obs.pending_user_updates.sub(1);
            user.pending_pubs.pop_front();
        }
        user.total_obs += 1;
        if snap < user.seen_max {
            user.inconsistent_obs += 1;
        } else {
            user.seen_max = snap;
        }
    }

    /// Walks the complete dynamic simulation state — scheduler clock and
    /// pending queue, every RNG stream, per-node and per-user protocol
    /// state, reliable-delivery ledger, cluster/tree/topology wiring,
    /// request-plane caches, network backlogs, lifecycle bookkeeping, and
    /// the determinism-digest segment — in one pass: it writes the artifact
    /// while `c` is writing and restores this freshly constructed
    /// simulation (same configuration) while `c` is reading.
    ///
    /// Static structure (node placement, latency model, plan parameters) is
    /// *not* stored: restore reconstructs it from the same [`SimConfig`] and
    /// overlays the dynamic state, so an artifact is only meaningful
    /// together with its configuration. Reading fails when the artifact is
    /// malformed, disagrees with the configuration about structure
    /// (node/user counts, subsystem presence), or stores an id that is not
    /// a node, user, snapshot or catalog slot of this simulation.
    fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let b = Bounds {
            nodes: self.nodes.len(),
            users: self.users.len(),
            snapshots: self.config.updates.len(),
            slots: self.workload.as_ref().map_or(0, |wl| wl.catalog.len()),
        };
        self.sched.persist(c, |ev, c| ev.persist(c, b))?;
        c.rng("sim_rng", &mut self.rng)?;
        c.fixed("nodes", b.nodes)?;
        for node in &mut self.nodes {
            node.persist(c, b)?;
        }
        c.fixed("users", b.users)?;
        for user in &mut self.users {
            user.persist(c, b)?;
        }
        c.u64("provider_update_messages", &mut self.provider_update_messages)?;
        c.u64("server_update_messages", &mut self.server_update_messages)?;
        let chaos = &mut self.chaos;
        c.u64("chaos_lost", &mut chaos.lost_to_failed)?;
        c.u64("chaos_rtx", &mut chaos.retransmits)?;
        c.u64("chaos_abandoned", &mut chaos.abandoned)?;
        c.u64("chaos_abandoned_dep", &mut chaos.abandoned_to_departed)?;
        c.u64("chaos_dup", &mut chaos.dup_suppressed)?;
        c.u64("chaos_failovers", &mut chaos.failovers)?;
        c.u64("chaos_ttl_fallbacks", &mut chaos.ttl_fallbacks)?;
        c.u64("chaos_conv", &mut chaos.convergence_violations)?;
        // Reliable-delivery ledger (fault-plan runs only).
        c.section("reliable", self.reliable.as_mut(), |rel, c| {
            c.u64("rel_next_id", &mut rel.next_id)?;
            c.seq("rel_pending", &mut rel.pending, |(id, p), c| {
                c.u64("rp_id", id)?;
                c.index("rp_src", &mut p.src.0, b.nodes)?;
                c.index("rp_dst", &mut p.dst.0, b.nodes)?;
                c.u32("rp_attempts", &mut p.attempts)?;
                let mut rto = p.rto.as_micros();
                c.u64("rp_rto_us", &mut rto)?;
                p.rto = SimDuration::from_micros(rto);
                p.msg.persist(c, b)
            })?;
            c.fixed("rel_seen", rel.seen.len())?;
            for seen in &mut rel.seen {
                c.seq("rs_len", seen, |id, c| c.u64("rs_id", id))?;
            }
            c.rng("rel_jitter", &mut rel.jitter_rng)
        })?;
        // Cluster bookkeeping: only the supernode vector mutates (failover);
        // membership is rebuilt from the checkpointed topology.
        c.section("clusters", self.clusters.as_mut(), |cl, c| {
            c.fixed("cl_supernodes", cl.supernode.len())?;
            cl.supernode.iter_mut().try_for_each(|sn| c.index("cl_sn", &mut sn.0, b.nodes))
        })?;
        self.topo.persist(c)?;
        c.section("tree", self.tree.as_mut(), |tree, c| tree.persist(c, b.nodes))?;
        // Request plane (publish times are derived from the configuration).
        c.section("workload", self.workload.as_mut(), |wl, c| {
            wl.catalog.persist(c)?;
            c.fixed("wl_caches", wl.caches.len())?;
            for cache in &mut wl.caches {
                cache.persist(c, b.slots, b.snapshots, b.users)?;
            }
            c.rng("wl_rng", &mut wl.rng)?;
            let st = &mut wl.stats;
            c.u64("wl_requests", &mut st.requests)?;
            c.u64("wl_hits", &mut st.hits)?;
            c.u64("wl_delayed_hits", &mut st.delayed_hits)?;
            c.u64("wl_misses", &mut st.misses)?;
            c.u64("wl_evictions", &mut st.evictions)?;
            c.u64("wl_origin_fetches", &mut st.origin_fetches)?;
            c.f64("wl_origin_kb", &mut st.origin_kb)?;
            c.u64("wl_churn_events", &mut st.churn_events)?;
            c.u64("wl_waiters_aborted", &mut st.waiters_aborted)?;
            c.u64("wl_orphan_fills", &mut st.orphan_fills)?;
            c.seq("wl_latency", &mut st.latency_s, |v, c| c.f64("wl_lat", v))?;
            c.seq("wl_staleness", &mut st.staleness_served_s, |v, c| c.f64("wl_stale", v))
        })?;
        self.net.persist(c)?;
        // Lifecycle bookkeeping (churn-plan runs only).
        c.section("lifecycle", self.lifecycle.as_mut(), |lc, c| {
            c.fixed("lc_nodes", lc.down_kind.len())?;
            for kind in &mut lc.down_kind {
                let mut tag = match kind {
                    None => 0,
                    Some(ChurnKind::Leave) => 1,
                    Some(ChurnKind::Crash) => 2,
                };
                c.u64("lc_down", &mut tag)?;
                *kind = match tag {
                    0 => None,
                    1 => Some(ChurnKind::Leave),
                    2 => Some(ChurnKind::Crash),
                    t => return Err(CkptError(format!("unknown churn-kind tag {t}"))),
                };
            }
            c.u64("lc_joins", &mut lc.joins)?;
            c.u64("lc_leaves", &mut lc.leaves)?;
            c.u64("lc_crashes", &mut lc.crashes)
        })?;
        // Determinism-digest segment, so a restored run continues the saved
        // run's chain and the audit trail stays bit-identical. Its presence
        // follows the saving run's registry, not the configuration.
        let registry = &self.obs.registry;
        let mut digest = if c.is_reading() { None } else { registry.digest_local_state() };
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
                let _ = registry.restore_digest_local(
                    *events,
                    *chain,
                    *stride,
                    std::mem::take(checkpoints),
                );
            }
        }
        Ok(())
    }

    fn into_report(self) -> SimReport {
        let unresolved: u64 = self
            .topo
            .servers
            .iter()
            .map(|&s| self.nodes[s.index()].pending_pubs.len() as u64)
            .sum::<u64>()
            + self.users.iter().map(|u| u.pending_pubs.len() as u64).sum::<u64>();
        SimReport {
            scheme_label: self.config.scheme.label().to_owned(),
            server_mean_lag_s: self
                .topo
                .servers
                .iter()
                .map(|&s| self.nodes[s.index()].lag.mean())
                .collect(),
            user_mean_lag_s: self.users.iter().map(|u| u.lag.mean()).collect(),
            traffic: self.net.traffic().clone(),
            provider_update_messages: self.provider_update_messages,
            server_update_messages: self.server_update_messages,
            inconsistent_observations: self.users.iter().map(|u| u.inconsistent_obs).sum(),
            total_observations: self.users.iter().map(|u| u.total_obs).sum(),
            unresolved_lags: unresolved,
            events: self.sched.processed(),
            msgs_lost_to_failed: self.chaos.lost_to_failed,
            retransmits: self.chaos.retransmits,
            abandoned_deliveries: self.chaos.abandoned,
            duplicates_suppressed: self.chaos.dup_suppressed,
            failovers: self.chaos.failovers,
            ttl_fallbacks: self.chaos.ttl_fallbacks,
            convergence_violations: self.chaos.convergence_violations,
            node_joins: self.lifecycle.as_ref().map_or(0, |lc| lc.joins),
            node_leaves: self.lifecycle.as_ref().map_or(0, |lc| lc.leaves),
            crash_restarts: self.lifecycle.as_ref().map_or(0, |lc| lc.crashes),
            abandoned_to_departed: self.chaos.abandoned_to_departed,
            workload: self.workload.map(|wl| wl.stats).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use cdnc_trace::UpdateSequence;

    fn updates(every_s: u64, until_s: u64) -> UpdateSequence {
        UpdateSequence::periodic(SimDuration::from_secs(every_s), SimTime::from_secs(until_s))
    }

    fn small(scheme: Scheme) -> SimConfig {
        let mut cfg = SimConfig::section4(scheme, updates(30, 600));
        cfg.servers = 24;
        cfg.users_per_server = 2;
        cfg
    }

    #[test]
    fn push_beats_invalidation_beats_ttl_on_servers() {
        let push = run(&small(Scheme::Unicast(MethodKind::Push)));
        let inval = run(&small(Scheme::Unicast(MethodKind::Invalidation)));
        let ttl = run(&small(Scheme::Unicast(MethodKind::Ttl)));
        assert!(
            push.mean_server_lag_s() < inval.mean_server_lag_s(),
            "Push {} < Invalidation {}",
            push.mean_server_lag_s(),
            inval.mean_server_lag_s()
        );
        assert!(
            inval.mean_server_lag_s() < ttl.mean_server_lag_s(),
            "Invalidation {} < TTL {}",
            inval.mean_server_lag_s(),
            ttl.mean_server_lag_s()
        );
        // TTL mean inconsistency ≈ TTL/2 (paper Fig. 14(a): 5.7 s at 10 s).
        assert!(
            (3.0..9.0).contains(&ttl.mean_server_lag_s()),
            "TTL lag {} should be ≈ TTL/2",
            ttl.mean_server_lag_s()
        );
    }

    #[test]
    fn push_and_invalidation_match_for_users() {
        let push = run(&small(Scheme::Unicast(MethodKind::Push)));
        let inval = run(&small(Scheme::Unicast(MethodKind::Invalidation)));
        let ttl = run(&small(Scheme::Unicast(MethodKind::Ttl)));
        // Fig. 14(b): Push ≈ Invalidation < TTL for end-users.
        let diff = (push.mean_user_lag_s() - inval.mean_user_lag_s()).abs();
        assert!(
            diff < 2.0,
            "Push {} vs Invalidation {}",
            push.mean_user_lag_s(),
            inval.mean_user_lag_s()
        );
        assert!(ttl.mean_user_lag_s() > push.mean_user_lag_s() + 2.0);
    }

    #[test]
    fn no_unresolved_lags_with_adequate_drain() {
        for scheme in [
            Scheme::Unicast(MethodKind::Push),
            Scheme::Unicast(MethodKind::Ttl),
            Scheme::Unicast(MethodKind::Invalidation),
        ] {
            let r = run(&small(scheme));
            assert_eq!(r.unresolved_lags, 0, "{scheme} left unresolved lags");
        }
    }

    #[test]
    fn multicast_ttl_amplifies_inconsistency_with_depth() {
        let uni = run(&small(Scheme::Unicast(MethodKind::Ttl)));
        let multi = run(&small(Scheme::Multicast { method: MethodKind::Ttl, arity: 2 }));
        assert!(
            multi.mean_server_lag_s() > uni.mean_server_lag_s() * 1.3,
            "multicast TTL {} must exceed unicast TTL {}",
            multi.mean_server_lag_s(),
            uni.mean_server_lag_s()
        );
    }

    #[test]
    fn multicast_saves_traffic_cost() {
        let uni = run(&small(Scheme::Unicast(MethodKind::Push)));
        let multi = run(&small(Scheme::Multicast { method: MethodKind::Push, arity: 2 }));
        assert!(
            multi.traffic.km_kb() < uni.traffic.km_kb(),
            "multicast push {} km·KB must beat unicast {}",
            multi.traffic.km_kb(),
            uni.traffic.km_kb()
        );
    }

    #[test]
    fn ttl_wastes_update_messages_on_silence() {
        // A long silent tail: plain TTL keeps fetching full content, the
        // self-adaptive method switches to invalidation and stops.
        let silent_updates =
            UpdateSequence::periodic(SimDuration::from_secs(20), SimTime::from_secs(120));
        let mut ttl_cfg =
            SimConfig::section4(Scheme::Unicast(MethodKind::Ttl), silent_updates.clone());
        ttl_cfg.servers = 16;
        ttl_cfg.users_per_server = 2;
        ttl_cfg.drain = SimDuration::from_secs(1_200); // long silence
        let mut self_cfg = ttl_cfg.clone();
        self_cfg.scheme = Scheme::Unicast(MethodKind::SelfAdaptive);
        let ttl = run(&ttl_cfg);
        let sa = run(&self_cfg);
        assert!(
            sa.server_update_messages * 2 < ttl.server_update_messages,
            "self-adaptive {} should send far fewer update messages than TTL {}",
            sa.server_update_messages,
            ttl.server_update_messages
        );
    }

    #[test]
    fn self_adaptive_still_converges() {
        let r = run(&small(Scheme::Unicast(MethodKind::SelfAdaptive)));
        assert_eq!(r.unresolved_lags, 0, "self-adaptive must deliver every update");
        // Its consistency sits between Push and TTL.
        let ttl = run(&small(Scheme::Unicast(MethodKind::Ttl)));
        assert!(r.mean_server_lag_s() <= ttl.mean_server_lag_s() * 1.5);
    }

    #[test]
    fn hat_reduces_provider_load() {
        let mut hat_cfg = small(Scheme::hat());
        hat_cfg.servers = 60;
        let mut uni_cfg = small(Scheme::Unicast(MethodKind::Ttl));
        uni_cfg.servers = 60;
        let hat = run(&hat_cfg);
        let uni = run(&uni_cfg);
        assert!(
            hat.provider_update_messages < uni.provider_update_messages / 4,
            "HAT provider messages {} must be far below unicast TTL {}",
            hat.provider_update_messages,
            uni.provider_update_messages
        );
        assert_eq!(hat.unresolved_lags, 0);
    }

    #[test]
    fn roaming_users_observe_inconsistency_under_ttl_but_not_push() {
        // §5 regime: server TTL 60 s ≫ 10 s visits, so roaming users land on
        // servers at very different staleness and see scores go backwards.
        let mut ttl_cfg = small(Scheme::Unicast(MethodKind::Ttl));
        ttl_cfg.users_roam = true;
        ttl_cfg.server_ttl = SimDuration::from_secs(60);
        ttl_cfg.drain = SimDuration::from_secs(400);
        let mut push_cfg = small(Scheme::Unicast(MethodKind::Push));
        push_cfg.users_roam = true;
        let ttl = run(&ttl_cfg);
        let push = run(&push_cfg);
        assert!(
            ttl.inconsistency_observation_rate() > 0.01,
            "roaming TTL users must see inconsistency, rate {}",
            ttl.inconsistency_observation_rate()
        );
        assert!(
            push.inconsistency_observation_rate() < ttl.inconsistency_observation_rate() / 4.0,
            "push {} must be far below ttl {}",
            push.inconsistency_observation_rate(),
            ttl.inconsistency_observation_rate()
        );
    }

    #[test]
    fn heterogeneous_visit_frequencies_are_supported() {
        // §6's "varying visit frequencies": the run completes, remains
        // deterministic, and the slow-visitor tail shows up as higher user
        // inconsistency spread than the homogeneous baseline.
        let uniform = small(Scheme::Unicast(MethodKind::Ttl));
        let mut spread = uniform.clone();
        spread.visit_spread = 3.0;
        let a = run(&uniform);
        let b = run(&spread);
        assert_eq!(b, run(&spread), "heterogeneous runs stay deterministic");
        assert_eq!(b.unresolved_lags, 0);
        let spread_of = |r: &SimReport| {
            let cdf = cdnc_simcore::stats::Cdf::from_samples(r.user_mean_lag_s.iter().copied());
            cdf.percentile(95.0).unwrap() - cdf.percentile(5.0).unwrap()
        };
        assert!(
            spread_of(&b) > spread_of(&a),
            "visit heterogeneity must widen the user-lag spread: {} vs {}",
            spread_of(&b),
            spread_of(&a)
        );
    }

    mod adaptive_ttl {
        use super::*;
        use cdnc_net::PacketKind;
        use cdnc_simcore::SimRng;

        /// A bursty-then-silent day, §5.1's problem case for adaptive TTL.
        fn bursty() -> UpdateSequence {
            UpdateSequence::live_game(&mut SimRng::seed_from_u64(3))
        }

        fn cfg(method: MethodKind) -> SimConfig {
            let mut cfg = SimConfig::section5(Scheme::Unicast(method), bursty());
            cfg.servers = 24;
            cfg.users_per_server = 2;
            cfg
        }

        #[test]
        fn beats_fixed_ttl_on_regular_content() {
            // Steady updates: the age-based prediction works and adaptive
            // TTL polls tightly right after each change.
            let steady =
                UpdateSequence::periodic(SimDuration::from_secs(30), SimTime::from_secs(2_000));
            let mut a_cfg = SimConfig::section5(Scheme::Unicast(MethodKind::AdaptiveTtl), steady);
            a_cfg.servers = 24;
            a_cfg.users_per_server = 2;
            let mut t_cfg = a_cfg.clone();
            t_cfg.scheme = Scheme::Unicast(MethodKind::Ttl);
            let adaptive = run(&a_cfg);
            let plain = run(&t_cfg);
            assert!(
                adaptive.mean_server_lag_s() < plain.mean_server_lag_s() * 0.6,
                "adaptive {} should clearly beat fixed TTL {} on regular content",
                adaptive.mean_server_lag_s(),
                plain.mean_server_lag_s()
            );
            assert_eq!(adaptive.unresolved_lags, 0);
        }

        #[test]
        fn loses_its_edge_on_bursty_content() {
            // The §5.1 critique: with bursts and silences the prediction is
            // wrong in both directions — adaptive TTL polls far more than
            // the fixed TTL yet fails to convert that into a matching
            // consistency win (the post-silence restart is missed by up to
            // the backed-off interval).
            let adaptive = run(&cfg(MethodKind::AdaptiveTtl));
            let plain = run(&cfg(MethodKind::Ttl));
            assert!(
                adaptive.traffic.count_of(PacketKind::Poll)
                    > plain.traffic.count_of(PacketKind::Poll),
                "adaptive {} polls vs plain {}",
                adaptive.traffic.count_of(PacketKind::Poll),
                plain.traffic.count_of(PacketKind::Poll)
            );
            assert!(
                adaptive.mean_server_lag_s() > plain.mean_server_lag_s() * 0.5,
                "the poll investment must NOT pay off proportionally: adaptive {} vs plain {}",
                adaptive.mean_server_lag_s(),
                plain.mean_server_lag_s()
            );
            assert_eq!(adaptive.unresolved_lags, 0);
        }

        #[test]
        fn wastes_polls_compared_to_self_adaptive() {
            // The paper's §5.1 critique: prediction-based polling keeps
            // probing irregular content; Algorithm 1 simply goes quiet.
            let adaptive = run(&cfg(MethodKind::AdaptiveTtl));
            let selfa = run(&cfg(MethodKind::SelfAdaptive));
            assert!(
                selfa.traffic.count_of(PacketKind::Poll) * 2
                    < adaptive.traffic.count_of(PacketKind::Poll),
                "self-adaptive {} polls should be far below adaptive TTL {}",
                selfa.traffic.count_of(PacketKind::Poll),
                adaptive.traffic.count_of(PacketKind::Poll)
            );
        }

        #[test]
        fn conditional_polls_do_not_waste_content_transfers() {
            // Adaptive TTL's unchanged probes are light; its update messages
            // stay at or below the plain TTL's unconditional refetches.
            let adaptive = run(&cfg(MethodKind::AdaptiveTtl));
            let plain = run(&cfg(MethodKind::Ttl));
            assert!(adaptive.server_update_messages <= plain.server_update_messages * 2);
            assert!(adaptive.traffic.count_of(PacketKind::PollUnchanged) > 0);
        }
    }

    mod failures {
        use super::*;
        use crate::config::FailureConfig;
        use cdnc_net::PacketKind;

        fn failing(scheme: Scheme, mean_gap_s: f64) -> SimConfig {
            let mut cfg = small(scheme);
            cfg.servers = 48;
            cfg.failures = Some(FailureConfig::with_mean_gap_s(mean_gap_s));
            cfg
        }

        #[test]
        fn polling_methods_self_heal() {
            // TTL keeps polling; every update is eventually delivered even
            // with frequent failures.
            let r = run(&failing(Scheme::Unicast(MethodKind::Ttl), 400.0));
            assert_eq!(r.unresolved_lags, 0, "TTL must self-heal after failures");
        }

        #[test]
        fn push_recovers_via_resync() {
            // Pushed updates to failed servers are lost; the recovery
            // resync poll must recover them.
            let r = run(&failing(Scheme::Unicast(MethodKind::Push), 400.0));
            assert_eq!(r.unresolved_lags, 0, "push + resync must deliver everything");
        }

        #[test]
        fn multicast_repair_charges_maintenance_messages() {
            let no_fail = run(&small(Scheme::Multicast { method: MethodKind::Push, arity: 2 }));
            assert_eq!(no_fail.traffic.count_of(PacketKind::TreeMaintenance), 0);
            let r = run(&failing(Scheme::Multicast { method: MethodKind::Push, arity: 2 }, 300.0));
            assert!(
                r.traffic.count_of(PacketKind::TreeMaintenance) > 0,
                "tree repair must cost maintenance messages"
            );
        }

        #[test]
        fn failures_degrade_push_consistency() {
            let clean = run(&{
                let mut c = small(Scheme::Multicast { method: MethodKind::Push, arity: 2 });
                c.servers = 48;
                c
            });
            let faulty =
                run(&failing(Scheme::Multicast { method: MethodKind::Push, arity: 2 }, 300.0));
            assert!(
                faulty.mean_server_lag_s() > clean.mean_server_lag_s(),
                "failures must hurt: {} vs clean {}",
                faulty.mean_server_lag_s(),
                clean.mean_server_lag_s()
            );
        }

        #[test]
        fn heavier_failures_cost_more_maintenance() {
            let light =
                run(&failing(Scheme::Multicast { method: MethodKind::Ttl, arity: 2 }, 2_000.0));
            let heavy =
                run(&failing(Scheme::Multicast { method: MethodKind::Ttl, arity: 2 }, 200.0));
            assert!(
                heavy.traffic.count_of(PacketKind::TreeMaintenance)
                    > light.traffic.count_of(PacketKind::TreeMaintenance),
                "more failures must mean more repair traffic"
            );
        }

        #[test]
        fn hat_survives_supernode_failures() {
            let r = run(&failing(Scheme::hat(), 400.0));
            // Self-adaptive members may wait out a supernode failure, but
            // no update may be lost forever.
            assert_eq!(r.unresolved_lags, 0, "HAT must deliver everything after recoveries");
        }

        #[test]
        fn failure_runs_are_deterministic() {
            let cfg = failing(Scheme::Multicast { method: MethodKind::Push, arity: 2 }, 300.0);
            assert_eq!(run(&cfg), run(&cfg));
        }
    }

    mod chaos {
        use super::*;
        use crate::config::{FailureConfig, FaultPlan};
        use cdnc_net::FaultConfig;

        fn chaotic(scheme: Scheme, intensity: f64) -> SimConfig {
            let mut cfg = small(scheme);
            cfg.faults = Some(FaultPlan::at_intensity(intensity));
            cfg
        }

        #[test]
        fn intensity_zero_converges_for_every_method() {
            // The full protocol (acks, probes, convergence check) over a
            // clean network: nothing is retransmitted, nothing is lost,
            // and the invariant holds.
            for scheme in [
                Scheme::Unicast(MethodKind::Push),
                Scheme::Unicast(MethodKind::Invalidation),
                Scheme::Unicast(MethodKind::Ttl),
                Scheme::Multicast { method: MethodKind::Push, arity: 2 },
                Scheme::hat(),
            ] {
                let r = run(&chaotic(scheme, 0.0));
                assert_eq!(r.convergence_violations, 0, "{scheme} violated convergence");
                assert_eq!(r.unresolved_lags, 0, "{scheme} lost updates");
                assert_eq!(r.retransmits, 0, "{scheme} retransmitted on a clean network");
                assert_eq!(r.abandoned_deliveries, 0);
                assert_eq!(r.failovers, 0);
            }
        }

        #[test]
        fn chaos_runs_are_deterministic() {
            let cfg = chaotic(Scheme::hat(), 0.7);
            assert_eq!(run(&cfg), run(&cfg));
            let mut reseeded = chaotic(Scheme::hat(), 0.7);
            reseeded.seed = 99;
            assert_ne!(run(&cfg), run(&reseeded));
        }

        #[test]
        fn loss_triggers_retransmits_and_the_protocol_still_converges() {
            let r = run(&chaotic(Scheme::Unicast(MethodKind::Push), 0.7));
            assert!(r.retransmits > 0, "25%-class loss must trigger retransmissions");
            assert_eq!(r.convergence_violations, 0, "retransmits + probes must converge");
        }

        #[test]
        fn duplicated_deliveries_are_suppressed() {
            let mut cfg = small(Scheme::Unicast(MethodKind::Push));
            cfg.faults = Some(FaultPlan {
                faults: FaultConfig { dup_prob: 0.5, ..FaultConfig::none() },
                ..FaultPlan::default()
            });
            let r = run(&cfg);
            assert!(r.duplicates_suppressed > 0, "50% duplication must hit the dedup path");
            assert_eq!(r.convergence_violations, 0);
            assert_eq!(r.unresolved_lags, 0);
        }

        #[test]
        fn supernode_failures_trigger_hat_failover() {
            // Quiet network faults, but servers fail/recover: the probe
            // detector must notice dead supernodes and promote members.
            let mut cfg = chaotic(Scheme::hat(), 0.0);
            cfg.servers = 48;
            cfg.failures = Some(FailureConfig::with_mean_gap_s(300.0));
            let r = run(&cfg);
            assert!(r.failovers > 0, "supernode failures must trigger failovers");
            assert_eq!(r.convergence_violations, 0, "failover must preserve convergence");
        }

        #[test]
        fn degradation_can_be_disabled() {
            let mut cfg = chaotic(Scheme::hat(), 0.0);
            cfg.servers = 48;
            cfg.failures = Some(FailureConfig::with_mean_gap_s(300.0));
            cfg.faults.as_mut().expect("set above").hat_degradation = false;
            let r = run(&cfg);
            assert_eq!(r.failovers, 0);
            assert_eq!(r.ttl_fallbacks, 0);
        }

        #[test]
        fn profiling_probes_ride_along_without_changing_results() {
            let cfg = chaotic(Scheme::hat(), 0.5);
            let plain = run(&cfg);
            let reg = Registry::enabled();
            reg.enable_profiling(cdnc_obs::ProfileConfig::default());
            let profiled = run_with_obs(&cfg, &reg);
            assert_eq!(plain, profiled, "profiling probes must be observation-only");
            let snap = reg.snapshot();
            // One state-size sample per node (servers + provider) and user.
            let nodes = snap.histogram("sim_node_state_bytes").expect("node state probe");
            assert_eq!(nodes.count, cfg.servers as u64 + 1);
            assert!(nodes.min >= std::mem::size_of::<NodeState>() as f64);
            let users = snap.histogram("sim_user_state_bytes").expect("user state probe");
            assert_eq!(users.count, cfg.users() as u64);
            // The wire drains: every sent packet was retired at its arrival
            // (or at the drop point), so in-flight levels end at zero while
            // the high-water marks show the run really put bytes in flight.
            let inflight =
                snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").expect("armed").1;
            assert_eq!(inflight.value, 0, "in-flight bytes must drain by quiesce");
            assert!(inflight.high_water > 0);
            assert_eq!(
                snap.counter("net_pkts_update"),
                snap.counter("sim_msgs_update"),
                "network-side and sim-side per-kind tallies must agree"
            );
        }

        #[test]
        fn chaos_instrumentation_is_observation_only() {
            let cfg = chaotic(Scheme::hat(), 0.7);
            let plain = run(&cfg);
            let reg = Registry::enabled();
            reg.enable_events(Level::Debug, 4096);
            reg.enable_tracing();
            let observed = run_with_obs(&cfg, &reg);
            assert_eq!(plain, observed);
        }

        #[test]
        fn chaos_metrics_mirror_the_report() {
            let cfg = chaotic(Scheme::Unicast(MethodKind::Push), 0.7);
            let reg = Registry::enabled();
            let r = run_with_obs(&cfg, &reg);
            let snap = reg.snapshot();
            assert_eq!(snap.counter("sim_rtx_sent"), r.retransmits);
            assert_eq!(snap.counter("sim_rtx_abandoned"), r.abandoned_deliveries);
            assert_eq!(snap.counter("sim_dup_suppressed"), r.duplicates_suppressed);
            assert_eq!(snap.counter("sim_failovers"), r.failovers);
            assert_eq!(snap.counter("sim_convergence_violations"), r.convergence_violations);
            assert_eq!(snap.counter("sim_msgs_lost_to_failed"), r.msgs_lost_to_failed);
            assert!(snap.counter("sim_ev_probe") > 0, "probe chains must run");
        }

        #[test]
        fn messages_to_failed_nodes_are_counted() {
            // Satellite of the fault plane: the silent message loss at
            // failed nodes is now accounted, with or without a fault plan.
            // Unicast keeps failed servers wired to the provider, so pushes
            // into them are the canonical silent-loss case.
            let mut cfg = small(Scheme::Unicast(MethodKind::Push));
            cfg.servers = 48;
            cfg.failures = Some(FailureConfig::with_mean_gap_s(300.0));
            let r = run(&cfg);
            assert!(r.msgs_lost_to_failed > 0, "pushes into failed servers must be counted");
            let clean = run(&small(Scheme::Unicast(MethodKind::Push)));
            assert_eq!(clean.msgs_lost_to_failed, 0);
        }

        #[test]
        fn faults_cost_traffic_but_update_accounting_stays_consistent() {
            // Dropped sends still charge the wire, and the report's update
            // counter keeps matching the traffic tally (retransmissions
            // count as fresh update messages on both sides).
            let r = run(&chaotic(Scheme::Unicast(MethodKind::Push), 0.7));
            assert_eq!(
                r.server_update_messages,
                r.traffic.count_of(PacketKind::Update),
                "update accounting must survive drops, dups, and retransmits"
            );
            assert!(r.traffic.count_of(PacketKind::Ack) > 0, "tracked messages must be acked");
        }
    }

    mod churn {
        use super::*;
        use crate::config::{ChurnPlan, ScheduledChurn};
        use cdnc_obs::DigestConfig;

        fn churny(scheme: Scheme, intensity: f64) -> SimConfig {
            let mut cfg = small(scheme);
            // Churn rides on the fault plane's survival protocol (acks,
            // probes, convergence check); intensity 0 arms it cleanly.
            cfg.faults = Some(FaultPlan::at_intensity(0.0));
            cfg.churn = Some(ChurnPlan::at_intensity(intensity));
            cfg
        }

        #[test]
        fn churn_runs_are_deterministic_and_observation_only() {
            let cfg = churny(Scheme::hat(), 0.8);
            let plain = run(&cfg);
            assert_eq!(plain, run(&cfg));
            let reg = Registry::enabled();
            reg.enable_tracing();
            assert_eq!(plain, run_with_obs(&cfg, &reg), "instrumentation must be inert");
            let mut reseeded = cfg.clone();
            reseeded.seed = 99;
            assert_ne!(plain, run(&reseeded));
        }

        #[test]
        fn intensity_zero_arms_without_churning() {
            let armed = run(&churny(Scheme::hat(), 0.0));
            assert_eq!(armed.node_joins, 0);
            assert_eq!(armed.node_leaves, 0);
            assert_eq!(armed.crash_restarts, 0);
            assert_eq!(armed.convergence_violations, 0);
            // And the lifecycle machinery at zero volume is invisible: the
            // report matches a `churn: None` run bit for bit.
            let mut bare = churny(Scheme::hat(), 0.0);
            bare.churn = None;
            assert_eq!(armed, run(&bare));
        }

        #[test]
        fn churn_converges_for_every_scheme() {
            for scheme in [
                Scheme::Unicast(MethodKind::Push),
                Scheme::Unicast(MethodKind::Invalidation),
                Scheme::Unicast(MethodKind::Ttl),
                Scheme::Multicast { method: MethodKind::Push, arity: 2 },
                Scheme::hat(),
            ] {
                let r = run(&churny(scheme, 0.8));
                assert!(r.node_leaves + r.crash_restarts > 0, "{scheme} never churned");
                assert_eq!(
                    r.node_joins,
                    r.node_leaves + r.crash_restarts,
                    "{scheme} lost a rejoin"
                );
                assert_eq!(r.convergence_violations, 0, "{scheme} violated convergence");
                assert_eq!(r.unresolved_lags, 0, "{scheme} lost updates");
            }
        }

        #[test]
        fn graceful_supernode_leave_fails_over_proactively() {
            let mut cfg = churny(Scheme::hat(), 0.0);
            cfg.servers = 48;
            cfg.churn.as_mut().expect("set above").scheduled = vec![ScheduledChurn {
                at: SimDuration::from_secs(120),
                target: ChurnTarget::Supernode(0),
                kind: ChurnKind::Leave,
                downtime: SimDuration::from_secs(60),
            }];
            let r = run(&cfg);
            assert_eq!(r.node_leaves, 1);
            assert_eq!(r.node_joins, 1);
            assert!(r.failovers > 0, "a departing cluster leader must hand off proactively");
            assert_eq!(r.convergence_violations, 0);
        }

        #[test]
        fn crashed_supernode_is_detected_and_the_cluster_recovers() {
            // A crash gives no warning: only the probe detector notices the
            // dead leader (the supernode-kill + flash-restart cell of the
            // ext_churn sweep, in miniature).
            let mut cfg = churny(Scheme::hat(), 0.0);
            cfg.servers = 48;
            cfg.churn.as_mut().expect("set above").scheduled = vec![ScheduledChurn {
                at: SimDuration::from_secs(120),
                target: ChurnTarget::Supernode(0),
                kind: ChurnKind::Crash,
                downtime: SimDuration::from_secs(90),
            }];
            let r = run(&cfg);
            assert_eq!(r.crash_restarts, 1);
            assert_eq!(r.node_joins, 1);
            assert!(r.failovers > 0, "the probe detector must notice the dead supernode");
            assert_eq!(r.convergence_violations, 0);
        }

        #[test]
        fn graceful_and_crash_kinds_follow_the_plan() {
            let mk = |graceful: f64| {
                let mut cfg = small(Scheme::Unicast(MethodKind::Push));
                cfg.faults = Some(FaultPlan::at_intensity(0.0));
                cfg.churn =
                    Some(ChurnPlan { graceful_fraction: graceful, ..ChurnPlan::at_intensity(0.8) });
                run(&cfg)
            };
            let graceful = mk(1.0);
            assert_eq!(graceful.crash_restarts, 0);
            assert!(graceful.node_leaves > 0);
            let crashy = mk(0.0);
            assert_eq!(crashy.node_leaves, 0);
            assert!(crashy.crash_restarts > 0);
            assert_eq!(crashy.convergence_violations, 0, "cold restarts must reconverge");
        }

        #[test]
        fn deliveries_to_departed_nodes_abandon_fast() {
            let cfg = churny(Scheme::Unicast(MethodKind::Push), 1.0);
            let reg = Registry::enabled();
            let r = run_with_obs(&cfg, &reg);
            assert!(r.abandoned_to_departed > 0, "pushes into departed servers must abandon");
            assert!(r.abandoned_to_departed <= r.abandoned_deliveries);
            let snap = reg.snapshot();
            assert_eq!(snap.counter("sim_abandoned_to_departed"), r.abandoned_to_departed);
            assert_eq!(snap.counter("sim_ev_node_leave"), r.node_leaves);
            assert_eq!(snap.counter("sim_ev_node_crash"), r.crash_restarts);
            assert_eq!(snap.counter("sim_ev_node_join"), r.node_joins);
        }

        #[test]
        fn edge_death_mid_fetch_releases_waiters() {
            // Big objects stretch origin fetches, so departures land while
            // fills are in flight: waiters must come back as clean misses
            // (counted) and the stray payloads as orphan fills, not hangs.
            let mut cfg = churny(Scheme::Unicast(MethodKind::Ttl), 1.0);
            cfg.workload = Some(WorkloadPlan {
                request_rate_hz: 2.0,
                object_kb: 2_000.0,
                ..WorkloadPlan::default()
            });
            let reg = Registry::enabled();
            let r = run_with_obs(&cfg, &reg);
            let w = &r.workload;
            assert!(w.waiters_aborted > 0, "churn under load must abort in-flight waiters");
            let snap = reg.snapshot();
            assert_eq!(snap.counter("wl_waiters_aborted"), w.waiters_aborted);
            assert_eq!(snap.counter("wl_orphan_fills"), w.orphan_fills);
            // Every request still resolves into exactly one serve class.
            assert_eq!(w.requests, w.hits + w.delayed_hits + w.misses);
        }

        #[test]
        fn checkpoint_resume_is_bit_identical() {
            let mut cfg = churny(Scheme::hat(), 0.8);
            cfg.workload = Some(WorkloadPlan::default());
            let straight = run(&cfg);
            for at_s in [0, 150, 300, 600] {
                let art = checkpoint(&cfg, SimTime::from_secs(at_s));
                let resumed = resume(&cfg, &art).expect("artifact restores");
                assert_eq!(straight, resumed, "resume from t={at_s}s diverged");
            }
        }

        #[test]
        fn resumed_digest_chain_matches_straight_run() {
            let cfg = churny(Scheme::hat(), 0.8);
            let straight_reg = Registry::enabled();
            straight_reg.enable_digest(DigestConfig::default());
            let straight = run_with_obs(&cfg, &straight_reg);
            let ckpt_reg = Registry::enabled();
            ckpt_reg.enable_digest(DigestConfig::default());
            let art = checkpoint_with_obs(&cfg, &ckpt_reg, SimTime::from_secs(300));
            let resume_reg = Registry::enabled();
            resume_reg.enable_digest(DigestConfig::default());
            let resumed = resume_with_obs(&cfg, &resume_reg, &art).expect("artifact restores");
            assert_eq!(straight, resumed);
            let a = straight_reg.digest_snapshot().expect("digest armed");
            let b = resume_reg.digest_snapshot().expect("digest armed");
            assert_eq!(a.chain, b.chain, "audit chains must be bit-identical");
            assert_eq!(a.events, b.events);
        }

        #[test]
        fn resume_rejects_structural_mismatch() {
            let cfg = churny(Scheme::hat(), 0.5);
            let art = checkpoint(&cfg, SimTime::from_secs(100));
            let mut bigger = cfg.clone();
            bigger.servers += 8;
            assert!(resume(&bigger, &art).is_err(), "node-count drift must be rejected");
            let mut no_faults = cfg.clone();
            no_faults.faults = None;
            assert!(resume(&no_faults, &art).is_err(), "fault-plane drift must be rejected");
            assert!(resume(&cfg, "garbage").is_err(), "malformed artifacts must be rejected");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_scheme() -> impl Strategy<Value = Scheme> {
            prop_oneof![
                Just(Scheme::Unicast(MethodKind::Push)),
                Just(Scheme::Unicast(MethodKind::Invalidation)),
                Just(Scheme::Unicast(MethodKind::Ttl)),
                Just(Scheme::Unicast(MethodKind::SelfAdaptive)),
                Just(Scheme::Unicast(MethodKind::AdaptiveTtl)),
                Just(Scheme::Multicast { method: MethodKind::Push, arity: 2 }),
                Just(Scheme::Multicast { method: MethodKind::Invalidation, arity: 3 }),
                Just(Scheme::Multicast { method: MethodKind::Ttl, arity: 2 }),
                Just(Scheme::hat()),
                Just(Scheme::hybrid()),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 12 })]

            /// Whatever the scheme, update pattern, and seed: every update
            /// is delivered, observations happen, and lags are sane.
            #[test]
            fn prop_every_scheme_delivers(
                scheme in arb_scheme(),
                gaps in proptest::collection::vec(5u64..120, 1..12),
                seed in 0u64..1_000,
            ) {
                let mut t = SimTime::ZERO;
                let mut times = vec![t];
                for g in gaps {
                    t += SimDuration::from_secs(g);
                    times.push(t);
                }
                let updates = UpdateSequence::from_times(times).unwrap();
                let mut cfg = SimConfig::section4(scheme, updates);
                cfg.servers = 10;
                cfg.users_per_server = 1;
                cfg.seed = seed;
                let report = run(&cfg);
                prop_assert_eq!(report.unresolved_lags, 0, "{} lost updates", scheme);
                prop_assert!(report.total_observations > 0);
                prop_assert!(report.mean_server_lag_s() >= 0.0);
                prop_assert!(report.mean_user_lag_s() >= report.mean_server_lag_s() * 0.0);
                // Every lag is finite.
                for lag in report.server_mean_lag_s.iter().chain(&report.user_mean_lag_s) {
                    prop_assert!(lag.is_finite() && *lag >= 0.0);
                }
                // Update-message accounting is consistent with traffic.
                prop_assert_eq!(
                    report.server_update_messages,
                    report.traffic.count_of(cdnc_net::PacketKind::Update)
                );
                prop_assert!(report.provider_update_messages <= report.server_update_messages);
            }
        }
    }

    #[test]
    fn determinism() {
        let a = run(&small(Scheme::hat()));
        let b = run(&small(Scheme::hat()));
        assert_eq!(a, b);
        let mut cfg = small(Scheme::hat());
        cfg.seed = 99;
        let c = run(&cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn instrumentation_is_observation_only() {
        // Bit-identical report with obs on and off — the core contract that
        // lets every experiment run instrumented without changing results.
        let cfg = small(Scheme::hat());
        let plain = run(&cfg);
        let reg = Registry::enabled();
        reg.enable_events(Level::Debug, 4096);
        reg.enable_tracing();
        let observed = run_with_obs(&cfg, &reg);
        assert_eq!(plain, observed);
    }

    #[test]
    fn tracer_records_every_update_journey() {
        let cfg = small(Scheme::hat());
        let reg = Registry::enabled();
        reg.enable_tracing();
        let _ = run_with_obs(&cfg, &reg);
        let store = reg.tracer().store();
        // One trace per published update (snapshot 0 pre-exists everywhere).
        assert_eq!(store.traces.len(), cfg.updates.len() - 1);
        assert_eq!(store.scopes(), vec![Scheme::hat().label()]);
        for meta in &store.traces {
            assert!(
                !store.adopt_lags_s(meta.id).is_empty(),
                "update {} was never adopted",
                meta.update
            );
            let path = store.critical_path(meta.id).expect("critical path");
            assert!(path.total_us > 0);
            assert_eq!(path.steps.first().unwrap().kind, SpanKind::Publish);
            assert!(path.steps.last().unwrap().kind.is_terminal());
        }
        let summary = store.summary();
        assert!(summary.adoptions > 0 && summary.spans > summary.adoptions);
        assert!(store.horizon_us > 0, "scheduler must drive the trace horizon");
    }

    #[test]
    fn tracer_sees_mode_switches_and_user_views() {
        let cfg = small(Scheme::Unicast(MethodKind::SelfAdaptive));
        let reg = Registry::enabled();
        reg.enable_tracing();
        let _ = run_with_obs(&cfg, &reg);
        let store = reg.tracer().store();
        let snap = reg.snapshot();
        let switches = store.spans.iter().filter(|s| s.kind == SpanKind::ModeSwitch).count() as u64;
        assert_eq!(
            switches,
            snap.counter("sim_switch_to_invalidation") + snap.counter("sim_switch_to_ttl"),
            "every Algorithm 1 transition must leave a control span"
        );
        assert!(
            store.spans.iter().any(|s| s.kind == SpanKind::UserView),
            "user visits to traced content must record views"
        );
    }

    #[test]
    fn metrics_cover_the_simulation() {
        let cfg = small(Scheme::Unicast(MethodKind::SelfAdaptive));
        let reg = Registry::enabled();
        let report = run_with_obs(&cfg, &reg);
        let snap = reg.snapshot();
        // The scheduler's event counter agrees with the report.
        assert_eq!(snap.counter("sched_events_processed"), report.events);
        // Every dispatched event was classified into exactly one kind.
        let by_kind: u64 = [
            "sim_ev_publish",
            "sim_ev_poll_timer",
            "sim_ev_arrive",
            "sim_ev_user_visit",
            "sim_ev_fail",
            "sim_ev_recover",
            "sim_ev_fetch_timeout",
            "sim_ev_heartbeat",
            "sim_ev_retransmit",
            "sim_ev_probe",
            "sim_ev_request",
            "sim_ev_fill",
            "sim_ev_churn",
            "sim_ev_node_leave",
            "sim_ev_node_crash",
            "sim_ev_node_join",
        ]
        .iter()
        .map(|n| snap.counter(n))
        .sum();
        assert_eq!(by_kind, report.events);
        // Self-adaptive nodes hit both Algorithm 1 transitions on a
        // periodic-then-silent sequence with polling enabled.
        assert!(snap.counter("sim_switch_to_invalidation") > 0);
        // The update-message counter matches the report's accounting.
        assert_eq!(snap.counter("sim_msgs_update"), report.server_update_messages);
        // Publish→adopt latency landed in the self-adaptive histogram.
        let hist = snap.histogram("sim_adopt_lag_s_self_adaptive").expect("histogram exists");
        assert!(hist.count > 0);
        assert!(hist.min >= 0.0 && hist.max.is_finite());
    }

    #[test]
    fn series_sampling_covers_the_simulation() {
        let cfg = small(Scheme::Unicast(MethodKind::SelfAdaptive));
        let reg = Registry::enabled();
        reg.enable_series(1_000_000); // 1 s cadence in sim time
        let _ = run_with_obs(&cfg, &reg);
        let snap = reg.series_snapshot();
        for (name, kind) in [
            ("sched_queue_depth", cdnc_obs::SeriesKind::Gauge),
            ("sim_stale_replicas", cdnc_obs::SeriesKind::Gauge),
            ("sim_pending_updates_self_adaptive", cdnc_obs::SeriesKind::Gauge),
            ("sim_mode_invalidation_nodes", cdnc_obs::SeriesKind::Gauge),
            ("sim_msgs_poll", cdnc_obs::SeriesKind::Rate),
            ("sched_events_processed", cdnc_obs::SeriesKind::Rate),
        ] {
            let entry = snap.get(name, kind).unwrap_or_else(|| panic!("series {name} missing"));
            assert!(!entry.points.is_empty(), "series {name} recorded no samples");
            assert!(entry.points.windows(2).all(|w| w[0].t_us < w[1].t_us));
        }
        // Invalidation mode was actually occupied at some sample point
        // (self-adaptive nodes oscillate under a 30 s publish cadence).
        let modes = snap.get("sim_mode_invalidation_nodes", cdnc_obs::SeriesKind::Gauge).unwrap();
        assert!(modes.points.iter().any(|p| p.value > 0.0));
        // In-flight gauges return to zero: every sent message arrived.
        let msnap = reg.snapshot();
        for kind in ["update", "poll", "invalidation", "method_switch"] {
            let name = format!("sim_inflight_{kind}");
            let g = msnap.gauges.iter().find(|(n, _)| n == &name).unwrap().1;
            assert_eq!(g.value, 0, "{name} must drain by the end of the run");
        }
    }

    #[test]
    fn series_sampling_does_not_perturb_results() {
        let cfg = small(Scheme::Unicast(MethodKind::SelfAdaptive));
        let plain = run(&cfg);
        let reg = Registry::enabled();
        reg.enable_series(250_000);
        let sampled = run_with_obs(&cfg, &reg);
        assert_eq!(plain, sampled, "sampling must be observation-only");
    }

    #[test]
    fn failure_repair_metrics_fire() {
        let mut cfg = small(Scheme::Multicast { method: MethodKind::Push, arity: 2 });
        cfg.failures = Some(crate::config::FailureConfig::with_mean_gap_s(120.0));
        let reg = Registry::enabled();
        let _ = run_with_obs(&cfg, &reg);
        let snap = reg.snapshot();
        assert!(snap.counter("sim_ev_fail") > 0, "failure injection scheduled no failures");
        assert!(
            snap.counter("sim_orphan_reattach") + snap.counter("sim_tree_rejoin") > 0,
            "tree repair never ran"
        );
    }

    mod workload {
        use super::*;
        use crate::metrics::WorkloadStats;

        fn wcfg(scheme: Scheme) -> SimConfig {
            let mut cfg = small(scheme);
            cfg.workload = Some(WorkloadPlan::default());
            cfg
        }

        #[test]
        fn request_plane_serves_and_accounts() {
            let report = run(&wcfg(Scheme::Unicast(MethodKind::Push)));
            let w = &report.workload;
            assert!(w.requests > 0, "users must issue requests");
            assert_eq!(
                w.hits + w.delayed_hits + w.misses,
                w.requests,
                "every request is exactly one of hit/delayed/miss"
            );
            assert_eq!(w.misses, w.origin_fetches, "each miss pays one origin fetch");
            assert!(w.hits > 0, "Zipf head + LRU must produce hits");
            assert!(w.misses > 0, "cold objects and churn must produce misses");
            assert!(w.origin_kb > 0.0);
            assert!(w.churn_events > 0, "the churn process must run");
            assert!(!w.latency_s.is_empty());
            assert!(w.latency_s.iter().all(|&l| l >= 0.0));
            assert!(
                w.latency_s.len() as u64 <= w.requests,
                "at most one latency sample per request"
            );
            assert!(!w.staleness_served_s.is_empty(), "live-object serves must sample staleness");
            assert!(w.staleness_served_s.iter().all(|&s| s >= 0.0));
        }

        #[test]
        fn stats_stay_empty_without_a_plan() {
            let report = run(&small(Scheme::Unicast(MethodKind::Push)));
            assert_eq!(report.workload, WorkloadStats::default());
        }

        #[test]
        fn request_plane_is_deterministic_and_seed_sensitive() {
            let cfg = wcfg(Scheme::Unicast(MethodKind::Ttl));
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a, b, "same config must replay bit-identically");
            let mut reseeded = cfg.clone();
            reseeded.seed ^= 0xdead_beef;
            assert_ne!(run(&reseeded).workload, a.workload);
        }

        #[test]
        fn request_plane_is_observation_only() {
            let cfg = wcfg(Scheme::Unicast(MethodKind::SelfAdaptive));
            let plain = run(&cfg);
            let reg = Registry::enabled();
            reg.enable_series(1_000_000);
            let observed = run_with_obs(&cfg, &reg);
            assert_eq!(plain, observed, "instrumentation must not perturb the workload");
        }

        #[test]
        fn hot_misses_coalesce_into_delayed_hits() {
            let mut cfg = SimConfig::section4(Scheme::Unicast(MethodKind::Push), updates(30, 120));
            cfg.servers = 4;
            cfg.users_per_server = 4;
            cfg.drain = SimDuration::from_secs(30);
            cfg.workload = Some(WorkloadPlan {
                request_rate_hz: 10.0,
                catalog_size: 64,
                cache_capacity: 8,
                ..WorkloadPlan::default()
            });
            let w = run(&cfg).workload;
            assert!(
                w.delayed_hits > 0,
                "concurrent misses for one object must coalesce (got {} misses, {} hits)",
                w.misses,
                w.hits
            );
            // Delayed hits wait for their fill: some latency samples are
            // positive, and hits keep theirs at zero.
            assert!(w.latency_s.iter().any(|&l| l > 0.0));
            assert!(w.latency_s.iter().filter(|&&l| l == 0.0).count() as u64 >= w.hits);
        }

        #[test]
        fn staleness_served_tracks_the_update_method() {
            let ttl = run(&wcfg(Scheme::Unicast(MethodKind::Ttl))).workload;
            let push = run(&wcfg(Scheme::Unicast(MethodKind::Push))).workload;
            assert!(
                ttl.mean_staleness_served_s() > push.mean_staleness_served_s(),
                "TTL serves stale unknowingly: {} must exceed Push's {}",
                ttl.mean_staleness_served_s(),
                push.mean_staleness_served_s()
            );
        }

        #[test]
        fn workload_metrics_cover_the_request_plane() {
            let cfg = wcfg(Scheme::Unicast(MethodKind::Push));
            let reg = Registry::enabled();
            let report = run_with_obs(&cfg, &reg);
            let snap = reg.snapshot();
            let w = &report.workload;
            assert_eq!(snap.counter("wl_requests"), w.requests);
            assert_eq!(snap.counter("wl_hits"), w.hits);
            assert_eq!(snap.counter("wl_delayed_hits"), w.delayed_hits);
            assert_eq!(snap.counter("wl_misses"), w.misses);
            assert_eq!(snap.counter("wl_evictions"), w.evictions);
            assert_eq!(snap.counter("wl_origin_fetches"), w.origin_fetches);
            assert_eq!(snap.counter("wl_churn_events"), w.churn_events);
            assert_eq!(snap.counter("sim_msgs_origin_fetch"), w.origin_fetches);
            assert!(snap.counter("sim_ev_request") > 0);
            assert!(snap.counter("sim_ev_fill") > 0);
            assert!(snap.counter("sim_ev_churn") > 0);
            let hist = snap.histogram("wl_latency_s").expect("latency histogram exists");
            assert_eq!(hist.count as usize, w.latency_s.len());
            // Event classification still covers every dispatch.
            let by_kind: u64 = [
                "sim_ev_publish",
                "sim_ev_poll_timer",
                "sim_ev_arrive",
                "sim_ev_user_visit",
                "sim_ev_fail",
                "sim_ev_recover",
                "sim_ev_fetch_timeout",
                "sim_ev_heartbeat",
                "sim_ev_retransmit",
                "sim_ev_probe",
                "sim_ev_request",
                "sim_ev_fill",
                "sim_ev_churn",
                "sim_ev_node_leave",
                "sim_ev_node_crash",
                "sim_ev_node_join",
            ]
            .iter()
            .map(|n| snap.counter(n))
            .sum();
            assert_eq!(by_kind, report.events);
        }
    }

    #[test]
    fn larger_packets_slow_push_adoption() {
        let mut small_pkt = small(Scheme::Unicast(MethodKind::Push));
        small_pkt.servers = 120;
        let mut big_pkt = small_pkt.clone();
        big_pkt.update_packet_kb = 500.0;
        let fast = run(&small_pkt);
        let slow = run(&big_pkt);
        assert!(
            slow.mean_server_lag_s() > fast.mean_server_lag_s() * 2.0,
            "500 KB push lag {} must far exceed 1 KB lag {}",
            slow.mean_server_lag_s(),
            fast.mean_server_lag_s()
        );
    }

    #[test]
    fn ckpt_encodings_are_pinned() {
        // One of each message (a tracked envelope wrapping an update) and
        // each of the 16 events. The literal is the artifact format itself:
        // a renumbered tag or a reordered field fails here.
        const PINNED: &str = "ckpt_version=1\nckpt_kind=test\n\
            msg=0\na=7\nb=1500000\n\
            msg=1\na=8\n\
            msg=2\na=3\nb=6\nc=1\n\
            msg=3\n\
            msg=4\na=4\nb=1\n\
            msg=5\na=5\nb=0\n\
            msg=6\na=42\nb=2\n\
            msg=0\na=9\nb=2250000\n\
            msg=7\na=43\n\
            ev=0\na=3\n\
            ev=1\na=1\nb=11\n\
            ev=2\na=2\nmsg=7\na=44\n\
            ev=3\na=5\n\
            ev=4\na=3\n\
            ev=5\na=4\n\
            ev=6\na=5\nb=12\n\
            ev=7\na=6\nb=13\n\
            ev=8\na=45\nb=2\n\
            ev=9\na=7\nb=14\n\
            ev=10\na=6\n\
            ev=11\na=8\nb=9\nc=2\nd=15\n\
            ev=12\n\
            ev=13\na=1\n\
            ev=14\na=2\n\
            ev=15\na=3\n";
        let update = |snap, us| Msg::Update {
            snap: SnapshotId(snap),
            modified_at: SimTime::from_micros(us),
            ctx: TraceCtx::NONE,
        };
        let mut msgs = vec![
            update(7, 1_500_000),
            Msg::Invalidate(SnapshotId(8), TraceCtx::NONE),
            Msg::Poll { from: NodeId(3), have: SnapshotId(6), conditional: true },
            Msg::Unchanged,
            Msg::SwitchMode { from: NodeId(4), to_invalidation: true },
            Msg::TreeJoin { from: NodeId(5), invalidation_mode: false },
            Msg::Tracked { id: 42, from: NodeId(2), inner: Box::new(update(9, 2_250_000)) },
            Msg::Ack { id: 43 },
        ];
        let mut events = vec![
            Event::Publish(3),
            Event::PollTimer(NodeId(1), 11),
            Event::Arrive(NodeId(2), Msg::Ack { id: 44 }),
            Event::UserVisit(5),
            Event::Fail(NodeId(3)),
            Event::Recover(NodeId(4)),
            Event::FetchTimeout(NodeId(5), 12),
            Event::Heartbeat(NodeId(6), 13),
            Event::Retransmit(45, 2),
            Event::Probe(NodeId(7), 14),
            Event::Request(6),
            Event::Fill(NodeId(8), ObjectId { slot: 9, gen: 2 }, 15),
            Event::Churn,
            Event::NodeLeave(NodeId(1)),
            Event::NodeCrash(NodeId(2)),
            Event::NodeJoin(NodeId(3)),
        ];
        assert_eq!(events.len(), EVENT_TIMER_LABELS.len(), "every event variant is pinned");
        let b = Bounds { nodes: 9, users: 7, snapshots: 16, slots: 10 };
        let walk = |msgs: &mut Vec<Msg>, events: &mut Vec<Event>, c: &mut Ckpt| {
            msgs.iter_mut().try_for_each(|m| m.persist(c, b))?;
            events.iter_mut().try_for_each(|e| e.persist(c, b))
        };
        assert_eq!(Ckpt::write("test", |c| walk(&mut msgs, &mut events, c)), PINNED);
        let (mut read_msgs, mut read_events) =
            (vec![Msg::default(); 8], vec![Event::default(); 16]);
        Ckpt::read(PINNED, "test", |c| walk(&mut read_msgs, &mut read_events, c)).unwrap();
        let rewritten = Ckpt::write("test", |c| walk(&mut read_msgs, &mut read_events, c));
        assert_eq!(rewritten, PINNED, "read-back values re-write to the same text");
    }
}
