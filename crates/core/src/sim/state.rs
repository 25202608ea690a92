//! Per-node and per-user protocol state.

use super::wire::Bounds;
use crate::method::AdaptiveMode;
use cdnc_net::NodeId;
use cdnc_obs::TraceCtx;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::stats::OnlineStats;
use cdnc_simcore::{SimDuration, SimTime};
use cdnc_trace::SnapshotId;
use std::collections::VecDeque;

#[derive(Debug, Default)]
pub(super) struct NodeState {
    pub(super) content: SnapshotId,
    /// Highest version this node has been told is newer than its content.
    pub(super) known_stale: Option<SnapshotId>,
    /// Algorithm 1 state (self-adaptive nodes only). Written only through
    /// `CdnSimulation::set_mode`, which keeps the occupancy gauge in step.
    pub(super) mode: AdaptiveMode,
    /// An on-demand fetch to the upstream is in flight.
    pub(super) fetch_pending: bool,
    /// Poll-timer generation; stale timer events are ignored.
    pub(super) timer_gen: u64,
    /// On-demand fetch identifier; stale fetch timeouts are ignored.
    pub(super) fetch_token: u64,
    /// Whether the node is currently failed/overloaded.
    pub(super) absent: bool,
    /// Provider-side publish instant of the current content (carried on
    /// update messages — the Last-Modified analogue).
    pub(super) content_modified_at: SimTime,
    /// Adaptive-TTL state: the current poll interval estimate, seconds.
    pub(super) adaptive_interval_s: f64,
    /// Downstream nodes whose on-demand polls wait on our fetch.
    pub(super) waiting_children: Vec<NodeId>,
    /// Users whose visits wait on our fetch.
    pub(super) waiting_users: Vec<u32>,
    /// Downstream self-adaptive nodes currently in invalidation mode.
    pub(super) inval_registry: Vec<NodeId>,
    /// Highest version we already invalidated our children for.
    pub(super) last_invalidated: SnapshotId,
    /// Publishes not yet adopted, for lag accounting.
    pub(super) pending_pubs: VecDeque<(SnapshotId, SimTime)>,
    pub(super) lag: OnlineStats,
    /// Causal trace context of the current content (terminal adopt span, or
    /// the publish root on the provider). Observation-only.
    pub(super) content_ctx: TraceCtx,
    /// When the failure detector's outstanding probe was sent (`None` when
    /// no probe is in flight). Only used under a [`FaultPlan`](crate::FaultPlan).
    pub(super) awaiting_probe: Option<SimTime>,
    /// Probe-chain generation; stale probe events are ignored.
    pub(super) probe_gen: u64,
}

impl NodeState {
    /// A node holding snapshot 0 in TTL mode, with nothing pending.
    pub(super) fn new() -> Self {
        // `OnlineStats::default()` is zeroed, not an empty accumulator.
        NodeState { lag: OnlineStats::new(), ..NodeState::default() }
    }

    pub(super) fn is_stale(&self) -> bool {
        self.known_stale.is_some_and(|s| s > self.content)
    }

    /// Estimated resident size of this node's state: the struct itself plus
    /// the heap blocks behind its collections (capacity, not length — what
    /// the allocator actually holds).
    pub(super) fn estimated_bytes(&self) -> u64 {
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
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
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

#[derive(Debug, Default)]
pub(super) struct UserState {
    pub(super) home: NodeId,
    pub(super) last_server: NodeId,
    /// This user's visit interval (heterogeneous when
    /// `SimConfig::visit_spread > 0`).
    pub(super) visit_interval: SimDuration,
    pub(super) seen_max: SnapshotId,
    pub(super) pending_pubs: VecDeque<(SnapshotId, SimTime)>,
    pub(super) lag: OnlineStats,
    pub(super) inconsistent_obs: u64,
    pub(super) total_obs: u64,
}

impl UserState {
    /// A user at `home` that has observed nothing yet.
    pub(super) fn new(home: NodeId, visit_interval: SimDuration) -> Self {
        let lag = OnlineStats::new();
        UserState { home, last_server: home, visit_interval, lag, ..UserState::default() }
    }

    /// Estimated resident size, like [`NodeState::estimated_bytes`].
    pub(super) fn estimated_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.pending_pubs.capacity() * std::mem::size_of::<(SnapshotId, SimTime)>())
            as u64
    }

    /// Walks this user's observation state (home server and visit interval
    /// are derived from the configuration, not stored).
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
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
