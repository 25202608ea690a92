//! Per-node and per-user protocol state.

use super::wire::Bounds;
use crate::config::SimConfig;
use crate::method::AdaptiveMode;
use cdnc_net::NodeId;
use cdnc_obs::TraceCtx;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{SimDuration, SimTime};
use cdnc_trace::SnapshotId;

/// Counts the lags of publishes `(cursor, snap]`, resolved at `now`, into
/// `mean_s`, the running mean of the lags of publishes `1..=cursor`, and
/// returns the new cursor; `each` sees every lag counted. Publish `p` is the
/// `p`-th lag counted, so the count is the cursor and is never stored.
fn fold_lags(
    config: &SimConfig,
    cursor: SnapshotId,
    snap: SnapshotId,
    now: SimTime,
    mean_s: &mut f64,
    mut each: impl FnMut(f64),
) -> SnapshotId {
    for p in cursor.0 + 1..=snap.0 {
        let lag_s = now.since(config.published_at(SnapshotId(p))).as_secs_f64();
        *mean_s += (lag_s - *mean_s) / f64::from(p);
        each(lag_s);
    }
    cursor.max(snap)
}

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
    /// Highest publish whose adoption lag is counted: publishes
    /// `1..=lag_cursor` are, the rest up to the provider's head are pending.
    /// A crash resets `content`, not this.
    pub(super) lag_cursor: SnapshotId,
    /// Mean adoption lag of the counted publishes, seconds.
    pub(super) mean_lag_s: f64,
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
            + self.inval_registry.capacity() * std::mem::size_of::<NodeId>()) as u64
    }

    /// Counts the adoption lag, at `now`, of every publish up to `content`
    /// not counted yet, handing each to `each`; after a crash reset
    /// `content`, nothing until it passes the cursor again.
    pub(super) fn count_lags(&mut self, config: &SimConfig, now: SimTime, each: impl FnMut(f64)) {
        self.lag_cursor =
            fold_lags(config, self.lag_cursor, self.content, now, &mut self.mean_lag_s, each);
    }

    /// Publishes up to `head` not adopted yet.
    pub(super) fn pending(&self, head: SnapshotId) -> u64 {
        u64::from(head.0 - self.lag_cursor.0)
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
        c.index("n_resolved", &mut self.lag_cursor.0, b.snapshots)?;
        c.f64("n_lag_mean", &mut self.mean_lag_s)?;
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
    /// Newest version observed: publishes `1..=seen_max` have their lag
    /// counted, the rest up to the provider's head are pending.
    pub(super) seen_max: SnapshotId,
    /// Mean observation lag of the counted publishes, seconds.
    pub(super) mean_lag_s: f64,
    pub(super) inconsistent_obs: u64,
    pub(super) total_obs: u64,
}

impl UserState {
    /// A user at `home` that has observed nothing yet.
    pub(super) fn new(home: NodeId, visit_interval: SimDuration) -> Self {
        UserState { home, last_server: home, visit_interval, ..UserState::default() }
    }

    /// The user observes `snap` at `now`: the publishes up to a newer `snap`
    /// resolve (their number is returned), and a version older than one
    /// already seen counts as an inconsistent observation.
    pub(super) fn observe(&mut self, config: &SimConfig, snap: SnapshotId, now: SimTime) -> u64 {
        self.total_obs += 1;
        if snap < self.seen_max {
            self.inconsistent_obs += 1;
            return 0;
        }
        let resolved = u64::from(snap.0 - self.seen_max.0);
        self.seen_max = fold_lags(config, self.seen_max, snap, now, &mut self.mean_lag_s, |_| {});
        resolved
    }

    /// Publishes up to `head` not observed yet.
    pub(super) fn pending(&self, head: SnapshotId) -> u64 {
        u64::from(head.0 - self.seen_max.0)
    }

    /// Walks this user's observation state (home server and visit interval
    /// are derived from the configuration, not stored).
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        c.index("u_last_server", &mut self.last_server.0, b.nodes)?;
        c.index("u_seen_max", &mut self.seen_max.0, b.snapshots)?;
        c.f64("u_lag_mean", &mut self.mean_lag_s)?;
        c.u64("u_inconsistent", &mut self.inconsistent_obs)?;
        c.u64("u_total", &mut self.total_obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::method::MethodKind;
    use cdnc_trace::UpdateSequence;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The lag state the cursor replaces: every publish queued with its
    /// instant until adopted or observed, and a Welford mean over the lags
    /// resolved.
    #[derive(Default)]
    struct PublishQueue {
        pending: VecDeque<(SnapshotId, SimTime)>,
        count: u64,
        mean: f64,
    }

    impl PublishQueue {
        /// Resolves every queued publish up to `snap` at `now`; returns the
        /// lags in publish order.
        fn resolve(&mut self, snap: SnapshotId, now: SimTime) -> Vec<u64> {
            let mut lags = Vec::new();
            while let Some(&(p, t)) = self.pending.front() {
                if p > snap {
                    break;
                }
                let x = now.since(t).as_secs_f64();
                self.count += 1;
                let delta = x - self.mean;
                self.mean += delta / self.count as f64;
                lags.push(x.to_bits());
                self.pending.pop_front();
            }
            lags
        }
    }

    proptest! {
        /// Driven side by side with the queue it replaces through publishes,
        /// adoptions of any published snapshot, crash resets of `content`
        /// and observations below and above `seen_max`, the cursor holds the
        /// same number of pending publishes and a bit-equal mean after every
        /// step, and counts the same lags.
        #[test]
        fn prop_lag_cursor_matches_the_publish_queue(
            gaps_us in vec(1u64..30_000_000, 1..24),
            steps in vec((0u8..4, 0u32..1_000_000, 0u64..40_000_000), 1..120),
        ) {
            let mut times = vec![SimTime::ZERO];
            for &gap in &gaps_us {
                times.push(times[times.len() - 1] + SimDuration::from_micros(gap));
            }
            let updates = UpdateSequence::from_times(times.clone()).expect("increasing");
            let config = SimConfig::section4(Scheme::Unicast(MethodKind::Push), updates);
            let start = SimTime::ZERO + config.update_start;
            let (mut node, mut user) = (NodeState::default(), UserState::default());
            let (mut node_queue, mut user_queue) = (PublishQueue::default(), PublishQueue::default());
            let (mut head, mut now) = (SnapshotId(0), SimTime::ZERO);
            for (kind, pick, dt_us) in steps {
                let next = times.get(head.0 as usize + 1).map(|t| start + t.since(SimTime::ZERO));
                if kind == 0 {
                    // The next publish, at its instant.
                    let Some(at) = next else { continue };
                    (head, now) = (head.next(), at);
                    node_queue.pending.push_back((head, now));
                    user_queue.pending.push_back((head, now));
                } else {
                    // Time passes, short of the next publish.
                    let later = now + SimDuration::from_micros(dt_us);
                    if next.is_none_or(|at| later < at) {
                        now = later;
                    }
                    let snap = SnapshotId(pick % (head.0 + 1));
                    match kind {
                        1 if snap > node.content => {
                            node.content = snap;
                            let mut lags = Vec::new();
                            node.count_lags(&config, now, |lag_s| lags.push(lag_s.to_bits()));
                            prop_assert_eq!(lags, node_queue.resolve(snap, now));
                        }
                        1 => {}
                        2 => node.content = SnapshotId(0),
                        _ => {
                            let resolved = user.observe(&config, snap, now);
                            prop_assert_eq!(resolved, user_queue.resolve(snap, now).len() as u64);
                        }
                    }
                }
                prop_assert_eq!(node.pending(head), node_queue.pending.len() as u64);
                prop_assert_eq!(user.pending(head), user_queue.pending.len() as u64);
                prop_assert_eq!(node.mean_lag_s.to_bits(), node_queue.mean.to_bits());
                prop_assert_eq!(user.mean_lag_s.to_bits(), user_queue.mean.to_bits());
            }
        }
    }
}
