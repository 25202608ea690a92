//! The request plane: users requesting catalog objects through per-edge
//! delayed-hit LRU caches, origin fetches, and catalog churn.

use super::wire::{Bounds, Event};
use super::CdnSimulation;
use crate::config::{SimConfig, WorkloadPlan};
use crate::metrics::WorkloadStats;
use cdnc_net::{NodeId, Packet, PacketKind};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{stream_tag, Scheduler, SimDuration, SimRng, SimTime};
use cdnc_trace::SnapshotId;
use cdnc_workload::{Catalog, Lookup, LruCache, ObjectId};

/// Request-plane state, allocated only when a [`WorkloadPlan`] is
/// attached. Its RNG is a dedicated stream (`seed ^ stream_tag::WORKLOAD`)
/// and every event it schedules is gated on the plan, so `workload: None`
/// runs stay bit-identical to the pre-workload simulator.
#[derive(Debug)]
pub(super) struct WorkloadState {
    plan: WorkloadPlan,
    catalog: Catalog,
    /// Per-node caches indexed like the network (the provider's slot is
    /// never requested from; full-width indexing keeps lookups branch-free
    /// and allocation deterministic).
    caches: Vec<LruCache>,
    rng: SimRng,
    stats: WorkloadStats,
}

impl WorkloadState {
    /// Builds the request plane for `users` users over `nodes` nodes and
    /// arms its Poisson processes: each user's first request and the first
    /// catalog churn event (each chain then re-arms itself).
    pub(super) fn new(
        plan: &WorkloadPlan,
        config: &SimConfig,
        users: usize,
        nodes: usize,
        sched: &mut Scheduler<Event>,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(config.seed ^ stream_tag::WORKLOAD);
        let catalog = Catalog::new(plan.catalog_size, plan.zipf_s, plan.live_slots());
        let caches =
            (0..nodes).map(|_| LruCache::new(plan.cache_capacity, plan.mad_eviction)).collect();
        if plan.request_rate_hz > 0.0 {
            for u in 0..users as u32 {
                let start = SimDuration::from_secs_f64(rng.exponential(plan.request_rate_hz));
                sched.schedule_at(SimTime::ZERO + start, Event::Request(u));
            }
        }
        if plan.churn_rate_hz > 0.0 {
            let first = SimDuration::from_secs_f64(rng.exponential(plan.churn_rate_hz));
            sched.schedule_at(SimTime::ZERO + first, Event::Churn);
        }
        WorkloadState { plan: plan.clone(), catalog, caches, rng, stats: WorkloadStats::default() }
    }

    /// Catalog slots, the bound checkpointed object ids are checked against.
    pub(super) fn slots(&self) -> usize {
        self.catalog.len()
    }

    pub(super) fn into_stats(self) -> WorkloadStats {
        self.stats
    }

    /// Walks the catalog, caches, stream and tallies.
    pub(super) fn persist(&mut self, c: &mut Ckpt, b: Bounds) -> Result<(), CkptError> {
        self.catalog.persist(c)?;
        c.fixed("wl_caches", self.caches.len())?;
        for cache in &mut self.caches {
            cache.persist(c, b.slots, b.snapshots, b.users)?;
        }
        c.rng("wl_rng", &mut self.rng)?;
        let st = &mut self.stats;
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
    }
}

/// Omniscient staleness-served, seconds, of a copy filled at provider
/// snapshot `snap` and served at `now` against provider head `head`: zero
/// when the copy is current, otherwise the time since the first publish the
/// copy misses.
fn staleness_served_s(config: &SimConfig, head: SnapshotId, snap: u32, now: SimTime) -> f64 {
    if SnapshotId(snap) >= head {
        0.0
    } else {
        now.since(config.published_at(SnapshotId(snap + 1))).as_secs_f64()
    }
}

impl CdnSimulation<'_> {
    /// One workload request from user `u`, routed to their current server
    /// (their home, or the last server a roaming visit landed on). A cache
    /// hit serves at zero latency; a request for an object already being
    /// fetched coalesces behind the in-flight fetch (a delayed hit); a miss
    /// starts an origin fetch. A cached *live* object the edge believes
    /// stale — its own consistency state moved past the copy's fill
    /// snapshot, or an invalidation told it newer content exists — is
    /// revalidated: dropped and refetched, counted as a miss.
    pub(super) fn on_request(&mut self, now: SimTime, u: u32) {
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
                wl.stats.latency_s.push(0.0);
                if live {
                    let head = self.head();
                    let staleness = staleness_served_s(self.config, head, snap, now);
                    wl.stats.staleness_served_s.push(staleness);
                }
            }
            Lookup::Delayed => wl.stats.delayed_hits += 1,
            Lookup::Miss => {
                wl.stats.misses += 1;
                wl.stats.origin_fetches += 1;
                self.obs.wl_misses.inc();
                // The origin serves its head version as of fetch issue.
                let snap = self.head().0;
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
    /// waiter queue is guaranteed a releasing fill (or the horizon). They
    /// carry no trace.
    fn send_origin_fetch(&mut self, now: SimTime, edge: NodeId, id: ObjectId, snap: u32, kb: f64) {
        let packet = Packet::origin_fetch(self.topo.provider, edge, kb);
        let sent = self.net.send(now, &packet);
        self.obs.hook.send(|| sent.record(now, &packet));
        self.sched.schedule_at(sent.arrival, Event::Fill(edge, id, snap));
    }

    /// An origin fetch lands at `edge`: cache the object and release every
    /// waiter queued behind the fetch — the miss initiator plus its delayed
    /// hits — exactly once, each sampling the user-perceived latency (and,
    /// for live objects, the staleness of the copy they were served).
    pub(super) fn on_fill(&mut self, now: SimTime, edge: NodeId, id: ObjectId, snap: u32) {
        let Some(mut wl) = self.workload.take() else { return };
        // The fetch leaves the wire here (its delivery event is the fill).
        self.obs.hook.deliver(PacketKind::OriginFetch as usize, wl.plan.object_kb);
        wl.stats.origin_kb += wl.plan.object_kb;
        if !wl.caches[edge.index()].is_fetching(id) {
            // The edge departed (or crash-restarted cold) while this fetch
            // was in flight; its waiters were already released as aborted
            // misses, so the payload is dropped — but it still crossed the
            // wire, hence the accounting above stays.
            wl.stats.orphan_fills += 1;
            self.workload = Some(wl);
            return;
        }
        let (waiters, evicted) = wl.caches[edge.index()].fill(id, snap, now);
        wl.stats.evictions += u64::from(evicted.is_some());
        let head = self.head();
        let live = wl.catalog.is_live(id.slot);
        for w in waiters {
            wl.stats.latency_s.push(now.since(w.requested_at).as_secs_f64());
            if live {
                let staleness = staleness_served_s(self.config, head, snap, now);
                wl.stats.staleness_served_s.push(staleness);
            }
        }
        self.workload = Some(wl);
    }

    /// One catalog publish/perish churn event; the process re-arms itself.
    pub(super) fn on_churn(&mut self, now: SimTime) {
        let Some(wl) = self.workload.as_mut() else { return };
        wl.catalog.churn(&mut wl.rng, now);
        wl.stats.churn_events += 1;
        let next = SimDuration::from_secs_f64(wl.rng.exponential(wl.plan.churn_rate_hz));
        self.sched.schedule_at(now + next, Event::Churn);
    }

    /// Releases every delayed-hit waiter queued behind `node`'s in-flight
    /// origin fetches as an unanswered miss (the edge died mid-fetch); a
    /// cold restart additionally drops the cached entries.
    pub(super) fn abort_edge_fetches(&mut self, node: NodeId, cold: bool) {
        let Some(wl) = self.workload.as_mut() else { return };
        let cache = &mut wl.caches[node.index()];
        let aborted = if cold { cache.cold_restart() } else { cache.abort_inflight() };
        wl.stats.waiters_aborted += aborted.len() as u64;
    }
}
