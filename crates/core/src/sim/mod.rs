//! The event-driven CDN consistency simulator.
//!
//! Replays an update sequence through a deployment [`Scheme`] and measures
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
//!
//! One `CdnSimulation` drives the event loop. Each protocol concern is a
//! submodule that declares the state only it touches, with private fields
//! (DESIGN.md § Simulator layout).

mod lifecycle;
mod methods;
mod obs;
mod reliable;
mod request;
mod state;
mod survival;
mod wire;

use crate::config::{Scheme, SimConfig};
use crate::method::{AdaptiveMode, MethodKind};
use crate::metrics::SimReport;
use crate::topology::Topology;
use cdnc_geo::{IspId, WorldBuilder};
use cdnc_net::{FaultPlane, Network, NodeId, Packet, PacketKind, PACKET_NAMES};
use cdnc_obs::profile::{self, Subsystem};
use cdnc_obs::{EventHook, Registry};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{stream_tag, Scheduler, SimDuration, SimRng, SimTime};
use cdnc_trace::SnapshotId;
use lifecycle::LifecycleState;
use obs::SimObs;
use reliable::ReliableState;
use request::WorkloadState;
use state::{NodeState, UserState};
use survival::ClusterState;
use wire::{Bounds, Event, Msg, EVENT_KINDS};

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
    simulate(config, obs, |sim| {
        let _run = obs.span("sim_events");
        sim.run()
    })
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
    simulate(config, obs, |mut sim| {
        let _run = obs.span("sim_events");
        sim.run_until(at);
        Ckpt::write(SIM_KIND, |c| sim.persist(c))
    })
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
    simulate(config, obs, |mut sim| {
        sim.restore(artifact)?;
        let _run = obs.span("sim_events");
        Ok(sim.run())
    })
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
    simulate(config, obs, |mut sim| {
        sim.restore(artifact)?;
        let _run = obs.span("sim_events");
        sim.run_until(until);
        Ok(Ckpt::write(SIM_KIND, |c| sim.persist(c)))
    })
}

/// Builds the simulation for `config` under a `sim_build` span and hands it
/// to `drive`, attributing its otherwise unclaimed allocations to `sim_core`.
fn simulate<T>(config: &SimConfig, obs: &Registry, drive: impl FnOnce(CdnSimulation) -> T) -> T {
    let _prof = profile::scope(Subsystem::SimCore);
    let sim = {
        let _build = obs.span("sim_build");
        CdnSimulation::new(config, obs)
    };
    drive(sim)
}

/// Protocol tallies the [`SimReport`] carries, counted as they happen.
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
    /// Ack/retransmit ledger (`Some` iff `config.faults` is).
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
        // Node 0 is the provider; its ISP is shared with the nearest server's
        // ISP so the Atlanta metro is intra-ISP, like the measured CDN.
        let provider = world.provider_location();
        let provider_isp = world
            .nodes()
            .iter()
            .min_by(|a, b| {
                a.location.distance_km(&provider).total_cmp(&b.location.distance_km(&provider))
            })
            .map_or(IspId(0), |n| n.isp);
        net.add_node(provider, provider_isp);
        for n in world.nodes() {
            net.add_node(n.location, n.isp);
        }
        let mut rng = SimRng::seed_from_u64(config.seed ^ stream_tag::SIM);
        let (topo, tree) = Topology::build_with_tree(&config.scheme, &net, &mut rng.fork());

        let nodes: Vec<NodeState> = (0..net.len()).map(|_| NodeState::default()).collect();
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
                UserState::new(home, visit_interval)
            })
            .collect();

        let mut sched = Scheduler::with_horizon(config.horizon());
        let hook =
            EventHook::new(registry, &EVENT_KINDS, &PACKET_NAMES, config.horizon().as_micros());
        // Publishes: snapshot 0 pre-exists everywhere; 1.. are events.
        for (id, _) in config.updates.iter().skip(1) {
            sched.schedule_at(config.published_at(id), Event::Publish(id.0));
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
            reliable = Some(ReliableState::new(plan, fault_rng.fork()));
            if plan.hat_degradation {
                if let Scheme::Hybrid { member_method, .. } = config.scheme {
                    clusters = Some(ClusterState::from_topology(&topo, net.len(), member_method));
                }
            }
        }
        // The request plane and node lifecycle each draw from a dedicated
        // stream and schedule only under their plan.
        let workload = config
            .workload
            .as_ref()
            .map(|plan| WorkloadState::new(plan, config, users.len(), net.len(), &mut sched));
        let lifecycle = config
            .churn
            .as_ref()
            .map(|plan| LifecycleState::new(plan, config, &topo, net.len(), &mut sched));

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
            reliable,
            clusters,
            workload,
            lifecycle,
            chaos: ChaosStats::default(),
            obs: SimObs::new(registry, hook),
        }
    }

    fn run(mut self) -> SimReport {
        while self.step() {}
        self.obs.hook.close(self.sched.pending());
        self.finish()
    }

    /// Runs scheduled events with time ≤ `at` (used by checkpointing to
    /// stop mid-run without consuming the remaining queue).
    fn run_until(&mut self, at: SimTime) {
        while self.sched.peek_time().is_some_and(|t| t <= at) && self.step() {}
        self.obs.hook.close(self.sched.pending());
    }

    /// Dispatches one scheduled event; `false` when the queue is drained
    /// (or the horizon gate closed).
    fn step(&mut self) -> bool {
        let Some((now, ev)) = self.sched.next() else { return false };
        self.obs.record(now, &ev, self.sched.pending());
        match ev {
            Event::Publish(idx) => self.on_publish(now, SnapshotId(idx)),
            Event::PollTimer(node, gen) => self.on_poll_timer(now, node, gen),
            Event::UserVisit(u) => self.on_user_visit(now, u),
            Event::Arrive(node, msg) => {
                // Delivered or lost, the message leaves the wire.
                self.obs.hook.deliver(msg.kind() as usize, self.packet_kb(msg.kind()));
                // Messages to a failed node are lost (the silent-loss class
                // the fault plane's retransmits exist to cover).
                if self.nodes[node.index()].absent {
                    self.chaos.lost_to_failed += 1;
                    self.obs.tracer.lost(msg.trace_ctx(), node.index() as u32, now.as_micros());
                } else {
                    self.on_arrive(now, node, msg);
                }
            }
            Event::Fail(node) => self.on_fail(now, node),
            Event::Recover(node) => self.on_recover(now, node),
            Event::FetchTimeout(node, token) => self.on_fetch_timeout(node, token),
            Event::Heartbeat(node, gen) => self.on_heartbeat(now, node, gen),
            Event::Retransmit(id, attempt) => self.on_retransmit(now, id, attempt),
            Event::Probe(node, gen) => self.on_probe(now, node, gen),
            Event::Request(u) => self.on_request(now, u),
            Event::Fill(edge, id, snap) => self.on_fill(now, edge, id, snap),
            Event::Churn => self.on_churn(now),
            Event::NodeLeave(node) => self.on_node_leave(now, node),
            Event::NodeCrash(node) => self.on_node_crash(now, node),
            Event::NodeJoin(node) => self.on_node_join(now, node),
        }
        true
    }

    fn on_arrive(&mut self, now: SimTime, node: NodeId, msg: Msg) {
        match msg {
            Msg::Update { snap, ctx } => self.on_update(now, node, snap, ctx),
            Msg::Invalidate(snap, ctx) => self.on_invalidate(now, node, snap, ctx),
            Msg::Poll { from, have, conditional } => {
                self.on_poll(now, node, from, have, conditional)
            }
            Msg::Unchanged => self.on_unchanged(now, node),
            Msg::SwitchMode { from, to_invalidation }
            | Msg::TreeJoin { from, invalidation_mode: to_invalidation } => {
                self.on_register(node, from, to_invalidation)
            }
            Msg::Tracked { id, from, inner } => self.on_tracked(now, node, id, from, *inner),
            Msg::Ack { id } => self.on_ack(id),
        }
    }

    /// End-of-run accounting once the queue has drained.
    fn finish(mut self) -> SimReport {
        // Structural profiling probe: per-node / per-user resident state
        // size at quiesce. The handles are dark unless the registry has
        // profiling enabled, so this is one branch per node otherwise.
        for n in &self.nodes {
            self.obs.node_state_bytes.record(n.estimated_bytes() as f64);
        }
        for _ in &self.users {
            self.obs.user_state_bytes.record(std::mem::size_of::<UserState>() as f64);
        }
        self.check_convergence();
        let registry = self.obs.registry.clone();
        let report = self.into_report();
        obs::record_report(&registry, &report);
        report
    }

    /// The provider's content: the newest snapshot published.
    fn head(&self) -> SnapshotId {
        self.nodes[self.topo.provider.index()].content
    }

    /// Wire size of a packet of `kind`, KB (updates carry content; every
    /// other message is light).
    fn packet_kb(&self, kind: PacketKind) -> f64 {
        match kind {
            PacketKind::Update => self.config.update_packet_kb,
            _ => 1.0,
        }
    }

    /// Sends `msg` from `src` to `dst`: one `Arrive` per copy the network
    /// delivers. Without a fault plane that is exactly one; with one, the
    /// plane may drop, duplicate, or delay the packet, and traffic is still
    /// charged once per send (drops waste the wire like real packets do).
    /// The send is observed once; content-carrying and invalidation
    /// messages extend their update's causal trace with a hop span each
    /// receiver continues from.
    fn send(&mut self, now: SimTime, src: NodeId, dst: NodeId, mut msg: Msg) {
        // A failed node sends nothing.
        if self.nodes[src.index()].absent {
            return;
        }
        let kind = msg.kind();
        if kind == PacketKind::Update && src == self.topo.provider {
            self.provider_update_messages += 1;
        }
        let packet = Packet::new(kind, self.packet_kb(kind), src, dst);
        let sent = self.net.send_faulted(now, &packet);
        self.obs.hook.send(|| sent.record(now, &packet));
        let mut copies = self.obs.hops(msg.trace_ctx(), now, &packet, &sent);
        let Some(mut last) = copies.next() else { return };
        for next in copies {
            let mut copy = msg.clone();
            copy.set_ctx(last.1);
            self.sched.schedule_at(last.0, Event::Arrive(dst, copy));
            last = next;
        }
        msg.set_ctx(last.1);
        self.sched.schedule_at(last.0, Event::Arrive(dst, msg));
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
            slots: self.workload.as_ref().map_or(0, WorkloadState::slots),
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
        let chaos = &mut self.chaos;
        c.u64("chaos_lost", &mut chaos.lost_to_failed)?;
        c.u64("chaos_rtx", &mut chaos.retransmits)?;
        c.u64("chaos_abandoned", &mut chaos.abandoned)?;
        c.u64("chaos_abandoned_dep", &mut chaos.abandoned_to_departed)?;
        c.u64("chaos_dup", &mut chaos.dup_suppressed)?;
        c.u64("chaos_failovers", &mut chaos.failovers)?;
        c.u64("chaos_ttl_fallbacks", &mut chaos.ttl_fallbacks)?;
        c.u64("chaos_conv", &mut chaos.convergence_violations)?;
        c.section("reliable", self.reliable.as_mut(), |rel, c| rel.persist(c, b))?;
        self.topo.persist(c)?;
        c.section("tree", self.tree.as_mut(), |tree, c| tree.persist(c, b.nodes))?;
        c.section("workload", self.workload.as_mut(), |wl, c| wl.persist(c, b))?;
        self.net.persist(c)?;
        c.section("lifecycle", self.lifecycle.as_mut(), |lc, c| lc.persist(c))?;
        self.obs.persist_digest(c)?;
        self.check_walked()
    }

    /// Checks, after the [`CdnSimulation::persist`] walk, what the state's
    /// derivations assume. Pending publishes count as `head − cursor` and
    /// lags count against `SimConfig::published_at`, so no content, lag
    /// cursor or update in flight may pass the provider's head, the head
    /// must be published by the clock, and the queue must hold exactly the
    /// publishes after it, each at its instant. A recorded departure must be
    /// on an absent node.
    fn check_walked(&self) -> Result<(), CkptError> {
        let (config, head, now) = (self.config, self.head(), self.sched.now());
        let fail = |what: String| Err(CkptError(what));
        if head.0 > 0 && config.published_at(head) > now {
            return fail(format!(
                "n_content={} of the provider is published after the clock",
                head.0
            ));
        }
        let queued = self.sched.queued().filter_map(|(_, ev)| match ev {
            Event::Arrive(_, msg) => Some(("queued update a", msg)),
            _ => None,
        });
        let held = self.reliable.iter().flat_map(ReliableState::held).map(|m| ("held update a", m));
        let updates = queued.chain(held).filter_map(|(key, msg)| Some((key, msg.content()?)));
        let nodes = self
            .nodes
            .iter()
            .flat_map(|n| [("n_content", n.content), ("n_resolved", n.lag_cursor)]);
        let users = self.users.iter().map(|u| ("u_seen_max", u.seen_max));
        if let Some((key, snap)) = nodes.chain(users).chain(updates).find(|&(_, s)| s > head) {
            return fail(format!("{key}={} passes the provider's head {}", snap.0, head.0));
        }
        let mut publishes = Vec::new();
        for (at, ev) in self.sched.queued() {
            if let Event::Publish(p) = *ev {
                if at != config.published_at(SnapshotId(p)) {
                    return fail(format!("queued publish a={p} is not at its scheduled instant"));
                }
                publishes.push(p);
            }
        }
        publishes.sort_unstable();
        if !publishes.into_iter().eq(head.0 + 1..config.updates.len() as u32) {
            return fail(format!("queued publishes are not one per snapshot after {}", head.0));
        }
        let present_departed = self.lifecycle.as_ref().and_then(|lc| {
            (0..self.nodes.len()).find(|&i| lc.departed(NodeId(i as u32)) && !self.nodes[i].absent)
        });
        match present_departed {
            Some(i) => {
                fail(format!("lc_down records a departure of node {i}, which is not absent"))
            }
            None => Ok(()),
        }
    }

    /// Reads a checkpoint `artifact` into this freshly built simulation.
    /// The checkpoint holds no gauge, so an armed hook then raises each level
    /// gauge the handlers move by `add`/`sub` to the restored state's level
    /// (a disabled registry skips the walk).
    fn restore(&mut self, artifact: &str) -> Result<(), CkptError> {
        Ckpt::read(artifact, SIM_KIND, |c| self.persist(c))?;
        if !self.obs.hook.is_armed() {
            return Ok(());
        }
        let obs = &self.obs;
        let fetch_kb = self.config.workload.as_ref().map_or(0.0, |plan| plan.object_kb);
        for (_, ev) in self.sched.queued() {
            let (kind, kb) = match ev {
                Event::Arrive(_, msg) => (msg.kind(), self.packet_kb(msg.kind())),
                Event::Fill(..) => (PacketKind::OriginFetch, fetch_kb),
                _ => continue,
            };
            obs.hook.in_flight(kind as usize, kb);
        }
        let head = self.head();
        for &s in &self.topo.servers {
            obs.pending(self.topo.method_of(s)).add(self.nodes[s.index()].pending(head));
        }
        obs.pending_user_updates.add(self.users.iter().map(|u| u.pending(head)).sum());
        let count = |pred: fn(&NodeState) -> bool| self.nodes.iter().filter(|n| pred(n)).count();
        obs.stale_replicas.add(count(|n| n.known_stale.is_some()) as u64);
        obs.inval_mode_nodes.add(count(|n| n.mode == AdaptiveMode::Invalidation) as u64);
        obs.pending_retransmits.add(self.reliable.as_ref().map_or(0, ReliableState::outstanding));
        Ok(())
    }

    fn into_report(self) -> SimReport {
        let head = self.head();
        let unresolved: u64 =
            self.topo.servers.iter().map(|&s| self.nodes[s.index()].pending(head)).sum::<u64>()
                + self.users.iter().map(|u| u.pending(head)).sum::<u64>();
        let (node_joins, node_leaves, crash_restarts) =
            self.lifecycle.as_ref().map_or((0, 0, 0), LifecycleState::counts);
        SimReport {
            scheme_label: self.config.scheme.label().to_owned(),
            server_mean_lag_s: self
                .topo
                .servers
                .iter()
                .map(|&s| self.nodes[s.index()].mean_lag_s)
                .collect(),
            user_mean_lag_s: self.users.iter().map(|u| u.mean_lag_s).collect(),
            traffic: self.net.traffic().clone(),
            provider_update_messages: self.provider_update_messages,
            server_update_messages: self.net.traffic().count_of(PacketKind::Update),
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
            node_joins,
            node_leaves,
            crash_restarts,
            abandoned_to_departed: self.chaos.abandoned_to_departed,
            workload: self.workload.map(WorkloadState::into_stats).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wire::EVENT_KINDS;
    use super::*;
    use crate::config::{ChurnKind, ChurnTarget, FaultPlan, Scheme, WorkloadPlan};
    use cdnc_obs::{SpanKind, TraceCtx};
    use cdnc_trace::UpdateSequence;
    use cdnc_workload::ObjectId;

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
            reg.enable_profiling();
            let profiled = run_with_obs(&cfg, &reg);
            assert_eq!(plain, profiled, "profiling probes must be observation-only");
            let snap = reg.snapshot();
            // One state-size sample per node (servers + provider) and user.
            let nodes = snap.histogram("sim_node_state_bytes").expect("node state probe");
            assert_eq!(nodes.count, cfg.servers as u64 + 1);
            assert!(nodes.min >= std::mem::size_of::<NodeState>() as f64);
            let users = snap.histogram("sim_user_state_bytes").expect("user state probe");
            assert_eq!(users.count, cfg.users() as u64);
            // The wire drains: every delivered packet was retired at its
            // arrival (a dropped one never counted), so in-flight levels end
            // at zero while the high-water marks show the run really put
            // bytes in flight.
            let inflight =
                snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").expect("armed").1;
            assert_eq!(inflight.value, 0, "in-flight bytes must drain by quiesce");
            assert!(inflight.high_water > 0);
            assert_eq!(
                snap.counter("sim_msgs_update"),
                profiled.server_update_messages,
                "the network's per-kind tally matches the report"
            );
        }

        #[test]
        fn each_send_is_observed_once() {
            // Drops, duplicates and origin fetches in one run.
            let mut cfg = chaotic(Scheme::hat(), 0.7);
            cfg.workload = Some(WorkloadPlan::default());
            let reg = Registry::enabled();
            let mut sim = CdnSimulation::new(&cfg, &reg);
            // Mid-run, with packets on the wire, then once the queue stops.
            for pause in [SimTime::from_secs(300), SimTime::MAX] {
                sim.run_until(pause);
                let traffic = sim.net.traffic();
                let snap = reg.snapshot();
                assert_eq!(snap.counter("net_packets_enqueued"), traffic.total_messages());
                let mut queued = [0; cdnc_net::PACKET_KINDS];
                for (_, ev) in sim.sched.queued() {
                    match ev {
                        Event::Arrive(_, msg) => queued[msg.kind() as usize] += 1,
                        Event::Fill(..) => queued[PacketKind::OriginFetch as usize] += 1,
                        _ => {}
                    }
                }
                for (kind, &(_, sent, inflight, _)) in PacketKind::ALL.iter().zip(&PACKET_NAMES) {
                    assert_eq!(snap.counter(sent), traffic.count_of(*kind), "{sent}");
                    let level = snap.gauges.iter().find(|(n, _)| n == inflight).unwrap().1.value;
                    assert_eq!(level, queued[*kind as usize], "{inflight} at {pause}");
                }
            }
            let snap = reg.snapshot();
            assert!(snap.counter("net_fault_dropped") > 0, "the run must drop packets");
            assert!(snap.counter("net_fault_duplicated") > 0, "the run must duplicate packets");
            assert!(snap.counter("sim_msgs_origin_fetch") > 0, "the run must fetch from origin");
        }

        #[test]
        fn chaos_instrumentation_is_observation_only() {
            let cfg = chaotic(Scheme::hat(), 0.7);
            let plain = run(&cfg);
            let reg = Registry::enabled();
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
        fn restored_runs_rederive_level_gauges() {
            // Every gauge's level (not its high-water mark, which may peak
            // before the checkpoint) after a restore at `t1` and a run to
            // `t2` equals a straight run's at `t2`. The uplink backlog is
            // left out: it reads the last send's queueing delay, which a
            // window without sends never sets.
            let levels = |reg: &Registry| -> Vec<(String, u64)> {
                let gauges = reg.snapshot().gauges.into_iter();
                gauges
                    .filter(|(n, _)| n != "net_uplink_backlog_ms")
                    .map(|(n, g)| (n, g.value))
                    .collect()
            };
            let bulky = |method| {
                let mut cfg = SimConfig::section4(Scheme::Unicast(method), updates(7, 600));
                cfg.servers = 120;
                cfg.update_packet_kb = 200.0;
                cfg
            };
            let faulty = |scheme| {
                let mut cfg = small(scheme);
                cfg.servers = 80;
                cfg.faults = Some(FaultPlan::at_intensity(0.6));
                cfg
            };
            let mut requests = faulty(Scheme::Unicast(MethodKind::SelfAdaptive));
            requests.workload = Some(WorkloadPlan::default());
            for (cfg, t1, t2) in [
                (bulky(MethodKind::Push), 200.0, 201.5),
                (bulky(MethodKind::Ttl), 200.0, 201.5),
                (faulty(Scheme::Unicast(MethodKind::Push)), 150.0, 165.0),
                (faulty(Scheme::hat()), 150.0, 165.0),
                (requests, 150.0, 165.0),
            ] {
                let (t1, t2) = (SimTime::from_secs_f64(t1), SimTime::from_secs_f64(t2));
                let profiled = || {
                    let reg = Registry::enabled();
                    reg.enable_profiling();
                    reg
                };
                let straight = profiled();
                checkpoint_with_obs(&cfg, &straight, t2);
                let resumed = profiled();
                let art = checkpoint(&cfg, t1);
                resume_until_with_obs(&cfg, &resumed, &art, t2).expect("artifact restores");
                assert_eq!(levels(&resumed), levels(&straight), "{} at {t2}", cfg.scheme);
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
    fn timeprof_charges_every_dispatched_event_once() {
        let cfg = small(Scheme::Unicast(MethodKind::SelfAdaptive));
        let armed = || {
            let reg = Registry::enabled();
            reg.enable_timeprof();
            reg
        };
        // A finished run, and one paused mid-run by a checkpoint: each
        // closes its last event when the loop stops.
        let (finished, paused) = (armed(), armed());
        assert_eq!(run_with_obs(&cfg, &finished), run(&cfg), "timeprof is observation-only");
        checkpoint_with_obs(&cfg, &paused, SimTime::from_secs(300));
        for reg in [&finished, &paused] {
            let (snap, tp) = (reg.snapshot(), reg.timeprof_snapshot().expect("armed"));
            let mut charged_s = 0.0;
            for (counter, label) in EVENT_KINDS {
                let h = tp.handlers.iter().find(|(l, _)| l == label).map(|(_, h)| h);
                assert_eq!(h.map_or(0, |h| h.count), snap.counter(counter), "{label}");
                charged_s += h.map_or(0.0, |h| h.sum);
            }
            assert!(snap.counter("sched_events_processed") > 0);
            assert_eq!(tp.handlers.len(), EVENT_KINDS.len(), "only event kinds are charged");
            let frame = tp.frames.iter().find(|(p, _)| p == "sim_events").expect("frame").1;
            assert!(
                charged_s <= frame.total_secs() + 1e-6,
                "handler time {charged_s} s exceeds the sim_events frame {} s",
                frame.total_secs()
            );
        }
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
        const PINNED: &str = "ckpt_version=3\nckpt_kind=test\n\
            msg=0\na=7\n\
            msg=1\na=8\n\
            msg=2\na=3\nb=6\nc=1\n\
            msg=3\n\
            msg=4\na=4\nb=1\n\
            msg=5\na=5\nb=0\n\
            msg=6\na=42\nb=2\n\
            msg=0\na=9\n\
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
        let update = |snap| Msg::Update { snap: SnapshotId(snap), ctx: TraceCtx::NONE };
        let mut msgs = vec![
            update(7),
            Msg::Invalidate(SnapshotId(8), TraceCtx::NONE),
            Msg::Poll { from: NodeId(3), have: SnapshotId(6), conditional: true },
            Msg::Unchanged,
            Msg::SwitchMode { from: NodeId(4), to_invalidation: true },
            Msg::TreeJoin { from: NodeId(5), invalidation_mode: false },
            Msg::Tracked { id: 42, from: NodeId(2), inner: Box::new(update(9)) },
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
        assert_eq!(events.len(), EVENT_KINDS.len(), "every event variant is pinned");
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
