//! Simulation configuration: schemes (method × infrastructure) and the
//! experimental parameters of paper §4 and §5.

use crate::method::MethodKind;
use cdnc_net::{AbsenceConfig, FaultConfig, NetworkConfig};
use cdnc_simcore::{SimDuration, SimTime};
use cdnc_trace::{SnapshotId, UpdateSequence};
use std::fmt;

/// A deployment scheme: an update method married to an update
/// infrastructure.
///
/// The six §5.3 comparison systems map onto this as:
///
/// | Paper name   | Scheme                                                    |
/// |--------------|-----------------------------------------------------------|
/// | Push         | `Unicast(Push)`                                           |
/// | Invalidation | `Unicast(Invalidation)`                                   |
/// | TTL          | `Unicast(Ttl)`                                            |
/// | Self         | `Unicast(SelfAdaptive)`                                   |
/// | Hybrid       | `Hybrid { member_method: Ttl, .. }`                       |
/// | HAT          | `Hybrid { member_method: SelfAdaptive, .. }`              |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The provider talks to every server directly.
    Unicast(MethodKind),
    /// Servers form a proximity-aware d-ary tree rooted at the provider.
    Multicast {
        /// Update method run on every tree edge.
        method: MethodKind,
        /// Maximum children per tree node (paper §4 uses 2).
        arity: usize,
    },
    /// HAT's infrastructure (§5.2): servers are clustered by Hilbert number;
    /// each cluster elects a supernode; supernodes receive updates by Push
    /// over a proximity-aware tree; cluster members run `member_method`
    /// against their supernode.
    Hybrid {
        /// Number of proximity clusters (paper §5.3 uses 20).
        clusters: usize,
        /// Supernode tree arity (paper §5.3 uses 4).
        tree_arity: usize,
        /// Method run by intra-cluster members: `Ttl` gives the paper's
        /// "Hybrid" baseline, `SelfAdaptive` gives HAT.
        member_method: MethodKind,
    },
}

impl Scheme {
    /// The paper's §5 "Hybrid" system (supernode tree + TTL members).
    pub fn hybrid() -> Self {
        Scheme::Hybrid { clusters: 20, tree_arity: 4, member_method: MethodKind::Ttl }
    }

    /// The paper's proposed HAT (supernode tree + self-adaptive members).
    pub fn hat() -> Self {
        Scheme::Hybrid { clusters: 20, tree_arity: 4, member_method: MethodKind::SelfAdaptive }
    }

    /// The six §5.3 comparison systems in the paper's order:
    /// Push, Invalidation, TTL, Self, Hybrid, HAT.
    pub fn section5_lineup() -> [Scheme; 6] {
        [
            Scheme::Unicast(MethodKind::Push),
            Scheme::Unicast(MethodKind::Invalidation),
            Scheme::Unicast(MethodKind::Ttl),
            Scheme::Unicast(MethodKind::SelfAdaptive),
            Scheme::hybrid(),
            Scheme::hat(),
        ]
    }

    /// The short label the paper uses for this scheme in §5 figures.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Unicast(MethodKind::Push) => "Push",
            Scheme::Unicast(MethodKind::Invalidation) => "Invalidation",
            Scheme::Unicast(MethodKind::Ttl) => "TTL",
            Scheme::Unicast(MethodKind::SelfAdaptive) => "Self",
            Scheme::Unicast(MethodKind::AdaptiveTtl) => "AdaptiveTTL",
            Scheme::Multicast { method: MethodKind::Push, .. } => "Push/Multicast",
            Scheme::Multicast { method: MethodKind::Invalidation, .. } => "Invalidation/Multicast",
            Scheme::Multicast { method: MethodKind::Ttl, .. } => "TTL/Multicast",
            Scheme::Multicast { method: MethodKind::SelfAdaptive, .. } => "Self/Multicast",
            Scheme::Multicast { method: MethodKind::AdaptiveTtl, .. } => "AdaptiveTTL/Multicast",
            Scheme::Hybrid { member_method: MethodKind::SelfAdaptive, .. } => "HAT",
            Scheme::Hybrid { .. } => "Hybrid",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Server-failure injection for the evaluation simulator.
///
/// The paper motivates the infrastructure comparison with exactly this
/// threat: "node failures break the structure connectivity and lead to
/// unsuccessful update propagation ... the structure maintenance will incur
/// high overhead" (§1). With failures enabled, servers go absent per the
/// schedule: messages to/from them are lost, multicast trees repair
/// themselves (orphans re-attach, charging structure-maintenance messages),
/// and recovered nodes re-join and re-synchronise with a conditional poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureConfig {
    /// The failure/overload process (same model as the measured §3.4.5
    /// absences).
    pub absence: AbsenceConfig,
    /// How long a replica waits for an on-demand fetch response before
    /// giving up (the upstream may have died mid-request).
    pub fetch_timeout: SimDuration,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            absence: AbsenceConfig::default(),
            fetch_timeout: SimDuration::from_secs(15),
        }
    }
}

impl FailureConfig {
    /// A failure process with the given mean gap between one server's
    /// failures, seconds.
    pub fn with_mean_gap_s(mean_gap_s: f64) -> Self {
        FailureConfig {
            absence: AbsenceConfig { mean_gap_s, ..AbsenceConfig::default() },
            ..FailureConfig::default()
        }
    }
}

/// The chaos plan: a deterministic network fault description plus the
/// protocol knobs that make update delivery survive it.
///
/// Attaching a plan (`SimConfig::faults = Some(..)`) switches the
/// simulator into its survivable-delivery mode even when the fault config
/// itself is quiet:
///
/// * Push and Invalidation control messages are **tracked** — the receiver
///   acks them, the sender retransmits on timeout with capped exponential
///   backoff plus deterministic jitter, and gives up (counting an
///   abandoned delivery) after `max_retransmits` attempts;
/// * servers whose upstream is another server run a **probe-based failure
///   detector** (a generalisation of the invalidation-mode heartbeat to
///   tree parents): a conditional poll every `probe_interval`, with an
///   unanswered probe older than `probe_timeout` marking the upstream
///   suspect;
/// * with `hat_degradation` on, a HAT cluster whose supernode is suspect
///   **fails over**: the nearest present member is promoted into the
///   supernode's tree slot and re-registered with its tree parent, the
///   remaining members rewire to it, and invalidation-mode members fall
///   back to TTL polling until Algorithm 1 switches them back;
/// * all faults are fenced `settle` before the horizon, after which a
///   **convergence invariant** is checked: every present replica must
///   equal the provider's head version (violations are counted, and
///   dumped to the flight recorder when tracing).
///
/// With `faults: None` (the default) none of this machinery exists and
/// the simulation is bit-identical to the pre-fault-plane behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// What the network injects (loss, duplication, reordering, latency
    /// spikes, partitions, brownouts).
    pub faults: FaultConfig,
    /// Initial retransmit timeout of a tracked message.
    pub rto: SimDuration,
    /// Cap of the exponential backoff.
    pub rto_max: SimDuration,
    /// Retransmissions after which a delivery is abandoned (the original
    /// send is not counted).
    pub max_retransmits: u32,
    /// Deterministic jitter applied to each backoff: the wait is scaled by
    /// a factor drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Probe period of the failure detector.
    pub probe_interval: SimDuration,
    /// An unanswered probe older than this marks the upstream suspect.
    pub probe_timeout: SimDuration,
    /// Enables HAT graceful degradation (supernode failover + member TTL
    /// fallback). Only meaningful for `Scheme::Hybrid` runs.
    pub hat_degradation: bool,
    /// Quiet tail before the horizon: no fault (probabilistic or
    /// scheduled) fires within `settle` of the end of the run.
    pub settle: SimDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            faults: FaultConfig::none(),
            rto: SimDuration::from_secs(2),
            rto_max: SimDuration::from_secs(30),
            max_retransmits: 10,
            jitter: 0.3,
            probe_interval: SimDuration::from_secs(15),
            probe_timeout: SimDuration::from_secs(40),
            hat_degradation: true,
            settle: SimDuration::from_secs(120),
        }
    }
}

impl FaultPlan {
    /// A plan whose fault probabilities scale with `intensity` in
    /// `[0, 1]`; protocol knobs stay at their defaults. Intensity 0 runs
    /// the full protocol (acks, probes, convergence check) over a clean
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]`.
    pub fn at_intensity(intensity: f64) -> Self {
        FaultPlan { faults: FaultConfig::at_intensity(intensity), ..FaultPlan::default() }
    }
}

/// The request-plane plan: the workload the edges serve while the
/// consistency plane propagates updates.
///
/// Attaching a plan (`SimConfig::workload = Some(..)`) arms the request
/// plane inside the simulator:
///
/// * a **Zipf catalog** of `catalog_size` objects with publish/perish churn
///   at `churn_rate_hz` (hot ranks turn over fastest; ranks re-normalise
///   deterministically because the popularity ladder never moves);
/// * **per-user Poisson request arrivals** at `request_rate_hz`, routed to
///   the user's current edge server;
/// * **per-edge LRU caches** of `cache_capacity` objects with delayed-hit
///   coalescing — concurrent misses for one object share a single origin
///   fetch of `object_kb` KB charged through the network substrate — and,
///   with `mad_eviction`, a MAD-aware eviction variant;
/// * a **serve path integrated with the consistency plane**: the hottest
///   `live_fraction` of the catalog is live content whose cached copies
///   carry the provider snapshot they were filled at; an edge refetches a
///   copy it *believes* stale (its node adopted a newer snapshot, or holds
///   an invalidation), and serves it otherwise — so TTL edges serve stale
///   bytes they don't know about, which is exactly what the
///   *staleness-served* metric measures.
///
/// With `workload: None` (the default) none of this machinery exists and
/// the simulation is bit-identical to the pre-workload behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// Number of objects (popularity ranks) in the catalog.
    pub catalog_size: usize,
    /// Zipf popularity exponent (0 = uniform; CDN demand ≈ 0.6–1.2).
    pub zipf_s: f64,
    /// Fraction of the catalog (hottest ranks) that is live content
    /// versioned by the provider's update stream, in `[0, 1]`.
    pub live_fraction: f64,
    /// Per-user Poisson request rate, requests per second.
    pub request_rate_hz: f64,
    /// Catalog publish/perish churn rate, events per second (global).
    pub churn_rate_hz: f64,
    /// Per-edge cache capacity, objects.
    pub cache_capacity: usize,
    /// Object size, KB — the payload of every origin fetch.
    pub object_kb: f64,
    /// Selects the MAD-aware (delay-conscious) eviction variant.
    pub mad_eviction: bool,
}

impl Default for WorkloadPlan {
    fn default() -> Self {
        WorkloadPlan {
            catalog_size: 512,
            zipf_s: 0.9,
            live_fraction: 0.25,
            request_rate_hz: 0.2,
            churn_rate_hz: 0.5,
            cache_capacity: 64,
            object_kb: 20.0,
            mad_eviction: false,
        }
    }
}

impl WorkloadPlan {
    /// A plan swept over the `ext_workload` axes: catalog size and Zipf
    /// skew, everything else at defaults.
    pub fn with_catalog(catalog_size: usize, zipf_s: f64) -> Self {
        WorkloadPlan { catalog_size, zipf_s, ..WorkloadPlan::default() }
    }

    /// Number of live (provider-versioned) catalog ranks.
    pub fn live_slots(&self) -> usize {
        ((self.catalog_size as f64 * self.live_fraction).round() as usize).min(self.catalog_size)
    }
}

/// How a churn event takes a node down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Graceful departure: the node answers its waiting children, drains
    /// reliable-delivery state, and leaves the structure cleanly. Its cache
    /// survives the downtime (a planned maintenance window).
    Leave,
    /// Crash: the node vanishes mid-protocol and restarts cold — LRU cache
    /// empty, consistency state reset to the initial version, invalidation
    /// registrations lost. It reconverges through the survival protocol.
    Crash,
}

/// What a scheduled churn event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnTarget {
    /// The `k`-th content server (0-based, wrapped into range).
    Server(usize),
    /// The `k`-th currently-elected supernode (wrapped into the supernode
    /// list; falls back to `Server(k)` for schemes without supernodes).
    Supernode(usize),
}

/// One scripted lifecycle event: take `target` down at `at` via `kind`,
/// bring it back `downtime` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledChurn {
    /// When the node goes down (offset from t = 0).
    pub at: SimDuration,
    /// Which node.
    pub target: ChurnTarget,
    /// Graceful leave or crash.
    pub kind: ChurnKind,
    /// How long it stays gone before rejoining.
    pub downtime: SimDuration,
}

/// The node lifecycle plan: deterministic membership churn — joins,
/// graceful departures, and crash-restarts — layered over the running
/// protocol.
///
/// Attaching a plan (`SimConfig::churn = Some(..)`) arms the lifecycle
/// plane:
///
/// * each server independently runs `cycles_per_server × churn_fraction`
///   expected **down/up cycles**, placed deterministically from the churn
///   RNG stream across `[0, horizon − settle)`;
/// * a cycle is **graceful** with probability `graceful_fraction` (the node
///   hands its waiting children their answers, drains its retransmit state,
///   and keeps its cache warm) and a **crash** otherwise (state loss: cold
///   cache, initial content version, dropped invalidation registrations);
/// * a departed supernode triggers the HAT failover immediately (graceful
///   leave) or via the probe detector (crash), exactly like a fault-plane
///   failure;
/// * rejoining nodes re-admit through the structure (cluster re-attach or
///   tree join), re-register, and re-synchronise with a conditional poll;
/// * `scheduled` events fire verbatim on top of the stochastic cycles —
///   the anomaly-replay hook (e.g. "kill supernode 0 at t = 300 s, flash
///   restart 5 s later");
/// * like the fault plane, everything is fenced `settle` before the
///   horizon so the convergence invariant has a quiet tail to settle in.
///
/// With `churn: None` (the default) none of this machinery exists and the
/// simulation is bit-identical to the pre-lifecycle behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPlan {
    /// Expected down/up cycles per participating server over the run.
    pub cycles_per_server: f64,
    /// Fraction of servers that churn at all, in `[0, 1]`.
    pub churn_fraction: f64,
    /// Mean downtime of a cycle, seconds (exponentially distributed,
    /// clamped so the rejoin stays inside the fence).
    pub mean_downtime_s: f64,
    /// Probability a cycle is a graceful leave rather than a crash, in
    /// `[0, 1]`.
    pub graceful_fraction: f64,
    /// Scripted events fired verbatim on top of the stochastic cycles.
    pub scheduled: Vec<ScheduledChurn>,
    /// Quiet tail before the horizon: no churn event (down or rejoin)
    /// fires within `settle` of the end of the run.
    pub settle: SimDuration,
}

impl Default for ChurnPlan {
    fn default() -> Self {
        ChurnPlan {
            cycles_per_server: 1.0,
            churn_fraction: 0.2,
            mean_downtime_s: 60.0,
            graceful_fraction: 0.5,
            scheduled: Vec::new(),
            settle: SimDuration::from_secs(240),
        }
    }
}

impl ChurnPlan {
    /// A plan whose churn volume scales with `intensity` in `[0, 1]`:
    /// `3 × intensity` expected cycles over `intensity` of the fleet, half
    /// graceful. Intensity 0 arms the lifecycle machinery (and its
    /// accounting) with zero stochastic churn.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]`.
    pub fn at_intensity(intensity: f64) -> Self {
        assert!((0.0..=1.0).contains(&intensity), "churn intensity {intensity} outside [0, 1]");
        ChurnPlan {
            cycles_per_server: 3.0 * intensity,
            churn_fraction: intensity,
            ..ChurnPlan::default()
        }
    }
}

/// Full configuration of one CDN-consistency simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of content servers (paper §4: 170; §5: 850).
    pub servers: usize,
    /// Simulated end-users per server (paper: 5).
    pub users_per_server: usize,
    /// Deployment scheme under test.
    pub scheme: Scheme,
    /// Content-server TTL for polling methods (paper §4 behaviour implies
    /// ~10 s; §5 sets 60 s).
    pub server_ttl: SimDuration,
    /// End-user poll interval ("end-user TTL", paper: 10 s).
    pub user_ttl: SimDuration,
    /// Size of a content-update packet, KB (paper §4: 1 KB; Fig. 19 sweeps
    /// to 500 KB).
    pub update_packet_kb: f64,
    /// The update sequence to replay (relative times; shifted by
    /// `update_start`).
    pub updates: UpdateSequence,
    /// When the provider starts updating (paper: t = 60 s).
    pub update_start: SimDuration,
    /// End-users start at a uniformly random time in `[0, user_start_window]`
    /// (paper: [0, 50] s).
    pub user_start_window: SimDuration,
    /// Extra simulated time after the last update, letting in-flight
    /// adoptions finish.
    pub drain: SimDuration,
    /// When `true`, every successive visit of a user goes to a different
    /// random server (the paper's Fig. 24 scenario); when `false`, users
    /// stick to their home server.
    pub users_roam: bool,
    /// Optional server-failure injection (extension of the paper's §4
    /// evaluation; `None` reproduces the paper's failure-free runs).
    pub failures: Option<FailureConfig>,
    /// Optional chaos plan: network fault injection plus the reliable
    /// delivery / failure-detector / HAT-degradation protocol machinery.
    /// `None` (the default) leaves every send and handler exactly as
    /// before — zero overhead when off.
    pub faults: Option<FaultPlan>,
    /// Optional request-plane workload (Zipf catalog, per-edge LRU caches
    /// with delayed hits, staleness-served accounting). `None` (the
    /// default) is bit-identical to the pre-workload simulator.
    pub workload: Option<WorkloadPlan>,
    /// Optional node lifecycle plan: joins, graceful departures, and
    /// crash-restarts with state recovery. `None` (the default) is
    /// bit-identical to the pre-lifecycle simulator.
    pub churn: Option<ChurnPlan>,
    /// Heterogeneity of end-user visit frequencies (§6's "varying visit
    /// frequencies" factor): each user's visit interval is `user_ttl`
    /// scaled by a log-uniform factor in `[1/(1+s), 1+s]`. 0 reproduces the
    /// paper's homogeneous users.
    pub visit_spread: f64,
    /// Network model parameters.
    pub network: NetworkConfig,
    /// Master seed.
    pub seed: u64,
}

impl SimConfig {
    /// Paper §4 defaults: 170 servers mainly in US/EU/Asia, provider in
    /// Atlanta, 5 users per server, 1 KB packets, updates from t = 60 s,
    /// users from U[0, 50] s, server TTL 10 s.
    pub fn section4(scheme: Scheme, updates: UpdateSequence) -> Self {
        SimConfig {
            servers: 170,
            users_per_server: 5,
            scheme,
            server_ttl: SimDuration::from_secs(10),
            user_ttl: SimDuration::from_secs(10),
            update_packet_kb: 1.0,
            updates,
            update_start: SimDuration::from_secs(60),
            user_start_window: SimDuration::from_secs(50),
            drain: SimDuration::from_secs(240),
            users_roam: false,
            failures: None,
            faults: None,
            workload: None,
            churn: None,
            visit_spread: 0.0,
            network: NetworkConfig::default(),
            seed: 0,
        }
    }

    /// Paper §5.3 defaults: 850 servers (each of 170 sites simulates 5),
    /// 5 observers per server, server TTL 60 s, observer TTL 10 s.
    pub fn section5(scheme: Scheme, updates: UpdateSequence) -> Self {
        SimConfig {
            servers: 850,
            server_ttl: SimDuration::from_secs(60),
            drain: SimDuration::from_secs(360),
            ..SimConfig::section4(scheme, updates)
        }
    }

    /// Total end-user count.
    pub fn users(&self) -> usize {
        self.servers * self.users_per_server
    }

    /// The simulation horizon: update start + last update + drain.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO
            + self.update_start
            + self.updates.last_update().since(SimTime::ZERO)
            + self.drain
    }

    /// When the provider publishes snapshot `id`: its instant in `updates`,
    /// shifted by `update_start`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is beyond the update sequence.
    pub fn published_at(&self, id: SnapshotId) -> SimTime {
        SimTime::ZERO + self.update_start + self.updates.published_at(id).since(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section5_lineup_labels() {
        let labels: Vec<&str> = Scheme::section5_lineup().iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["Push", "Invalidation", "TTL", "Self", "Hybrid", "HAT"]);
    }

    #[test]
    fn multicast_labels() {
        assert_eq!(
            Scheme::Multicast { method: MethodKind::Ttl, arity: 2 }.label(),
            "TTL/Multicast"
        );
        assert_eq!(Scheme::hat().to_string(), "HAT");
    }

    #[test]
    fn horizon_accounts_for_start_and_drain() {
        let updates = UpdateSequence::periodic(SimDuration::from_secs(10), SimTime::from_secs(100));
        let cfg = SimConfig::section4(Scheme::Unicast(MethodKind::Push), updates);
        assert_eq!(
            cfg.horizon(),
            SimTime::from_secs(60 + 100 + 240),
            "horizon = start + last update + drain"
        );
        assert_eq!(cfg.users(), 850);
    }

    #[test]
    fn churn_plan_scales_with_intensity() {
        let quiet = ChurnPlan::at_intensity(0.0);
        assert_eq!(quiet.cycles_per_server, 0.0);
        assert_eq!(quiet.churn_fraction, 0.0);
        let heavy = ChurnPlan::at_intensity(1.0);
        assert_eq!(heavy.cycles_per_server, 3.0);
        assert_eq!(heavy.churn_fraction, 1.0);
        assert_eq!(heavy.graceful_fraction, 0.5);
        assert!(heavy.scheduled.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn churn_intensity_out_of_range_rejected() {
        let _ = ChurnPlan::at_intensity(1.5);
    }

    #[test]
    fn section5_scales_up() {
        let updates = UpdateSequence::silent();
        let cfg = SimConfig::section5(Scheme::hat(), updates);
        assert_eq!(cfg.servers, 850);
        assert_eq!(cfg.users(), 4_250);
        assert_eq!(cfg.server_ttl, SimDuration::from_secs(60));
    }
}
