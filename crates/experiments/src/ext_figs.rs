//! Extension experiments beyond the paper's figures.
//!
//! * [`ext_failures`] — the §1 motivation made quantitative: how each
//!   infrastructure degrades under server failures, and what tree repair
//!   costs in structure-maintenance messages.
//! * [`ext_adaptive`] — the §5.1 argument made quantitative: the
//!   related-work adaptive-TTL baseline vs the paper's self-adaptive method
//!   on regular and bursty content.
//! * [`ext_policy`] — the §6 future work: the policy advisor's
//!   recommendations validated against fixed baselines by simulation.
//! * [`ext_chaos`] — the robustness extension: every method × infrastructure
//!   under the deterministic fault plane (loss, duplication, reordering,
//!   latency spikes, a scheduled ISP partition, a provider brownout), with
//!   the reliable-delivery protocol and HAT graceful degradation active.
//! * [`ext_workload`] — the request-plane extension: every method ×
//!   infrastructure serving a Zipf-popularity catalog through per-edge LRU
//!   caches with delayed-hit coalescing, swept over catalog size and Zipf
//!   skew; reports cache hit rates, user-perceived latency, and
//!   staleness-served, with full latency/staleness CDF curves.

use crate::ctx::RunCtx;
use crate::eval_figs::{run_batch_on, section4_updates_for};
use crate::report::FigureReport;
use cdnc_core::{
    recommend, ChurnKind, ChurnPlan, ChurnTarget, FailureConfig, FaultPlan, MethodKind,
    Requirement, ScheduledChurn, Scheme, SimConfig, WorkloadPlan, WorkloadProfile,
};
use cdnc_geo::IspId;
use cdnc_net::{Brownout, IspPartition, NodeId, PacketKind};
use cdnc_obs::Registry;
use cdnc_simcore::stats::Cdf;
use cdnc_simcore::{SimDuration, SimTime};
use cdnc_trace::UpdateSequence;

/// Failure resilience per scheme: inconsistency, repair traffic and
/// undelivered updates as the failure rate grows.
pub fn ext_failures(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new(
        "ext_failures",
        "EXT: inconsistency and repair cost under server failures",
    );
    let schemes = [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Multicast { method: MethodKind::Push, arity: 2 },
        Scheme::Multicast { method: MethodKind::Ttl, arity: 2 },
        Scheme::hat(),
    ];
    // Mean gap between one server's failures, seconds; smaller = harsher.
    let regimes: [(&str, Option<f64>); 3] =
        [("none", None), ("light", Some(2_000.0)), ("heavy", Some(400.0))];
    let mut configs = Vec::new();
    for &(_, gap) in &regimes {
        for scheme in schemes {
            let mut cfg = SimConfig::section4(scheme, section4_updates_for(ctx));
            cfg.servers = ctx.scale.section4_servers().min(120);
            cfg.seed = ctx.seed(cfg.seed);
            cfg.failures = gap.map(FailureConfig::with_mean_gap_s);
            configs.push(cfg);
        }
    }
    let reports = run_batch_on(configs, obs, &ctx.pool);
    for (chunk, &(regime, _)) in reports.chunks(schemes.len()).zip(&regimes) {
        for r in chunk {
            report.row(format!(
                "  [{regime:>5}] {:<22} lag={:>7.3}s maintenance={:>5} unresolved={:>3}",
                r.scheme_label,
                r.mean_server_lag_s(),
                r.traffic.count_of(PacketKind::TreeMaintenance),
                r.unresolved_lags
            ));
            report.keyval(format!("{}_{regime}_lag_s", r.scheme_label), r.mean_server_lag_s());
            report.keyval(
                format!("{}_{regime}_maintenance", r.scheme_label),
                r.traffic.count_of(PacketKind::TreeMaintenance) as f64,
            );
            report.keyval(
                format!("{}_{regime}_unresolved", r.scheme_label),
                r.unresolved_lags as f64,
            );
            report.keyval(
                format!("{}_{regime}_lost_to_failed", r.scheme_label),
                r.msgs_lost_to_failed as f64,
            );
        }
    }
    report
}

/// Chaos sweep: each method over unicast and tree infrastructures, plus
/// HAT, against the fault plane at rising intensity. Non-zero intensities
/// also schedule a 5-minute ISP↔ISP partition and a provider uplink
/// brownout on top of the probabilistic noise. Reports consistency plus
/// the reliable-delivery protocol's work: retransmissions, abandoned
/// deliveries, failovers, and the convergence-invariant verdict.
pub fn ext_chaos(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new(
        "ext_chaos",
        "EXT: consistency and protocol cost under deterministic fault injection",
    );
    let schemes = [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Invalidation),
        Scheme::Unicast(MethodKind::Ttl),
        Scheme::Multicast { method: MethodKind::Push, arity: 2 },
        Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 },
        Scheme::Multicast { method: MethodKind::Ttl, arity: 2 },
        Scheme::hat(),
    ];
    let intensities: [(&str, f64); 3] = [("calm", 0.0), ("rough", 0.3), ("storm", 0.7)];
    let mut configs = Vec::new();
    for &(_, intensity) in &intensities {
        for scheme in schemes {
            let mut cfg = SimConfig::section4(scheme, section4_updates_for(ctx));
            cfg.servers = ctx.scale.section4_servers().min(120);
            cfg.seed = ctx.seed(cfg.seed);
            let mut plan = FaultPlan::at_intensity(intensity);
            if intensity > 0.0 {
                // Two scheduled incidents on top of the probabilistic noise:
                // a peering dispute between two US ISPs mid-game, and a
                // provider uplink brownout shortly after. Both sit well
                // before the settle fence, so convergence must still hold.
                plan.faults.isp_partitions.push(IspPartition {
                    a: IspId(0),
                    b: IspId(5),
                    from: SimTime::from_secs(300),
                    until: SimTime::from_secs(600),
                });
                plan.faults.brownouts.push(Brownout {
                    node: NodeId(0),
                    from: SimTime::from_secs(700),
                    until: SimTime::from_secs(1_000),
                    extra_s_per_kb: 0.5 * intensity,
                });
            }
            cfg.faults = Some(plan);
            configs.push(cfg);
        }
    }
    let reports = run_batch_on(configs, obs, &ctx.pool);
    for (chunk, &(regime, _)) in reports.chunks(schemes.len()).zip(&intensities) {
        for r in chunk {
            report.row(format!(
                "  [{regime:>5}] {:<22} lag={:>7.3}s rtx={:>5} abandoned={:>3} failovers={:>2} violations={:>2}",
                r.scheme_label,
                r.mean_server_lag_s(),
                r.retransmits,
                r.abandoned_deliveries,
                r.failovers,
                r.convergence_violations
            ));
            report.keyval(format!("{}_{regime}_lag_s", r.scheme_label), r.mean_server_lag_s());
            report.keyval(format!("{}_{regime}_retransmits", r.scheme_label), r.retransmits as f64);
            report.keyval(
                format!("{}_{regime}_abandoned", r.scheme_label),
                r.abandoned_deliveries as f64,
            );
            report.keyval(format!("{}_{regime}_failovers", r.scheme_label), r.failovers as f64);
            report.keyval(
                format!("{}_{regime}_violations", r.scheme_label),
                r.convergence_violations as f64,
            );
        }
    }
    report
}

/// The schemes swept by [`ext_churn`].
fn churn_schemes() -> [Scheme; 7] {
    [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Invalidation),
        Scheme::Unicast(MethodKind::Ttl),
        Scheme::Multicast { method: MethodKind::Push, arity: 2 },
        Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 },
        Scheme::Multicast { method: MethodKind::Ttl, arity: 2 },
        Scheme::hat(),
    ]
}

/// CLI keys for `churn_schemes`, in the same order. These are the values
/// `experiments checkpoint --scheme <key>` accepts and the spelling a
/// replay artifact records.
pub const CHURN_SCHEME_KEYS: [&str; 7] =
    ["push", "invalidation", "ttl", "push-mcast", "invalidation-mcast", "ttl-mcast", "hat"];

/// Resolves a [`CHURN_SCHEME_KEYS`] entry back to its scheme.
pub fn churn_scheme(key: &str) -> Option<Scheme> {
    let idx = CHURN_SCHEME_KEYS.iter().position(|k| *k == key)?;
    Some(churn_schemes()[idx])
}

/// The configuration of one [`ext_churn`] cell. Shared with the
/// `experiments checkpoint` / `replay` commands, so a replay artifact
/// reproduces a sweep cell exactly.
///
/// Churn rides on the fault plane's survival protocol (acks, probes, the
/// convergence check); the plane itself stays calm so the sweep isolates
/// lifecycle effects. `flash` adds the supernode-kill + flash-restart
/// incident: the leader of cluster 0 crashes cold mid-game and is back
/// 45 s later, so the probe detector, failover, and the restarted node's
/// cold resync all fire in one cell.
pub fn churn_config(ctx: RunCtx, scheme: Scheme, intensity: f64, flash: bool) -> SimConfig {
    let mut cfg = SimConfig::section4(scheme, section4_updates_for(ctx));
    cfg.servers = ctx.scale.section4_servers().min(120);
    cfg.seed = ctx.seed(cfg.seed);
    cfg.faults = Some(FaultPlan::at_intensity(0.0));
    let mut plan = ChurnPlan::at_intensity(intensity);
    if flash {
        plan.scheduled.push(ScheduledChurn {
            at: SimDuration::from_secs(300),
            target: ChurnTarget::Supernode(0),
            kind: ChurnKind::Crash,
            downtime: SimDuration::from_secs(45),
        });
    }
    cfg.churn = Some(plan);
    cfg
}

/// Node-lifecycle sweep: every method over unicast and tree
/// infrastructures, plus HAT, under rising churn — servers leave
/// gracefully (handing off their waiters) or crash (losing cache and
/// consistency state) and rejoin cold, reconverging through the survival
/// protocol. The storm regime adds the scheduled supernode-kill +
/// flash-restart incident. Reports consistency, the lifecycle volume, the
/// fast-abandon count, failovers, and the convergence-invariant verdict —
/// which must be zero in every cell.
pub fn ext_churn(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new(
        "ext_churn",
        "EXT: consistency and recovery cost under node lifecycle churn",
    );
    // (regime, stochastic churn intensity, scheduled flash incident).
    let regimes: [(&str, f64, bool); 3] =
        [("calm", 0.0, false), ("mild", 0.3, false), ("storm", 0.8, true)];
    let schemes = churn_schemes();
    let mut configs = Vec::new();
    for &(_, intensity, flash) in &regimes {
        for scheme in schemes {
            configs.push(churn_config(ctx, scheme, intensity, flash));
        }
    }
    let reports = run_batch_on(configs, obs, &ctx.pool);
    for (chunk, &(regime, _, _)) in reports.chunks(schemes.len()).zip(&regimes) {
        for r in chunk {
            let departures = r.node_leaves + r.crash_restarts;
            report.row(format!(
                "  [{regime:>5}] {:<22} lag={:>7.3}s leaves={:>3} crashes={:>3} joins={:>3} \
                 abandoned_dep={:>3} failovers={:>2} violations={:>2}",
                r.scheme_label,
                r.mean_server_lag_s(),
                r.node_leaves,
                r.crash_restarts,
                r.node_joins,
                r.abandoned_to_departed,
                r.failovers,
                r.convergence_violations
            ));
            report.keyval(format!("{}_{regime}_lag_s", r.scheme_label), r.mean_server_lag_s());
            report.keyval(format!("{}_{regime}_departures", r.scheme_label), departures as f64);
            report.keyval(format!("{}_{regime}_joins", r.scheme_label), r.node_joins as f64);
            report.keyval(
                format!("{}_{regime}_abandoned_dep", r.scheme_label),
                r.abandoned_to_departed as f64,
            );
            report.keyval(format!("{}_{regime}_failovers", r.scheme_label), r.failovers as f64);
            report.keyval(
                format!("{}_{regime}_violations", r.scheme_label),
                r.convergence_violations as f64,
            );
        }
    }
    report
}

/// Number of `(x, cdf)` points recorded per [`ext_workload`] curve.
const WORKLOAD_CDF_POINTS: usize = 33;

/// Request-plane sweep: every method over unicast and tree
/// infrastructures, plus HAT, serving user requests against a Zipf
/// catalog through per-edge LRU caches with delayed-hit coalescing. The
/// regimes sweep the catalog axes — a baseline catalog, a wide catalog at
/// low skew (cache-hostile), and the same wide catalog at high skew
/// (cache-friendly) — holding cache capacity fixed. Each cell reports the
/// cache hit rate, delayed-hit count, user-perceived latency p99, and
/// staleness-served (how far behind the provider head live content was
/// served), plus full latency/staleness CDF curves for the artifact and
/// the HTML report.
pub fn ext_workload(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new(
        "ext_workload",
        "EXT: request-plane latency and staleness-served per method × infrastructure",
    );
    let schemes = [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Invalidation),
        Scheme::Unicast(MethodKind::Ttl),
        Scheme::Multicast { method: MethodKind::Push, arity: 2 },
        Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 },
        Scheme::Multicast { method: MethodKind::Ttl, arity: 2 },
        Scheme::hat(),
    ];
    // (regime, catalog size, Zipf exponent): the sweep axes of the issue.
    let regimes: [(&str, usize, f64); 3] =
        [("base", 512, 0.9), ("wide", 2_048, 0.6), ("hot", 2_048, 1.2)];
    let mut configs = Vec::new();
    for &(_, catalog, zipf_s) in &regimes {
        for scheme in schemes {
            let mut cfg = SimConfig::section4(scheme, section4_updates_for(ctx));
            cfg.servers = ctx.scale.section4_servers().min(120);
            cfg.seed = ctx.seed(cfg.seed);
            cfg.workload = Some(WorkloadPlan::with_catalog(catalog, zipf_s));
            configs.push(cfg);
        }
    }
    let reports = run_batch_on(configs, obs, &ctx.pool);
    for (chunk, &(regime, _, _)) in reports.chunks(schemes.len()).zip(&regimes) {
        for r in chunk {
            let w = &r.workload;
            let lat_p99 = w.latency_percentile(99.0).unwrap_or(0.0);
            let stale_mean = w.mean_staleness_served_s();
            report.row(format!(
                "  [{regime:>4}] {:<22} hit={:>5.3} delayed={:>5} p99_lat={:>6.3}s stale_mean={:>7.3}s stale_p99={:>7.3}s",
                r.scheme_label,
                w.hit_rate(),
                w.delayed_hits,
                lat_p99,
                stale_mean,
                w.staleness_percentile(99.0).unwrap_or(0.0),
            ));
            report.keyval(format!("{}_{regime}_hit_rate", r.scheme_label), w.hit_rate());
            report.keyval(format!("{}_{regime}_requests", r.scheme_label), w.requests as f64);
            report
                .keyval(format!("{}_{regime}_delayed_hits", r.scheme_label), w.delayed_hits as f64);
            report.keyval(format!("{}_{regime}_lat_p99_s", r.scheme_label), lat_p99);
            report.keyval(format!("{}_{regime}_stale_mean_s", r.scheme_label), stale_mean);
            report.keyval(
                format!("{}_{regime}_stale_p99_s", r.scheme_label),
                w.staleness_percentile(99.0).unwrap_or(0.0),
            );
            report.keyval(format!("{}_{regime}_origin_kb", r.scheme_label), w.origin_kb);
            for (metric, samples) in
                [("latency", &w.latency_s), ("staleness", &w.staleness_served_s)]
            {
                if samples.is_empty() {
                    continue;
                }
                let cdf = Cdf::from_samples(samples.iter().copied());
                let hi = cdf.percentile(100.0).unwrap_or(0.0).max(1e-6);
                report.curve(
                    format!("{}_{regime}_{metric}_cdf", r.scheme_label),
                    cdf.series(0.0, hi, WORKLOAD_CDF_POINTS),
                );
            }
        }
    }
    report
}

/// The adaptive-TTL baseline vs fixed TTL vs the paper's self-adaptive
/// method, on regular and on bursty (live-game) content.
pub fn ext_adaptive(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new(
        "ext_adaptive",
        "EXT: adaptive-TTL baseline vs fixed TTL vs self-adaptive (Algorithm 1)",
    );
    let methods = [MethodKind::Ttl, MethodKind::AdaptiveTtl, MethodKind::SelfAdaptive];
    let workloads: [(&str, UpdateSequence); 2] = [
        ("steady", UpdateSequence::periodic(SimDuration::from_secs(30), SimTime::from_secs(5_000))),
        ("bursty", section4_updates_for(ctx)),
    ];
    for (name, updates) in workloads {
        let mut configs = Vec::new();
        for m in methods {
            let mut cfg = SimConfig::section5(Scheme::Unicast(m), updates.clone());
            cfg.servers = ctx.scale.section4_servers().min(120);
            cfg.seed = ctx.seed(cfg.seed);
            configs.push(cfg);
        }
        let reports = run_batch_on(configs, obs, &ctx.pool);
        for r in &reports {
            report.row(format!(
                "  [{name:>6}] {:<13} lag={:>7.3}s polls={:>6} updates={:>6}",
                r.scheme_label,
                r.mean_server_lag_s(),
                r.traffic.count_of(PacketKind::Poll),
                r.server_update_messages
            ));
            report.keyval(format!("{}_{name}_lag_s", r.scheme_label), r.mean_server_lag_s());
            report.keyval(
                format!("{}_{name}_polls", r.scheme_label),
                r.traffic.count_of(PacketKind::Poll) as f64,
            );
        }
    }
    report
}

/// Validates the §6 policy advisor: for each workload × requirement cell,
/// run the recommended scheme against the plain-TTL and Push baselines and
/// check the recommendation meets its bound at a competitive cost.
pub fn ext_policy(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new(
        "ext_policy",
        "EXT: §6 policy advisor — recommendations validated by simulation",
    );
    let servers = ctx.scale.section4_servers().min(100);
    let updates = section4_updates_for(ctx);
    let cases: [(&str, Requirement); 3] = [
        ("strict_2s", Requirement::strong(2.0)),
        ("bounded_60s", Requirement::strong(60.0)),
        ("best_effort", Requirement::best_effort()),
    ];
    // Visit rate: 5 users per server polling every 10 s = 0.5 visits/s.
    let profile = WorkloadProfile::from_updates(&updates, 0.5, servers, 1.0);
    for (name, req) in cases {
        let rec = recommend(&profile, &req);
        report.row(format!("  [{name}] advisor says: {rec}"));
        // Run the pick and the two fixed baselines.
        let make = |scheme: Scheme| {
            let mut cfg = SimConfig::section4(scheme, updates.clone());
            cfg.servers = servers;
            cfg.seed = ctx.seed(cfg.seed);
            if let Some(ttl) = rec.server_ttl {
                cfg.server_ttl = ttl;
                cfg.drain = ttl * 5 + SimDuration::from_secs(120);
            }
            cfg
        };
        let reports = run_batch_on(
            vec![
                make(rec.scheme),
                make(Scheme::Unicast(MethodKind::Ttl)),
                make(Scheme::Unicast(MethodKind::Push)),
            ],
            obs,
            &ctx.pool,
        );
        let (pick, ttl_base, push_base) = (&reports[0], &reports[1], &reports[2]);
        report.row(format!(
            "    pick {:<13} lag={:>7.3}s traffic={:.3e} | TTL lag={:>7.3}s traffic={:.3e} | Push lag={:>7.3}s traffic={:.3e}",
            pick.scheme_label,
            pick.mean_server_lag_s(),
            pick.traffic.km_kb(),
            ttl_base.mean_server_lag_s(),
            ttl_base.traffic.km_kb(),
            push_base.mean_server_lag_s(),
            push_base.traffic.km_kb()
        ));
        report.keyval(format!("{name}_pick_lag_s"), pick.mean_server_lag_s());
        report.keyval(format!("{name}_pick_traffic_kmkb"), pick.traffic.km_kb());
        if let Some(bound) = req.max_staleness_s {
            report.keyval(format!("{name}_bound_s"), bound);
        }
        report.keyval(format!("{name}_ttl_traffic_kmkb"), ttl_base.traffic.km_kb());
        report.keyval(format!("{name}_push_lag_s"), push_base.mean_server_lag_s());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn failures_extension_shapes() {
        let r = ext_failures(RunCtx::new(Scale::Smoke), &Registry::disabled());
        // No failures → no maintenance anywhere.
        assert_eq!(r.value("Push/Multicast_none_maintenance"), Some(0.0));
        // Heavy failures → repair traffic on trees.
        assert!(r.value("Push/Multicast_heavy_maintenance").unwrap() > 0.0);
        // Unicast push needs no structure maintenance ever.
        assert_eq!(r.value("Push_heavy_maintenance"), Some(0.0));
        // Failures hurt multicast push consistency.
        assert!(
            r.value("Push/Multicast_heavy_lag_s").unwrap()
                > r.value("Push/Multicast_none_lag_s").unwrap()
        );
    }

    #[test]
    fn chaos_extension_shapes() {
        let r = ext_chaos(RunCtx::new(Scale::Smoke), &Registry::disabled());
        for scheme in
            ["Push", "Invalidation", "TTL", "Push/Multicast", "Invalidation/Multicast", "HAT"]
        {
            // Intensity 0 runs the full protocol over a clean network: no
            // retransmissions, and the convergence invariant holds.
            assert_eq!(r.value(&format!("{scheme}_calm_retransmits")), Some(0.0), "{scheme}");
            assert_eq!(r.value(&format!("{scheme}_calm_violations")), Some(0.0), "{scheme}");
            // Convergence must also survive the storm: the settle fence
            // plus probe-driven resync guarantee it.
            assert_eq!(r.value(&format!("{scheme}_storm_violations")), Some(0.0), "{scheme}");
        }
        // Heavy loss makes the reliable-delivery protocol work for a
        // provider-driven method.
        assert!(r.value("Push_storm_retransmits").unwrap() > 0.0);
        assert!(
            r.value("Push_storm_retransmits").unwrap() > r.value("Push_rough_retransmits").unwrap()
        );
        // Polling methods need no retransmissions — lost polls self-heal.
        assert_eq!(r.value("TTL_storm_retransmits"), Some(0.0));
    }

    #[test]
    fn churn_extension_shapes() {
        let r = ext_churn(RunCtx::new(Scale::Smoke), &Registry::disabled());
        for scheme in
            ["Push", "Invalidation", "TTL", "Push/Multicast", "Invalidation/Multicast", "HAT"]
        {
            // The hard acceptance bar: zero convergence violations in every
            // cell — every departed server reconverges before the horizon.
            for regime in ["calm", "mild", "storm"] {
                assert_eq!(
                    r.value(&format!("{scheme}_{regime}_violations")),
                    Some(0.0),
                    "{scheme} {regime}"
                );
            }
            // Calm arms the lifecycle machinery at zero volume.
            assert_eq!(r.value(&format!("{scheme}_calm_departures")), Some(0.0), "{scheme}");
            // The storm churns, and every departure is matched by a rejoin.
            let departures = r.value(&format!("{scheme}_storm_departures")).unwrap();
            assert!(departures > 0.0, "{scheme} never churned in the storm");
            assert_eq!(
                r.value(&format!("{scheme}_storm_joins")),
                Some(departures),
                "{scheme} lost a rejoin"
            );
        }
        // The flash incident kills HAT's cluster-0 leader: the probe
        // detector must notice and promote a member.
        assert!(r.value("HAT_storm_failovers").unwrap() > 0.0, "flash-restart must fail over");
    }

    #[test]
    fn workload_extension_shapes() {
        let r = ext_workload(RunCtx::new(Scale::Smoke), &Registry::disabled());
        for scheme in
            ["Push", "Invalidation", "TTL", "Push/Multicast", "Invalidation/Multicast", "HAT"]
        {
            for regime in ["base", "wide", "hot"] {
                let hit = r.value(&format!("{scheme}_{regime}_hit_rate")).unwrap();
                assert!((0.0..=1.0).contains(&hit), "{scheme} {regime} hit rate {hit}");
                assert!(
                    r.value(&format!("{scheme}_{regime}_requests")).unwrap() > 0.0,
                    "{scheme} {regime} served no requests"
                );
            }
            // Skew concentrates demand on the hot ranks: with the catalog
            // held fixed, a steeper Zipf exponent must raise the hit rate.
            assert!(
                r.value(&format!("{scheme}_hot_hit_rate")).unwrap()
                    > r.value(&format!("{scheme}_wide_hit_rate")).unwrap(),
                "{scheme}: skew must raise the hit rate"
            );
        }
        // TTL serves from possibly-expired copies between polls; Push keeps
        // replicas at the head. Staleness-served must see the difference.
        assert!(
            r.value("TTL_base_stale_mean_s").unwrap() > r.value("Push_base_stale_mean_s").unwrap(),
            "TTL must serve staler content than Push"
        );
        // Every cell left its latency distribution as a curve ending at 1.
        let curve = r.curve_points("Push_base_latency_cdf").expect("latency curve recorded");
        assert_eq!(curve.len(), WORKLOAD_CDF_POINTS);
        assert_eq!(curve.last().unwrap().1, 1.0);
        assert!(r.curve_points("TTL_base_staleness_cdf").is_some());
    }

    #[test]
    fn failures_extension_counts_silent_loss() {
        let r = ext_failures(RunCtx::new(Scale::Smoke), &Registry::disabled());
        // No failures → nothing is lost to failed nodes.
        assert_eq!(r.value("Push_none_lost_to_failed"), Some(0.0));
        // Heavy failures with unicast push → the provider keeps pushing
        // into failed servers; the loss is counted, not silent.
        assert!(r.value("Push_heavy_lost_to_failed").unwrap() > 0.0);
    }

    #[test]
    fn policy_extension_validates_recommendations() {
        let r = ext_policy(RunCtx::new(Scale::Smoke), &Registry::disabled());
        // The strict pick actually meets its bound.
        let lag = r.value("strict_2s_pick_lag_s").unwrap();
        let bound = r.value("strict_2s_bound_s").unwrap();
        assert!(lag < bound, "strict pick lag {lag} must meet bound {bound}");
        // The bounded pick meets its bound and undercuts plain TTL traffic.
        let lag60 = r.value("bounded_60s_pick_lag_s").unwrap();
        assert!(lag60 < 60.0, "bounded pick lag {lag60}");
        let pick_traffic = r.value("bounded_60s_pick_traffic_kmkb").unwrap();
        let ttl_traffic = r.value("bounded_60s_ttl_traffic_kmkb").unwrap();
        assert!(
            pick_traffic <= ttl_traffic * 1.1,
            "pick traffic {pick_traffic} should not exceed plain TTL {ttl_traffic}"
        );
    }

    #[test]
    fn adaptive_extension_shapes() {
        let r = ext_adaptive(RunCtx::new(Scale::Smoke), &Registry::disabled());
        // On steady content the prediction pays off.
        assert!(
            r.value("AdaptiveTTL_steady_lag_s").unwrap() < r.value("TTL_steady_lag_s").unwrap()
        );
        // On bursty content it burns polls relative to Algorithm 1.
        assert!(
            r.value("AdaptiveTTL_bursty_polls").unwrap()
                > r.value("Self_bursty_polls").unwrap() * 2.0
        );
    }
}
