//! Reproductions of the trace-driven evaluation figures (paper §4,
//! Figs. 14–20).

use crate::ctx::RunCtx;
use crate::report::FigureReport;
use crate::scale::Scale;
use cdnc_core::{run_with_obs, MethodKind, Scheme, SimConfig, SimReport};
use cdnc_obs::Registry;
use cdnc_par::Pool;
use cdnc_simcore::{SimDuration, SimRng};
use cdnc_trace::UpdateSequence;

/// The §4 replayed content for one replicate of a run (replicate 0 is the
/// canonical seed-42 day whose numbers EXPERIMENTS.md records).
pub fn section4_updates_for(ctx: RunCtx) -> UpdateSequence {
    UpdateSequence::live_game(&mut SimRng::seed_from_u64(ctx.seed(42)))
}

/// Runs a batch of simulations fanned out on `pool`, one task per
/// configuration. Each task records into its own registry shard and the
/// shards are absorbed into `obs` in task-index order after the join — even
/// for a serial pool — so the metrics, events and traces accumulated into
/// `obs` are bit-identical for every worker count (pass
/// [`Registry::disabled`] for uninstrumented runs).
pub fn run_batch_on(configs: Vec<SimConfig>, obs: &Registry, pool: &Pool) -> Vec<SimReport> {
    // Run-health accounting: announce the batch up front so the heartbeat's
    // ETA sees the full denominator, then tick one completion per absorbed
    // task (shards share the parent's live health state, so per-event
    // progress streams from the workers as they run).
    obs.health().add_sims(configs.len() as u64);
    let task = |_: usize, cfg: &SimConfig| {
        // Shard span paths must not inherit the spawning thread's open
        // spans (inline tasks would nest where worker threads don't).
        let _detached = cdnc_obs::detach_spans();
        let shard = obs.shard();
        let report = run_with_obs(cfg, &shard);
        (report, shard)
    };
    // Worker use is recorded only when timeprof is armed.
    let (shards, stats) = pool.map_slice_timed(&configs, task);
    obs.record_worker_use(&crate::timeprof_out::worker_use(&stats));
    shards
        .into_iter()
        .map(|(report, shard)| {
            obs.absorb(&shard);
            obs.health().sim_done();
            report
        })
        .collect()
}

fn section4_config(ctx: RunCtx, scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::section4(scheme, section4_updates_for(ctx));
    cfg.servers = ctx.scale.section4_servers();
    cfg.seed = ctx.seed(cfg.seed);
    cfg
}

const METHODS: [MethodKind; 3] = [MethodKind::Push, MethodKind::Invalidation, MethodKind::Ttl];

/// Fig. 14: per-server and per-user inconsistency under unicast.
pub fn fig14(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new("fig14", "Inconsistency in the unicast infrastructure");
    let reports = run_batch_on(
        METHODS.iter().map(|&m| section4_config(ctx, Scheme::Unicast(m))).collect(),
        obs,
        &ctx.pool,
    );
    for r in &reports {
        report.row(format!(
            "  {:<13} mean server inconsistency = {:>7.3}s   mean user inconsistency = {:>7.3}s",
            r.scheme_label,
            r.mean_server_lag_s(),
            r.mean_user_lag_s()
        ));
        report.keyval(format!("{}_server_s", r.scheme_label), r.mean_server_lag_s());
        report.keyval(format!("{}_user_s", r.scheme_label), r.mean_user_lag_s());
    }
    report
}

/// Fig. 15: the same three methods on the binary multicast tree.
pub fn fig15(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report =
        FigureReport::new("fig15", "Inconsistency in the multicast-tree infrastructure");
    let reports = run_batch_on(
        METHODS
            .iter()
            .map(|&m| section4_config(ctx, Scheme::Multicast { method: m, arity: 2 }))
            .collect(),
        obs,
        &ctx.pool,
    );
    for r in &reports {
        report.row(format!(
            "  {:<22} mean server = {:>7.3}s   mean user = {:>7.3}s",
            r.scheme_label,
            r.mean_server_lag_s(),
            r.mean_user_lag_s()
        ));
        report.keyval(format!("{}_server_s", r.scheme_label), r.mean_server_lag_s());
        report.keyval(format!("{}_user_s", r.scheme_label), r.mean_user_lag_s());
    }
    report
}

/// Fig. 16: consistency-maintenance traffic cost (km·KB), 3 methods × 2
/// infrastructures.
pub fn fig16(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new("fig16", "Traffic cost (km·KB) per method × infra");
    let mut configs = Vec::new();
    for &m in &METHODS {
        configs.push(section4_config(ctx, Scheme::Unicast(m)));
        configs.push(section4_config(ctx, Scheme::Multicast { method: m, arity: 2 }));
    }
    let reports = run_batch_on(configs, obs, &ctx.pool);
    for pair in reports.chunks(2) {
        let (uni, multi) = (&pair[0], &pair[1]);
        report.row(format!(
            "  {:<13} unicast = {:>12.3e} km·KB   multicast = {:>12.3e} km·KB",
            uni.scheme_label,
            uni.traffic.km_kb(),
            multi.traffic.km_kb()
        ));
        report.keyval(format!("{}_unicast_kmkb", uni.scheme_label), uni.traffic.km_kb());
        report.keyval(format!("{}_multicast_kmkb", uni.scheme_label), multi.traffic.km_kb());
    }
    report
}

/// Fig. 17: TTL-method traffic cost vs content-server TTL.
pub fn fig17(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new("fig17", "Traffic cost vs content-server TTL");
    let ttls = ctx.scale.server_ttl_sweep_s();
    let mut configs = Vec::new();
    for &ttl in &ttls {
        for scheme in [
            Scheme::Unicast(MethodKind::Ttl),
            Scheme::Multicast { method: MethodKind::Ttl, arity: 2 },
        ] {
            let mut cfg = section4_config(ctx, scheme);
            cfg.server_ttl = SimDuration::from_secs(ttl);
            configs.push(cfg);
        }
    }
    let reports = run_batch_on(configs, obs, &ctx.pool);
    for (i, pair) in reports.chunks(2).enumerate() {
        let ttl = ttls[i];
        report.row(format!(
            "  TTL={ttl:>3}s  unicast = {:>12.3e} km·KB   multicast = {:>12.3e} km·KB",
            pair[0].traffic.km_kb(),
            pair[1].traffic.km_kb()
        ));
        report.keyval(format!("unicast_kmkb_ttl{ttl}"), pair[0].traffic.km_kb());
        report.keyval(format!("multicast_kmkb_ttl{ttl}"), pair[1].traffic.km_kb());
    }
    report
}

/// Fig. 18: Invalidation with varying end-user TTL: inconsistency
/// percentiles and traffic cost.
pub fn fig18(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report =
        FigureReport::new("fig18", "Invalidation vs end-user TTL (inconsistency + cost)");
    let user_ttls: Vec<u64> = match ctx.scale {
        Scale::Smoke => vec![10, 60, 120],
        _ => vec![10, 30, 60, 90, 120],
    };
    let mut configs = Vec::new();
    for &ttl in &user_ttls {
        for scheme in [
            Scheme::Unicast(MethodKind::Invalidation),
            Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 },
        ] {
            let mut cfg = section4_config(ctx, scheme);
            cfg.user_ttl = SimDuration::from_secs(ttl);
            configs.push(cfg);
        }
    }
    let reports = run_batch_on(configs, obs, &ctx.pool);
    for (i, pair) in reports.chunks(2).enumerate() {
        let ttl = user_ttls[i];
        let (uni, multi) = (&pair[0], &pair[1]);
        report.row(format!(
            "  user TTL={ttl:>3}s  unicast p5/p50/p95 = {:>6.2}/{:>6.2}/{:>6.2}s cost={:.3e} | multicast p50 = {:>6.2}s cost={:.3e}",
            uni.server_lag_percentile(5.0).unwrap_or(f64::NAN),
            uni.server_lag_percentile(50.0).unwrap_or(f64::NAN),
            uni.server_lag_percentile(95.0).unwrap_or(f64::NAN),
            uni.traffic.km_kb(),
            multi.server_lag_percentile(50.0).unwrap_or(f64::NAN),
            multi.traffic.km_kb()
        ));
        report.keyval(
            format!("unicast_median_s_uttl{ttl}"),
            uni.server_lag_percentile(50.0).unwrap_or(f64::NAN),
        );
        report.keyval(format!("unicast_kmkb_uttl{ttl}"), uni.traffic.km_kb());
        report.keyval(format!("multicast_kmkb_uttl{ttl}"), multi.traffic.km_kb());
    }
    report
}

/// Fig. 19: scalability vs update packet size.
pub fn fig19(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new("fig19", "Server inconsistency vs update packet size");
    let sizes = ctx.scale.fig19_sizes_kb();
    for (infra_name, make) in [("unicast", None), ("multicast", Some(2usize))] {
        let mut configs = Vec::new();
        for &kb in &sizes {
            for &m in &METHODS {
                let scheme = match make {
                    None => Scheme::Unicast(m),
                    Some(arity) => Scheme::Multicast { method: m, arity },
                };
                let mut cfg = section4_config(ctx, scheme);
                cfg.update_packet_kb = kb;
                configs.push(cfg);
            }
        }
        let reports = run_batch_on(configs, obs, &ctx.pool);
        for (i, chunk) in reports.chunks(METHODS.len()).enumerate() {
            let kb = sizes[i];
            report.row(format!(
                "  [{infra_name}] {kb:>5.0} KB: Push={:>9.3}s Invalidation={:>9.3}s TTL={:>9.3}s",
                chunk[0].mean_server_lag_s(),
                chunk[1].mean_server_lag_s(),
                chunk[2].mean_server_lag_s()
            ));
            for r in chunk {
                report.keyval(
                    format!("{infra_name}_{}_s_at_{kb:.0}kb", r.scheme_label),
                    r.mean_server_lag_s(),
                );
            }
        }
    }
    report
}

/// Fig. 20: scalability vs network size.
pub fn fig20(ctx: RunCtx, obs: &Registry) -> FigureReport {
    let mut report = FigureReport::new("fig20", "Server inconsistency vs network size");
    let sizes = ctx.scale.fig20_sizes();
    for (infra_name, arity) in [("unicast", None), ("multicast", Some(2usize))] {
        let mut configs = Vec::new();
        for &n in &sizes {
            for &m in &METHODS {
                let scheme = match arity {
                    None => Scheme::Unicast(m),
                    Some(a) => Scheme::Multicast { method: m, arity: a },
                };
                let mut cfg = section4_config(ctx, scheme);
                cfg.servers = n;
                configs.push(cfg);
            }
        }
        let reports = run_batch_on(configs, obs, &ctx.pool);
        for (i, chunk) in reports.chunks(METHODS.len()).enumerate() {
            let n = sizes[i];
            report.row(format!(
                "  [{infra_name}] N={n:>4}: Push={:>8.3}s Invalidation={:>8.3}s TTL={:>8.3}s",
                chunk[0].mean_server_lag_s(),
                chunk[1].mean_server_lag_s(),
                chunk[2].mean_server_lag_s()
            ));
            for r in chunk {
                report.keyval(
                    format!("{infra_name}_{}_s_at_n{n}", r.scheme_label),
                    r.mean_server_lag_s(),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_ordering_matches_paper() {
        let r = fig14(RunCtx::new(Scale::Smoke), &Registry::disabled());
        let push = r.value("Push_server_s").unwrap();
        let inval = r.value("Invalidation_server_s").unwrap();
        let ttl = r.value("TTL_server_s").unwrap();
        assert!(push < inval && inval < ttl, "Push {push} < Inval {inval} < TTL {ttl}");
    }

    #[test]
    fn fig16_multicast_saves_cost() {
        let r = fig16(RunCtx::new(Scale::Smoke), &Registry::disabled());
        for m in ["Push", "Invalidation", "TTL"] {
            let uni = r.value(&format!("{m}_unicast_kmkb")).unwrap();
            let multi = r.value(&format!("{m}_multicast_kmkb")).unwrap();
            assert!(multi < uni, "{m}: multicast {multi} must beat unicast {uni}");
        }
    }

    #[test]
    fn fig17_cost_decreases_with_ttl() {
        let r = fig17(RunCtx::new(Scale::Smoke), &Registry::disabled());
        let at10 = r.value("unicast_kmkb_ttl10").unwrap();
        let at60 = r.value("unicast_kmkb_ttl60").unwrap();
        assert!(at60 < at10, "longer TTL must cost less: {at60} vs {at10}");
    }

    #[test]
    fn fig18_cost_decreases_with_user_ttl() {
        let r = fig18(RunCtx::new(Scale::Smoke), &Registry::disabled());
        let at10 = r.value("unicast_kmkb_uttl10").unwrap();
        let at120 = r.value("unicast_kmkb_uttl120").unwrap();
        assert!(at120 < at10, "rarer visits must cost less: {at120} vs {at10}");
    }
}
