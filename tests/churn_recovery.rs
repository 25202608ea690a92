//! Integration: the node-lifecycle contract holds end to end. Whatever
//! the churn plan throws at a deployment — graceful leaves that hand off
//! their waiters, crash-restarts that come back cold, the scheduled
//! supernode-kill + flash-restart incident — every replica present at the
//! horizon must hold the provider's head version, every departure must be
//! matched by a rejoin, delayed-hit waiters must never leak, and the whole
//! lifecycle machinery must stay bit-identical across `--jobs` worker
//! counts.

use cdnc_core::{
    run, ChurnPlan, FaultPlan, MethodKind, Scheme, SimConfig, SimReport, WorkloadPlan,
};
use cdnc_experiments::ext_figs::churn_config;
use cdnc_experiments::{run_figure_ctx, RunCtx, Scale};
use cdnc_obs::Registry;
use cdnc_par::Pool;
use cdnc_simcore::SimRng;
use cdnc_trace::UpdateSequence;

fn game() -> UpdateSequence {
    UpdateSequence::live_game(&mut SimRng::seed_from_u64(42))
}

fn churn_run(scheme: Scheme, intensity: f64, workload: bool) -> SimReport {
    let mut cfg = SimConfig::section4(scheme, game());
    cfg.servers = 48;
    cfg.faults = Some(FaultPlan::at_intensity(0.0));
    cfg.churn = Some(ChurnPlan::at_intensity(intensity));
    if workload {
        // Big objects make origin fetches slow enough that edges depart
        // mid-fetch, exercising the waiter-handoff path.
        cfg.workload = Some(WorkloadPlan {
            request_rate_hz: 2.0,
            object_kb: 2_000.0,
            ..WorkloadPlan::default()
        });
    }
    run(&cfg)
}

#[test]
fn churn_storms_converge_for_every_scheme() {
    // Heavy churn — half the fleet cycling, crashes losing all state —
    // yet by the horizon (churn fenced `settle` before it) every present
    // replica holds the head version and every departed node is back.
    for scheme in [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Invalidation),
        Scheme::Unicast(MethodKind::Ttl),
        Scheme::Multicast { method: MethodKind::Push, arity: 2 },
        Scheme::hat(),
    ] {
        let r = churn_run(scheme, 0.8, false);
        let departures = r.node_leaves + r.crash_restarts;
        assert!(departures > 0, "{}: the storm never churned", r.scheme_label);
        assert_eq!(r.node_joins, departures, "{}: a departed node never rejoined", r.scheme_label);
        assert_eq!(r.convergence_violations, 0, "{}: stale replicas at horizon", r.scheme_label);
        assert_eq!(r.unresolved_lags, 0, "{}: unadopted publishes", r.scheme_label);
    }
}

#[test]
fn departed_nodes_are_abandoned_fast_not_retried_blind() {
    // Reliable delivery knows the difference between a lossy link and a
    // node that is gone: sends into departed nodes abandon on the first
    // retransmit check instead of burning the full retry budget.
    let r = churn_run(Scheme::Unicast(MethodKind::Push), 1.0, false);
    assert!(r.abandoned_to_departed > 0, "no fast-abandons despite full churn");
    assert!(
        r.abandoned_to_departed <= r.abandoned_deliveries,
        "fast-abandons must be a subset of all abandons"
    );
    assert_eq!(r.convergence_violations, 0, "rejoined nodes must still converge");
}

#[test]
fn request_plane_accounting_survives_edge_death_mid_fetch() {
    // Edges die while origin fetches are in flight. The waiters queued
    // behind those fetches must be released as counted misses — never
    // leaked — so the request ledger still balances exactly.
    let r = churn_run(Scheme::Unicast(MethodKind::Ttl), 1.0, true);
    let w = &r.workload;
    assert!(w.waiters_aborted > 0, "no edge died mid-fetch despite full churn");
    assert_eq!(
        w.requests,
        w.hits + w.delayed_hits + w.misses,
        "request ledger out of balance: aborted waiters leaked"
    );
    // No convergence assertion here: the 2 MB objects are chosen to
    // congest the shared uplinks (that is what keeps fetches in flight
    // long enough for edges to die mid-fetch), and under that overload
    // TTL poll replies legitimately lag past the horizon. The sweep
    // cells, with the default workload, enforce zero violations.
}

#[test]
fn supernode_flash_incident_fails_over_and_recovers() {
    // The storm cell's scheduled incident: the leader of cluster 0
    // crashes cold mid-game and flash-restarts 45 s later. The cluster
    // must fail over to a surviving supernode and still converge.
    let r = run(&churn_config(RunCtx::new(Scale::Smoke), Scheme::hat(), 0.0, true));
    assert_eq!(r.crash_restarts, 1, "exactly the scheduled crash");
    assert_eq!(r.node_joins, 1, "the flash restart");
    assert!(r.failovers > 0, "the cluster never failed over");
    assert_eq!(r.convergence_violations, 0, "stale replicas after the incident");
}

#[test]
fn churn_figure_is_bit_identical_across_jobs() {
    // The full ext_churn sweep — churn rng, lifecycle events, handoffs,
    // flash incident and all — collected under a fully armed registry,
    // must not depend on the worker count.
    let armed = || {
        let reg = Registry::enabled();
        reg.enable_tracing();
        reg
    };
    let serial_reg = armed();
    let serial = run_figure_ctx("ext_churn", RunCtx::new(Scale::Smoke), None, &serial_reg).unwrap();
    let jobs = 4;
    let reg = armed();
    let ctx = RunCtx::with_pool(Scale::Smoke, Pool::new(jobs));
    let report = run_figure_ctx("ext_churn", ctx, None, &reg).unwrap();
    assert_eq!(serial, report, "ext_churn report differs at jobs={jobs}");
    let (s, p) = (serial_reg.snapshot(), reg.snapshot());
    assert_eq!(s.counters, p.counters, "jobs={jobs}: counters");
    assert_eq!(s.gauges, p.gauges, "jobs={jobs}: gauges");
    assert_eq!(
        serial_reg.tracer().store(),
        reg.tracer().store(),
        "jobs={jobs}: causal trace store"
    );
}
