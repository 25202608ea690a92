//! Integration: the fault plane's survivable-delivery contract holds end
//! to end. Whatever the plane injects — packet loss, duplication,
//! reordering, latency spikes, scheduled partitions, server failures — a
//! run with a [`FaultPlan`] must end with every present replica at the
//! provider's head version (the convergence invariant), and the whole
//! chaos machinery must stay bit-identical across `--jobs` worker counts.

use cdnc_core::{run, FailureConfig, FaultPlan, MethodKind, Scheme, SimConfig, SimReport};
use cdnc_experiments::{run_figure_ctx, RunCtx, Scale};
use cdnc_obs::Registry;
use cdnc_par::Pool;
use cdnc_simcore::SimRng;
use cdnc_trace::UpdateSequence;

fn game() -> UpdateSequence {
    UpdateSequence::live_game(&mut SimRng::seed_from_u64(42))
}

fn chaos_run(scheme: Scheme, intensity: f64, failures: Option<f64>) -> SimReport {
    let mut cfg = SimConfig::section4(scheme, game());
    cfg.servers = 48;
    cfg.faults = Some(FaultPlan::at_intensity(intensity));
    cfg.failures = failures.map(FailureConfig::with_mean_gap_s);
    run(&cfg)
}

#[test]
fn storm_runs_reach_zero_stale_replicas_by_horizon() {
    // 17.5 % loss, duplication, reordering and spikes — yet by the horizon
    // (faults fenced `settle` before it) no present replica may be stale.
    for scheme in [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Invalidation),
        Scheme::Multicast { method: MethodKind::Push, arity: 2 },
        Scheme::hat(),
    ] {
        let r = chaos_run(scheme, 0.7, None);
        assert_eq!(r.convergence_violations, 0, "{}: stale replicas at horizon", r.scheme_label);
        assert_eq!(r.unresolved_lags, 0, "{}: unadopted publishes", r.scheme_label);
    }
}

#[test]
fn server_failures_plus_faults_still_converge() {
    // The harshest combination: servers fail and recover *while* the
    // network loses and reorders packets. Recovered replicas resync, the
    // failure detector reroutes around dead upstreams, and every replica
    // that is present at the horizon must hold the head version.
    for scheme in [Scheme::Unicast(MethodKind::Push), Scheme::hat()] {
        let r = chaos_run(scheme, 0.5, Some(600.0));
        assert_eq!(r.convergence_violations, 0, "{}: stale replicas at horizon", r.scheme_label);
        // Pushes into failed servers are counted, never silently dropped.
        assert!(r.msgs_lost_to_failed > 0, "{}: expected losses to failed nodes", r.scheme_label);
    }
}

#[test]
fn reliable_delivery_pays_only_when_faults_are_live() {
    let clean = chaos_run(Scheme::Unicast(MethodKind::Push), 0.0, None);
    assert_eq!(clean.retransmits, 0, "a clean network needs no retransmissions");
    assert_eq!(clean.duplicates_suppressed, 0);
    assert_eq!(clean.convergence_violations, 0);
    let stormy = chaos_run(Scheme::Unicast(MethodKind::Push), 0.7, None);
    assert!(stormy.retransmits > 0, "heavy loss must trigger retransmissions");
    assert!(stormy.duplicates_suppressed > 0, "dup injection must be absorbed by the receiver");
}

#[test]
fn chaos_figure_is_bit_identical_across_jobs() {
    // The full ext_chaos sweep — fault-plane rng, retransmit timers, probe
    // chains, failovers and all — collected under a fully armed registry,
    // must not depend on the worker count.
    let armed = || {
        let reg = Registry::enabled();
        reg.enable_tracing();
        reg
    };
    let serial_reg = armed();
    let serial = run_figure_ctx("ext_chaos", RunCtx::new(Scale::Smoke), None, &serial_reg).unwrap();
    let jobs = 4;
    let reg = armed();
    let ctx = RunCtx::with_pool(Scale::Smoke, Pool::new(jobs));
    let report = run_figure_ctx("ext_chaos", ctx, None, &reg).unwrap();
    assert_eq!(serial, report, "ext_chaos report differs at jobs={jobs}");
    let (s, p) = (serial_reg.snapshot(), reg.snapshot());
    assert_eq!(s.counters, p.counters, "jobs={jobs}: counters");
    assert_eq!(s.gauges, p.gauges, "jobs={jobs}: gauges");
    assert_eq!(
        serial_reg.tracer().store(),
        reg.tracer().store(),
        "jobs={jobs}: causal trace store"
    );
}
