//! The observability contract, enforced end-to-end: instrumentation is
//! observation-only (paired instrumented / uninstrumented runs are
//! bit-identical), and the artifacts it writes are well-formed JSON.

use cdnc_experiments::obs_out::{run_artifact_doc, Artifact};
use cdnc_experiments::{
    build_trace, build_trace_with_obs, run_figure, run_figure_ctx, run_figure_with_obs, RunCtx,
    Scale,
};
use cdnc_obs::{parse, Json, Registry};
use cdnc_par::Pool;

/// A fully armed registry: metrics, spans, and the causal tracer all live.
fn armed() -> Registry {
    let reg = Registry::enabled();
    reg.enable_tracing();
    reg
}

/// An armed registry with series sampling on top.
fn armed_series() -> Registry {
    let reg = armed();
    reg.enable_series(cdnc_obs::DEFAULT_CADENCE_US);
    reg
}

#[test]
fn instrumented_figures_match_uninstrumented() {
    // One simulation figure per family: §4 evaluation, §5 HAT, and an
    // extension experiment (the latter exercises failures + tree repair).
    for id in ["fig20", "fig24", "ext_failures"] {
        let plain = run_figure(id, Scale::Smoke, None).unwrap();
        let reg = armed();
        let observed = run_figure_with_obs(id, Scale::Smoke, None, &reg).unwrap();
        assert_eq!(plain, observed, "{id}: instrumentation must not change results");
        assert!(
            reg.snapshot().counter("sched_events_processed") > 0,
            "{id}: the registry must actually have observed the run"
        );
        assert!(
            !reg.tracer().store().spans.is_empty(),
            "{id}: the tracer must actually have recorded the run"
        );
    }
}

#[test]
fn tracing_runs_are_deterministic() {
    // Two traced runs of the same figure produce span-for-span identical
    // stores, so trace artifacts are reproducible byte-for-byte.
    let first = armed();
    let second = armed();
    let a = run_figure_with_obs("fig24", Scale::Smoke, None, &first).unwrap();
    let b = run_figure_with_obs("fig24", Scale::Smoke, None, &second).unwrap();
    assert_eq!(a, b, "paired traced runs must agree on results");
    let (sa, sb) = (first.tracer().store(), second.tracer().store());
    assert!(!sa.spans.is_empty(), "the tracer must have recorded spans");
    assert_eq!(sa, sb, "paired traced runs must agree on every span");
}

#[test]
fn series_sampling_is_observation_only() {
    // Paired runs with the sampler armed and disarmed: bit-identical
    // results, and the sampled series themselves are reproducible.
    let plain = run_figure("fig20", Scale::Smoke, None).unwrap();
    let (first, second) = (armed_series(), armed_series());
    let a = run_figure_with_obs("fig20", Scale::Smoke, None, &first).unwrap();
    let b = run_figure_with_obs("fig20", Scale::Smoke, None, &second).unwrap();
    assert_eq!(plain, a, "series sampling must not change results");
    assert_eq!(a, b);
    let (sa, sb) = (first.series_snapshot(), second.series_snapshot());
    assert!(sa.total_points > 0, "the sampler must actually have recorded the run");
    assert!(
        sa.get("sched_queue_depth", cdnc_obs::SeriesKind::Gauge)
            .is_some_and(|e| !e.points.is_empty()),
        "queue depth must be sampled"
    );
    assert_eq!(
        sa.to_json().to_compact(),
        sb.to_json().to_compact(),
        "paired sampled runs must agree on every series point"
    );
}

#[test]
fn series_identical_across_worker_counts() {
    // `--jobs n` must not change a single sampled point: shards mirror the
    // parent's series arming and are absorbed in task order.
    let serial = armed_series();
    let base =
        run_figure_ctx("fig17", RunCtx::with_pool(Scale::Smoke, Pool::new(1)), None, &serial)
            .unwrap();
    let reference = serial.series_snapshot().to_json().to_compact();
    assert!(serial.series_snapshot().total_points > 0);
    for jobs in [2, 4] {
        let reg = armed_series();
        let report =
            run_figure_ctx("fig17", RunCtx::with_pool(Scale::Smoke, Pool::new(jobs)), None, &reg)
                .unwrap();
        assert_eq!(base, report, "--jobs {jobs} must not change results");
        assert_eq!(
            reg.series_snapshot().to_json().to_compact(),
            reference,
            "--jobs {jobs} must reproduce the serial series sample-for-sample"
        );
    }
}

#[test]
fn instrumented_crawl_matches_uninstrumented() {
    let plain = build_trace(Scale::Smoke);
    let reg = armed();
    let observed = build_trace_with_obs(Scale::Smoke, &reg);
    assert_eq!(plain, observed, "crawl instrumentation must not change the trace");
}

#[test]
fn written_artifact_is_well_formed_json() {
    let dir = std::env::temp_dir().join(format!("cdnc-obs-test-{}", std::process::id()));
    let reg = armed();
    let report = run_figure_with_obs("fig20", Scale::Smoke, None, &reg).unwrap();
    let doc = run_artifact_doc("fig20", Scale::Smoke, &report, 1.25, &reg);
    let path = Artifact::Run.write(&dir, "fig20", doc.to_pretty()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = parse(&text).expect("artifact must be valid JSON");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(doc.get("run_id").and_then(Json::as_str), Some("fig20"));
    let summary = doc.get("summary").expect("summary object");
    assert_eq!(summary.get("wall_s").and_then(Json::as_f64), Some(1.25));
    let metrics = doc.get("metrics").expect("metrics object");
    assert!(
        metrics
            .get("counters")
            .and_then(|c| c.get("sched_events_processed"))
            .and_then(Json::as_f64)
            .is_some_and(|n| n > 0.0),
        "metrics must include the scheduler event count"
    );
    assert!(doc.get("phases").is_some(), "artifact must include phase timings");
}
