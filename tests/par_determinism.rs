//! The determinism contract of the parallel runtime, enforced end to end:
//! for any worker count and any seed, crawl traces and figure reports are
//! bit-identical to the serial run — and so is everything a fully armed
//! observability registry collects along the way (counters, gauges,
//! histograms, span paths, and the causal trace store;
//! wall-clock span *durations* are the one legitimately non-deterministic
//! output).

use cdnc_experiments::{run_figure_ctx, RunCtx, Scale};
use cdnc_obs::{MetricsSnapshot, Registry, SpanStore};
use cdnc_par::Pool;
use cdnc_trace::{crawl_with_obs_par, CrawlConfig};
use proptest::prelude::*;

/// Worker counts exercised against the serial baseline: even, dividing the
/// task counts, and a ragged prime that doesn't.
const JOBS: [usize; 4] = [1, 2, 4, 7];

/// A fully armed registry: metrics, spans, causal tracer.
fn armed() -> Registry {
    let reg = Registry::enabled();
    reg.enable_tracing();
    reg
}

/// Everything deterministic a registry collected, extracted for comparison.
struct Collected {
    snapshot: MetricsSnapshot,
    store: SpanStore,
}

fn collect(reg: &Registry) -> Collected {
    Collected { snapshot: reg.snapshot(), store: reg.tracer().store() }
}

/// Asserts two registries collected identical deterministic state.
fn assert_collected_match(serial: &Collected, parallel: &Collected, label: &str) {
    assert_eq!(serial.snapshot.counters, parallel.snapshot.counters, "{label}: counters");
    assert_eq!(serial.snapshot.gauges, parallel.snapshot.gauges, "{label}: gauges");
    assert_eq!(serial.snapshot.histograms, parallel.snapshot.histograms, "{label}: histograms");
    let phases = |snap: &MetricsSnapshot| {
        snap.spans.iter().map(|(path, t)| (path.clone(), t.count)).collect::<Vec<_>>()
    };
    assert_eq!(
        phases(&serial.snapshot),
        phases(&parallel.snapshot),
        "{label}: span paths and entry counts"
    );
    assert_eq!(serial.store, parallel.store, "{label}: causal trace store");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3 })]

    /// Crawl construction: the trace and the merged instrumentation are
    /// bit-identical for every worker count, whatever the seed.
    #[test]
    fn crawl_is_bit_identical_across_jobs(seed in 0u64..u64::MAX) {
        let cfg = CrawlConfig { servers: 13, users: 7, days: 2, seed, ..CrawlConfig::tiny() };
        let serial_reg = armed();
        let serial_trace = crawl_with_obs_par(&cfg, &serial_reg, &Pool::serial());
        let serial = collect(&serial_reg);
        for jobs in JOBS {
            let reg = armed();
            let trace = crawl_with_obs_par(&cfg, &reg, &Pool::new(jobs));
            prop_assert_eq!(&serial_trace, &trace, "crawl trace differs at jobs={}", jobs);
            assert_collected_match(&serial, &collect(&reg), &format!("crawl jobs={jobs}"));
        }
    }

    /// Figure runs: reports and merged instrumentation are bit-identical
    /// for every worker count, on the canonical seeds and on arbitrary
    /// derived replicates.
    #[test]
    fn figure_is_bit_identical_across_jobs(replicate in 0u64..1_000_000) {
        let serial_reg = armed();
        let serial_ctx = RunCtx::new(Scale::Smoke).replicate(replicate);
        let serial_report = run_figure_ctx("fig17", serial_ctx, None, &serial_reg).unwrap();
        let serial = collect(&serial_reg);
        for jobs in JOBS {
            let reg = armed();
            let ctx = RunCtx::with_pool(Scale::Smoke, Pool::new(jobs)).replicate(replicate);
            let report = run_figure_ctx("fig17", ctx, None, &reg).unwrap();
            prop_assert_eq!(&serial_report, &report, "fig17 report differs at jobs={}", jobs);
            assert_collected_match(&serial, &collect(&reg), &format!("fig17 jobs={jobs}"));
        }
    }
}

/// Replicates change results (they are independent repetitions), but each
/// replicate is itself reproducible.
#[test]
fn replicates_are_independent_but_reproducible() {
    let base = RunCtx::new(Scale::Smoke);
    let obs = Registry::disabled();
    let r0 = run_figure_ctx("fig17", base, None, &obs).unwrap();
    let r1 = run_figure_ctx("fig17", base.replicate(1), None, &obs).unwrap();
    let r1_again = run_figure_ctx("fig17", base.replicate(1), None, &obs).unwrap();
    assert_ne!(r0, r1, "replicate 1 must draw different seeds");
    assert_eq!(r1, r1_again, "each replicate must be reproducible");
}
