//! The time-profiling contract, enforced end-to-end:
//!
//! - time profiling is observation-only (a profiled run's report is
//!   bit-identical to an unprofiled one, at any worker count),
//! - the structural sections of the timeprof artifact (frame paths and
//!   counts, per-kind handler counts) are identical for serial and
//!   `--jobs 2/4` runs once volatile nanosecond telemetry is scrubbed,
//!   and so are the `.folded` stack paths,
//! - handler time is charged per event kind, once per dispatch,
//! - the frame tree obeys its arithmetic invariants on a real run
//!   (self ≤ total, direct children's totals fit inside their parent),
//!   and the collapsed-stack export round-trips under property-based
//!   inputs.

use cdnc_experiments::obs_out::{scrub_volatile, ObsSettings};
use cdnc_experiments::timeprof_out::timeprof_doc;
use cdnc_experiments::{run_figure, run_figure_ctx, FigureReport, RunCtx, Scale};
use cdnc_obs::{parse_folded, to_folded, Json, MetricsSnapshot, TimeProfSnapshot};
use cdnc_par::Pool;
use proptest::prelude::*;
use std::collections::HashMap;

/// Runs fig17 under a timeprof-armed registry with `jobs` workers,
/// exactly as the `experiments timeprof` subcommand does.
fn timeprof_run(jobs: usize) -> (FigureReport, TimeProfSnapshot, Json, MetricsSnapshot) {
    let mut obs = ObsSettings::off();
    obs.enabled = true;
    obs.timeprof = true;
    let reg = obs.registry();
    let ctx = RunCtx::with_pool(Scale::Smoke, Pool::new(jobs));
    let report = run_figure_ctx("fig17", ctx, None, &reg).expect("known id");
    let snap = reg.timeprof_snapshot().expect("timeprof armed");
    let doc = timeprof_doc("fig17", Scale::Smoke, &snap, 0.0);
    (report, snap, doc, reg.snapshot())
}

#[test]
fn timeprof_is_observation_only_and_jobs_invariant() {
    let plain = run_figure("fig17", Scale::Smoke, None).expect("known id");
    let (r1, s1, d1, m1) = timeprof_run(1);
    let (r2, _, d2, _) = timeprof_run(2);
    let (r4, _, d4, _) = timeprof_run(4);

    // Observation-only: profiling must not change a single result.
    assert_eq!(plain, r1, "time profiling must not change results");
    assert_eq!(r1, r2, "worker count must not change results");
    assert_eq!(r2, r4);

    // Scrubbing the volatile nanoseconds leaves the structural sections
    // (frame paths + counts, handler counts): bit-identical at any
    // worker count — shards absorb in task order.
    let structural = |d: &Json| scrub_volatile(d).to_pretty();
    assert_eq!(structural(&d1), structural(&d2), "serial vs --jobs 2 structure");
    assert_eq!(structural(&d2), structural(&d4), "--jobs 2 vs --jobs 4 structure");
    let s = scrub_volatile(&d1);
    assert!(s.get("frames").is_some(), "frame structure survives the scrub");
    assert!(s.get("handlers").is_some(), "handler counts survive the scrub");
    assert!(s.get("time_telemetry").is_none(), "nanoseconds are volatile");

    // Handler time is charged at event boundaries: the labels are exactly
    // the event kinds that fired, each counted once per dispatch, and
    // every count is deterministic.
    let handler_counts = |d: &Json| match d.get("handlers") {
        Some(Json::Obj(rows)) => rows
            .iter()
            .map(|(label, h)| (label.clone(), h.get("count").and_then(Json::as_f64).unwrap_or(0.0)))
            .collect::<Vec<_>>(),
        _ => panic!("handlers section"),
    };
    let fired: Vec<(String, f64)> = m1
        .counters
        .iter()
        .filter(|(name, count)| name.starts_with("sim_ev_") && *count > 0)
        .map(|(name, count)| (name["sim_".len()..].to_owned(), *count as f64))
        .collect();
    assert!(fired.iter().any(|(label, _)| label == "ev_publish"), "events were dispatched");
    assert_eq!(handler_counts(&d1), fired, "one handler row per fired event kind");
    assert_eq!(handler_counts(&d1), handler_counts(&d4));

    // The `.folded` export shares the deterministic path structure.
    let paths = |snap: &TimeProfSnapshot| {
        parse_folded(&to_folded(&snap.frames))
            .expect("well-formed folded output")
            .into_iter()
            .map(|(path, _)| path)
            .collect::<Vec<_>>()
    };
    let (_, s4, _, _) = timeprof_run(4);
    assert_eq!(paths(&s1), paths(&s4), "folded stack paths are jobs-invariant");
    assert!(!paths(&s1).is_empty(), "the run recorded frames");
}

#[test]
fn frame_tree_invariants_hold_on_a_real_run() {
    let (_, snap, _, _) = timeprof_run(2);
    let by_path: HashMap<&str, &cdnc_obs::PhaseTiming> =
        snap.frames.iter().map(|(p, t)| (p.as_str(), t)).collect();
    let mut child_sums: HashMap<&str, u128> = HashMap::new();
    for (path, t) in &snap.frames {
        assert!(t.self_ns <= t.total_ns, "{path}: self {} > total {}", t.self_ns, t.total_ns);
        assert!(t.count > 0, "{path}: recorded frames are entered at least once");
        if let Some((parent, _)) = path.rsplit_once('/') {
            assert!(by_path.contains_key(parent), "{path}: parent frame recorded too");
            *child_sums.entry(parent).or_default() += t.total_ns;
        }
    }
    for (parent, sum) in child_sums {
        let parent_total = by_path[parent].total_ns;
        assert!(
            sum <= parent_total,
            "{parent}: children total {sum} exceeds parent total {parent_total}"
        );
    }
    // Worker accounting covered the whole batch: every simulation task is
    // attributed to exactly one worker.
    let tasks: u64 = snap.workers.iter().map(|w| w.tasks).sum();
    assert!(tasks > 0, "parallel batches recorded worker stats");
}

proptest! {
    /// The collapsed-stack export round-trips: arbitrary frame paths and
    /// self-times survive `to_folded` → `parse_folded` exactly, in order.
    #[test]
    fn folded_round_trips_arbitrary_frames(
        frames in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..8, 1usize..12), 1..5),
                0u64..u64::MAX,
            ),
            0..20,
        )
    ) {
        const NAMES: [&str; 8] =
            ["run", "step", "sim_events", "crawl", "a", "b9", "x_y", "net_send"];
        let frames: Vec<(String, cdnc_obs::PhaseTiming)> = frames
            .into_iter()
            .map(|(segments, self_ns)| {
                let path = segments
                    .iter()
                    .map(|&(name, reps)| NAMES[name].repeat(reps))
                    .collect::<Vec<_>>()
                    .join("/");
                let self_ns = u128::from(self_ns);
                (path, cdnc_obs::PhaseTiming { count: 1, total_ns: self_ns, self_ns })
            })
            .collect();
        let folded = to_folded(&frames);
        let parsed = parse_folded(&folded).expect("well-formed");
        prop_assert_eq!(parsed.len(), frames.len());
        for ((path, timing), (parsed_path, parsed_self)) in frames.iter().zip(&parsed) {
            prop_assert_eq!(path, parsed_path);
            prop_assert_eq!(timing.self_ns, *parsed_self);
        }
    }
}
