//! Time-profile artifact output for `experiments timeprof`: one
//! `<figure>.timeprof.json` plus one `<figure>.folded` (collapsed-stack
//! flamegraph input) per run, attributing the run's wall clock to the
//! span-frame tree, per-event-kind handlers, and pool workers.
//!
//! The document mirrors the deterministic/volatile split of
//! [`crate::profile_out`]. The `frames` section (paths, first-closed
//! order, entry counts) and the `handlers` section (dispatch counts per
//! kind) come from registry instruments sharded and absorbed in task
//! order, so they are bit-identical for every `--jobs N`. Everything
//! measured in nanoseconds — frame totals and self times, handler
//! latency moments, worker busy/steal/idle accounting — sits under the
//! single `time_telemetry` key listed in
//! [`crate::obs_out::VOLATILE_KEYS`], so `obs-diff` ignores it. The
//! `.folded` sibling carries volatile self-nanosecond values over a
//! deterministic set of stack lines; `obs-diff` compares its paths only.

use crate::scale::Scale;
use cdnc_obs::{HistogramSnapshot, Json, TimeProfSnapshot, WorkerUse};

/// Bridges the pool's dependency-free worker accounting into the
/// registry's [`WorkerUse`] records (field-for-field; `cdnc-par` cannot
/// depend on `cdnc-obs`, so the caller carries the stats across).
pub fn worker_use(stats: &[cdnc_par::WorkerStat]) -> Vec<WorkerUse> {
    stats
        .iter()
        .map(|s| WorkerUse {
            worker: s.worker,
            busy_ns: s.busy_ns,
            steal_ns: s.steal_ns,
            idle_ns: s.idle_ns,
            join_wait_ns: s.join_wait_ns,
            chunks: s.chunks,
            tasks: s.tasks,
        })
        .collect()
}

/// A handler histogram as a compact JSON object of its volatile latency
/// moments (seconds).
fn handler_telemetry_doc(h: &HistogramSnapshot) -> Json {
    let mean = if h.count > 0 { h.sum / h.count as f64 } else { 0.0 };
    Json::obj()
        .field("count", h.count)
        .field("sum_s", h.sum)
        .field("mean_s", mean)
        .field("min_s", if h.count > 0 { h.min } else { 0.0 })
        .field("max_s", if h.count > 0 { h.max } else { 0.0 })
}

/// The full time-profile document for one figure run.
pub fn timeprof_doc(id: &str, scale: Scale, snap: &TimeProfSnapshot, wall_s: f64) -> Json {
    let frames = Json::Arr(
        snap.frames
            .iter()
            .map(|(path, t)| Json::obj().field("path", path.as_str()).field("count", t.count))
            .collect(),
    );
    let mut handlers = Json::obj();
    for (label, h) in &snap.handlers {
        handlers = handlers.field(label, Json::obj().field("count", h.count));
    }

    let frame_telemetry = Json::Arr(
        snap.frames
            .iter()
            .map(|(path, t)| {
                Json::obj()
                    .field("path", path.as_str())
                    .field("total_ns", t.total_ns as f64)
                    .field("self_ns", t.self_ns as f64)
            })
            .collect(),
    );
    let mut handler_telemetry = Json::obj();
    for (label, h) in &snap.handlers {
        handler_telemetry = handler_telemetry.field(label, handler_telemetry_doc(h));
    }
    let workers = Json::Arr(
        snap.workers
            .iter()
            .map(|w| {
                Json::obj()
                    .field("worker", w.worker as u64)
                    .field("busy_ns", w.busy_ns as f64)
                    .field("steal_ns", w.steal_ns as f64)
                    .field("idle_ns", w.idle_ns as f64)
                    .field("join_wait_ns", w.join_wait_ns as f64)
                    .field("chunks", w.chunks)
                    .field("tasks", w.tasks)
            })
            .collect(),
    );

    Json::obj()
        .field("figure", id)
        .field("scale", format!("{scale:?}"))
        .field("wall_s", wall_s)
        .field("frames", frames)
        .field("handlers", handlers)
        .field(
            "time_telemetry",
            Json::obj()
                .field("frames", frame_telemetry)
                .field("handlers", handler_telemetry)
                .field("workers", workers),
        )
}

/// Formats the frame / handler / worker breakdown printed after
/// `experiments timeprof`.
pub fn timeprof_table(snap: &TimeProfSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<36}  {:>10}  {:>10}  {:>10}  {:>6}\n",
        "frame", "count", "total s", "self s", "self%"
    ));
    let wall: f64 = snap
        .frames
        .iter()
        .filter(|(path, _)| !path.contains('/'))
        .map(|(_, t)| t.total_secs())
        .sum();
    for (path, t) in &snap.frames {
        let share = if wall > 0.0 { 100.0 * t.self_secs() / wall } else { 0.0 };
        out.push_str(&format!(
            "  {:<36}  {:>10}  {:>10.4}  {:>10.4}  {:>5.1}%\n",
            path,
            t.count,
            t.total_secs(),
            t.self_secs(),
            share,
        ));
    }
    if !snap.handlers.is_empty() {
        out.push_str(&format!(
            "\n  {:<24}  {:>12}  {:>12}  {:>12}\n",
            "handler", "count", "mean ns", "total ms"
        ));
        for (label, h) in &snap.handlers {
            let mean_ns = if h.count > 0 { 1e9 * h.sum / h.count as f64 } else { 0.0 };
            out.push_str(&format!(
                "  {:<24}  {:>12}  {:>12.0}  {:>12.3}\n",
                label,
                h.count,
                mean_ns,
                1e3 * h.sum,
            ));
        }
    }
    if !snap.workers.is_empty() {
        out.push_str(&format!(
            "\n  {:<8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>8}  {:>8}\n",
            "worker", "busy ms", "steal ms", "idle ms", "join ms", "chunks", "tasks"
        ));
        let ms = |ns: u128| ns as f64 / 1e6;
        for w in &snap.workers {
            out.push_str(&format!(
                "  {:<8}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}  {:>8}  {:>8}\n",
                w.worker,
                ms(w.busy_ns),
                ms(w.steal_ns),
                ms(w.idle_ns),
                ms(w.join_wait_ns),
                w.chunks,
                w.tasks,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_obs::{EventHook, EventRecord, Registry};

    fn synthetic_registry() -> Registry {
        let reg = Registry::enabled();
        reg.enable_timeprof();
        {
            let _outer = reg.span("run");
            let _inner = reg.span("step");
            let mut hook = EventHook::new(&reg, &[("sim_ev_publish", "ev_publish")], &[], 0);
            hook.record(EventRecord { t_us: 0, kind: 0, node: 0, tags: &[], depth: 0 });
            hook.close(0);
        }
        reg.record_worker_use(&worker_use(&[cdnc_par::WorkerStat {
            worker: 0,
            busy_ns: 900,
            steal_ns: 50,
            idle_ns: 25,
            join_wait_ns: 0,
            chunks: 3,
            tasks: 17,
        }]));
        reg
    }

    #[test]
    fn doc_splits_structure_from_telemetry() {
        let reg = synthetic_registry();
        let snap = reg.timeprof_snapshot().expect("armed");
        let doc = timeprof_doc("figX", Scale::Smoke, &snap, 1.5);
        let Some(Json::Arr(frames)) = doc.get("frames") else { panic!("frames section") };
        let paths: Vec<_> =
            frames.iter().filter_map(|f| f.get("path")).filter_map(Json::as_str).collect();
        assert_eq!(paths, ["run/step", "run"], "first-closed order");
        assert!(frames[0].get("self_ns").is_none(), "nanoseconds live only under time_telemetry");
        assert_eq!(
            doc.get("handlers")
                .and_then(|h| h.get("ev_publish"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        let telemetry = doc.get("time_telemetry").expect("telemetry section");
        let Some(Json::Arr(tele_frames)) = telemetry.get("frames") else { panic!("tele frames") };
        assert!(tele_frames[0].get("self_ns").is_some());
        let Some(Json::Arr(workers)) = telemetry.get("workers") else { panic!("workers") };
        assert_eq!(workers[0].get("tasks").and_then(Json::as_f64), Some(17.0));
    }

    #[test]
    fn volatile_telemetry_scrubs_away() {
        let reg = synthetic_registry();
        let snap = reg.timeprof_snapshot().expect("armed");
        let doc = timeprof_doc("figX", Scale::Smoke, &snap, 1.5);
        let clean = crate::obs_out::scrub_volatile(&doc);
        assert!(clean.get("frames").is_some(), "frame structure is deterministic");
        assert!(clean.get("handlers").is_some(), "handler counts are deterministic");
        assert!(clean.get("time_telemetry").is_none());
        assert!(clean.get("wall_s").is_none());
    }

    #[test]
    fn worker_use_converts_field_for_field() {
        let converted = worker_use(&[cdnc_par::WorkerStat {
            worker: 2,
            busy_ns: 10,
            steal_ns: 20,
            idle_ns: 30,
            join_wait_ns: 40,
            chunks: 5,
            tasks: 6,
        }]);
        assert_eq!(converted.len(), 1);
        let w = &converted[0];
        assert_eq!((w.worker, w.busy_ns, w.steal_ns), (2, 10, 20));
        assert_eq!((w.idle_ns, w.join_wait_ns, w.chunks, w.tasks), (30, 40, 5, 6));
    }

    #[test]
    fn table_lists_frames_handlers_and_workers() {
        let reg = synthetic_registry();
        let snap = reg.timeprof_snapshot().expect("armed");
        let table = timeprof_table(&snap);
        assert!(table.contains("run/step"), "{table}");
        assert!(table.contains("ev_publish"), "{table}");
        assert!(table.contains("worker"), "{table}");
    }
}
