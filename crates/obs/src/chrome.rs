//! Chrome trace-event (Perfetto-compatible) export of a [`SpanStore`].
//!
//! The emitted document is the JSON object flavour of the trace-event
//! format: a `traceEvents` array of complete (`"ph":"X"`) events plus
//! process/thread metadata, loadable directly in `ui.perfetto.dev` or
//! `chrome://tracing`. Each trace (published update) becomes a *process*
//! and each simulated node a *thread* inside it, so Perfetto renders one
//! swim-lane group per update with the propagation fanning out across
//! nodes. Control-plane spans (mode switches, tree repairs) live in a
//! dedicated pid-0 "control plane" process.
//!
//! Everything needed to rebuild the span store rides in each event's
//! `args` (span/parent ids, kind, update number, scope), so
//! [`from_chrome`] round-trips what [`to_chrome`] writes — the CLI's
//! `trace` subcommand and the CI validation step rely on this.

use crate::json::Json;
use crate::trace::{
    intern_label, SpanId, SpanKind, SpanRecord, SpanStore, TraceCtx, TraceId, TraceMeta,
};

/// Exported pid of the control-plane pseudo-process.
const CONTROL_PID: u32 = 0;

fn pid_of(trace: TraceId) -> u32 {
    if trace.is_some() {
        trace.0 + 1
    } else {
        CONTROL_PID
    }
}

fn opt_u32(v: Option<u32>) -> Json {
    v.map_or(Json::Null, Json::from)
}

fn id_or_null(some: bool, v: u32) -> Json {
    if some {
        Json::from(v)
    } else {
        Json::Null
    }
}

/// Renders `store` as a Chrome trace-event JSON document.
pub fn to_chrome(store: &SpanStore) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(store.spans.len() + store.traces.len() + 1);
    // Process metadata: name each update's lane, pin the control plane.
    events.push(
        Json::obj()
            .field("ph", "M")
            .field("pid", CONTROL_PID)
            .field("tid", 0u32)
            .field("name", "process_name")
            .field("args", Json::obj().field("name", "control plane")),
    );
    for meta in &store.traces {
        events.push(
            Json::obj()
                .field("ph", "M")
                .field("pid", pid_of(meta.id))
                .field("tid", 0u32)
                .field("name", "process_name")
                .field(
                    "args",
                    Json::obj().field("name", format!("{} · update {}", meta.scope, meta.update)),
                ),
        );
    }
    for s in &store.spans {
        let meta = store.meta(s.trace);
        let name = match s.kind {
            SpanKind::Hop => format!("hop:{}", s.label),
            _ => s.kind.as_str().to_owned(),
        };
        let args = Json::obj()
            .field("span", s.id.0)
            .field("parent", id_or_null(s.parent.is_some(), s.parent.0))
            .field("trace", id_or_null(s.trace.is_some(), s.trace.0))
            .field("kind", s.kind.as_str())
            .field("label", s.label)
            .field("node", s.node)
            .field("src", opt_u32(s.src))
            .field("update", meta.map(|m| m.update))
            .field("scope", meta.map(|m| m.scope.as_str()))
            .field("published_us", meta.map(|m| m.published_us));
        events.push(
            Json::obj()
                .field("name", name)
                .field("cat", s.kind.as_str())
                .field("ph", "X")
                .field("ts", s.begin_us)
                // Zero-duration events vanish in viewers; clamp to 1 µs.
                .field("dur", s.end_us.saturating_sub(s.begin_us).max(1))
                .field("pid", pid_of(s.trace))
                .field("tid", s.node)
                .field("args", args),
        );
    }
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
        .field("otherData", Json::obj().field("horizon_us", store.horizon_us))
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn field_str<'j>(obj: &'j Json, key: &str) -> Result<&'j str, String> {
    obj.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string field '{key}'"))
}

fn opt_field_u32(obj: &Json, key: &str) -> Option<u32> {
    obj.get(key).and_then(Json::as_f64).map(|v| v as u32)
}

/// Rebuilds a [`SpanStore`] from a document written by [`to_chrome`].
///
/// Metadata events are skipped; spans are reconstructed from each event's
/// `args` and re-sorted into record (id) order. Returns an error for
/// documents that are not round-trippable (missing args, duplicate or
/// non-dense span ids) or whose parent links do not all lead back to a
/// root: every parent must be an earlier span of the same trace.
pub fn from_chrome(doc: &Json) -> Result<SpanStore, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        _ => return Err("missing traceEvents array".to_owned()),
    };
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut traces: Vec<TraceMeta> = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let args = ev.get("args").ok_or("event without args")?;
        let begin_us = field_u64(ev, "ts")?;
        let dur = field_u64(ev, "dur")?;
        let kind = SpanKind::parse(field_str(args, "kind")?)
            .ok_or_else(|| format!("unknown span kind in {}", args.to_compact()))?;
        let id = SpanId(opt_field_u32(args, "span").ok_or("span id missing")?);
        let parent = opt_field_u32(args, "parent").map_or(SpanId::NONE, SpanId);
        let trace = opt_field_u32(args, "trace").map_or(TraceId::NONE, TraceId);
        // A 1 µs exported duration stands for an instant event.
        let end_us = if dur <= 1 { begin_us } else { begin_us + dur };
        spans.push(SpanRecord {
            id,
            trace,
            parent,
            kind,
            node: opt_field_u32(args, "node").ok_or("node missing")?,
            src: opt_field_u32(args, "src"),
            begin_us,
            end_us,
            label: intern_label(field_str(args, "label")?),
        });
        if kind == SpanKind::Publish && trace.is_some() {
            traces.push(TraceMeta {
                id: trace,
                update: opt_field_u32(args, "update").ok_or("publish without update number")?,
                published_us: field_u64(args, "published_us")?,
                scope: field_str(args, "scope")?.to_owned(),
            });
        }
    }
    spans.sort_by_key(|s| s.id);
    for (i, s) in spans.iter().enumerate() {
        if s.id.0 as usize != i {
            return Err(format!("span ids not dense at index {i} (id {})", s.id.0));
        }
    }
    for s in &spans {
        if s.parent.is_some() && (s.parent >= s.id || spans[s.parent.0 as usize].trace != s.trace) {
            return Err(format!(
                "span {} has parent {}, which is not an earlier span of its trace",
                s.id.0, s.parent.0
            ));
        }
    }
    traces.sort_by_key(|m| m.id);
    for (i, m) in traces.iter().enumerate() {
        if m.id.0 as usize != i {
            return Err(format!("trace ids not dense at index {i} (id {})", m.id.0));
        }
    }
    let horizon_us =
        doc.get("otherData").map(|o| field_u64(o, "horizon_us")).transpose()?.unwrap_or(0);
    Ok(SpanStore { spans, traces, horizon_us })
}

/// Convenience: parses trace-JSON text and rebuilds the span store.
pub fn parse_chrome(text: &str) -> Result<SpanStore, String> {
    from_chrome(&crate::json::parse(text)?)
}

/// `true` when `ctx` would export under the control-plane pid — test hook
/// keeping the pid mapping honest.
pub fn is_control_pid(ctx: TraceCtx) -> bool {
    pid_of(ctx.trace) == CONTROL_PID
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Tracer, TracerCore};
    use std::sync::Arc;

    fn sample_store() -> SpanStore {
        let t = Tracer(Some(Arc::new(TracerCore::default())));
        let root = t.publish(3, 0, 1_000, "unicast push");
        let hop = t.hop(root, "update", 0, 2, 1_000, 45_000);
        let adopt = t.adopt(hop, 2, 45_000);
        t.user_view(adopt, 7, 2, 60_000);
        let inval = t.hop(root, "invalidation", 0, 3, 1_000, 20_000);
        t.stale(inval, 3, 20_000);
        t.control(SpanKind::ModeSwitch, 3, 70_000, "to_ttl");
        t.tick(80_000);
        t.store()
    }

    #[test]
    fn export_shape_is_trace_event_format() {
        let doc = to_chrome(&sample_store());
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // 1 control + 1 trace metadata, 7 spans.
        assert_eq!(events.len(), 2 + 7);
        let complete: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(complete.len(), 7);
        for e in &complete {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 1.0, "durations clamped");
        }
        // The update's events live in pid 1; the mode switch in pid 0.
        let pids: Vec<f64> =
            complete.iter().filter_map(|e| e.get("pid").and_then(Json::as_f64)).collect();
        assert!(pids.contains(&1.0) && pids.contains(&0.0));
    }

    #[test]
    fn round_trips_through_json_text() {
        let store = sample_store();
        let text = to_chrome(&store).to_pretty();
        let back = parse_chrome(&text).expect("round-trip");
        assert_eq!(back, store);
    }

    #[test]
    fn import_rejects_malformed_documents() {
        assert!(from_chrome(&Json::obj()).is_err(), "no traceEvents");
        let bad = Json::obj().field(
            "traceEvents",
            Json::Arr(vec![Json::obj().field("ph", "X").field("ts", 0u64).field("dur", 1u64)]),
        );
        assert!(from_chrome(&bad).is_err(), "event without args");
        // Non-dense span ids.
        let store = sample_store();
        let mut doc = to_chrome(&store);
        if let Json::Obj(fields) = &mut doc {
            if let Some((_, Json::Arr(events))) =
                fields.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                events.retain(|e| {
                    e.get("args")
                        .and_then(|a| a.get("span"))
                        .and_then(Json::as_f64)
                        .is_none_or(|id| id != 2.0)
                });
            }
        }
        assert!(from_chrome(&doc).is_err(), "gap in span ids must be detected");
    }

    /// Exports `store` with `(span, key, value)` overrides applied to the
    /// spans' `args`.
    fn export_with(store: &SpanStore, edits: &[(u32, &str, u32)]) -> Json {
        let mut doc = to_chrome(store);
        let Json::Obj(fields) = &mut doc else { unreachable!("an object") };
        let Some((_, Json::Arr(events))) = fields.iter_mut().find(|(k, _)| k == "traceEvents")
        else {
            unreachable!("traceEvents")
        };
        for event in events.iter_mut() {
            let Json::Obj(event) = event else { continue };
            let Some((_, Json::Obj(args))) = event.iter_mut().find(|(k, _)| k == "args") else {
                continue;
            };
            let span = args.iter().find(|(k, _)| k == "span").and_then(|(_, v)| v.as_f64());
            for &(target, key, value) in edits {
                if span == Some(f64::from(target)) {
                    let slot = args.iter_mut().find(|(k, _)| k == key).expect("arg exists");
                    slot.1 = Json::from(value);
                }
            }
        }
        doc
    }

    #[test]
    fn import_rejects_parent_links_that_do_not_lead_to_a_root() {
        // One update: publish (span 0) → hop (1) → adopt (2).
        let t = Tracer(Some(Arc::new(TracerCore::default())));
        let root = t.publish(0, 0, 1_000, "unicast push");
        let hop = t.hop(root, "update", 0, 2, 1_000, 45_000);
        t.adopt(hop, 2, 45_000);
        let one = t.store();
        assert!(from_chrome(&export_with(&one, &[])).is_ok());
        let dangling = export_with(&one, &[(1, "parent", 999)]);
        assert!(from_chrome(&dangling).is_err(), "hop parent is no span");
        let cycle = export_with(&one, &[(1, "parent", 2), (2, "parent", 1)]);
        assert!(from_chrome(&cycle).is_err(), "hop and adopt parent each other");
        // Two updates: publish 0 (span 0), then publish 1 (1) → hop (2) →
        // adopt (3); re-parenting the hop onto update 0's root crosses traces.
        let t = Tracer(Some(Arc::new(TracerCore::default())));
        t.publish(0, 0, 1_000, "unicast push");
        let root = t.publish(1, 0, 2_000, "unicast push");
        let hop = t.hop(root, "update", 0, 2, 2_000, 45_000);
        t.adopt(hop, 2, 45_000);
        let two = t.store();
        assert!(from_chrome(&export_with(&two, &[])).is_ok());
        let crossed = export_with(&two, &[(2, "parent", 0)]);
        assert!(from_chrome(&crossed).is_err(), "hop parent belongs to another trace");
    }

    #[test]
    fn empty_store_round_trips_losslessly() {
        let empty = SpanStore::default();
        let doc = to_chrome(&empty);
        // Only the control-plane metadata event is emitted; no spans.
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { panic!("traceEvents") };
        assert_eq!(events.len(), 1);
        let back = parse_chrome(&doc.to_pretty()).expect("empty round-trip");
        assert_eq!(back, empty);
        assert!(back.spans.is_empty() && back.traces.is_empty() && back.horizon_us == 0);
    }

    #[test]
    fn control_plane_only_store_round_trips_losslessly() {
        // A store with control spans but no published update: no Publish
        // span means no trace metadata, which must not break the import.
        let t = Tracer(Some(Arc::new(TracerCore::default())));
        t.control(SpanKind::ModeSwitch, 3, 1_000, "to_invalidation");
        t.control(SpanKind::TreeRepair, 5, 2_000, "reattach");
        t.tick(9_000);
        let store = t.store();
        assert!(store.traces.is_empty() && store.spans.len() == 2);
        let doc = to_chrome(&store);
        let back = parse_chrome(&doc.to_pretty()).expect("control-plane round-trip");
        assert_eq!(back, store);
        assert!(back.spans.iter().all(|s| !s.trace.is_some()), "all spans stay control-plane");
        assert_eq!(back.horizon_us, 9_000);
    }

    #[test]
    fn control_pid_mapping() {
        assert!(is_control_pid(TraceCtx::NONE));
        assert!(!is_control_pid(TraceCtx { trace: TraceId(0), span: SpanId(0) }));
    }
}
