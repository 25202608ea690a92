//! Trace artifacts for the experiments binary: Chrome/Perfetto trace JSON
//! per figure, flight-recorder dumps for anomalous updates, and the text
//! renderings behind the `trace` subcommand (`summary`, `critical-path`,
//! `inspect <update-id>`).

use crate::obs_out::{Artifact, DEFAULT_TRACE_THRESHOLD_S};
use cdnc_obs::{
    parse_chrome, to_chrome, FlightRecorder, FlightReport, PropagationTree, SpanId, SpanKind,
    SpanStore,
};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Writes `<dir>/<id>.trace.json` (Chrome trace-event format, loads in
/// ui.perfetto.dev) plus one flight-recorder dump per update whose
/// adoption lag exceeds [`DEFAULT_TRACE_THRESHOLD_S`]. Returns the trace
/// path and the number of dumps, or `None` when the store recorded nothing
/// (figure without a simulation, or tracing off).
pub fn write_figure_trace(
    dir: &Path,
    id: &str,
    store: &SpanStore,
) -> io::Result<Option<(PathBuf, usize)>> {
    if store.spans.is_empty() {
        return Ok(None);
    }
    // Compact: traces carry one event per hop/adoption/user view, so even a
    // smoke-scale figure produces hundreds of thousands of events.
    let path = Artifact::Trace.write(dir, id, to_chrome(store).to_compact())?;
    let reports = FlightRecorder::new(DEFAULT_TRACE_THRESHOLD_S).scan(store);
    for report in &reports {
        write_flight_dump(dir, id, report)?;
    }
    Ok(Some((path, reports.len())))
}

/// Writes one flight-recorder report of figure `id` as
/// `<dir>/flightrec/<id>_<stem>.json`.
pub fn write_flight_dump(dir: &Path, id: &str, report: &FlightReport) -> io::Result<PathBuf> {
    let name = format!("{id}_{}", report.file_stem());
    Artifact::FlightDump.write(dir, &name, report.to_json().to_pretty())
}

/// Loads a span store back from a trace JSON file written by
/// [`write_figure_trace`].
pub fn load_store(path: &Path) -> Result<SpanStore, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_chrome(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `trace summary` rendering: store-wide span statistics.
pub fn summary_text(store: &SpanStore) -> String {
    let s = store.summary();
    let mut out = String::new();
    let _ = writeln!(out, "traces (updates published): {}", s.traces);
    let _ = writeln!(out, "spans recorded:             {}", s.spans);
    let _ = writeln!(out, "horizon:                    {:.3} s", store.horizon_us as f64 / 1e6);
    for (kind, count) in &s.by_kind {
        if *count > 0 {
            let _ = writeln!(out, "  {kind:<14} {count}");
        }
    }
    let _ = writeln!(out, "adoptions:                  {}", s.adoptions);
    let _ = writeln!(out, "lost deliveries:            {}", s.lost);
    let _ = writeln!(out, "orphaned hops:              {}", s.orphan_hops);
    if s.adoptions > 0 {
        let _ = writeln!(out, "mean adopt lag:             {:.3} s", s.mean_adopt_lag_s);
        let _ = writeln!(out, "max adopt lag:              {:.3} s", s.max_adopt_lag_s);
    }
    out
}

/// The `trace critical-path` rendering: per update method (trace scope),
/// the mean and worst end-to-end critical path over that method's updates.
/// `None` when the store holds no traces.
pub fn critical_path_table(store: &SpanStore) -> Option<String> {
    if store.traces.is_empty() {
        return None;
    }
    let scopes = store.scopes();
    let width = scopes.iter().map(|s| s.len()).max().unwrap_or(6).max(6);
    // One pass over the store; per-trace critical_path() calls would
    // re-scan every span per trace.
    let forest = store.forest();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<width$}  {:>7}  {:>10}  {:>10}  {:>9}",
        "method", "updates", "mean path", "max path", "max hops"
    );
    for scope in scopes {
        let paths: Vec<_> = store
            .traces
            .iter()
            .zip(&forest)
            .filter(|(m, _)| m.scope == scope)
            .filter_map(|(m, tree)| tree.as_ref().and_then(|t| t.critical_path(m)))
            .collect();
        if paths.is_empty() {
            continue;
        }
        let mean_s =
            paths.iter().map(|p| p.total_us as f64 / 1e6).sum::<f64>() / paths.len() as f64;
        let max_s = paths.iter().map(|p| p.total_us).max().unwrap_or(0) as f64 / 1e6;
        let max_hops = paths
            .iter()
            .map(|p| p.steps.iter().filter(|s| s.kind == SpanKind::Hop).count())
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "  {:<width$}  {:>7}  {:>9.3}s  {:>9.3}s  {:>9}",
            scope,
            paths.len(),
            mean_s,
            max_s,
            max_hops
        );
    }
    Some(out)
}

fn walk(tree: &PropagationTree, span: SpanId, depth: usize, published_us: u64, out: &mut String) {
    if let Some(s) = tree.span(span) {
        let at_s = s.end_us.saturating_sub(published_us) as f64 / 1e6;
        let src = s.src.map(|v| format!(" from {v}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "{:indent$}+{at_s:.3}s  {} [{}] node {}{}",
            "",
            s.kind.as_str(),
            s.label,
            s.node,
            src,
            indent = depth * 2
        );
    }
    for &child in tree.children(span) {
        walk(tree, child, depth + 1, published_us, out);
    }
}

/// The `trace inspect <update-id>` rendering: the full propagation tree of
/// every trace carrying that update number (one per scope when several
/// sims share a store). `None` when no trace matches.
pub fn inspect_text(store: &SpanStore, update: u32) -> Option<String> {
    let mut out = String::new();
    for meta in store.traces.iter().filter(|m| m.update == update) {
        let Some(tree) = store.tree(meta.id) else { continue };
        let _ = writeln!(
            out,
            "update {} · {} · published at {:.3} s",
            meta.update,
            meta.scope,
            meta.published_us as f64 / 1e6
        );
        walk(&tree, tree.root, 1, meta.published_us, &mut out);
        let orphans = tree.orphan_hops();
        if !orphans.is_empty() {
            let _ = writeln!(out, "  !! {} orphaned hop(s)", orphans.len());
        }
    }
    (!out.is_empty()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_core::{run_with_obs, MethodKind, Scheme, SimConfig};
    use cdnc_obs::Registry;
    use cdnc_simcore::{SimDuration, SimTime};
    use cdnc_trace::UpdateSequence;

    fn traced_store() -> SpanStore {
        let updates = UpdateSequence::periodic(SimDuration::from_secs(60), SimTime::from_secs(300));
        let mut cfg = SimConfig::section4(Scheme::Unicast(MethodKind::Push), updates);
        cfg.servers = 8;
        cfg.users_per_server = 1;
        let reg = Registry::enabled();
        reg.enable_tracing();
        let _ = run_with_obs(&cfg, &reg);
        reg.tracer().store()
    }

    #[test]
    fn renderings_cover_a_real_run() {
        let store = traced_store();
        let summary = summary_text(&store);
        assert!(summary.contains("traces (updates published): 5"), "summary:\n{summary}");
        let table = critical_path_table(&store).expect("traces present");
        assert!(table.contains("Push"), "table:\n{table}");
        let inspect = inspect_text(&store, 1).expect("update 1 traced");
        assert!(inspect.contains("publish"), "inspect:\n{inspect}");
        assert!(inspect.contains("adopt"), "inspect:\n{inspect}");
        assert!(inspect_text(&store, 999).is_none());
    }

    #[test]
    fn artifacts_round_trip_through_disk() {
        let store = traced_store();
        let tmp = std::env::temp_dir().join("cdnc_trace_out_test");
        let _ = std::fs::remove_dir_all(&tmp);
        let (path, dumps) =
            write_figure_trace(&tmp, "figtest", &store).expect("write").expect("non-empty");
        assert_eq!(dumps, 0, "a healthy smoke run must not trip the flight recorder");
        let back = load_store(&path).expect("reload");
        assert_eq!(back, store, "disk round-trip must be lossless");
        // An empty store writes nothing.
        assert!(write_figure_trace(&tmp, "empty", &SpanStore::default()).expect("io ok").is_none());
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
