//! Self-contained HTML run reports.
//!
//! `experiments report` turns the artifacts an instrumented run left under
//! `results/obs/` — per-figure run artifacts, sampled time series, and
//! flight-recorder dumps — into static HTML: one page per figure plus a
//! consolidated index. Everything is hand-rolled (inline CSS, inline SVG,
//! zero external assets or scripts), so a report is a single directory that
//! renders anywhere, including file:// in a sandboxed browser.
//!
//! The pages are derived purely from the on-disk artifacts; generating a
//! report never re-runs a simulation.

use crate::obs_out::{list_files, Artifact};
use cdnc_obs::{bucket_floor, json, Json, SeriesEntry, SeriesSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Everything the report found for one figure id.
#[derive(Debug, Default)]
struct FigureInputs {
    /// The figure's parsed documents by kind: run artifact, workload
    /// curves, digest, health heartbeat, memory and time profiles.
    docs: BTreeMap<Artifact, Json>,
    series: Option<SeriesSnapshot>,
    /// Flight-recorder dumps attributed to this figure, parsed.
    anomalies: Vec<Json>,
}

impl FigureInputs {
    fn doc(&self, kind: Artifact) -> Option<&Json> {
        self.docs.get(&kind)
    }

    /// The figure's title from its run artifact, or `""`.
    fn title(&self) -> &str {
        let summary = self.doc(Artifact::Run).and_then(|a| a.get("summary"));
        summary.and_then(|s| s.get("title")).and_then(Json::as_str).unwrap_or("")
    }
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

/// Natural-ish sort key so `fig3` precedes `fig10`.
fn figure_sort_key(id: &str) -> (String, u64, String) {
    let digits_at = id.find(|c: char| c.is_ascii_digit());
    match digits_at {
        Some(at) => {
            let (prefix, rest) = id.split_at(at);
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            let tail = &rest[digits.len()..];
            (prefix.to_owned(), digits.parse().unwrap_or(0), tail.to_owned())
        }
        None => (id.to_owned(), 0, String::new()),
    }
}

/// Scans an artifact directory for per-figure inputs.
fn collect_inputs(obs_dir: &Path) -> io::Result<BTreeMap<String, FigureInputs>> {
    let mut inputs: BTreeMap<String, FigureInputs> = BTreeMap::new();
    let mut dumps = Vec::new();
    let parse = |name: &str| json::parse(&std::fs::read_to_string(obs_dir.join(name)).ok()?).ok();
    for name in list_files(obs_dir)? {
        let Some((kind, id)) = Artifact::classify(&name) else { continue };
        if matches!(kind, Artifact::Summary | Artifact::Trace | Artifact::Folded) {
            continue;
        }
        let Some(doc) = parse(&name) else { continue };
        match kind {
            Artifact::FlightDump => dumps.push((id.to_owned(), doc)),
            Artifact::Series => {
                if let Some(snap) = SeriesSnapshot::from_json(&doc) {
                    inputs.entry(id.to_owned()).or_default().series = Some(snap);
                }
            }
            _ => {
                inputs.entry(id.to_owned()).or_default().docs.insert(kind, doc);
            }
        }
    }
    // Dumps are named `<figure>_<update…>`; attribute each to the longest
    // figure id that prefixes its name.
    for (stem, doc) in dumps {
        let owner = inputs
            .keys()
            .filter(|id| stem.starts_with(&format!("{id}_")))
            .max_by_key(|id| id.len());
        if let Some(id) = owner.cloned() {
            inputs.get_mut(&id).expect("owner came from the map").anomalies.push(doc);
        }
    }
    Ok(inputs)
}

const CSS: &str = "body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:60rem;\
color:#222;padding:0 1rem}h1,h2{font-weight:600}h2{margin-top:2rem;border-bottom:1px solid #ddd;\
padding-bottom:.2rem}table{border-collapse:collapse;margin:.5rem 0}td,th{border:1px solid #ddd;\
padding:.25rem .6rem;text-align:right}th{background:#f6f6f6}td:first-child,th:first-child\
{text-align:left}svg{display:block;margin:.6rem 0;background:#fcfcfc;border:1px solid #eee}\
.meta{color:#666}.warn{color:#a40}a{color:#06c}";

const SERIES_COLORS: [&str; 4] = ["#0b62a4", "#c0392b", "#1e8449", "#8e44ad"];

/// One series as an inline SVG line chart. Samples restart their sim-time
/// clock at segment boundaries (serial multi-simulation figures), so the
/// polyline splits — and changes colour — wherever the timestamp rewinds.
fn svg_series(entry: &SeriesEntry) -> String {
    const W: f64 = 640.0;
    const H: f64 = 130.0;
    const L: f64 = 64.0; // left gutter for value labels
    const B: f64 = 18.0; // bottom gutter for the time axis
    let pts = &entry.points;
    if pts.is_empty() {
        return String::new();
    }
    let t_max = pts.iter().map(|p| p.t_us).max().unwrap_or(1).max(1) as f64;
    let (mut v_min, mut v_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in pts {
        v_min = v_min.min(p.value);
        v_max = v_max.max(p.value);
    }
    if v_max - v_min < 1e-12 {
        v_max = v_min + 1.0;
    }
    let x = |t_us: u64| L + (t_us as f64 / t_max) * (W - L - 4.0);
    let y = |v: f64| (H - B) - ((v - v_min) / (v_max - v_min)) * (H - B - 6.0);
    let mut segments: Vec<Vec<String>> = vec![Vec::new()];
    let mut prev_t = 0u64;
    for p in pts {
        if p.t_us <= prev_t && !segments.last().unwrap().is_empty() {
            segments.push(Vec::new());
        }
        segments.last_mut().unwrap().push(format!("{:.1},{:.1}", x(p.t_us), y(p.value)));
        prev_t = p.t_us;
    }
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\" \
         aria-label=\"{}\">",
        html_escape(&entry.name)
    );
    let _ = write!(
        svg,
        "<text x=\"4\" y=\"12\" font-size=\"11\" fill=\"#666\">{:.3}</text>\
         <text x=\"4\" y=\"{:.0}\" font-size=\"11\" fill=\"#666\">{:.3}</text>\
         <text x=\"{:.0}\" y=\"{:.0}\" font-size=\"11\" fill=\"#666\" text-anchor=\"end\">\
         {:.0} s</text>",
        v_max,
        H - B,
        v_min,
        W - 6.0,
        H - 4.0,
        t_max / 1e6,
    );
    for (i, seg) in segments.iter().enumerate() {
        let color = SERIES_COLORS[i % SERIES_COLORS.len()];
        let _ = write!(
            svg,
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.2\" points=\"{}\"/>",
            seg.join(" ")
        );
    }
    svg.push_str("</svg>");
    svg
}

/// One `(x, y)` curve (a CDF) as an inline SVG line chart: x spans the
/// data range, y spans `[0, 1]`.
fn svg_curve(label: &str, points: &[(f64, f64)]) -> String {
    const W: f64 = 640.0;
    const H: f64 = 130.0;
    const L: f64 = 64.0; // left gutter for fraction labels
    const B: f64 = 18.0; // bottom gutter for the x axis
    if points.is_empty() {
        return String::new();
    }
    let x_max = points.iter().map(|&(x, _)| x).fold(0.0_f64, f64::max).max(1e-12);
    let x = |v: f64| L + (v / x_max) * (W - L - 4.0);
    let y = |v: f64| (H - B) - v.clamp(0.0, 1.0) * (H - B - 6.0);
    let path: Vec<String> =
        points.iter().map(|&(px, py)| format!("{:.1},{:.1}", x(px), y(py))).collect();
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\" \
         aria-label=\"{}\">",
        html_escape(label)
    );
    let _ = write!(
        svg,
        "<text x=\"4\" y=\"12\" font-size=\"11\" fill=\"#666\">1.0</text>\
         <text x=\"4\" y=\"{:.0}\" font-size=\"11\" fill=\"#666\">0.0</text>\
         <text x=\"{:.0}\" y=\"{:.0}\" font-size=\"11\" fill=\"#666\" text-anchor=\"end\">\
         {:.3} s</text>\
         <polyline fill=\"none\" stroke=\"{}\" stroke-width=\"1.2\" points=\"{}\"/>",
        H - B,
        W - 6.0,
        H - 4.0,
        x_max,
        SERIES_COLORS[0],
        path.join(" ")
    );
    svg.push_str("</svg>");
    svg
}

/// The request-plane section body for one figure: one CDF chart per curve
/// recorded in `<figure>.workload.json` (user-perceived latency and
/// staleness-served per scheme × regime).
fn workload_section(workload: &Json) -> String {
    let Some(Json::Arr(curves)) = workload.get("curves") else { return String::new() };
    let mut body = String::new();
    for curve in curves {
        let Some(name) = curve.get("name").and_then(Json::as_str) else { continue };
        let Some(Json::Arr(raw)) = curve.get("points") else { continue };
        let points: Vec<(f64, f64)> = raw
            .iter()
            .filter_map(|pair| {
                let Json::Arr(xy) = pair else { return None };
                Some((xy.first().and_then(Json::as_f64)?, xy.get(1).and_then(Json::as_f64)?))
            })
            .collect();
        if points.is_empty() {
            continue;
        }
        let _ = write!(body, "<h3>{}</h3>{}", html_escape(name), svg_curve(name, &points));
    }
    body
}

/// Horizontal bar rows as inline SVG: one `(label, value)` per bar.
fn svg_bars(rows: &[(String, f64)], unit: &str) -> String {
    const W: f64 = 640.0;
    const ROW: f64 = 20.0;
    const L: f64 = 230.0;
    if rows.is_empty() {
        return String::new();
    }
    let max = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max).max(1e-12);
    let h = ROW * rows.len() as f64 + 6.0;
    let mut svg = format!("<svg viewBox=\"0 0 {W} {h}\" width=\"{W}\" height=\"{h}\">");
    for (i, (label, value)) in rows.iter().enumerate() {
        let y0 = 4.0 + ROW * i as f64;
        let bw = (value / max) * (W - L - 90.0);
        let _ = write!(
            svg,
            "<text x=\"{:.0}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\">{}</text>\
             <rect x=\"{L}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#0b62a4\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#444\">{:.3}{}</text>",
            L - 8.0,
            y0 + ROW - 7.0,
            html_escape(label),
            y0,
            bw.max(0.5),
            ROW - 6.0,
            L + bw.max(0.5) + 6.0,
            y0 + ROW - 7.0,
            value,
            unit,
        );
    }
    svg.push_str("</svg>");
    svg
}

/// The memory-profile section body for one figure: subsystem allocation
/// breakdown (from the tagged allocator) plus the structural probes.
fn profile_section(profile: &Json) -> String {
    let mut body = String::new();
    if let Some(Json::Obj(subsystems)) = profile.get("attribution") {
        let rows: Vec<(String, f64)> = subsystems
            .iter()
            .map(|(name, stats)| {
                let bytes = stats.get("bytes").and_then(Json::as_f64).unwrap_or(0.0);
                (name.clone(), bytes / (1024.0 * 1024.0))
            })
            .collect();
        body.push_str("<h3>Allocated bytes by subsystem</h3>");
        body.push_str(&svg_bars(&rows, " MiB"));
        body.push_str("<table><tr><th>subsystem</th><th>allocations</th><th>bytes</th></tr>");
        for (name, stats) in subsystems {
            let field = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = write!(
                body,
                "<tr><td>{}</td><td>{:.0}</td><td>{:.0}</td></tr>",
                html_escape(name),
                field("allocs"),
                field("bytes"),
            );
        }
        body.push_str("</table>");
    }
    if let Some(telemetry) = profile.get("allocator_telemetry") {
        let f = |k: &str| telemetry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = write!(
            body,
            "<p class=\"meta\">window totals: {:.0} allocations, {:.1} MiB; {:.1}% of tagged \
             bytes attributed to named subsystems</p>",
            f("window_total_allocs"),
            f("window_total_bytes") / (1024.0 * 1024.0),
            100.0 * f("attributed_fraction"),
        );
    }
    if let Some(probes) = profile.get("probes") {
        body.push_str("<h3>Structural probes</h3><ul>");
        for (key, label) in [
            ("queue_depth_at_pop", "event-queue depth at pop"),
            ("node_state_bytes", "per-node state size (bytes)"),
            ("user_state_bytes", "per-user state size (bytes)"),
        ] {
            if let Some(h) = probes.get(key) {
                let f = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let _ = write!(
                    body,
                    "<li>{label}: {:.0} samples, mean {:.1}, max {:.0}</li>",
                    f("count"),
                    f("mean"),
                    f("max"),
                );
            }
        }
        if let Some(peak) =
            probes.get("net").and_then(|n| n.get("inflight_peak_bytes")).and_then(Json::as_f64)
        {
            let _ = write!(body, "<li>peak in-flight network bytes: {:.0}</li>", peak);
        }
        body.push_str("</ul>");
    }
    if let Some(spikes) = profile.get("spikes").and_then(|s| s.get("count")).and_then(Json::as_f64)
    {
        if spikes > 0.0 {
            let _ = write!(
                body,
                "<p class=\"warn\">{spikes:.0} memory spike(s) recorded by the interval probe</p>"
            );
        }
    }
    body
}

/// Flame-graph palette (cycled by frame depth, offset per sibling).
const FLAME_COLORS: [&str; 5] = ["#c0504d", "#d07a3f", "#ddab3b", "#c7803a", "#b85c42"];

/// A `<figure>.timeprof.json` frame-tree telemetry section as an inline
/// SVG flame graph: one row per depth, frame width proportional to total
/// time, children nested inside their parent's span, `<title>` hover text
/// with exact totals. Script-free like every other chart.
fn svg_flamegraph(frames: &[(String, f64, f64)]) -> String {
    const W: f64 = 640.0;
    const ROW: f64 = 19.0;
    if frames.is_empty() {
        return String::new();
    }
    let root_total: f64 =
        frames.iter().filter(|(path, _, _)| !path.contains('/')).map(|(_, t, _)| *t).sum();
    if root_total <= 0.0 {
        return String::new();
    }
    let px = (W - 8.0) / root_total;
    // Frames arrive in first-closed order (children before parents), so
    // lay out shallow-to-deep: parents claim their span first, children
    // pack left-to-right inside it.
    let mut order: Vec<usize> = (0..frames.len()).collect();
    order.sort_by_key(|&i| frames[i].0.matches('/').count());
    let mut spans: BTreeMap<&str, (f64, f64)> = BTreeMap::new(); // path -> (x0, width)
    let mut cursors: BTreeMap<&str, f64> = BTreeMap::new(); // parent path -> next child x
    let mut root_cursor = 4.0;
    let mut depth_max = 0usize;
    let mut svg = String::new();
    for (n, &i) in order.iter().enumerate() {
        let (path, total_ns, self_ns) = &frames[i];
        let depth = path.matches('/').count();
        depth_max = depth_max.max(depth);
        let width = (total_ns * px).max(0.5);
        let x0 = match path.rsplit_once('/') {
            Some((parent, _)) => {
                let Some(&(px0, pw)) = spans.get(parent) else { continue };
                let cursor = cursors.entry(parent).or_insert(px0);
                let x0 = *cursor;
                *cursor = (x0 + width).min(px0 + pw);
                x0
            }
            None => {
                let x0 = root_cursor;
                root_cursor += width;
                x0
            }
        };
        spans.insert(path, (x0, width));
        let y = 3.0 + ROW * depth as f64;
        let label = path.rsplit('/').next().unwrap_or(path);
        let _ = write!(
            svg,
            "<g><rect x=\"{x0:.1}\" y=\"{y:.1}\" width=\"{width:.1}\" height=\"{:.1}\" \
             fill=\"{}\" stroke=\"#fcfcfc\" stroke-width=\"0.5\">\
             <title>{} — total {:.4} s, self {:.4} s</title></rect>",
            ROW - 3.0,
            FLAME_COLORS[(depth + n) % FLAME_COLORS.len()],
            html_escape(path),
            total_ns / 1e9,
            self_ns / 1e9,
        );
        if width >= 50.0 {
            let _ = write!(
                svg,
                "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#fff\">{}</text>",
                x0 + 4.0,
                y + ROW - 7.0,
                html_escape(&label.chars().take((width / 7.0) as usize).collect::<String>()),
            );
        }
        svg.push_str("</g>");
    }
    let h = ROW * (depth_max + 1) as f64 + 6.0;
    format!(
        "<svg viewBox=\"0 0 {W} {h}\" width=\"{W}\" height=\"{h}\" role=\"img\" \
         aria-label=\"flame graph\">{svg}</svg>"
    )
}

/// The time-profile section body for one figure: flame graph over the
/// span-frame tree, per-kind dispatch-handler costs, and per-worker
/// utilization.
fn timeprof_section(timeprof: &Json) -> String {
    let telemetry = timeprof.get("time_telemetry");
    let mut body = String::new();
    let frames: Vec<(String, f64, f64)> = match telemetry.and_then(|t| t.get("frames")) {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|f| {
                Some((
                    f.get("path").and_then(Json::as_str)?.to_owned(),
                    f.get("total_ns").and_then(Json::as_f64)?,
                    f.get("self_ns").and_then(Json::as_f64)?,
                ))
            })
            .collect(),
        _ => Vec::new(),
    };
    if !frames.is_empty() {
        body.push_str("<h3>Flame graph</h3>");
        body.push_str(
            "<p class=\"meta\">frame width ∝ total wall time; hover a frame for exact \
             totals</p>",
        );
        body.push_str(&svg_flamegraph(&frames));
    }
    if let Some(Json::Obj(handlers)) = telemetry.and_then(|t| t.get("handlers")) {
        if !handlers.is_empty() {
            body.push_str(
                "<h3>Dispatch handlers</h3><table><tr><th>handler</th><th>count</th>\
                 <th>mean ns</th><th>total ms</th></tr>",
            );
            for (label, h) in handlers {
                let f = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let _ = write!(
                    body,
                    "<tr><td>{}</td><td>{:.0}</td><td>{:.0}</td><td>{:.3}</td></tr>",
                    html_escape(label),
                    f("count"),
                    1e9 * f("mean_s"),
                    1e3 * f("sum_s"),
                );
            }
            body.push_str("</table>");
        }
    }
    if let Some(Json::Arr(workers)) = telemetry.and_then(|t| t.get("workers")) {
        if !workers.is_empty() {
            let rows: Vec<(String, f64)> = workers
                .iter()
                .filter_map(|w| {
                    let id = w.get("worker").and_then(Json::as_f64)?;
                    let busy = w.get("busy_ns").and_then(Json::as_f64)?;
                    Some((format!("worker {id:.0} busy"), busy / 1e6))
                })
                .collect();
            body.push_str("<h3>Worker utilization</h3>");
            body.push_str(&svg_bars(&rows, " ms"));
            body.push_str(
                "<table><tr><th>worker</th><th>busy ms</th><th>steal ms</th><th>idle ms</th>\
                 <th>join ms</th><th>chunks</th><th>tasks</th></tr>",
            );
            for w in workers {
                let f = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let _ = write!(
                    body,
                    "<tr><td>{:.0}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td>\
                     <td>{:.3}</td><td>{:.0}</td><td>{:.0}</td></tr>",
                    f("worker"),
                    f("busy_ns") / 1e6,
                    f("steal_ns") / 1e6,
                    f("idle_ns") / 1e6,
                    f("join_wait_ns") / 1e6,
                    f("chunks"),
                    f("tasks"),
                );
            }
            body.push_str("</table>");
        }
    }
    body
}

/// The scheduler-pressure section from an artifact's metrics: the
/// queue-depth high-water mark (always recorded) and the pop-depth
/// histogram (present when the profiling gate armed it).
fn scheduler_section(artifact: &Json) -> String {
    let metrics = artifact.get("metrics");
    let hwm = metrics
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("sched_queue_depth"))
        .and_then(|g| g.get("high_water"))
        .and_then(Json::as_f64);
    let pop =
        metrics.and_then(|m| m.get("histograms")).and_then(|h| h.get("sched_queue_depth_at_pop"));
    if hwm.is_none() && pop.is_none() {
        return String::new();
    }
    let mut body = String::from("<h2>Scheduler pressure</h2><ul>");
    if let Some(hwm) = hwm {
        let _ = write!(body, "<li>event-queue depth high-water mark: {hwm:.0}</li>");
    }
    if let Some(pop) = pop {
        let f = |k: &str| pop.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = write!(
            body,
            "<li>queue depth at pop: {:.0} samples, mean {:.1}, p99 {:.1}, max {:.0}</li>",
            f("count"),
            f("mean"),
            f("p99"),
            f("max"),
        );
    }
    body.push_str("</ul>");
    body
}

/// The adoption-lag histograms of an artifact as `(label, rows)` charts:
/// one chart per `sim_adopt_lag_s_*` histogram with samples, one bar per
/// occupied log-scale bucket.
fn adopt_lag_charts(artifact: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(hists)) = artifact.get("metrics").and_then(|m| m.get("histograms")) else {
        return Vec::new();
    };
    let mut charts = Vec::new();
    for (name, h) in hists {
        let Some(method) = name.strip_prefix("sim_adopt_lag_s_") else { continue };
        let Some(Json::Arr(buckets)) = h.get("buckets") else { continue };
        let rows: Vec<(String, f64)> = buckets
            .iter()
            .filter_map(|pair| {
                let Json::Arr(iv) = pair else { return None };
                let i = iv.first().and_then(Json::as_f64)? as usize;
                let count = iv.get(1).and_then(Json::as_f64)?;
                Some((format!("≥ {:.3e} s", bucket_floor(i)), count))
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        let p99 = h.get("p99").and_then(Json::as_f64).unwrap_or(0.0);
        let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        let title = format!("{method} — {count:.0} adoptions, p99 {p99:.2} s");
        charts.push((title, svg_bars(&rows, "")));
    }
    charts
}

/// Phase-timing bars from an artifact's `phases` array.
fn phase_chart(artifact: &Json) -> String {
    let Some(Json::Arr(phases)) = artifact.get("phases") else { return String::new() };
    let rows: Vec<(String, f64)> = phases
        .iter()
        .filter_map(|p| {
            let name = p.get("phase").and_then(Json::as_str)?;
            let total = p.get("total_s").and_then(Json::as_f64)?;
            Some((name.to_owned(), total))
        })
        .collect();
    svg_bars(&rows, " s")
}

/// The determinism-audit and run-health section body: the run-level chain
/// digest with its segment breakdown (from `<figure>.digest.json`) and the
/// final heartbeat (from `<figure>.health.json`), with a warning when the
/// run recorded stalls or never finished.
fn digest_health_section(digest: Option<&Json>, health: Option<&Json>) -> String {
    let mut body = String::new();
    if let Some(digest) = digest {
        let chain = digest.get("chain").and_then(Json::as_str).unwrap_or("?");
        let events = digest.get("events").and_then(Json::as_f64).unwrap_or(0.0);
        let every = digest.get("checkpoint_every").and_then(Json::as_f64).unwrap_or(0.0);
        let segments = match digest.get("segments") {
            Some(Json::Arr(items)) => items.len(),
            _ => 0,
        };
        let _ = write!(
            body,
            "<p>chain digest <code>{}</code> over {events:.0} event(s) in {segments} \
             segment(s), checkpoint every {every:.0}</p>",
            html_escape(chain)
        );
        if let Some(perturb) = digest.get("perturb").and_then(Json::as_f64) {
            let _ = write!(
                body,
                "<p class=\"warn\">perturbation injected at event index {perturb:.0} — this \
                 run's chain is intentionally divergent</p>"
            );
        }
    }
    if let Some(health) = health {
        let f = |k: &str| health.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let finished = matches!(health.get("finished"), Some(Json::Bool(true)));
        let _ = write!(
            body,
            "<p>final heartbeat: {:.1} s wall, {:.0} events ({:.0}/s mean), {:.0}/{:.0} \
             simulation(s) done, {:.0} MiB resident</p>",
            f("wall_s"),
            f("events"),
            f("events_per_s"),
            f("sims_done"),
            f("sims_total"),
            f("vm_rss_kb") / 1024.0,
        );
        let stalls = f("stalls");
        if stalls > 0.0 {
            let _ =
                write!(body, "<p class=\"warn\">{stalls:.0} stall(s) flagged by the watchdog</p>");
        }
        if !finished {
            body.push_str("<p class=\"warn\">run never wrote a final heartbeat (still running, or killed)</p>");
        }
    }
    body
}

fn keyval_table(artifact: &Json) -> String {
    let Some(Json::Obj(keyvals)) = artifact.get("summary").and_then(|s| s.get("keyvals")) else {
        return String::new();
    };
    let mut out = String::from("<table><tr><th>metric</th><th>value</th></tr>");
    for (name, value) in keyvals {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td></tr>",
            html_escape(name),
            html_escape(&value.to_compact())
        );
    }
    out.push_str("</table>");
    out
}

fn anomaly_list(anomalies: &[Json]) -> String {
    let mut out = String::from("<ul>");
    for a in anomalies {
        let update = a.get("update").and_then(Json::as_f64).unwrap_or(-1.0);
        let scope = a.get("scope").and_then(Json::as_str).unwrap_or("?");
        let lag = a.get("max_adopt_lag_s").and_then(Json::as_f64).unwrap_or(0.0);
        let kinds: Vec<String> = match a.get("anomalies") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|i| i.get("kind").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            _ => Vec::new(),
        };
        let _ = write!(
            out,
            "<li class=\"warn\">update {update:.0} ({}) — max adoption lag {lag:.2} s \
             [{}]</li>",
            html_escape(scope),
            html_escape(&kinds.join(", "))
        );
    }
    out.push_str("</ul>");
    out
}

fn page(title: &str, body: &str) -> String {
    format!(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>{}</title><style>{CSS}</style></head><body>{body}</body></html>",
        html_escape(title)
    )
}

/// Renders one figure's page body.
fn figure_page(id: &str, inputs: &FigureInputs) -> String {
    let mut body = String::new();
    let _ =
        write!(body, "<h1>{} <small>{}</small></h1>", html_escape(id), html_escape(inputs.title()));
    if let Some(artifact) = inputs.doc(Artifact::Run) {
        let meta = |k: &str| artifact.get(k).map(|v| v.to_compact()).unwrap_or_default();
        let _ = write!(
            body,
            "<p class=\"meta\">seed {} · config {} · scale {}</p>",
            html_escape(&meta("seed")),
            html_escape(&meta("config_digest")),
            html_escape(
                &artifact
                    .get("summary")
                    .and_then(|s| s.get("scale"))
                    .map(|v| v.to_compact())
                    .unwrap_or_default()
            ),
        );
        body.push_str("<h2>Headline numbers</h2>");
        body.push_str(&keyval_table(artifact));
    }
    if let Some(series) = &inputs.series {
        let _ = write!(
            body,
            "<h2>Time series</h2><p class=\"meta\">{} samples, cadence {:.3} s (simulated \
             time; colour changes mark simulation segments)</p>",
            series.total_points,
            series.cadence_us as f64 / 1e6
        );
        for entry in &series.series {
            if entry.points.is_empty() {
                continue;
            }
            let _ = write!(
                body,
                "<h3>{} <small class=\"meta\">({})</small></h3>{}",
                html_escape(&entry.name),
                entry.kind.name(),
                svg_series(entry)
            );
        }
    }
    if let Some(artifact) = inputs.doc(Artifact::Run) {
        let charts = adopt_lag_charts(artifact);
        if !charts.is_empty() {
            body.push_str("<h2>Adoption-lag histograms</h2>");
            for (title, chart) in charts {
                let _ = write!(body, "<h3>{}</h3>{chart}", html_escape(&title));
            }
        }
        let phases = phase_chart(artifact);
        if !phases.is_empty() {
            body.push_str("<h2>Phase timings</h2>");
            body.push_str(&phases);
        }
        body.push_str(&scheduler_section(artifact));
    }
    if let Some(workload) = inputs.doc(Artifact::Workload) {
        let section = workload_section(workload);
        if !section.is_empty() {
            body.push_str(
                "<h2>Request plane</h2><p class=\"meta\">user-perceived latency and \
                 staleness-served distributions per scheme × catalog regime</p>",
            );
            body.push_str(&section);
        }
    }
    if let Some(profile) = inputs.doc(Artifact::Profile) {
        body.push_str("<h2>Memory profile</h2>");
        body.push_str(&profile_section(profile));
    }
    if let Some(timeprof) = inputs.doc(Artifact::Timeprof) {
        body.push_str("<h2>Time profile</h2>");
        body.push_str(&timeprof_section(timeprof));
    }
    let (digest, health) = (inputs.doc(Artifact::Digest), inputs.doc(Artifact::Health));
    if digest.is_some() || health.is_some() {
        body.push_str("<h2>Determinism &amp; run health</h2>");
        body.push_str(&digest_health_section(digest, health));
    }
    body.push_str("<h2>Flight recorder</h2>");
    if inputs.anomalies.is_empty() {
        body.push_str("<p class=\"meta\">no anomalous updates recorded</p>");
    } else {
        body.push_str(&anomaly_list(&inputs.anomalies));
    }
    body.push_str("<p><a href=\"index.html\">← all figures</a></p>");
    body
}

/// Renders the consolidated index page body.
fn index_page(obs_dir: &Path, ids: &[String], inputs: &BTreeMap<String, FigureInputs>) -> String {
    let mut body = String::from("<h1>Run report</h1>");
    let _ = write!(
        body,
        "<p class=\"meta\">generated from <code>{}</code></p>",
        html_escape(&obs_dir.display().to_string())
    );
    if let Ok(text) = std::fs::read_to_string(Artifact::Summary.path(obs_dir, "")) {
        if let Ok(summary) = json::parse(&text) {
            let f = |k: &str| summary.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = write!(
                body,
                "<p>consolidated run: {:.1} s wall, {:.0} simulator events</p>",
                f("total_wall_s"),
                f("total_events")
            );
        }
    }
    body.push_str(
        "<table><tr><th>figure</th><th>title</th><th>series</th><th>samples</th>\
         <th>anomalies</th></tr>",
    );
    for id in ids {
        let figure = &inputs[id];
        let (n_series, n_samples) =
            figure.series.as_ref().map_or((0, 0), |s| (s.series.len(), s.total_points as usize));
        let _ = write!(
            body,
            "<tr><td><a href=\"{id}.html\">{id}</a></td><td>{}</td><td>{n_series}</td>\
             <td>{n_samples}</td><td>{}</td></tr>",
            html_escape(figure.title()),
            figure.anomalies.len()
        );
    }
    body.push_str("</table>");
    body
}

/// Generates the report: `<out_dir>/<figure>.html` for every figure that
/// left artifacts under `obs_dir`, plus `<out_dir>/index.html`. Returns the
/// written paths, index first. Errors when `obs_dir` holds nothing to
/// report on.
pub fn generate_report(obs_dir: &Path, out_dir: &Path) -> io::Result<Vec<PathBuf>> {
    let inputs = collect_inputs(obs_dir)?;
    if inputs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no run artifacts under {} — run a figure with --obs first", obs_dir.display()),
        ));
    }
    std::fs::create_dir_all(out_dir)?;
    let mut ids: Vec<String> = inputs.keys().cloned().collect();
    ids.sort_by_key(|id| figure_sort_key(id));
    let mut written = Vec::new();
    let index = out_dir.join("index.html");
    std::fs::write(
        &index,
        page("CDN consistency — run report", &index_page(obs_dir, &ids, &inputs)),
    )?;
    written.push(index);
    for id in &ids {
        let path = out_dir.join(format!("{id}.html"));
        std::fs::write(&path, page(id, &figure_page(id, &inputs[id])))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs_out::FLIGHTREC_SUBDIR;
    use cdnc_obs::{SeriesKind, SeriesPoint};

    fn entry(points: Vec<SeriesPoint>) -> SeriesEntry {
        SeriesEntry { name: "sched_queue_depth".to_owned(), kind: SeriesKind::Gauge, points }
    }

    #[test]
    fn series_chart_splits_segments_on_time_rewind() {
        let svg = svg_series(&entry(vec![
            SeriesPoint { t_us: 1, value: 1.0 },
            SeriesPoint { t_us: 2, value: 2.0 },
            SeriesPoint { t_us: 1, value: 3.0 }, // clock rewound: new segment
            SeriesPoint { t_us: 2, value: 4.0 },
        ]));
        assert_eq!(svg.matches("<polyline").count(), 2, "rewind must split the polyline");
        assert!(svg.contains(SERIES_COLORS[0]) && svg.contains(SERIES_COLORS[1]));
    }

    #[test]
    fn escaping_covers_markup_characters() {
        assert_eq!(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn figures_sort_numerically() {
        let mut ids = vec!["fig10".to_owned(), "fig3".to_owned(), "ext_policy".to_owned()];
        ids.sort_by_key(|id| figure_sort_key(id));
        assert_eq!(ids, ["ext_policy", "fig3", "fig10"]);
    }

    #[test]
    fn report_generates_from_artifacts_on_disk() {
        let base = std::env::temp_dir().join(format!("cdnc-report-{}", std::process::id()));
        let obs = base.join("obs");
        let out = base.join("report");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(obs.join(FLIGHTREC_SUBDIR)).unwrap();
        let artifact = Json::obj()
            .field("run_id", "fig20")
            .field("seed", 7u64)
            .field("config_digest", "abc")
            .field(
                "summary",
                Json::obj()
                    .field("title", "Fig 20 <demo>")
                    .field("scale", "Smoke")
                    .field("keyvals", Json::obj().field("mean_lag_s", 1.5)),
            )
            .field(
                "metrics",
                Json::obj().field(
                    "histograms",
                    Json::obj().field(
                        "sim_adopt_lag_s_push",
                        Json::obj().field("count", 4u64).field("p99", 2.0).field(
                            "buckets",
                            Json::Arr(vec![Json::Arr(vec![Json::from(30u64), Json::from(4u64)])]),
                        ),
                    ),
                ),
            )
            .field(
                "phases",
                Json::Arr(vec![Json::obj()
                    .field("phase", "fig20")
                    .field("count", 1u64)
                    .field("total_s", 0.5)]),
            );
        std::fs::write(obs.join("fig20.json"), artifact.to_pretty()).unwrap();
        let series = Json::obj().field("cadence_us", 1000u64).field("total_points", 2u64).field(
            "series",
            Json::Arr(vec![Json::obj()
                .field("name", "sched_queue_depth")
                .field("kind", "gauge")
                .field(
                    "points",
                    Json::Arr(vec![
                        Json::Arr(vec![Json::from(1000u64), Json::from(2.0)]),
                        Json::Arr(vec![Json::from(2000u64), Json::from(1.0)]),
                    ]),
                )]),
        );
        std::fs::write(obs.join("fig20.series.json"), series.to_pretty()).unwrap();
        let dump = Json::obj()
            .field("update", 3u64)
            .field("scope", "push")
            .field("max_adopt_lag_s", 99.0)
            .field("anomalies", Json::Arr(vec![Json::obj().field("kind", "slow_adoption")]));
        std::fs::write(obs.join(FLIGHTREC_SUBDIR).join("fig20_u3.json"), dump.to_pretty()).unwrap();
        let profile = Json::obj()
            .field(
                "attribution",
                Json::obj()
                    .field("scheduler", Json::obj().field("allocs", 10u64).field("bytes", 4096u64)),
            )
            .field(
                "allocator_telemetry",
                Json::obj()
                    .field("window_total_allocs", 12u64)
                    .field("window_total_bytes", 5000u64)
                    .field("attributed_fraction", 0.95),
            )
            .field(
                "probes",
                Json::obj()
                    .field(
                        "queue_depth_at_pop",
                        Json::obj().field("count", 5u64).field("mean", 2.0).field("max", 4.0),
                    )
                    .field("net", Json::obj().field("inflight_peak_bytes", 2048u64)),
            )
            .field("spikes", Json::obj().field("count", 1u64));
        std::fs::write(obs.join("fig20.profile.json"), profile.to_pretty()).unwrap();
        let frame = |path: &str, total: f64, self_ns: f64| {
            Json::obj().field("path", path).field("total_ns", total).field("self_ns", self_ns)
        };
        let timeprof = Json::obj().field(
            "time_telemetry",
            Json::obj()
                .field(
                    "frames",
                    Json::Arr(vec![frame("fig20/sim_events", 7e8, 7e8), frame("fig20", 1e9, 3e8)]),
                )
                .field(
                    "handlers",
                    Json::obj().field(
                        "ev_publish",
                        Json::obj()
                            .field("count", 42u64)
                            .field("mean_s", 1e-6)
                            .field("sum_s", 4.2e-5),
                    ),
                )
                .field(
                    "workers",
                    Json::Arr(vec![Json::obj()
                        .field("worker", 0u64)
                        .field("busy_ns", 9e8)
                        .field("steal_ns", 1e6)
                        .field("idle_ns", 2e6)
                        .field("join_wait_ns", 0.0)
                        .field("chunks", 3u64)
                        .field("tasks", 12u64)]),
                ),
        );
        std::fs::write(obs.join("fig20.timeprof.json"), timeprof.to_pretty()).unwrap();
        let workload = Json::obj().field("figure", "fig20").field(
            "curves",
            Json::Arr(vec![Json::obj().field("name", "Push_base_latency_cdf").field(
                "points",
                Json::Arr(vec![
                    Json::Arr(vec![Json::from(0.0), Json::from(0.5)]),
                    Json::Arr(vec![Json::from(0.2), Json::from(1.0)]),
                ]),
            )]),
        );
        std::fs::write(obs.join("fig20.workload.json"), workload.to_pretty()).unwrap();
        let digest = Json::obj()
            .field("figure", "fig20")
            .field("scale", "smoke")
            .field("checkpoint_every", 4096u64)
            .field("perturb", Json::Null)
            .field("events", 1234u64)
            .field("chain", "0x1234abcd5678ef90")
            .field("segments", Json::Arr(vec![Json::obj().field("events", 1234u64)]));
        std::fs::write(obs.join("fig20.digest.json"), digest.to_pretty()).unwrap();
        let health = Json::obj()
            .field("figure", "fig20")
            .field("wall_s", 2.5)
            .field("events", 1234u64)
            .field("events_per_s", 493.6)
            .field("sims_done", 4u64)
            .field("sims_total", 4u64)
            .field("vm_rss_kb", 2048u64)
            .field("stalls", 1u64)
            .field("finished", true);
        std::fs::write(obs.join("fig20.health.json"), health.to_pretty()).unwrap();

        let written = generate_report(&obs, &out).unwrap();
        assert_eq!(written.len(), 2, "index + one figure page");
        let index = std::fs::read_to_string(&written[0]).unwrap();
        assert!(index.contains("fig20.html"));
        let fig = std::fs::read_to_string(&written[1]).unwrap();
        assert!(fig.contains("Fig 20 &lt;demo&gt;"), "titles are escaped");
        assert!(fig.contains("<polyline"), "series chart rendered");
        assert!(fig.contains("sim_adopt_lag_s_push") || fig.contains("push — 4 adoptions"));
        assert!(fig.contains("slow_adoption"), "anomaly listed");
        assert!(fig.contains("Memory profile"), "profile section rendered");
        assert!(fig.contains("event-queue depth at pop"), "probe summary rendered");
        assert!(fig.contains("memory spike(s)"), "spike warning rendered");
        assert!(fig.contains("Time profile"), "timeprof section rendered");
        assert!(fig.contains("Flame graph"), "flame graph rendered");
        assert!(fig.contains("total 1.0000 s"), "root frame hover title rendered");
        assert!(fig.contains("ev_publish"), "handler table rendered");
        assert!(fig.contains("Worker utilization"), "worker section rendered");
        assert!(fig.contains("Request plane"), "request-plane section rendered");
        assert!(fig.contains("Push_base_latency_cdf"), "workload CDF chart titled");
        assert!(fig.contains("Determinism &amp; run health"), "digest/health section rendered");
        assert!(fig.contains("0x1234abcd5678ef90"), "chain digest rendered");
        assert!(fig.contains("1 stall(s)"), "stall warning rendered");
        assert!(
            !index.contains("fig20.digest") && !index.contains("fig20.health"),
            "digest/health files must not register as separate figures"
        );
        assert!(!fig.contains("<script"), "report stays script-free");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn flamegraph_nests_children_inside_parents() {
        let frames = vec![
            ("run/step".to_owned(), 4e8, 4e8),
            ("run/other".to_owned(), 2e8, 2e8),
            ("run".to_owned(), 1e9, 4e8),
        ];
        let svg = svg_flamegraph(&frames);
        assert_eq!(svg.matches("<rect").count(), 3);
        assert!(svg.contains("run/step — total 0.4000 s"), "{svg}");
        // The parent spans the full root width; both children start at the
        // parent's left edge or to its right, never past its span.
        assert!(!svg.contains("<script"));
        assert!(svg_flamegraph(&[]).is_empty());
    }

    #[test]
    fn workload_section_skips_malformed_curves() {
        let doc = Json::obj().field(
            "curves",
            Json::Arr(vec![
                Json::obj().field("name", "ok").field(
                    "points",
                    Json::Arr(vec![Json::Arr(vec![Json::from(0.0), Json::from(1.0)])]),
                ),
                Json::obj().field("name", "empty").field("points", Json::Arr(vec![])),
                Json::obj().field("points", Json::Arr(vec![])), // nameless
            ]),
        );
        let body = workload_section(&doc);
        assert_eq!(body.matches("<svg").count(), 1, "{body}");
        assert!(body.contains("<h3>ok</h3>"));
        assert!(!body.contains("empty"));
        assert!(workload_section(&Json::obj()).is_empty());
    }

    #[test]
    fn scheduler_section_reads_gauge_and_histogram() {
        let artifact = Json::obj().field(
            "metrics",
            Json::obj()
                .field(
                    "gauges",
                    Json::obj().field(
                        "sched_queue_depth",
                        Json::obj().field("value", 0u64).field("high_water", 523u64),
                    ),
                )
                .field(
                    "histograms",
                    Json::obj().field(
                        "sched_queue_depth_at_pop",
                        Json::obj()
                            .field("count", 100u64)
                            .field("mean", 12.5)
                            .field("p99", 40.0)
                            .field("max", 523.0),
                    ),
                ),
        );
        let body = scheduler_section(&artifact);
        assert!(body.contains("high-water mark: 523"), "{body}");
        assert!(body.contains("100 samples"), "{body}");
        assert!(scheduler_section(&Json::obj()).is_empty());
    }

    #[test]
    fn empty_obs_dir_is_an_error() {
        let base = std::env::temp_dir().join(format!("cdnc-report-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        assert!(generate_report(&base, &base.join("out")).is_err());
        let _ = std::fs::remove_dir_all(&base);
    }
}
