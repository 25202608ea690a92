//! Live run-health rendering: `experiments watch <dir>` tails the
//! `<figure>.health.json` heartbeats that `--health` runs write and renders
//! them as one status table — figure, wall time, event throughput,
//! sim-time progress against the horizon, ETA, resident memory, and stall
//! count. Without `--once` the table redraws every refresh interval until
//! every watched run reports `finished`.

use crate::obs_out::{list_files, Artifact};
use cdnc_obs::{json, Json};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// How often the live view redraws.
pub const REFRESH: Duration = Duration::from_millis(500);

/// One figure's latest heartbeat, parsed from `<figure>.health.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRow {
    pub figure: String,
    pub wall_s: f64,
    pub events: u64,
    pub events_per_s: f64,
    pub recent_events_per_s: f64,
    pub sims_done: u64,
    pub sims_total: u64,
    pub sim_time_us: u64,
    pub horizon_us: u64,
    pub eta_s: Option<f64>,
    pub vm_rss_kb: u64,
    pub stalls: u64,
    pub finished: bool,
}

impl HealthRow {
    /// Sim-time progress toward the horizon in `[0, 1]`, or `None` when no
    /// horizon was announced.
    pub fn progress(&self) -> Option<f64> {
        (self.horizon_us > 0)
            .then(|| (self.sim_time_us as f64 / self.horizon_us as f64).clamp(0.0, 1.0))
    }
}

fn parse_row(doc: &Json) -> Option<HealthRow> {
    let num = |key: &str| doc.get(key).and_then(Json::as_f64);
    Some(HealthRow {
        figure: doc.get("figure")?.as_str()?.to_owned(),
        wall_s: num("wall_s")?,
        events: num("events")? as u64,
        events_per_s: num("events_per_s").unwrap_or(0.0),
        recent_events_per_s: num("recent_events_per_s").unwrap_or(0.0),
        sims_done: num("sims_done").unwrap_or(0.0) as u64,
        sims_total: num("sims_total").unwrap_or(0.0) as u64,
        sim_time_us: num("sim_time_us").unwrap_or(0.0) as u64,
        horizon_us: num("horizon_us").unwrap_or(0.0) as u64,
        eta_s: num("eta_s"),
        vm_rss_kb: num("vm_rss_kb").unwrap_or(0.0) as u64,
        stalls: num("stalls").unwrap_or(0.0) as u64,
        finished: matches!(doc.get("finished"), Some(Json::Bool(true))),
    })
}

/// Loads every `*.health.json` heartbeat in `dir`, sorted by figure id.
/// Heartbeats are written atomically (tmp + rename), so a parse failure
/// means a foreign file — those are skipped, not errors.
pub fn load_rows(dir: &Path) -> Result<Vec<HealthRow>, String> {
    let names = list_files(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rows: Vec<HealthRow> = names
        .iter()
        .filter(|name| matches!(Artifact::classify(name), Some((Artifact::Health, _))))
        .filter_map(|name| {
            let text = std::fs::read_to_string(dir.join(name)).ok()?;
            parse_row(&json::parse(&text).ok()?)
        })
        .collect();
    rows.sort_by(|a, b| a.figure.cmp(&b.figure));
    Ok(rows)
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k/s", rate / 1e3)
    } else {
        format!("{rate:.0}/s")
    }
}

fn fmt_duration(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.0}h{:02.0}m", (s / 3600.0).floor(), (s % 3600.0) / 60.0)
    } else if s >= 60.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{s:.1}s")
    }
}

/// Renders the status table for a set of heartbeat rows. Stable column
/// layout; the final column is `done`, `stalled` (recent silence with
/// stalls recorded), or `running`.
pub fn render(rows: &[HealthRow]) -> String {
    let mut out = String::new();
    let width = rows.iter().map(|r| r.figure.len()).max().unwrap_or(6).max(6);
    let _ = writeln!(
        out,
        "{:<width$}  {:>8}  {:>10}  {:>9}  {:>6}  {:>7}  {:>8}  {:>6}  state",
        "figure", "wall", "events", "rate", "prog", "eta", "rss", "stalls"
    );
    for r in rows {
        let prog = match (r.finished, r.progress()) {
            (true, _) => "100%".to_owned(),
            (false, Some(p)) => format!("{:.0}%", p * 100.0),
            (false, None) => "-".to_owned(),
        };
        let eta = match (r.finished, r.eta_s) {
            (true, _) => "-".to_owned(),
            (false, Some(s)) => fmt_duration(s),
            (false, None) => "?".to_owned(),
        };
        let state = if r.finished {
            "done"
        } else if r.stalls > 0 && r.recent_events_per_s == 0.0 {
            "stalled"
        } else {
            "running"
        };
        let _ = writeln!(
            out,
            "{:<width$}  {:>8}  {:>10}  {:>9}  {:>6}  {:>7}  {:>7}M  {:>6}  {state}",
            r.figure,
            fmt_duration(r.wall_s),
            r.events,
            fmt_rate(r.recent_events_per_s.max(0.0)),
            prog,
            eta,
            r.vm_rss_kb / 1024,
            r.stalls,
        );
    }
    out
}

/// Whether every watched run has reported its final heartbeat.
pub fn all_finished(rows: &[HealthRow]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| r.finished)
}

/// The `watch` subcommand. `once` renders the current state and returns
/// (CI-friendly); otherwise the table redraws in place every [`REFRESH`]
/// until every run reports `finished`. Returns an error when the
/// directory is unreadable; an empty directory renders a hint instead
/// (heartbeats may simply not have landed yet).
pub fn run(dir: &Path, once: bool) -> Result<(), String> {
    loop {
        let rows = load_rows(dir)?;
        let body = if rows.is_empty() {
            format!("no *.health.json under {} yet (run with --health)\n", dir.display())
        } else {
            render(&rows)
        };
        if once {
            print!("{body}");
            return Ok(());
        }
        // ANSI clear + home keeps the table in place across redraws.
        print!("\x1b[2J\x1b[H{body}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if all_finished(&rows) {
            return Ok(());
        }
        std::thread::sleep(REFRESH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_obs::{HealthMonitor, HealthMonitorConfig, Registry};
    use std::time::Duration;

    fn write_health(dir: &Path, figure: &str, finished: bool, stalls: u64) {
        let doc = Json::obj()
            .field("figure", figure)
            .field("wall_s", 12.5)
            .field("events", 10_000u64)
            .field("events_per_s", 800.0)
            .field("recent_events_per_s", if finished { 0.0 } else { 750.0 })
            .field("sims_done", 3u64)
            .field("sims_total", 4u64)
            .field("sim_time_us", 500_000u64)
            .field("horizon_us", 1_000_000u64)
            .field("eta_s", 12.5)
            .field("vm_rss_kb", 4096u64)
            .field("stalls", stalls)
            .field("finished", finished);
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(format!("{figure}.health.json")), doc.to_pretty()).unwrap();
    }

    #[test]
    fn rows_load_sorted_and_render_as_a_table() {
        let dir = std::env::temp_dir().join(format!("cdnc-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_health(&dir, "fig15", false, 0);
        write_health(&dir, "fig14", true, 1);
        // Foreign and non-health files are ignored.
        std::fs::write(dir.join("summary.json"), "{}").unwrap();
        std::fs::write(dir.join("junk.health.json"), "not json").unwrap();
        let rows = load_rows(&dir).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].figure, "fig14");
        assert!(rows[0].finished);
        assert_eq!(rows[0].progress(), Some(0.5));
        assert!(!all_finished(&rows));
        let table = render(&rows);
        assert!(table.contains("fig14"), "table:\n{table}");
        assert!(table.contains("done"), "table:\n{table}");
        assert!(table.contains("running"), "table:\n{table}");
        assert!(table.contains("50%"), "table:\n{table}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_set_detected_and_stalls_flagged() {
        let dir = std::env::temp_dir().join(format!("cdnc-watch-done-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_health(&dir, "fig14", true, 0);
        write_health(&dir, "fig15", true, 2);
        let rows = load_rows(&dir).unwrap();
        assert!(all_finished(&rows));
        // A stalled (unfinished, silent, stalls > 0) run renders as such.
        write_health(&dir, "fig16", false, 1);
        let mut rows = load_rows(&dir).unwrap();
        rows[2].recent_events_per_s = 0.0;
        assert!(render(&rows).contains("stalled"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_reads_real_monitor_heartbeats() {
        let dir = std::env::temp_dir().join(format!("cdnc-watch-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let reg = Registry::enabled();
        reg.enable_health();
        let health = reg.health();
        health.set_horizon(1_000_000);
        health.add_sims(2);
        health.tick(250_000);
        let monitor = HealthMonitor::start(
            &reg,
            HealthMonitorConfig {
                figure: "fig14".into(),
                path: dir.join("fig14.health.json"),
                interval: Duration::from_millis(10),
                stall_after: Duration::from_secs(60),
            },
        )
        .expect("health armed");
        monitor.stop();
        let rows = load_rows(&dir).unwrap();
        assert_eq!(rows.len(), 1, "monitor must leave a final heartbeat");
        assert_eq!(rows[0].figure, "fig14");
        assert!(rows[0].finished, "stop() writes a finished heartbeat");
        assert_eq!(rows[0].sims_total, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
