//! Wall-clock run health: live progress counters, a heartbeat file writer,
//! and a stall watchdog.
//!
//! Unlike every other obs subsystem, health is *deliberately* wall-clock:
//! it exists so an operator (or `experiments watch`) can see how an
//! hours-long sweep is doing without touching its determinism. The counters
//! live in one [`HealthState`] shared by the parent registry and every
//! shard (shards clone the `Arc`, absorb is a no-op), updated with relaxed
//! atomics from the event loop's hook — one fetch-add per event when
//! armed, one branch when not.
//!
//! The [`HealthMonitor`] heartbeat thread samples the state every tick into
//! a live-updating `<fig>.health.json` (written to a temp file and renamed,
//! so readers never see a torn document). When the event counter stops
//! moving for `stall_after` wall time it records a stall: a
//! [`SpanKind::Stall`] control span for the flight recorder and a bump of
//! the stall counter surfaced in the health file and run summary.

use crate::json::Json;
use crate::registry::Registry;
use crate::trace::SpanKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default heartbeat interval.
pub const DEFAULT_HEARTBEAT_MS: u64 = 500;

/// Default wall-clock silence before the watchdog declares a stall.
pub const DEFAULT_STALL_AFTER_MS: u64 = 10_000;

/// Shared live counters (relaxed; telemetry only, never folded into
/// results or digests).
#[derive(Debug, Default)]
pub struct HealthState {
    /// Events processed, all workers.
    pub events: AtomicU64,
    /// Most recently observed sim-time, µs (last writer wins across
    /// workers — a "recent progress" indicator, not a total order).
    pub sim_time_us: AtomicU64,
    /// Horizon of the most recently started simulation, µs.
    pub horizon_us: AtomicU64,
    /// Simulations queued so far in this run.
    pub sims_total: AtomicU64,
    /// Simulations finished so far.
    pub sims_done: AtomicU64,
    /// Stall episodes the watchdog recorded.
    pub stalls: AtomicU64,
}

/// Cloneable handle; inert unless the registry armed health.
#[derive(Debug, Clone, Default)]
pub struct Health(Option<Arc<HealthState>>);

impl Health {
    pub(crate) fn from_state(state: Option<Arc<HealthState>>) -> Self {
        Health(state)
    }

    pub(crate) fn state(&self) -> Option<&Arc<HealthState>> {
        self.0.as_ref()
    }

    /// One event processed at sim-time `t_us`.
    #[inline]
    pub fn tick(&self, t_us: u64) {
        if let Some(s) = &self.0 {
            s.events.fetch_add(1, Relaxed);
            s.sim_time_us.store(t_us, Relaxed);
        }
    }

    /// Declares the horizon of a simulation that is starting.
    pub fn set_horizon(&self, horizon_us: u64) {
        if let Some(s) = &self.0 {
            s.horizon_us.store(horizon_us, Relaxed);
        }
    }

    /// `n` more simulations queued in this run.
    pub fn add_sims(&self, n: u64) {
        if let Some(s) = &self.0 {
            s.sims_total.fetch_add(n, Relaxed);
        }
    }

    /// One simulation finished.
    pub fn sim_done(&self) {
        if let Some(s) = &self.0 {
            s.sims_done.fetch_add(1, Relaxed);
        }
    }
}

/// Point-in-time health reading (see [`Registry::health_snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    pub events: u64,
    pub sim_time_us: u64,
    pub horizon_us: u64,
    pub sims_total: u64,
    pub sims_done: u64,
    pub stalls: u64,
}

impl HealthSnapshot {
    pub(crate) fn read(state: &HealthState) -> Self {
        HealthSnapshot {
            events: state.events.load(Relaxed),
            sim_time_us: state.sim_time_us.load(Relaxed),
            horizon_us: state.horizon_us.load(Relaxed),
            sims_total: state.sims_total.load(Relaxed),
            sims_done: state.sims_done.load(Relaxed),
            stalls: state.stalls.load(Relaxed),
        }
    }
}

/// Resident set size (`VmRSS`) of this process, kB — the live companion of
/// [`vm_hwm_kb`]. Linux-only; `None` elsewhere or on read failure.
pub fn vm_rss_kb() -> Option<u64> {
    proc_status_kb("VmRSS")
}

/// Peak resident set size (`VmHWM`, the kernel's high-water mark) of this
/// process, kB. Linux-only; `None` elsewhere or on read failure.
pub fn vm_hwm_kb() -> Option<u64> {
    proc_status_kb("VmHWM")
}

/// The kB value of `<field>:` in `/proc/self/status`.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    value.split_whitespace().next()?.parse().ok()
}

/// Heartbeat configuration for [`HealthMonitor::start`].
#[derive(Debug, Clone)]
pub struct HealthMonitorConfig {
    /// Figure id stamped into the health file.
    pub figure: String,
    /// Path of the live-updating health file.
    pub path: PathBuf,
    /// Sampling interval.
    pub interval: Duration,
    /// Wall-clock event-counter silence before a stall is declared.
    pub stall_after: Duration,
}

/// The heartbeat thread: samples the registry's health state into a
/// live-updating JSON file until [`HealthMonitor::stop`].
#[derive(Debug)]
pub struct HealthMonitor {
    done: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HealthMonitor {
    /// Spawns the heartbeat. Returns `None` when `registry` has no health
    /// state armed (nothing to sample).
    pub fn start(registry: &Registry, config: HealthMonitorConfig) -> Option<HealthMonitor> {
        let state = registry.health().state()?.clone();
        let registry = registry.clone();
        let done = Arc::new(AtomicBool::new(false));
        let done_flag = done.clone();
        let handle = std::thread::Builder::new()
            .name("cdnc-health".into())
            .spawn(move || heartbeat_loop(&registry, &state, &config, &done_flag))
            .ok()?;
        Some(HealthMonitor { done, handle: Some(handle) })
    }

    /// Stops the heartbeat and writes the final (`finished: true`) sample,
    /// as dropping the monitor does.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        self.done.store(true, Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn heartbeat_loop(
    registry: &Registry,
    state: &Arc<HealthState>,
    config: &HealthMonitorConfig,
    done: &AtomicBool,
) {
    let started = Instant::now();
    let mut last_events = 0u64;
    let mut last_sample = started;
    let mut last_progress = started;
    let mut stalled = false;
    loop {
        let finished = done.load(Relaxed);
        let now = Instant::now();
        let snap = HealthSnapshot::read(state);
        let tick_s = now.duration_since(last_sample).as_secs_f64();
        let recent_rate = if tick_s > 0.0 {
            (snap.events.saturating_sub(last_events)) as f64 / tick_s
        } else {
            0.0
        };
        if snap.events != last_events {
            last_events = snap.events;
            last_progress = now;
            stalled = false;
        } else if !finished && !stalled && now.duration_since(last_progress) >= config.stall_after {
            // One stall episode per silence: count + flight-recorder span.
            stalled = true;
            state.stalls.fetch_add(1, Relaxed);
            registry.tracer().control(SpanKind::Stall, 0, snap.sim_time_us, "watchdog");
        }
        last_sample = now;
        let wall_s = now.duration_since(started).as_secs_f64();
        let doc = health_json(&config.figure, wall_s, recent_rate, &snap, finished);
        write_atomic(&config.path, &doc.to_pretty());
        if finished {
            return;
        }
        // Sleep in short slices so stop() latency stays bounded.
        let deadline = Instant::now() + config.interval;
        while Instant::now() < deadline && !done.load(Relaxed) {
            std::thread::sleep(config.interval.min(Duration::from_millis(20)));
        }
    }
}

/// The `<fig>.health.json` document for one sample.
fn health_json(
    figure: &str,
    wall_s: f64,
    recent_rate: f64,
    snap: &HealthSnapshot,
    finished: bool,
) -> Json {
    let mean_rate = if wall_s > 0.0 { snap.events as f64 / wall_s } else { 0.0 };
    let eta_s = if finished || snap.sims_done == 0 || snap.sims_total <= snap.sims_done {
        0.0
    } else {
        wall_s * (snap.sims_total - snap.sims_done) as f64 / snap.sims_done as f64
    };
    Json::obj()
        .field("figure", figure)
        .field("wall_s", wall_s)
        .field("events", snap.events)
        .field("events_per_s", mean_rate)
        .field("recent_events_per_s", recent_rate)
        .field("sims_done", snap.sims_done)
        .field("sims_total", snap.sims_total)
        .field("sim_time_us", snap.sim_time_us)
        .field("horizon_us", snap.horizon_us)
        .field("eta_s", eta_s)
        .field("vm_rss_kb", vm_rss_kb().unwrap_or(0))
        .field("stalls", snap.stalls)
        .field("finished", finished)
}

/// Writes `body` to `path` atomically (temp sibling + rename) so `watch`
/// never reads a torn file.
fn write_atomic(path: &std::path::Path, body: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let tmp = path.with_extension("json.tmp");
    if std::fs::write(&tmp, body).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = Health::default();
        assert!(h.0.is_none());
        h.tick(5);
        h.add_sims(3);
        h.sim_done();
    }

    #[test]
    fn ticks_accumulate_and_snapshot_reads_them() {
        let state = Arc::new(HealthState::default());
        let h = Health::from_state(Some(state.clone()));
        h.set_horizon(1_000);
        h.add_sims(2);
        h.tick(10);
        h.tick(20);
        h.sim_done();
        let snap = HealthSnapshot::read(&state);
        assert_eq!(snap.events, 2);
        assert_eq!(snap.sim_time_us, 20);
        assert_eq!(snap.horizon_us, 1_000);
        assert_eq!(snap.sims_total, 2);
        assert_eq!(snap.sims_done, 1);
    }

    #[test]
    fn vm_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(vm_rss_kb().unwrap_or(0) > 0, "a running test has resident pages");
        }
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if let Some(kb) = vm_hwm_kb() {
            assert!(kb > 0, "a running process has resident memory");
        }
    }

    #[test]
    fn monitor_writes_a_live_then_final_health_file() {
        let dir = std::env::temp_dir().join(format!("cdnc-health-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::enabled();
        reg.enable_health();
        reg.health().add_sims(4);
        reg.health().tick(123);
        reg.health().sim_done();
        let path = dir.join("figX.health.json");
        let mon = HealthMonitor::start(
            &reg,
            HealthMonitorConfig {
                figure: "figX".into(),
                path: path.clone(),
                interval: Duration::from_millis(10),
                stall_after: Duration::from_secs(3600),
            },
        )
        .expect("health armed");
        // The first sample lands promptly.
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        mon.stop();
        let body = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some("figX"));
        assert_eq!(doc.get("events").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("sims_total").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("finished"), Some(&Json::Bool(true)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_flags_a_stall_once_per_silence() {
        let reg = Registry::enabled();
        reg.enable_health();
        reg.enable_tracing();
        reg.health().tick(50);
        let dir = std::env::temp_dir().join(format!("cdnc-stall-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mon = HealthMonitor::start(
            &reg,
            HealthMonitorConfig {
                figure: "figY".into(),
                path: dir.join("figY.health.json"),
                interval: Duration::from_millis(5),
                stall_after: Duration::from_millis(30),
            },
        )
        .expect("health armed");
        std::thread::sleep(Duration::from_millis(200));
        mon.stop();
        let snap = reg.health_snapshot().unwrap();
        assert_eq!(snap.stalls, 1, "one episode despite many silent ticks");
        let spans = reg.tracer().store().spans;
        assert_eq!(spans.iter().filter(|s| s.kind == SpanKind::Stall).count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
