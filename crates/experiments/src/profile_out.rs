//! Profile-artifact output for `experiments profile`: one
//! `<figure>.profile.json` per run, attributing the run's allocation work
//! to subsystems and bundling the structural probes (queue-depth at pop,
//! per-kind network accounting, per-node state sizes) the profiling gate
//! armed.
//!
//! The document has a deliberate deterministic/volatile split. The
//! `probes` section comes from registry instruments sharded and absorbed
//! in task order, so it is bit-identical for every `--jobs N`. The
//! `attribution` section (alloc count and bytes per *named* subsystem) is
//! workload-dominated but fed by the process-global allocator. `obs-diff`
//! ([`crate::obs_out::diff_artifact_dirs`]) compares it exactly, like every
//! key outside [`crate::obs_out::VOLATILE_KEYS`], so:
//!
//! * a change that adds or removes one allocation on a profiled path
//!   differs from its parent even when every result is identical;
//! * runs at different worker counts differ by the per-thread warm-up
//!   inside scopes (`profile fig20 --scale smoke`: 55 of 449k `sim_core`
//!   allocations between `--jobs 1` and `--jobs 2`), so compare runs at
//!   one `--jobs`.
//!
//! Everything tied to process-level timing — the `other` bucket (thread
//! spawns, orchestration), live/peak levels, spike counts, wall clock,
//! RSS — sits under keys listed in [`crate::obs_out::VOLATILE_KEYS`], so
//! `obs-diff` ignores it.

use crate::scale::Scale;
use cdnc_net::PacketKind;
use cdnc_obs::profile::Subsystem;
use cdnc_obs::{HistogramSnapshot, Json, MetricsSnapshot, ProfileSnapshot, Registry};

/// A histogram snapshot as a compact JSON object (no bucket vector — the
/// exact moments are what the artifact consumers compare).
fn histogram_doc(h: &HistogramSnapshot) -> Json {
    let mean = if h.count > 0 { h.sum / h.count as f64 } else { 0.0 };
    Json::obj()
        .field("count", h.count)
        .field("sum", h.sum)
        .field("mean", mean)
        .field("min", if h.count > 0 { h.min } else { 0.0 })
        .field("max", if h.count > 0 { h.max } else { 0.0 })
}

/// The deterministic structural-probe section, read from the registry
/// snapshot of a profiling-enabled run.
fn probes_doc(snap: &MetricsSnapshot) -> Json {
    let gauge = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|(_, g)| *g);
    let mut net_pkts = Json::obj();
    let mut net_bytes = Json::obj();
    let mut inflight_peak = Json::obj();
    for kind in PacketKind::ALL {
        let suffix = kind.metric_suffix();
        net_pkts = net_pkts.field(suffix, snap.counter(&format!("sim_msgs_{suffix}")));
        net_bytes = net_bytes.field(suffix, snap.counter(&format!("net_bytes_{suffix}")));
        inflight_peak = inflight_peak
            .field(suffix, gauge(&format!("sim_inflight_{suffix}")).map_or(0, |g| g.high_water));
    }
    let mut doc = Json::obj();
    for (name, key) in [
        ("sched_queue_depth_at_pop", "queue_depth_at_pop"),
        ("sim_node_state_bytes", "node_state_bytes"),
        ("sim_user_state_bytes", "user_state_bytes"),
    ] {
        if let Some(h) = snap.histogram(name) {
            doc = doc.field(key, histogram_doc(h));
        }
    }
    doc.field(
        "net",
        Json::obj()
            .field("pkts", net_pkts)
            .field("bytes", net_bytes)
            .field("inflight_peak_pkts", inflight_peak)
            .field("inflight_peak_bytes", gauge("net_inflight_bytes").map_or(0, |g| g.high_water)),
    )
}

/// The full profile document for one figure run.
///
/// `window` is the allocator delta bracketing the run
/// ([`cdnc_obs::ProfileSnapshot::window_since`]); `reg` the figure's
/// registry after the run.
pub fn profile_doc(
    id: &str,
    scale: Scale,
    window: &ProfileSnapshot,
    reg: &Registry,
    wall_s: f64,
) -> Json {
    let snap = reg.snapshot();
    let mut attribution = Json::obj();
    let mut telemetry_subsystems = Json::obj();
    for s in Subsystem::ALL {
        let stats = window.subsystem(s);
        if s.is_named() {
            attribution = attribution.field(
                s.name(),
                Json::obj().field("allocs", stats.allocs).field("bytes", stats.bytes),
            );
        }
        telemetry_subsystems = telemetry_subsystems.field(
            s.name(),
            Json::obj()
                .field("allocs", stats.allocs)
                .field("bytes", stats.bytes)
                .field("frees", stats.frees)
                .field("freed_bytes", stats.freed_bytes)
                .field("live_bytes", stats.live_bytes)
                .field("peak_live_bytes", stats.peak_live_bytes),
        );
    }
    Json::obj()
        .field("figure", id)
        .field("scale", format!("{scale:?}"))
        .field("wall_s", wall_s)
        .field("attribution", attribution)
        .field("probes", probes_doc(&snap))
        .field(
            "allocator_telemetry",
            Json::obj()
                .field("installed", cdnc_obs::profile::installed())
                .field("window_total_allocs", window.total_allocs)
                .field("window_total_bytes", window.total_bytes)
                .field("attributed_fraction", window.attributed_fraction())
                .field("live_bytes", window.live_bytes)
                .field("peak_live_bytes", window.peak_live_bytes)
                .field("subsystems", telemetry_subsystems),
        )
        .field(
            "spikes",
            Json::obj()
                .field("count", snap.counter("profile_mem_spikes"))
                .field("multiple", cdnc_obs::DEFAULT_SPIKE_MULTIPLE),
        )
        .field("peak_rss_kb", cdnc_obs::vm_hwm_kb())
}

/// Formats the per-subsystem breakdown table printed after
/// `experiments profile`.
pub fn profile_table(window: &ProfileSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<10}  {:>12}  {:>14}  {:>8}  {:>14}\n",
        "subsystem", "allocs", "bytes", "share", "peak live"
    ));
    let denominator: u64 = Subsystem::ALL.iter().map(|&s| window.subsystem(s).bytes).sum();
    for s in Subsystem::ALL {
        let stats = window.subsystem(s);
        let share =
            if denominator > 0 { 100.0 * stats.bytes as f64 / denominator as f64 } else { 0.0 };
        out.push_str(&format!(
            "  {:<10}  {:>12}  {:>14}  {:>7.1}%  {:>14}\n",
            s.name(),
            stats.allocs,
            stats.bytes,
            share,
            stats.peak_live_bytes,
        ));
    }
    out.push_str(&format!(
        "  attributed to named subsystems: {:.1}% of tagged bytes\n",
        100.0 * window.attributed_fraction()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_obs::profile::ProfileCounters;

    fn synthetic_window() -> ProfileSnapshot {
        let counters = ProfileCounters::new();
        counters.set_enabled(true);
        counters.record_alloc(Subsystem::Scheduler, 1000);
        counters.record_alloc(Subsystem::Net, 3000);
        counters.record_alloc(Subsystem::Other, 500);
        counters.snapshot()
    }

    #[test]
    fn doc_splits_attribution_from_telemetry() {
        let reg = Registry::enabled();
        reg.enable_profiling();
        reg.counter("sim_msgs_update").add(7);
        reg.histogram("sched_queue_depth_at_pop").record(3.0);
        let window = synthetic_window();
        let doc = profile_doc("figX", Scale::Smoke, &window, &reg, 1.5);
        let attribution = doc.get("attribution").expect("attribution section");
        assert_eq!(
            attribution.get("scheduler").and_then(|s| s.get("bytes")).and_then(Json::as_f64),
            Some(1000.0)
        );
        assert!(attribution.get("other").is_none(), "other is telemetry, not attribution");
        let telemetry = doc.get("allocator_telemetry").expect("telemetry section");
        assert_eq!(
            telemetry
                .get("subsystems")
                .and_then(|s| s.get("other"))
                .and_then(|o| o.get("bytes"))
                .and_then(Json::as_f64),
            Some(500.0)
        );
        let probes = doc.get("probes").expect("probes section");
        assert_eq!(
            probes
                .get("net")
                .and_then(|n| n.get("pkts"))
                .and_then(|p| p.get("update"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(
            probes.get("queue_depth_at_pop").and_then(|h| h.get("count")).and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn volatile_sections_scrub_away() {
        let reg = Registry::enabled();
        reg.enable_profiling();
        let doc = profile_doc("figX", Scale::Smoke, &synthetic_window(), &reg, 1.5);
        let clean = crate::obs_out::scrub_volatile(&doc);
        assert!(clean.get("attribution").is_some(), "attribution is deterministic");
        assert!(clean.get("probes").is_some(), "probes are deterministic");
        assert!(clean.get("allocator_telemetry").is_none());
        assert!(clean.get("spikes").is_none());
        assert!(clean.get("wall_s").is_none());
        assert!(clean.get("peak_rss_kb").is_none());
    }

    #[test]
    fn table_shows_share_and_attribution() {
        let table = profile_table(&synthetic_window());
        assert!(table.contains("scheduler"), "{table}");
        assert!(table.contains("88.9%"), "4000/4500 named: {table}");
    }
}
