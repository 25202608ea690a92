//! Cause breakdown for content inconsistency (paper §3.4, Figs. 7–10).

use crate::inconsistency::{
    consistency_ratio, corrected_polls_by_server, day_episodes, episodes_of_server,
    first_appearances_for, Episode, FirstAppearances,
};
use cdnc_simcore::stats::{pearson, Cdf};
use cdnc_simcore::{SimDuration, SimTime};
use cdnc_trace::{DayTrace, SnapshotId, Trace};
use std::collections::{BTreeMap, HashMap};

// --- §3.4.2 provider inconsistency --------------------------------------

/// Inconsistency lengths of the provider origin replicas for one day,
/// using the same α/β machinery as the server analysis (Fig. 7).
pub fn provider_inconsistency_lengths(day: &DayTrace) -> Vec<f64> {
    let mut by_replica: HashMap<u32, Vec<(SimTime, SnapshotId)>> = HashMap::new();
    for p in &day.provider_polls {
        by_replica.entry(p.replica).or_default().push((p.time, p.snapshot));
    }
    for polls in by_replica.values_mut() {
        polls.sort_by_key(|&(t, _)| t);
    }
    let alpha =
        FirstAppearances::from_observations(by_replica.values().flatten().map(|&(t, s)| (s, t)));
    let mut replicas: Vec<u32> = by_replica.keys().copied().collect();
    replicas.sort_unstable();
    replicas
        .iter()
        .flat_map(|r| episodes_of_server(*r, &by_replica[r], &alpha))
        .map(|e| e.length_s)
        .collect()
}

// --- §3.4.3 distance and ISP effects -------------------------------------

/// Average consistency ratio per provider-distance bucket (Fig. 8) plus the
/// Pearson correlation between distance and ratio.
///
/// Returns `(bucket_centres_km, mean_ratios, pearson_r)`.
pub fn distance_vs_consistency(
    trace: &Trace,
    day_index: usize,
    bucket_km: f64,
) -> (Vec<f64>, Vec<f64>, f64) {
    assert!(bucket_km > 0.0, "bucket size must be positive");
    let day = &trace.days[day_index];
    let session_s = trace.session.as_secs_f64();
    let polls = corrected_polls_by_server(day, &trace.servers);
    let alpha = first_appearances_for(&polls, None);
    // Per-server consistency ratio.
    let mut per_server: Vec<(f64, f64)> = Vec::new(); // (distance, ratio)
    for meta in &trace.servers {
        let Some(server_polls) = polls.get(&meta.id) else { continue };
        let eps = episodes_of_server(meta.id, server_polls, &alpha);
        per_server.push((meta.distance_to_provider_km, consistency_ratio(&eps, session_s)));
    }
    let r = {
        let xs: Vec<f64> = per_server.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = per_server.iter().map(|p| p.1).collect();
        pearson(&xs, &ys)
    };
    // Bucket means.
    let mut buckets: HashMap<u64, (f64, u64)> = HashMap::new();
    for &(d, ratio) in &per_server {
        let b = (d / bucket_km) as u64;
        let e = buckets.entry(b).or_insert((0.0, 0));
        e.0 += ratio;
        e.1 += 1;
    }
    let mut keys: Vec<u64> = buckets.keys().copied().collect();
    keys.sort_unstable();
    let centres: Vec<f64> = keys.iter().map(|&k| (k as f64 + 0.5) * bucket_km).collect();
    let means: Vec<f64> = keys.iter().map(|&k| buckets[&k].0 / buckets[&k].1 as f64).collect();
    (centres, means, r)
}

/// Intra- and inter-ISP inconsistency lengths per ISP cluster (Fig. 9).
///
/// For each ISP cluster: *intra* lengths use α computed from that cluster's
/// own polls; *inter* lengths use α computed from all **other** clusters'
/// polls (the earliest appearance elsewhere) — so inter ≥ intra measures how
/// far the cluster lags the rest of the CDN.
#[derive(Debug, Clone, PartialEq)]
pub struct IspClusterInconsistency {
    /// The cluster's ISP id (as raw u16).
    pub isp: u16,
    /// Number of servers in the cluster.
    pub servers: usize,
    /// Intra-ISP inconsistency lengths, seconds.
    pub intra: Vec<f64>,
    /// Inter-ISP inconsistency lengths, seconds.
    pub inter: Vec<f64>,
}

/// Computes per-ISP intra/inter inconsistency for one day.
pub fn isp_inconsistency(trace: &Trace, day_index: usize) -> Vec<IspClusterInconsistency> {
    let day = &trace.days[day_index];
    let polls = corrected_polls_by_server(day, &trace.servers);
    // Group servers by ISP.
    let mut groups: HashMap<u16, Vec<u32>> = HashMap::new();
    for meta in &trace.servers {
        groups.entry(meta.isp.0).or_default().push(meta.id);
    }
    let mut isps: Vec<u16> = groups.keys().copied().collect();
    isps.sort_unstable();
    let mut out = Vec::with_capacity(isps.len());
    for isp in isps {
        let members = &groups[&isp];
        let intra_alpha = first_appearances_for(&polls, Some(members));
        let others: Vec<u32> =
            trace.servers.iter().map(|m| m.id).filter(|id| !members.contains(id)).collect();
        let inter_alpha = first_appearances_for(&polls, Some(&others));
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for &m in members {
            if let Some(server_polls) = polls.get(&m) {
                intra.extend(
                    episodes_of_server(m, server_polls, &intra_alpha).iter().map(|e| e.length_s),
                );
                inter.extend(
                    episodes_of_server(m, server_polls, &inter_alpha).iter().map(|e| e.length_s),
                );
            }
        }
        out.push(IspClusterInconsistency { isp, servers: members.len(), intra, inter });
    }
    out
}

// --- §3.4.4 provider bandwidth --------------------------------------------

/// CDF of provider response times (Fig. 10(a)), seconds.
pub fn provider_response_times(day: &DayTrace) -> Cdf {
    Cdf::from_samples(day.provider_polls.iter().map(|p| p.response_time.as_secs_f64()))
}

// --- §3.4.5 server failure and overload -----------------------------------

/// A detected server absence: a gap between successive polls longer than
/// the poll interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedAbsence {
    /// The absent server.
    pub server: u32,
    /// Last successful poll before the gap.
    pub last_seen: SimTime,
    /// First successful poll after the gap.
    pub returned: SimTime,
    /// Absence length: `returned − last_seen − poll_interval`, seconds.
    pub length_s: f64,
}

/// Detects absences in one day's server polls (paper: `t_{i+1} − t_i − 10 s`).
pub fn detect_absences(day: &DayTrace, poll_interval: SimDuration) -> Vec<DetectedAbsence> {
    let mut out = Vec::new();
    let mut iter = day.server_polls.iter().peekable();
    while let Some(p) = iter.next() {
        if let Some(next) = iter.peek() {
            if next.server == p.server {
                let gap = next.time.since(p.time);
                if gap > poll_interval + SimDuration::from_millis(1) {
                    out.push(DetectedAbsence {
                        server: p.server,
                        last_seen: p.time,
                        returned: next.time,
                        length_s: gap.saturating_sub(poll_interval).as_secs_f64(),
                    });
                }
            }
        }
    }
    out
}

/// Mean inconsistency length grouped by absence length (Fig. 10(c)).
///
/// The paper: "suppose the content responded at `t_{i+1}` from the content
/// server that was absent is `C_{i+1}`, then we call the inconsistency
/// length of `C_{i+1}` the inconsistency length of this absence" — i.e. for
/// each absence we take the stale episode of the snapshot served at the
/// *first post-return poll*. Group 0 collects the no-absence baseline: all
/// episodes not linked to any absence.
///
/// Returns `(bin_upper_bounds_s, mean_inconsistency_s)`; bins are
/// `[0,0]`, `(0,50]`, `(50,100]`, … `(350,400]` as in the paper.
pub fn inconsistency_by_absence_length(trace: &Trace, day_index: usize) -> (Vec<f64>, Vec<f64>) {
    inconsistency_by_absence_length_days(trace, &[day_index as u16])
}

/// [`inconsistency_by_absence_length`] pooled over every trace day — the
/// paper pools 15 days to populate the long-absence bins.
pub fn inconsistency_by_absence_length_pooled(trace: &Trace) -> (Vec<f64>, Vec<f64>) {
    let days: Vec<u16> = (0..trace.days.len() as u16).collect();
    inconsistency_by_absence_length_days(trace, &days)
}

fn inconsistency_by_absence_length_days(
    trace: &Trace,
    day_indices: &[u16],
) -> (Vec<f64>, Vec<f64>) {
    let mut bins: Vec<(f64, u64)> = vec![(0.0, 0); 9]; // bin 0 = no absence; 1..=8 = (0,50]..(350,400]
    for &d in day_indices {
        accumulate_absence_bins(trace, d as usize, &mut bins);
    }
    let bounds: Vec<f64> = (0..9).map(|i| i as f64 * 50.0).collect();
    let means: Vec<f64> =
        bins.iter().map(|&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 }).collect();
    (bounds, means)
}

fn accumulate_absence_bins(trace: &Trace, day_index: usize, bins: &mut [(f64, u64)]) {
    let day = &trace.days[day_index];
    let absences = detect_absences(day, trace.poll_interval);
    let polls = corrected_polls_by_server(day, &trace.servers);
    let alpha = first_appearances_for(&polls, None);
    // Server order, not hash order: the baseline below is a float sum, so
    // its bits depend on the order the episodes are added in.
    let eps_by_server: BTreeMap<u32, Vec<Episode>> = polls
        .iter()
        .map(|(&server, server_polls)| (server, episodes_of_server(server, server_polls, &alpha)))
        .collect();
    let mut absence_episode_ids: Vec<(u32, SimTime)> = Vec::new();
    for a in &absences {
        if a.length_s > 400.0 {
            continue;
        }
        let bin = ((a.length_s / 50.0).ceil() as usize).clamp(1, 8);
        // The first poll at or after the return (note: `detect_absences`
        // works on raw times while episodes use corrected times; the skew
        // residual is sub-second, far below the 10 s poll grid).
        let Some(server_polls) = polls.get(&a.server) else { continue };
        let idx = server_polls.partition_point(|&(t, _)| t < a.returned);
        let Some(&(poll_t, snap)) = server_polls.get(idx) else { continue };
        // That content's own stale episode, if it ever became stale.
        if let Some(e) =
            eps_by_server[&a.server].iter().find(|e| e.snapshot == snap && e.end >= poll_t)
        {
            bins[bin].0 += e.length_s;
            bins[bin].1 += 1;
            absence_episode_ids.push((e.server, e.end));
        }
    }
    // Baseline: everything not linked to an absence.
    for eps in eps_by_server.values() {
        for e in eps {
            if !absence_episode_ids.contains(&(e.server, e.end)) {
                bins[0].0 += e.length_s;
                bins[0].1 += 1;
            }
        }
    }
}

/// Mean inconsistency of episodes ending within `window_s` seconds *before*
/// absences vs *after* them (Fig. 10(d) flavour), grouped by absence length
/// bins of 100 s: `[0,100], (100,200], (200,300], (300,400]`.
///
/// Returns `(before_means, after_means)` with 4 entries each.
pub fn inconsistency_around_absences(
    trace: &Trace,
    day_index: usize,
    window_s: f64,
) -> (Vec<f64>, Vec<f64>) {
    let day = &trace.days[day_index];
    let absences = detect_absences(day, trace.poll_interval);
    let episodes = day_episodes(day, &trace.servers, None);
    let mut eps_by_server: HashMap<u32, Vec<&Episode>> = HashMap::new();
    for e in &episodes {
        eps_by_server.entry(e.server).or_default().push(e);
    }
    let mut before: Vec<(f64, u64)> = vec![(0.0, 0); 4];
    let mut after: Vec<(f64, u64)> = vec![(0.0, 0); 4];
    for a in &absences {
        if a.length_s > 400.0 {
            continue;
        }
        let bin = ((a.length_s / 100.0).floor() as usize).min(3);
        let w = SimDuration::from_secs_f64(window_s);
        if let Some(eps) = eps_by_server.get(&a.server) {
            for e in eps {
                if e.end <= a.last_seen && e.end + w >= a.last_seen {
                    before[bin].0 += e.length_s;
                    before[bin].1 += 1;
                }
                if e.end >= a.returned && a.returned + w >= e.end {
                    after[bin].0 += e.length_s;
                    after[bin].1 += 1;
                }
            }
        }
    }
    let finish = |v: Vec<(f64, u64)>| {
        v.into_iter().map(|(s, n)| if n == 0 { 0.0 } else { s / n as f64 }).collect()
    };
    (finish(before), finish(after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_trace::{crawl, CrawlConfig};

    fn mini_trace() -> Trace {
        crawl(&CrawlConfig { servers: 60, users: 20, days: 1, ..CrawlConfig::tiny() })
    }

    #[test]
    fn provider_is_much_more_consistent_than_servers() {
        let trace = mini_trace();
        let day = &trace.days[0];
        let provider = provider_inconsistency_lengths(day);
        let servers: Vec<f64> =
            day_episodes(day, &trace.servers, None).iter().map(|e| e.length_s).collect();
        let p_mean = if provider.is_empty() {
            0.0
        } else {
            provider.iter().sum::<f64>() / provider.len() as f64
        };
        let s_mean = servers.iter().sum::<f64>() / servers.len() as f64;
        assert!(
            p_mean < s_mean / 3.0,
            "origin mean {p_mean} should be far below server mean {s_mean}"
        );
        assert!(p_mean < 15.0, "origin inconsistency should be a few seconds, got {p_mean}");
    }

    #[test]
    fn distance_correlation_is_weak() {
        let trace = mini_trace();
        let (centres, means, r) = distance_vs_consistency(&trace, 0, 2_000.0);
        assert_eq!(centres.len(), means.len());
        assert!(!centres.is_empty());
        assert!(r.abs() < 0.5, "distance-consistency correlation should be weak, r = {r}");
        for m in means {
            assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn inter_isp_exceeds_intra_isp() {
        let trace = mini_trace();
        let clusters = isp_inconsistency(&trace, 0);
        assert!(!clusters.is_empty());
        let mut intra_sum = 0.0;
        let mut intra_n = 0usize;
        let mut inter_sum = 0.0;
        let mut inter_n = 0usize;
        for c in &clusters {
            intra_sum += c.intra.iter().sum::<f64>();
            intra_n += c.intra.len();
            inter_sum += c.inter.iter().sum::<f64>();
            inter_n += c.inter.len();
        }
        let intra_mean = intra_sum / intra_n.max(1) as f64;
        let inter_mean = inter_sum / inter_n.max(1) as f64;
        assert!(
            inter_mean > intra_mean,
            "inter-ISP mean {inter_mean} must exceed intra-ISP mean {intra_mean}"
        );
    }

    #[test]
    fn provider_response_times_in_paper_range() {
        let trace = mini_trace();
        let cdf = provider_response_times(&trace.days[0]);
        assert!(cdf.min().unwrap() >= 0.5);
        assert!(cdf.max().unwrap() <= 2.1 + 1e-9);
        assert!(cdf.fraction_at_most(1.5) > 0.8, "90% of requests resolve fast");
    }

    #[test]
    fn absences_detected_and_positive() {
        let trace = mini_trace();
        let absences = detect_absences(&trace.days[0], trace.poll_interval);
        assert!(!absences.is_empty(), "default absence config must produce gaps");
        for a in &absences {
            assert!(a.length_s > 0.0);
            assert!(a.returned > a.last_seen);
        }
    }

    #[test]
    fn absence_bins_shaped_sensibly() {
        let trace = mini_trace();
        let (bounds, means) = inconsistency_by_absence_length(&trace, 0);
        assert_eq!(bounds.len(), 9);
        assert_eq!(means.len(), 9);
        assert!(means[0] > 0.0, "baseline group must have data");
        // When an absence-linked group has data, its inconsistency is on the
        // order of the baseline or above (small samples can dip somewhat).
        let max_abs = means[1..].iter().copied().fold(0.0f64, f64::max);
        if max_abs > 0.0 {
            assert!(
                max_abs >= means[0] * 0.5,
                "absence-linked inconsistency implausibly low: baseline {} vs max {}",
                means[0],
                max_abs
            );
        }
    }

    #[test]
    fn absence_bins_are_bit_reproducible() {
        // The experiments binary's smoke-scale crawl: enough servers and
        // episodes that a different summation order changes the low bits.
        let trace =
            crawl(&CrawlConfig { servers: 60, users: 30, days: 3, seed: 7, ..CrawlConfig::tiny() });
        let bits = |means: Vec<f64>| means.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        let first = bits(inconsistency_by_absence_length_pooled(&trace).1);
        for _ in 0..8 {
            assert_eq!(bits(inconsistency_by_absence_length_pooled(&trace).1), first);
        }
    }

    #[test]
    fn around_absence_windows_have_right_shape() {
        let trace = mini_trace();
        let (before, after) = inconsistency_around_absences(&trace, 0, 60.0);
        assert_eq!(before.len(), 4);
        assert_eq!(after.len(), 4);
    }

    #[test]
    fn no_gap_no_absence() {
        let trace = mini_trace();
        let mut day = trace.days[0].clone();
        // Keep only one server's polls; they are contiguous unless that
        // server was absent — filter such gaps by reconstructing times.
        day.server_polls.retain(|p| p.server == 0);
        for (i, p) in day.server_polls.iter_mut().enumerate() {
            p.time = SimTime::from_secs(10 * i as u64);
        }
        assert!(detect_absences(&day, trace.poll_interval).is_empty());
    }
}
