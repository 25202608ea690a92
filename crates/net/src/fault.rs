//! Deterministic fault plane: schedule-driven network pathology injection.
//!
//! Real CDN paths degrade along more axes than whole-server absence: packets
//! are lost, duplicated, or reordered; latency spikes; ISP pairs partition;
//! a provider's uplink browns out under load. This module models all of
//! those as a [`FaultPlane`] consulted once per send. Every probabilistic
//! draw comes from a **per-source-node** [`SimRng`] stream derived with
//! [`derive_stream`], so one node's fault history never perturbs another's
//! and runs are bit-identical for any `--jobs` worker count.
//!
//! Faults are behavioural (they change deliveries); the *counters* describing
//! them are observation-only and live on [`crate::Network`].
//!
//! The plane deactivates itself after [`FaultPlane::active_until`] — the
//! simulator sets this to `horizon - settle` so a convergence invariant can
//! be checked once the network has quiesced.

use crate::node::NodeId;
use cdnc_geo::IspId;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{derive_stream, SimDuration, SimRng, SimTime};

/// A window during which two specific nodes cannot exchange packets
/// (either direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPartition {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// A window during which two ISPs cannot exchange packets (either
/// direction) — the coarse-grained peering dispute / BGP incident case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IspPartition {
    /// One ISP.
    pub a: IspId,
    /// The other ISP.
    pub b: IspId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// A brownout window: packets *sent by* `node` squeeze through a degraded
/// uplink, adding `extra_s_per_kb × size_kb` seconds of delivery delay.
/// Aimed at the provider (`NodeId(0)`), whose uplink is the fan-out
/// bottleneck, but applicable to any sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// The degraded sender.
    pub node: NodeId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Extra seconds of delay per KB of packet size.
    pub extra_s_per_kb: f64,
}

/// Static description of what the fault plane injects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Per-packet drop probability.
    pub loss_prob: f64,
    /// Per-packet duplication probability (the copy arrives later).
    pub dup_prob: f64,
    /// Per-packet reordering probability: the packet is held back by a
    /// uniform extra delay in `(0, reorder_spread]`, letting later sends
    /// overtake it.
    pub reorder_prob: f64,
    /// Maximum hold-back applied to a reordered packet.
    pub reorder_spread: SimDuration,
    /// Per-packet latency-spike probability (congestion transient).
    pub spike_prob: f64,
    /// Maximum magnitude of a latency spike (uniform in `(0, spike]`).
    pub spike: SimDuration,
    /// Scheduled per-link partitions.
    pub link_partitions: Vec<LinkPartition>,
    /// Scheduled ISP↔ISP partitions.
    pub isp_partitions: Vec<IspPartition>,
    /// Scheduled sender brownouts.
    pub brownouts: Vec<Brownout>,
}

impl FaultConfig {
    /// A config that injects nothing (useful as a protocol-only baseline:
    /// acks and retransmit timers run, but no packet is ever harmed).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// A one-knob config: probabilities scale linearly with `intensity` in
    /// `[0, 1]`. At 1.0: 25 % loss, 10 % duplication, 15 % reordering
    /// (≤ 3 s hold-back), 10 % latency spikes (≤ 2 s). Scheduled windows
    /// are left empty — push them separately.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not in `[0, 1]`.
    pub fn at_intensity(intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity) && intensity.is_finite(),
            "fault intensity must be in [0, 1], got {intensity}"
        );
        FaultConfig {
            loss_prob: 0.25 * intensity,
            dup_prob: 0.10 * intensity,
            reorder_prob: 0.15 * intensity,
            reorder_spread: SimDuration::from_secs(3),
            spike_prob: 0.10 * intensity,
            spike: SimDuration::from_secs(2),
            link_partitions: Vec::new(),
            isp_partitions: Vec::new(),
            brownouts: Vec::new(),
        }
    }

    /// `true` when nothing is ever injected: all probabilities zero and no
    /// scheduled windows. A quiet plane makes zero rng draws.
    pub fn is_quiet(&self) -> bool {
        self.loss_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_prob == 0.0
            && self.spike_prob == 0.0
            && self.link_partitions.is_empty()
            && self.isp_partitions.is_empty()
            && self.brownouts.is_empty()
    }

    /// End of the last scheduled window, or [`SimTime::ZERO`] if none.
    pub fn last_window_end(&self) -> SimTime {
        let mut last = SimTime::ZERO;
        for w in &self.link_partitions {
            last = last.max(w.until);
        }
        for w in &self.isp_partitions {
            last = last.max(w.until);
        }
        for w in &self.brownouts {
            last = last.max(w.until);
        }
        last
    }

    /// Checks all probabilities are valid.
    ///
    /// # Panics
    ///
    /// Panics on a probability outside `[0, 1]` or a non-finite/negative
    /// brownout slope.
    pub fn validate(&self) {
        for (name, p) in [
            ("loss_prob", self.loss_prob),
            ("dup_prob", self.dup_prob),
            ("reorder_prob", self.reorder_prob),
            ("spike_prob", self.spike_prob),
        ] {
            assert!((0.0..=1.0).contains(&p) && p.is_finite(), "{name} must be in [0, 1], got {p}");
        }
        for b in &self.brownouts {
            assert!(
                b.extra_s_per_kb.is_finite() && b.extra_s_per_kb >= 0.0,
                "brownout slope must be finite and non-negative, got {}",
                b.extra_s_per_kb
            );
        }
    }
}

/// The fate the fault plane assigns one send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Deliver; `extra` delays the arrival (reordering hold-back, latency
    /// spike, brownout — accumulated) and `duplicate_extra`, when set, asks
    /// for a second copy arriving that much after the first.
    Deliver { extra: SimDuration, duplicate_extra: Option<SimDuration> },
    /// Drop the packet. `partitioned` distinguishes a scheduled partition
    /// (deterministic) from random loss.
    Drop { partitioned: bool },
}

impl FaultDecision {
    /// An untouched delivery.
    pub const CLEAN: FaultDecision =
        FaultDecision::Deliver { extra: SimDuration::ZERO, duplicate_extra: None };
}

/// The live fault plane: a [`FaultConfig`] plus one [`SimRng`] stream per
/// source node. Consulted once per send by
/// [`crate::Network::send_faulted`].
#[derive(Debug)]
pub struct FaultPlane {
    config: FaultConfig,
    /// Faults (probabilistic *and* scheduled) only fire strictly before
    /// this instant; afterwards the plane is clean so the run can settle.
    active_until: SimTime,
    streams: Vec<SimRng>,
}

impl FaultPlane {
    /// Builds a plane for `nodes` nodes. Stream `i` is
    /// `derive_stream(seed, i)` — stable per node regardless of how other
    /// nodes' packets interleave.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FaultConfig::validate`].
    pub fn new(config: FaultConfig, seed: u64, nodes: usize) -> Self {
        config.validate();
        let streams = (0..nodes as u64).map(|i| derive_stream(seed, i)).collect();
        FaultPlane { config, active_until: SimTime::MAX, streams }
    }

    /// The configured fault description.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// When the plane goes quiet (see [`FaultPlane::set_active_until`]).
    pub fn active_until(&self) -> SimTime {
        self.active_until
    }

    /// Silences every fault at and after `t` — the settle fence the
    /// convergence checker relies on.
    pub fn set_active_until(&mut self, t: SimTime) {
        self.active_until = t;
    }

    /// Walks the plane's dynamic state — the settle fence and the per-node
    /// rng streams — as checkpoint state. The [`FaultConfig`] is a
    /// construction parameter the caller rebuilds from simulation config,
    /// so it is not stored; reading fails if the stream count disagrees
    /// with this plane's node count.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.time("fault_active_until", &mut self.active_until)?;
        c.fixed("fault_streams", self.streams.len())?;
        for rng in &mut self.streams {
            c.rng("fault_rng", rng)?;
        }
        Ok(())
    }

    /// `true` when `src`↔`dst` is inside a scheduled partition window at
    /// `now` (link- or ISP-level, either direction).
    pub fn is_partitioned(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        src_isp: IspId,
        dst_isp: IspId,
    ) -> bool {
        if now >= self.active_until {
            return false;
        }
        let in_window = |from: SimTime, until: SimTime| now >= from && now < until;
        self.config.link_partitions.iter().any(|w| {
            ((w.a == src && w.b == dst) || (w.a == dst && w.b == src)) && in_window(w.from, w.until)
        }) || self.config.isp_partitions.iter().any(|w| {
            ((w.a == src_isp && w.b == dst_isp) || (w.a == dst_isp && w.b == src_isp))
                && in_window(w.from, w.until)
        })
    }

    /// Decides the fate of one packet of `size_kb` from `src` to `dst` at
    /// `now`. Scheduled windows are checked first (no rng); probabilistic
    /// faults then draw from `src`'s stream. A quiet or expired plane
    /// returns [`FaultDecision::CLEAN`] without drawing.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range for the plane.
    pub fn decide(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        src_isp: IspId,
        dst_isp: IspId,
        size_kb: f64,
    ) -> FaultDecision {
        if now >= self.active_until || self.config.is_quiet() {
            return FaultDecision::CLEAN;
        }
        if self.is_partitioned(now, src, dst, src_isp, dst_isp) {
            return FaultDecision::Drop { partitioned: true };
        }
        let mut extra = SimDuration::ZERO;
        for b in &self.config.brownouts {
            if b.node == src && now >= b.from && now < b.until {
                extra += SimDuration::from_secs_f64(b.extra_s_per_kb * size_kb);
            }
        }
        let rng = &mut self.streams[src.index()];
        if self.config.loss_prob > 0.0 && rng.chance(self.config.loss_prob) {
            return FaultDecision::Drop { partitioned: false };
        }
        if self.config.reorder_prob > 0.0 && rng.chance(self.config.reorder_prob) {
            let spread = self.config.reorder_spread.as_secs_f64();
            extra += SimDuration::from_secs_f64(rng.uniform_range(0.0, spread));
        }
        if self.config.spike_prob > 0.0 && rng.chance(self.config.spike_prob) {
            let spike = self.config.spike.as_secs_f64();
            extra += SimDuration::from_secs_f64(rng.uniform_range(0.0, spike));
        }
        let duplicate_extra = if self.config.dup_prob > 0.0 && rng.chance(self.config.dup_prob) {
            // The copy trails the original by up to the reorder spread (or
            // a second, if reordering is off).
            let spread = self.config.reorder_spread.as_secs_f64().max(1.0);
            Some(SimDuration::from_secs_f64(rng.uniform_range(0.0, spread)))
        } else {
            None
        };
        FaultDecision::Deliver { extra, duplicate_extra }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decide_n(plane: &mut FaultPlane, n: usize) -> Vec<FaultDecision> {
        (0..n)
            .map(|i| {
                plane.decide(
                    SimTime::from_secs(i as u64),
                    NodeId(0),
                    NodeId(1),
                    IspId(0),
                    IspId(1),
                    1.0,
                )
            })
            .collect()
    }

    #[test]
    fn quiet_plane_is_clean_and_draws_nothing() {
        let mut plane = FaultPlane::new(FaultConfig::none(), 7, 2);
        for d in decide_n(&mut plane, 50) {
            assert_eq!(d, FaultDecision::CLEAN);
        }
        // Streams untouched: same decisions as a fresh plane after losses
        // would have diverged (checked via intensity plane below).
        assert!(FaultConfig::at_intensity(0.0).is_quiet());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = |seed| {
            let mut p = FaultPlane::new(FaultConfig::at_intensity(0.8), seed, 2);
            decide_n(&mut p, 200)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn per_node_streams_are_independent() {
        // Node 1's decisions must not depend on how many packets node 0 sent.
        let cfg = FaultConfig::at_intensity(0.8);
        let mut a = FaultPlane::new(cfg.clone(), 3, 2);
        let mut b = FaultPlane::new(cfg, 3, 2);
        decide_n(&mut a, 100); // node 0 burns its stream in `a` only
        let from_1 = |p: &mut FaultPlane| {
            (0..50)
                .map(|i| {
                    p.decide(SimTime::from_secs(i), NodeId(1), NodeId(0), IspId(1), IspId(0), 1.0)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(from_1(&mut a), from_1(&mut b));
    }

    #[test]
    fn intensity_scales_loss() {
        let losses = |intensity: f64| {
            let mut p = FaultPlane::new(FaultConfig::at_intensity(intensity), 5, 1);
            decide_n(&mut p, 1000)
                .iter()
                .filter(|d| matches!(d, FaultDecision::Drop { partitioned: false }))
                .count()
        };
        let low = losses(0.2);
        let high = losses(1.0);
        assert!(low > 0 && high > low * 2, "loss must scale with intensity: {low} vs {high}");
        assert_eq!(losses(0.0), 0);
    }

    #[test]
    fn link_partition_window_drops_deterministically() {
        let cfg = FaultConfig {
            link_partitions: vec![LinkPartition {
                a: NodeId(0),
                b: NodeId(1),
                from: SimTime::from_secs(10),
                until: SimTime::from_secs(20),
            }],
            ..FaultConfig::none()
        };
        let mut p = FaultPlane::new(cfg, 1, 3);
        let at = |p: &mut FaultPlane, t: u64, src: u32, dst: u32| {
            p.decide(SimTime::from_secs(t), NodeId(src), NodeId(dst), IspId(0), IspId(0), 1.0)
        };
        assert_eq!(at(&mut p, 9, 0, 1), FaultDecision::CLEAN);
        assert_eq!(at(&mut p, 10, 0, 1), FaultDecision::Drop { partitioned: true });
        assert_eq!(at(&mut p, 19, 1, 0), FaultDecision::Drop { partitioned: true }, "symmetric");
        assert_eq!(at(&mut p, 20, 0, 1), FaultDecision::CLEAN, "end-exclusive");
        assert_eq!(at(&mut p, 15, 0, 2), FaultDecision::CLEAN, "other links unaffected");
    }

    #[test]
    fn isp_partition_blocks_cross_isp_pairs_only() {
        let cfg = FaultConfig {
            isp_partitions: vec![IspPartition {
                a: IspId(0),
                b: IspId(1),
                from: SimTime::ZERO,
                until: SimTime::from_secs(100),
            }],
            ..FaultConfig::none()
        };
        let mut p = FaultPlane::new(cfg, 1, 4);
        let d = p.decide(SimTime::from_secs(5), NodeId(0), NodeId(1), IspId(0), IspId(1), 1.0);
        assert_eq!(d, FaultDecision::Drop { partitioned: true });
        let d = p.decide(SimTime::from_secs(5), NodeId(2), NodeId(3), IspId(0), IspId(0), 1.0);
        assert_eq!(d, FaultDecision::CLEAN, "intra-ISP traffic unaffected");
        let d = p.decide(SimTime::from_secs(5), NodeId(2), NodeId(3), IspId(1), IspId(2), 1.0);
        assert_eq!(d, FaultDecision::CLEAN, "uninvolved ISP pair unaffected");
    }

    #[test]
    fn brownout_adds_size_proportional_delay() {
        let cfg = FaultConfig {
            brownouts: vec![Brownout {
                node: NodeId(0),
                from: SimTime::ZERO,
                until: SimTime::from_secs(100),
                extra_s_per_kb: 0.5,
            }],
            ..FaultConfig::none()
        };
        let mut p = FaultPlane::new(cfg, 1, 2);
        let d = p.decide(SimTime::from_secs(5), NodeId(0), NodeId(1), IspId(0), IspId(0), 8.0);
        match d {
            FaultDecision::Deliver { extra, duplicate_extra: None } => {
                assert!((extra.as_secs_f64() - 4.0).abs() < 1e-9, "8 KB × 0.5 s/KB, got {extra}");
            }
            other => panic!("expected delayed delivery, got {other:?}"),
        }
        let d = p.decide(SimTime::from_secs(5), NodeId(1), NodeId(0), IspId(0), IspId(0), 8.0);
        assert_eq!(d, FaultDecision::CLEAN, "only the browned-out sender is slowed");
    }

    #[test]
    fn active_until_fences_all_faults() {
        let mut cfg = FaultConfig::at_intensity(1.0);
        cfg.link_partitions.push(LinkPartition {
            a: NodeId(0),
            b: NodeId(1),
            from: SimTime::ZERO,
            until: SimTime::from_secs(1000),
        });
        let mut p = FaultPlane::new(cfg, 9, 2);
        p.set_active_until(SimTime::from_secs(50));
        let d = p.decide(SimTime::from_secs(50), NodeId(0), NodeId(1), IspId(0), IspId(1), 1.0);
        assert_eq!(d, FaultDecision::CLEAN, "partition silenced after the fence");
        for i in 0..100 {
            let d =
                p.decide(SimTime::from_secs(51 + i), NodeId(0), NodeId(1), IspId(0), IspId(1), 1.0);
            assert_eq!(d, FaultDecision::CLEAN);
        }
    }

    #[test]
    fn duplication_requests_a_trailing_copy() {
        let cfg = FaultConfig { dup_prob: 1.0, ..FaultConfig::none() };
        let mut p = FaultPlane::new(cfg, 4, 1);
        match p.decide(SimTime::ZERO, NodeId(0), NodeId(0), IspId(0), IspId(0), 1.0) {
            FaultDecision::Deliver { duplicate_extra: Some(lag), .. } => {
                assert!(lag >= SimDuration::ZERO); // finite draw
            }
            other => panic!("expected duplicate, got {other:?}"),
        }
    }

    #[test]
    fn last_window_end_spans_all_schedules() {
        let cfg = FaultConfig {
            link_partitions: vec![LinkPartition {
                a: NodeId(0),
                b: NodeId(1),
                from: SimTime::from_secs(1),
                until: SimTime::from_secs(30),
            }],
            brownouts: vec![Brownout {
                node: NodeId(0),
                from: SimTime::from_secs(2),
                until: SimTime::from_secs(90),
                extra_s_per_kb: 0.1,
            }],
            ..FaultConfig::none()
        };
        assert_eq!(cfg.last_window_end(), SimTime::from_secs(90));
        assert_eq!(FaultConfig::none().last_window_end(), SimTime::ZERO);
    }

    #[test]
    fn checkpoint_resumes_decision_streams_exactly() {
        let cfg = FaultConfig::at_intensity(0.9);
        let mut p = FaultPlane::new(cfg.clone(), 6, 3);
        p.set_active_until(SimTime::from_secs(500));
        decide_n(&mut p, 40); // burn node 0's stream mid-run
        let text = Ckpt::write("test", |c| p.persist(c));
        let mut fresh = FaultPlane::new(cfg, 6, 3);
        Ckpt::read(&text, "test", |c| fresh.persist(c)).unwrap();
        assert_eq!(fresh.active_until(), SimTime::from_secs(500));
        assert_eq!(decide_n(&mut p, 100), decide_n(&mut fresh, 100));
    }

    #[test]
    fn checkpoint_rejects_wrong_topology() {
        let text = Ckpt::write("test", |c| FaultPlane::new(FaultConfig::none(), 1, 2).persist(c));
        let mut other = FaultPlane::new(FaultConfig::none(), 1, 5);
        assert!(Ckpt::read(&text, "test", |c| other.persist(c)).is_err());
    }

    #[test]
    #[should_panic(expected = "fault intensity")]
    fn intensity_out_of_range_rejected() {
        FaultConfig::at_intensity(1.5);
    }

    #[test]
    #[should_panic(expected = "loss_prob")]
    fn invalid_probability_rejected() {
        let cfg = FaultConfig { loss_prob: 1.7, ..FaultConfig::none() };
        FaultPlane::new(cfg, 0, 1);
    }
}
