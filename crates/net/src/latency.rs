//! One-way latency model.
//!
//! Latency between two nodes is:
//!
//! ```text
//! base + distance_km / fibre_speed + inter_isp_penalty (if ISPs differ) + jitter
//! ```
//!
//! * fibre speed defaults to 200 000 km/s (≈ 2/3 c — refraction in glass);
//! * the inter-ISP penalty models the "traffic transmitting between ISPs is
//!   more costly ... competes for the limited transmission capacity" effect
//!   the paper measures in §3.4.3 (it found inter-ISP paths add seconds of
//!   inconsistency under load; the *delay* penalty here is milliseconds —
//!   the seconds come from TTL interaction, which the simulator reproduces);
//! * jitter is a clamped normal around the deterministic part.

use cdnc_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Configurable latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed per-message overhead (endpoint stacks, last-mile), seconds.
    pub base_s: f64,
    /// Signal speed in fibre, km/s.
    pub fibre_km_per_s: f64,
    /// Extra one-way delay when src and dst are in different ISPs, seconds.
    pub inter_isp_penalty_s: f64,
    /// Standard deviation of the jitter as a fraction of the deterministic
    /// delay.
    pub jitter_frac: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base_s: 0.010,
            fibre_km_per_s: 200_000.0,
            inter_isp_penalty_s: 0.030,
            jitter_frac: 0.10,
        }
    }
}

impl LatencyModel {
    /// The deterministic one-way delay over a path of `distance_km` that
    /// crosses an ISP boundary or not (no jitter), rounded to the
    /// microsecond.
    pub fn deterministic_delay(&self, distance_km: f64, crosses_isp: bool) -> SimDuration {
        let mut secs = self.base_s + distance_km / self.fibre_km_per_s;
        if crosses_isp {
            secs += self.inter_isp_penalty_s;
        }
        SimDuration::from_secs_f64(secs)
    }

    /// A jittered one-way delay draw over a path of `distance_km` that
    /// crosses an ISP boundary or not. The caller computes the distance
    /// once per send and hands it here.
    ///
    /// Jitter is a normal with σ = `jitter_frac × deterministic`, clamped to
    /// ±3σ and to a floor of half the deterministic delay, so a draw is never
    /// implausibly fast. σ is taken from the microsecond-rounded
    /// deterministic delay.
    pub fn delay(&self, distance_km: f64, crosses_isp: bool, rng: &mut SimRng) -> SimDuration {
        let det = self.deterministic_delay(distance_km, crosses_isp).as_secs_f64();
        if self.jitter_frac == 0.0 {
            return SimDuration::from_secs_f64(det);
        }
        let sigma = det * self.jitter_frac;
        let drawn = rng.normal_clamped(det, sigma, det - 3.0 * sigma, det + 3.0 * sigma);
        SimDuration::from_secs_f64(drawn.max(det * 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NetNode, NodeId};
    use cdnc_geo::{GeoPoint, IspId};
    use proptest::prelude::*;

    fn node(id: u32, lat: f64, lon: f64, isp: u16) -> NetNode {
        NetNode::new(NodeId(id), GeoPoint::new(lat, lon).unwrap(), IspId(isp))
    }

    /// The deterministic delay between two nodes.
    fn det(m: &LatencyModel, src: &NetNode, dst: &NetNode) -> SimDuration {
        m.deterministic_delay(src.distance_km(dst), src.isp() != dst.isp())
    }

    /// The node-pair delay paths the distance-taking ones replaced, kept as
    /// their oracle: each computes the distance and the ISP crossing itself.
    fn oracle_deterministic(m: &LatencyModel, src: &NetNode, dst: &NetNode) -> SimDuration {
        let mut secs = m.base_s + src.distance_km(dst) / m.fibre_km_per_s;
        if src.isp() != dst.isp() {
            secs += m.inter_isp_penalty_s;
        }
        SimDuration::from_secs_f64(secs)
    }

    fn oracle_delay(
        m: &LatencyModel,
        src: &NetNode,
        dst: &NetNode,
        rng: &mut SimRng,
    ) -> SimDuration {
        let det = oracle_deterministic(m, src, dst).as_secs_f64();
        if m.jitter_frac == 0.0 {
            return SimDuration::from_secs_f64(det);
        }
        let sigma = det * m.jitter_frac;
        let drawn = rng.normal_clamped(det, sigma, det - 3.0 * sigma, det + 3.0 * sigma);
        SimDuration::from_secs_f64(drawn.max(det * 0.5))
    }

    #[test]
    fn delay_grows_with_distance() {
        let m = LatencyModel::default();
        let a = node(0, 33.7, -84.4, 0);
        let near = node(1, 33.8, -84.3, 0);
        let far = node(2, 35.7, 139.7, 0);
        assert!(det(&m, &a, &far) > det(&m, &a, &near));
    }

    #[test]
    fn atlanta_tokyo_delay_plausible() {
        let m = LatencyModel { jitter_frac: 0.0, ..LatencyModel::default() };
        let a = node(0, 33.749, -84.388, 0);
        let t = node(1, 35.690, 139.692, 0);
        let d = det(&m, &a, &t).as_secs_f64();
        // ~11,000 km / 200,000 km/s + 10 ms base ≈ 65 ms one-way.
        assert!((0.05..0.09).contains(&d), "one-way ATL-TYO {d}s");
    }

    #[test]
    fn inter_isp_penalty_applied() {
        let m = LatencyModel::default();
        let a = node(0, 10.0, 10.0, 1);
        let same = node(1, 11.0, 10.0, 1);
        let cross = node(2, 11.0, 10.0, 2);
        let d_same = det(&m, &a, &same).as_secs_f64();
        let d_cross = det(&m, &a, &cross).as_secs_f64();
        assert!((d_cross - d_same - m.inter_isp_penalty_s).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_bounded_and_positive() {
        let m = LatencyModel::default();
        let a = node(0, 33.7, -84.4, 0);
        let b = node(1, 51.5, -0.1, 3);
        let (km, cross) = (a.distance_km(&b), a.isp() != b.isp());
        let det = m.deterministic_delay(km, cross).as_secs_f64();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let d = m.delay(km, cross, &mut rng).as_secs_f64();
            // 1 µs slack: SimDuration rounds to microseconds.
            assert!(d >= det * 0.5 - 1e-6);
            assert!(d <= det * (1.0 + 3.0 * m.jitter_frac) + 1e-6);
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = LatencyModel { jitter_frac: 0.0, ..LatencyModel::default() };
        let a = node(0, 0.0, 0.0, 0);
        let b = node(1, 10.0, 10.0, 0);
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(m.delay(a.distance_km(&b), false, &mut rng), det(&m, &a, &b));
    }

    proptest! {
        /// Handing the delay draw a precomputed distance keeps every bit:
        /// the deterministic delay, each jittered draw and the stream
        /// position after it equal the node-pair oracle's, over random
        /// points and ISPs, with and without jitter.
        #[test]
        fn prop_distance_once_matches_the_node_pair_oracle(
            (lat1, lon1) in (-90.0f64..=90.0, -180.0f64..=180.0),
            (lat2, lon2) in (-90.0f64..=90.0, -180.0f64..=180.0),
            isps in (0u16..3, 0u16..3),
            jitter_frac in prop_oneof![Just(0.0f64), 0.0f64..0.5],
            seed in 0u64..1_000_000,
        ) {
            let m = LatencyModel { jitter_frac, ..LatencyModel::default() };
            let (src, dst) = (node(0, lat1, lon1, isps.0), node(1, lat2, lon2, isps.1));
            let km = src.distance_km(&dst);
            let cross = src.isp() != dst.isp();
            prop_assert_eq!(km.to_bits(), src.location().distance_km(&dst.location()).to_bits());
            prop_assert_eq!(m.deterministic_delay(km, cross), oracle_deterministic(&m, &src, &dst));
            let (mut rng, mut oracle) = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
            for _ in 0..8 {
                prop_assert_eq!(m.delay(km, cross, &mut rng), oracle_delay(&m, &src, &dst, &mut oracle));
            }
            prop_assert_eq!(rng.uniform_f64().to_bits(), oracle.uniform_f64().to_bits());
        }
    }
}
