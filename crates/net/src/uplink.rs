//! Sender-side uplink with FIFO transmit queue.
//!
//! Every packet a node sends occupies its uplink for
//! `processing + size/bandwidth`; packets queue behind in-flight ones. This
//! is the congestion mechanism behind the paper's scalability findings: when
//! the provider Pushes an update to every server at once, the last copy
//! departs after `N × (processing + tx)` — the queueing delay "proportional
//! to the package size and the number of children" (paper §4.5) and the
//! Incast risk (§5.1).

use crate::network::NetworkConfig;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A node's transmit uplink: the instant its FIFO backlog drains. Bandwidth
/// and per-packet processing are the [`NetworkConfig`]'s, the same for every
/// node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Uplink {
    busy_until: SimTime,
}

impl Uplink {
    /// Enqueues a `size_kb` packet at `now` on an uplink with `config`'s
    /// bandwidth and processing; returns the instant its last byte leaves
    /// the uplink (transmission complete, propagation not included).
    pub fn transmit(&mut self, now: SimTime, size_kb: f64, config: &NetworkConfig) -> SimTime {
        assert!(size_kb.is_finite() && size_kb >= 0.0, "bad size: {size_kb}");
        let start = self.busy_until.max(now);
        let tx = SimDuration::from_secs_f64(size_kb / config.uplink_kb_per_s);
        self.busy_until = start + config.processing + tx;
        self.busy_until
    }

    /// Queueing delay a packet enqueued at `now` would experience before its
    /// transmission starts.
    pub fn queueing_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Resets the uplink to idle (used when a node recovers from absence —
    /// its pending transmissions were lost).
    pub fn reset(&mut self, now: SimTime) {
        self.busy_until = now;
    }

    /// Walks the backlog as checkpoint state.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.time("net_uplink_busy_until", &mut self.busy_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn link(kb_per_s: f64, proc_ms: u64) -> NetworkConfig {
        NetworkConfig {
            uplink_kb_per_s: kb_per_s,
            processing: SimDuration::from_millis(proc_ms),
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn single_packet_timing() {
        let (mut u, cfg) = (Uplink::default(), link(1_000.0, 2)); // 1000 KB/s, 2 ms processing
        let done = u.transmit(SimTime::from_secs(10), 500.0, &cfg);
        // 500 KB at 1000 KB/s = 0.5 s, plus 2 ms.
        assert_eq!(done, SimTime::from_secs(10) + SimDuration::from_millis(502));
    }

    #[test]
    fn back_to_back_packets_queue_fifo() {
        let (mut u, cfg) = (Uplink::default(), link(1_000.0, 0));
        let t = SimTime::from_secs(0);
        let d1 = u.transmit(t, 100.0, &cfg);
        let d2 = u.transmit(t, 100.0, &cfg);
        let d3 = u.transmit(t, 100.0, &cfg);
        assert_eq!(d1, SimTime::from_millis(100));
        assert_eq!(d2, SimTime::from_millis(200));
        assert_eq!(d3, SimTime::from_millis(300));
    }

    #[test]
    fn idle_gap_does_not_accumulate() {
        let (mut u, cfg) = (Uplink::default(), link(1_000.0, 0));
        u.transmit(SimTime::ZERO, 100.0, &cfg); // busy until 0.1s
        let done = u.transmit(SimTime::from_secs(5), 100.0, &cfg);
        assert_eq!(done, SimTime::from_secs(5) + SimDuration::from_millis(100));
    }

    #[test]
    fn queueing_delay_reflects_backlog() {
        let (mut u, cfg) = (Uplink::default(), link(100.0, 0));
        let t = SimTime::ZERO;
        u.transmit(t, 100.0, &cfg); // 1 s of backlog
        assert_eq!(u.queueing_delay(t), SimDuration::from_secs(1));
        assert_eq!(u.queueing_delay(SimTime::from_secs(2)), SimDuration::ZERO);
    }

    #[test]
    fn n_pushes_scale_linearly() {
        // The Fig. 19/20 mechanism: N back-to-back pushes make the last
        // departure N × per-packet time.
        let (mut u, cfg) = (Uplink::default(), link(12_500.0, 2)); // ~100 Mbps, 2 ms processing
        let mut last = SimTime::ZERO;
        for _ in 0..170 {
            last = u.transmit(SimTime::ZERO, 1.0, &cfg);
        }
        let per_packet = 0.002 + 1.0 / 12_500.0;
        assert!((last.as_secs_f64() - 170.0 * per_packet).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_backlog() {
        let (mut u, cfg) = (Uplink::default(), link(10.0, 0));
        u.transmit(SimTime::ZERO, 1_000.0, &cfg); // busy for 100 s
        u.reset(SimTime::from_secs(1));
        assert_eq!(u.queueing_delay(SimTime::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bad bandwidth")]
    fn zero_bandwidth_rejected() {
        Network::new(link(0.0, 0), 0);
    }
}
