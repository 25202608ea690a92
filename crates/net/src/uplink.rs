//! Sender-side uplink with FIFO transmit queue.
//!
//! Every packet a node sends occupies its uplink for
//! `processing + size/bandwidth`; packets queue behind in-flight ones. This
//! is the congestion mechanism behind the paper's scalability findings: when
//! the provider Pushes an update to every server at once, the last copy
//! departs after `N × (processing + tx)` — the queueing delay "proportional
//! to the package size and the number of children" (paper §4.5) and the
//! Incast risk (§5.1).

use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A node's transmit uplink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uplink {
    bandwidth_kb_per_s: f64,
    processing: SimDuration,
    busy_until: SimTime,
    queued_packets: u64,
    queued_kb: f64,
}

impl Uplink {
    /// Creates an idle uplink.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_kb_per_s` is not strictly positive and finite.
    pub fn new(bandwidth_kb_per_s: f64, processing: SimDuration) -> Self {
        assert!(
            bandwidth_kb_per_s > 0.0 && bandwidth_kb_per_s.is_finite(),
            "bad bandwidth: {bandwidth_kb_per_s}"
        );
        Uplink {
            bandwidth_kb_per_s,
            processing,
            busy_until: SimTime::ZERO,
            queued_packets: 0,
            queued_kb: 0.0,
        }
    }

    /// Uplink bandwidth, KB/s.
    pub fn bandwidth_kb_per_s(&self) -> f64 {
        self.bandwidth_kb_per_s
    }

    /// The instant the uplink next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total packets ever enqueued.
    pub fn queued_packets(&self) -> u64 {
        self.queued_packets
    }

    /// Total KB ever enqueued.
    pub fn queued_kb(&self) -> f64 {
        self.queued_kb
    }

    /// Enqueues a `size_kb` packet at `now`; returns the instant its last
    /// byte leaves the uplink (transmission complete, propagation not
    /// included).
    pub fn transmit(&mut self, now: SimTime, size_kb: f64) -> SimTime {
        assert!(size_kb.is_finite() && size_kb >= 0.0, "bad size: {size_kb}");
        let start = self.busy_until.max(now);
        let tx = SimDuration::from_secs_f64(size_kb / self.bandwidth_kb_per_s);
        let done = start + self.processing + tx;
        self.busy_until = done;
        self.queued_packets += 1;
        self.queued_kb += size_kb;
        done
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

    /// Walks the dynamic fields as checkpoint state. Bandwidth and
    /// processing are construction parameters rebuilt from config, so a
    /// checkpoint carries only the backlog and the running totals.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.time("net_uplink_busy_until", &mut self.busy_until)?;
        c.u64("net_uplink_queued_packets", &mut self.queued_packets)?;
        c.f64("net_uplink_queued_kb", &mut self.queued_kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uplink(kbps: f64, proc_ms: u64) -> Uplink {
        Uplink::new(kbps, SimDuration::from_millis(proc_ms))
    }

    #[test]
    fn single_packet_timing() {
        let mut u = uplink(1_000.0, 2); // 1000 KB/s, 2 ms processing
        let done = u.transmit(SimTime::from_secs(10), 500.0);
        // 500 KB at 1000 KB/s = 0.5 s, plus 2 ms.
        assert_eq!(done, SimTime::from_secs(10) + SimDuration::from_millis(502));
    }

    #[test]
    fn back_to_back_packets_queue_fifo() {
        let mut u = uplink(1_000.0, 0);
        let t = SimTime::from_secs(0);
        let d1 = u.transmit(t, 100.0);
        let d2 = u.transmit(t, 100.0);
        let d3 = u.transmit(t, 100.0);
        assert_eq!(d1, SimTime::from_millis(100));
        assert_eq!(d2, SimTime::from_millis(200));
        assert_eq!(d3, SimTime::from_millis(300));
        assert_eq!(u.queued_packets(), 3);
        assert!((u.queued_kb() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_does_not_accumulate() {
        let mut u = uplink(1_000.0, 0);
        u.transmit(SimTime::ZERO, 100.0); // busy until 0.1s
        let done = u.transmit(SimTime::from_secs(5), 100.0);
        assert_eq!(done, SimTime::from_secs(5) + SimDuration::from_millis(100));
    }

    #[test]
    fn queueing_delay_reflects_backlog() {
        let mut u = uplink(100.0, 0);
        let t = SimTime::ZERO;
        u.transmit(t, 100.0); // 1 s of backlog
        assert_eq!(u.queueing_delay(t), SimDuration::from_secs(1));
        assert_eq!(u.queueing_delay(SimTime::from_secs(2)), SimDuration::ZERO);
    }

    #[test]
    fn n_pushes_scale_linearly() {
        // The Fig. 19/20 mechanism: N back-to-back pushes make the last
        // departure N × per-packet time.
        let mut u = uplink(12_500.0, 2); // ~100 Mbps, 2 ms processing
        let mut last = SimTime::ZERO;
        for _ in 0..170 {
            last = u.transmit(SimTime::ZERO, 1.0);
        }
        let per_packet = 0.002 + 1.0 / 12_500.0;
        assert!((last.as_secs_f64() - 170.0 * per_packet).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut u = uplink(10.0, 0);
        u.transmit(SimTime::ZERO, 1_000.0); // busy for 100 s
        u.reset(SimTime::from_secs(1));
        assert_eq!(u.queueing_delay(SimTime::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bad bandwidth")]
    fn zero_bandwidth_rejected() {
        Uplink::new(0.0, SimDuration::ZERO);
    }
}
