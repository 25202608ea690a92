//! Traffic accounting.
//!
//! Three cost metrics from the paper:
//!
//! * **traffic cost, km·KB** (§4.3, following the paper's reference \[41\]):
//!   every delivered packet is charged `distance × size`;
//! * **message counts** split into *update* and *light* messages (§5.3);
//! * **network load, km** (§5.3, Fig. 23): total transmission distance per
//!   message class.

use crate::packet::{Packet, PacketKind, PACKET_KINDS};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use serde::{Deserialize, Serialize};

/// Accumulated traffic statistics. Message counts are kept per kind only;
/// the update, light and total counts are their sums.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    km_kb: f64,
    update_km: f64,
    light_km: f64,
    inter_isp_messages: u64,
    inter_isp_km_kb: f64,
    /// Message counts indexed by `PacketKind as usize`.
    by_kind: [u64; PACKET_KINDS],
}

impl TrafficStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records a delivered packet that travelled `distance_km`, noting
    /// whether it crossed an ISP boundary (inter-ISP transit is the costly
    /// traffic class the paper's reference \[38\] prices; HAT's proximity
    /// clusters exist to avoid it).
    ///
    /// # Panics
    ///
    /// Panics if `distance_km` is negative or non-finite.
    pub fn record_with_isp(&mut self, packet: &Packet, distance_km: f64, crosses_isp: bool) {
        assert!(distance_km.is_finite() && distance_km >= 0.0, "bad distance: {distance_km}");
        self.km_kb += distance_km * packet.size_kb;
        if crosses_isp {
            self.inter_isp_messages += 1;
            self.inter_isp_km_kb += distance_km * packet.size_kb;
        }
        if packet.kind.is_update() {
            self.update_km += distance_km;
        } else {
            self.light_km += distance_km;
        }
        self.by_kind[packet.kind as usize] += 1;
    }

    /// Total traffic cost in km·KB (paper Fig. 16/17 metric).
    pub fn km_kb(&self) -> f64 {
        self.km_kb
    }

    /// Number of update (content-carrying) messages (paper Fig. 22 metric).
    pub fn update_messages(&self) -> u64 {
        self.count_where(PacketKind::is_update)
    }

    /// Number of light (control) messages.
    pub fn light_messages(&self) -> u64 {
        self.count_where(PacketKind::is_light)
    }

    /// Total messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Messages of the kinds `class` admits.
    fn count_where(&self, class: fn(PacketKind) -> bool) -> u64 {
        PacketKind::ALL.into_iter().filter(|&k| class(k)).map(|k| self.count_of(k)).sum()
    }

    /// Kilometres travelled by update messages (paper Fig. 23 metric).
    pub fn update_km(&self) -> f64 {
        self.update_km
    }

    /// Kilometres travelled by light messages (paper Fig. 23 metric).
    pub fn light_km(&self) -> f64 {
        self.light_km
    }

    /// Messages that crossed an ISP boundary.
    pub fn inter_isp_messages(&self) -> u64 {
        self.inter_isp_messages
    }

    /// km·KB of traffic that crossed an ISP boundary (transit cost proxy).
    pub fn inter_isp_km_kb(&self) -> f64 {
        self.inter_isp_km_kb
    }

    /// Fraction of the total km·KB that crossed an ISP boundary.
    ///
    /// Note this is volume-weighted: a scheme that eliminates cheap
    /// short-haul traffic can *raise* its fraction while lowering its
    /// absolute transit cost. Compare [`TrafficStats::inter_isp_km_kb`]
    /// or [`TrafficStats::inter_isp_message_fraction`] for cost claims.
    pub fn inter_isp_fraction(&self) -> f64 {
        if self.km_kb <= 0.0 {
            0.0
        } else {
            self.inter_isp_km_kb / self.km_kb
        }
    }

    /// Fraction of messages that crossed an ISP boundary.
    pub fn inter_isp_message_fraction(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            self.inter_isp_messages as f64 / total as f64
        }
    }

    /// Count of messages of one protocol kind.
    pub fn count_of(&self, kind: PacketKind) -> u64 {
        self.by_kind[kind as usize]
    }

    /// Walks the accumulator as checkpoint state. Kind counts travel as
    /// `(name, count)` pairs, non-zero kinds only, in name order; reading
    /// rejects an unknown, repeated or out-of-order name.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.f64("traffic_km_kb", &mut self.km_kb)?;
        c.f64("traffic_update_km", &mut self.update_km)?;
        c.f64("traffic_light_km", &mut self.light_km)?;
        c.u64("traffic_inter_isp_messages", &mut self.inter_isp_messages)?;
        c.f64("traffic_inter_isp_km_kb", &mut self.inter_isp_km_kb)?;
        let mut named: Vec<(String, u64)> = PacketKind::ALL
            .iter()
            .filter(|&&k| self.by_kind[k as usize] > 0)
            .map(|&k| (k.name().to_owned(), self.by_kind[k as usize]))
            .collect();
        named.sort_unstable();
        c.seq("traffic_kinds", &mut named, |(kind, count), c| {
            c.str("traffic_kind", kind)?;
            c.u64("traffic_kind_count", count)
        })?;
        if c.is_reading() {
            self.by_kind = [0; PACKET_KINDS];
            for (i, (name, count)) in named.iter().enumerate() {
                if i > 0 && named[i - 1].0 >= *name {
                    return Err(CkptError(format!(
                        "traffic kind {name:?} repeated or out of order"
                    )));
                }
                let kind = PacketKind::ALL
                    .into_iter()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| CkptError(format!("unknown traffic kind {name:?}")))?;
                self.by_kind[kind as usize] = *count;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn update(size: f64) -> Packet {
        Packet::update(NodeId(0), NodeId(1), size)
    }

    #[test]
    fn km_kb_accumulates() {
        let mut t = TrafficStats::new();
        t.record_with_isp(&update(2.0), 100.0, false);
        t.record_with_isp(&update(3.0), 10.0, false);
        assert!((t.km_kb() - 230.0).abs() < 1e-9);
    }

    #[test]
    fn classification_counts() {
        let mut t = TrafficStats::new();
        t.record_with_isp(&update(1.0), 50.0, false);
        t.record_with_isp(&Packet::poll(NodeId(0), NodeId(1)), 50.0, false);
        t.record_with_isp(&Packet::invalidation(NodeId(1), NodeId(0)), 50.0, false);
        assert_eq!(t.update_messages(), 1);
        assert_eq!(t.light_messages(), 2);
        assert_eq!(t.total_messages(), 3);
        assert_eq!(t.update_km(), 50.0);
        assert_eq!(t.light_km(), 100.0);
        assert_eq!(t.count_of(PacketKind::Poll), 1);
        assert_eq!(t.count_of(PacketKind::Update), 1);
        assert_eq!(t.count_of(PacketKind::TreeMaintenance), 0);
    }

    #[test]
    fn inter_isp_accounting() {
        let mut t = TrafficStats::new();
        t.record_with_isp(&update(2.0), 100.0, true);
        t.record_with_isp(&update(3.0), 100.0, false);
        assert_eq!(t.inter_isp_messages(), 1);
        assert!((t.inter_isp_km_kb() - 200.0).abs() < 1e-9);
        assert!((t.inter_isp_fraction() - 200.0 / 500.0).abs() < 1e-9);
        t.record_with_isp(&update(1.0), 50.0, true);
        assert_eq!(t.inter_isp_messages(), 2);
        assert!((t.inter_isp_km_kb() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_inter_isp_fraction() {
        assert_eq!(TrafficStats::new().inter_isp_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad distance")]
    fn negative_distance_rejected() {
        TrafficStats::new().record_with_isp(&update(1.0), -1.0, false);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let mut t = TrafficStats::new();
        t.record_with_isp(&update(2.5), 123.456, true);
        t.record_with_isp(&Packet::poll(NodeId(0), NodeId(1)), 7.0, false);
        t.record_with_isp(&Packet::invalidation(NodeId(1), NodeId(0)), 0.125, false);
        let text = Ckpt::write("test", |c| t.persist(c));
        let mut restored = TrafficStats::new();
        Ckpt::read(&text, "test", |c| restored.persist(c)).unwrap();
        assert_eq!(restored, t);
        assert_eq!(restored.km_kb().to_bits(), t.km_kb().to_bits());
        // Kinds are stored by name, non-zero only, in name order.
        assert!(text.contains(
            "traffic_kinds=3\ntraffic_kind=invalidation\ntraffic_kind_count=1\n\
             traffic_kind=poll\ntraffic_kind_count=1\ntraffic_kind=update\ntraffic_kind_count=1\n"
        ));
        for (from, to) in [
            ("traffic_kind=poll\n", "traffic_kind=junk\n"),
            ("traffic_kind=poll\n", "traffic_kind=invalidation\n"),
            ("traffic_kind=poll\n", "traffic_kind=ack\n"),
        ] {
            let tampered = text.replacen(from, to, 1);
            let mut junk = TrafficStats::new();
            assert!(Ckpt::read(&tampered, "test", |c| junk.persist(c)).is_err(), "{to:?}");
        }
    }
}
