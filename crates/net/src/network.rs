//! The network facade: nodes + uplinks + latency + traffic accounting.

use crate::fault::{FaultDecision, FaultPlane};
use crate::latency::LatencyModel;
use crate::node::{NetNode, NodeId};
use crate::packet::Packet;
use crate::traffic::TrafficStats;
use crate::uplink::Uplink;
use cdnc_geo::{GeoPoint, IspId, World};
use cdnc_obs::{Fate, SendRecord};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{SimDuration, SimRng, SimTime};

/// Static configuration of a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// One-way latency model.
    pub latency: LatencyModel,
    /// Uplink bandwidth of every node, KB/s. Default 12 500 KB/s (~100 Mb/s),
    /// a typical well-connected host.
    pub uplink_kb_per_s: f64,
    /// Per-packet sender processing time. This is the constant that makes a
    /// provider serving N unicast destinations take Θ(N) to drain its queue
    /// (paper Figs. 19–20).
    pub processing: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: LatencyModel::default(),
            uplink_kb_per_s: 12_500.0,
            processing: SimDuration::from_millis(2),
        }
    }
}

/// A simulated network: delivers packets with queueing + propagation delay
/// and accounts traffic. Pure transport: each send returns what happened to
/// the packet ([`Sent`]) and the caller observes it.
///
/// # Examples
///
/// ```
/// use cdnc_geo::{GeoPoint, IspId};
/// use cdnc_net::{Network, NetworkConfig, Packet};
/// use cdnc_simcore::SimTime;
///
/// let mut net = Network::new(NetworkConfig::default(), 1);
/// let a = net.add_node(GeoPoint::new(33.7, -84.4).unwrap(), IspId(0));
/// let b = net.add_node(GeoPoint::new(51.5, -0.1).unwrap(), IspId(1));
/// let arrival = net.send(SimTime::ZERO, &Packet::update(a, b, 1.0)).arrival;
/// assert!(arrival.as_secs_f64() > 0.03, "transatlantic hop takes real time");
/// assert_eq!(net.traffic().update_messages(), 1);
/// ```
#[derive(Debug)]
pub struct Network {
    nodes: Vec<NetNode>,
    uplinks: Vec<Uplink>,
    config: NetworkConfig,
    traffic: TrafficStats,
    rng: SimRng,
    /// Behavioural fault injection; `None` (the default) leaves the send
    /// path untouched. See [`Network::set_fault_plane`].
    faults: Option<FaultPlane>,
}

/// What the network did with one packet: its wait at the sender's uplink,
/// its arrival, and the fault plane's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// The queueing delay the packet met at its sender's uplink.
    pub queue_delay: SimDuration,
    /// The delivery instant before any fault-plane delay.
    pub arrival: SimTime,
    /// The fault plane's verdict: [`FaultDecision::CLEAN`] for a send that
    /// bypassed the plane or met none.
    pub fault: FaultDecision,
}

impl Sent {
    /// Each delivered copy's instant: none for a dropped packet, then the
    /// (possibly delayed) original and the in-network duplicate trailing it.
    pub fn deliveries(&self) -> impl Iterator<Item = SimTime> {
        let (first, duplicate) = match self.fault {
            FaultDecision::Drop { .. } => (None, None),
            FaultDecision::Deliver { extra, duplicate_extra } => {
                let first = self.arrival + extra;
                (Some(first), duplicate_extra.map(|lag| first + lag))
            }
        };
        first.into_iter().chain(duplicate)
    }

    /// This send of `packet` at `now` as the event hook records it.
    pub fn record(&self, now: SimTime, packet: &Packet) -> SendRecord {
        let fate = match self.fault {
            FaultDecision::Drop { partitioned } => Fate::Dropped { partitioned },
            FaultDecision::Deliver { extra, duplicate_extra } => {
                Fate::Delivered { delayed: !extra.is_zero(), duplicated: duplicate_extra.is_some() }
            }
        };
        SendRecord {
            t_us: now.as_micros(),
            kind: packet.kind as usize,
            src: packet.src.0,
            dst: packet.dst.0,
            size_kb: packet.size_kb,
            queue_delay_s: self.queue_delay.as_secs_f64(),
            arrival_us: self.arrival.as_micros(),
            fate,
        }
    }
}

impl Network {
    /// Creates an empty network.
    ///
    /// # Panics
    ///
    /// Panics if `config.uplink_kb_per_s` is not strictly positive and
    /// finite.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        let kb_per_s = config.uplink_kb_per_s;
        assert!(kb_per_s > 0.0 && kb_per_s.is_finite(), "bad bandwidth: {kb_per_s}");
        Network {
            nodes: Vec::new(),
            uplinks: Vec::new(),
            config,
            traffic: TrafficStats::new(),
            rng: SimRng::seed_from_u64(seed ^ cdnc_simcore::stream_tag::NETWORK),
            faults: None,
        }
    }

    /// Attaches a [`FaultPlane`]; subsequent [`Network::send_faulted`] calls
    /// consult it. Behavioural — only wire this when the run is meant to
    /// inject faults.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.faults = Some(plane);
    }

    /// Creates a network with one node per [`World`] node, in world order.
    pub fn from_world(world: &World, config: NetworkConfig, seed: u64) -> Self {
        let mut net = Network::new(config, seed);
        for node in world.nodes() {
            net.add_node(node.location, node.isp);
        }
        net
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, location: GeoPoint, isp: IspId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NetNode::new(id, location, isp));
        self.uplinks.push(Uplink::default());
        id
    }

    /// The node record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &NetNode {
        &self.nodes[id.index()]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[NetNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Great-circle distance between two nodes, km.
    pub fn distance_km(&self, a: NodeId, b: NodeId) -> f64 {
        self.node(a).distance_km(self.node(b))
    }

    /// Sends `packet` at `now`, bypassing any fault plane; returns what
    /// happened to it.
    ///
    /// The packet first drains through the sender's FIFO uplink
    /// (processing + serialisation behind any backlog) and then experiences
    /// a jittered one-way propagation delay. Traffic is recorded at send.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn send(&mut self, now: SimTime, packet: &Packet) -> Sent {
        self.transmit(now, packet, FaultDecision::CLEAN)
    }

    /// Sends `packet` through the attached fault plane, which is consulted
    /// before the latency draw; without a plane this is exactly
    /// [`Network::send`]. [`Sent::deliveries`] lists the copies that
    /// arrive: none when the packet is dropped, two when the network
    /// duplicates it.
    ///
    /// Traffic and the sender's uplink are charged once per call — a
    /// dropped packet still left its sender, and a duplicate is copied
    /// *inside* the network, not resent.
    pub fn send_faulted(&mut self, now: SimTime, packet: &Packet) -> Sent {
        let (src, dst) = (packet.src, packet.dst);
        let isp = |node: NodeId| self.nodes[node.index()].isp();
        let fault = match &mut self.faults {
            None => FaultDecision::CLEAN,
            Some(plane) => plane.decide(now, src, dst, isp(src), isp(dst), packet.size_kb),
        };
        self.transmit(now, packet, fault)
    }

    /// Charges `packet` to traffic and its sender's uplink and draws its
    /// latency over the distance it computed once; `fault` only rides along
    /// into the result.
    fn transmit(&mut self, now: SimTime, packet: &Packet, fault: FaultDecision) -> Sent {
        let _prof = cdnc_obs::profile::scope(cdnc_obs::profile::Subsystem::Net);
        let (distance, crosses_isp) = self.path(packet.src, packet.dst);
        self.traffic.record_with_isp(packet, distance, crosses_isp);
        let uplink = &mut self.uplinks[packet.src.index()];
        let queue_delay = uplink.queueing_delay(now);
        let departed = uplink.transmit(now, packet.size_kb, &self.config);
        let arrival = departed + self.config.latency.delay(distance, crosses_isp, &mut self.rng);
        Sent { queue_delay, arrival, fault }
    }

    /// The great-circle distance from `a` to `b`, km, and whether the path
    /// crosses an ISP boundary: what traffic accounting and the latency
    /// draw both need, computed once.
    fn path(&self, a: NodeId, b: NodeId) -> (f64, bool) {
        let (a, b) = (self.node(a), self.node(b));
        (a.distance_km(b), a.isp() != b.isp())
    }

    /// Accumulated traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Clears one node's uplink backlog: its queued transmissions died with
    /// it (recovery after absence, departure, rejoin).
    pub fn reset_uplink(&mut self, node: NodeId, now: SimTime) {
        self.uplinks[node.index()].reset(now);
    }

    /// Walks the network's dynamic state — the latency-jitter rng, each
    /// node's uplink backlog, traffic accounting, and the fault plane's
    /// fence and decision streams — as checkpoint state. Static structure
    /// (node attributes, latency model, uplink bandwidth and processing) is
    /// rebuilt from config by fresh construction, so reading fails if the
    /// artifact disagrees about the node count or fault-plane presence.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.rng("net_rng", &mut self.rng)?;
        c.fixed("net_nodes", self.nodes.len())?;
        for uplink in &mut self.uplinks {
            uplink.persist(c)?;
        }
        self.traffic.persist(c)?;
        c.section("net_has_faults", self.faults.as_mut(), |plane, c| plane.persist(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketKind, LIGHT_PACKET_KB, PACKET_NAMES};
    use cdnc_geo::WorldBuilder;
    use cdnc_obs::{EventHook, Registry};

    fn two_node_net() -> (Network, NodeId, NodeId) {
        two_node_net_at(NetworkConfig::default().uplink_kb_per_s)
    }

    /// [`two_node_net`] with every uplink at `kb_per_s`.
    fn two_node_net_at(kb_per_s: f64) -> (Network, NodeId, NodeId) {
        let config = NetworkConfig { uplink_kb_per_s: kb_per_s, ..NetworkConfig::default() };
        let mut net = Network::new(config, 9);
        let a = net.add_node(GeoPoint::new(33.7, -84.4).unwrap(), IspId(0));
        let b = net.add_node(GeoPoint::new(34.0, -118.2).unwrap(), IspId(1));
        (net, a, b)
    }

    /// The hook a simulation on `reg` records its packets into.
    fn hook(reg: &Registry) -> EventHook {
        EventHook::new(reg, &[], &PACKET_NAMES, 0)
    }

    /// Sends `p` at `now` through the fault plane, recording it into `hook`.
    fn observed(net: &mut Network, hook: &mut EventHook, now: SimTime, p: &Packet) -> Sent {
        let sent = net.send_faulted(now, p);
        hook.send(|| sent.record(now, p));
        sent
    }

    #[test]
    fn from_world_preserves_order_and_attrs() {
        let world = WorldBuilder::new(25).seed(4).build();
        let net = Network::from_world(&world, NetworkConfig::default(), 0);
        assert_eq!(net.len(), 25);
        for (i, wn) in world.nodes().iter().enumerate() {
            let n = net.node(NodeId(i as u32));
            assert_eq!(n.location(), wn.location);
            assert_eq!(n.isp(), wn.isp);
        }
    }

    #[test]
    fn send_delivers_later_than_now() {
        let (mut net, a, b) = two_node_net();
        let t = SimTime::from_secs(5);
        let arrival = net.send(t, &Packet::update(a, b, 1.0)).arrival;
        assert!(arrival > t);
        // Cross-country: at least the ~15 ms propagation plus base.
        assert!(arrival.since(t).as_secs_f64() > 0.02);
    }

    #[test]
    fn burst_queues_at_sender() {
        let (mut net, a, b) = two_node_net();
        let t = SimTime::ZERO;
        let first = net.send(t, &Packet::update(a, b, 100.0)).arrival;
        let mut last = first;
        for _ in 0..49 {
            last = net.send(t, &Packet::update(a, b, 100.0)).arrival;
        }
        // 50 × (2 ms + 8 ms tx) of serialisation — the 50th packet is ≥ 400 ms
        // behind the 1st even before jitter.
        assert!(
            last.since(t).as_secs_f64() - first.since(t).as_secs_f64() > 0.3,
            "queueing must spread a burst: first {first}, last {last}"
        );
    }

    #[test]
    fn obs_metrics_track_sends_and_backlog() {
        let reg = Registry::enabled();
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        for _ in 0..10 {
            observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 100.0));
        }
        hook.close(0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net_packets_enqueued"), 10);
        let delays = snap.histogram("net_uplink_queue_delay_s").unwrap();
        assert_eq!(delays.count, 10);
        // The first packet saw an idle uplink; the last queued behind nine.
        assert_eq!(delays.min, 0.0);
        assert!(delays.max > 0.05, "burst backlog {}", delays.max);
        let backlog = snap.gauges.iter().find(|(n, _)| n == "net_uplink_backlog_ms").unwrap().1;
        assert!(backlog.high_water >= 50, "high water {}", backlog.high_water);
    }

    #[test]
    fn uplink_bytes_counted_and_series_sources_registered() {
        let reg = Registry::enabled();
        reg.enable_series(1000);
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
        observed(&mut net, &mut hook, SimTime::ZERO, &Packet::poll(b, a));
        hook.close(0);
        assert_eq!(reg.snapshot().counter("net_uplink_bytes"), 2048 + 1024);
        reg.sampler().tick(0);
        let series = reg.series_snapshot();
        assert!(series.get("net_uplink_bytes", cdnc_obs::SeriesKind::Rate).is_some());
        assert!(series.get("net_packets_enqueued", cdnc_obs::SeriesKind::Rate).is_some());
        assert!(series.get("net_uplink_backlog_ms", cdnc_obs::SeriesKind::Gauge).is_some());
    }

    #[test]
    fn per_kind_accounting_requires_profiling_arming() {
        let reg = Registry::enabled();
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
        hook.close(0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim_msgs_update"), 1, "per-kind counts are always armed");
        assert_eq!(snap.counter("net_bytes_update"), 0, "byte probes stay dark without profiling");
        assert!(snap.gauges.iter().all(|(n, _)| n != "net_inflight_bytes"));
    }

    #[test]
    fn per_kind_accounting_tracks_sends_and_deliveries() {
        let reg = Registry::enabled();
        reg.enable_profiling();
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
        observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
        observed(&mut net, &mut hook, SimTime::ZERO, &Packet::poll(b, a));
        hook.close(0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim_msgs_update"), 2);
        assert_eq!(snap.counter("net_bytes_update"), 2 * 2048);
        assert_eq!(snap.counter("sim_msgs_poll"), 1);
        assert_eq!(snap.counter("net_bytes_poll"), 1024);
        assert_eq!(snap.counter("sim_msgs_ack"), 0);
        let inflight = snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").unwrap().1;
        assert_eq!(inflight.value, 2 * 2048 + 1024);
        // Deliver the poll and one update: levels fall, high water stays.
        hook.deliver(PacketKind::Poll as usize, LIGHT_PACKET_KB);
        hook.deliver(PacketKind::Update as usize, 2.0);
        hook.close(0);
        let snap = reg.snapshot();
        let inflight = snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").unwrap().1;
        assert_eq!(inflight.value, 2048);
        assert_eq!(inflight.high_water, 2 * 2048 + 1024);
        let pkts = snap.gauges.iter().find(|(n, _)| n == "sim_inflight_update").unwrap().1;
        assert_eq!((pkts.value, pkts.high_water), (1, 2));
    }

    #[test]
    fn dropped_and_duplicated_packets_balance_inflight() {
        let reg = Registry::enabled();
        reg.enable_profiling();
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        let cfg = crate::FaultConfig { loss_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        let sent = observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
        assert_eq!(sent.deliveries().count(), 0);
        hook.close(0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim_msgs_update"), 1, "the drop still left the sender");
        for name in ["net_inflight_bytes", "sim_inflight_update"] {
            let inflight = snap.gauges.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(inflight.high_water, 0, "{name}: a dropped packet is never in flight");
        }

        let cfg = crate::FaultConfig { dup_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        let sent = observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
        assert_eq!(sent.deliveries().count(), 2);
        for _ in sent.deliveries() {
            hook.deliver(PacketKind::Update as usize, 2.0);
        }
        hook.close(0);
        let snap = reg.snapshot();
        let inflight = snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").unwrap().1;
        assert_eq!(inflight.value, 0, "both copies of a duplicate retire one in-flight slot");
    }

    #[test]
    fn obs_does_not_change_delivery() {
        let (mut plain, a, b) = two_node_net();
        let (mut wired, _, _) = two_node_net();
        let mut hook = hook(&Registry::enabled());
        for _ in 0..5 {
            let p = Packet::update(a, b, 10.0);
            assert_eq!(
                plain.send(SimTime::ZERO, &p),
                observed(&mut wired, &mut hook, SimTime::ZERO, &p)
            );
        }
    }

    #[test]
    fn traffic_recorded_per_send() {
        let (mut net, a, b) = two_node_net();
        net.send(SimTime::ZERO, &Packet::update(a, b, 2.0));
        net.send(SimTime::ZERO, &Packet::poll(b, a));
        assert_eq!(net.traffic().update_messages(), 1);
        assert_eq!(net.traffic().light_messages(), 1);
        let d = net.distance_km(a, b);
        assert!((net.traffic().km_kb() - (2.0 * d + 1.0 * d)).abs() < 1e-6);
    }

    #[test]
    fn provider_uplink_override() {
        let (mut net, a, b) = two_node_net_at(1.0); // 1 KB/s: a 10 KB packet takes 10 s
        let arrival = net.send(SimTime::ZERO, &Packet::update(a, b, 10.0)).arrival;
        assert!(arrival.as_secs_f64() > 9.0);
    }

    #[test]
    fn reset_uplink_clears_backlog() {
        let (mut net, a, b) = two_node_net_at(1.0);
        net.send(SimTime::ZERO, &Packet::update(a, b, 100.0)); // 100 s backlog
                                                               // A packet's queueing delay is the backlog it met at its send.
        let probe = Packet::update(a, b, 0.0);
        assert!(net.send(SimTime::from_secs(1), &probe).queue_delay.as_secs() > 90);
        net.reset_uplink(a, SimTime::from_secs(1));
        assert_eq!(net.send(SimTime::from_secs(1), &probe).queue_delay, SimDuration::ZERO);
    }

    #[test]
    fn send_faulted_without_plane_matches_send() {
        let (mut plain, a, b) = two_node_net();
        let (mut faulted, _, _) = two_node_net();
        for _ in 0..5 {
            let p = Packet::update(a, b, 10.0);
            let arrival = plain.send(SimTime::ZERO, &p).arrival;
            let out: Vec<SimTime> = faulted.send_faulted(SimTime::ZERO, &p).deliveries().collect();
            assert_eq!(out, [arrival], "no plane: identical delivery");
        }
    }

    #[test]
    fn quiet_plane_is_transparent() {
        let (mut plain, a, b) = two_node_net();
        let (mut faulted, _, _) = two_node_net();
        faulted.set_fault_plane(crate::FaultPlane::new(crate::FaultConfig::none(), 1, 2));
        for _ in 0..5 {
            let p = Packet::update(a, b, 10.0);
            let arrival = plain.send(SimTime::ZERO, &p).arrival;
            let out: Vec<SimTime> = faulted.send_faulted(SimTime::ZERO, &p).deliveries().collect();
            assert_eq!(out, [arrival], "quiet plane: identical delivery");
        }
    }

    #[test]
    fn certain_loss_drops_but_still_charges_traffic() {
        let reg = Registry::enabled();
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        let cfg = crate::FaultConfig { loss_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        for _ in 0..4 {
            let sent = observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
            assert_eq!(sent.deliveries().count(), 0, "certain loss delivers nothing");
        }
        assert_eq!(net.traffic().update_messages(), 4, "dropped packets still left the sender");
        hook.close(0);
        assert_eq!(reg.snapshot().counter("net_fault_dropped"), 4);
        assert_eq!(reg.snapshot().counter("net_fault_partitioned"), 0);
    }

    #[test]
    fn certain_duplication_delivers_twice() {
        let reg = Registry::enabled();
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        let cfg = crate::FaultConfig { dup_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        let sent = observed(&mut net, &mut hook, SimTime::ZERO, &Packet::update(a, b, 2.0));
        let out: Vec<SimTime> = sent.deliveries().collect();
        assert_eq!(out.len(), 2);
        assert!(out[1] >= out[0], "the copy trails the original");
        assert_eq!(net.traffic().update_messages(), 1, "a duplicate is copied in-network");
        hook.close(0);
        assert_eq!(reg.snapshot().counter("net_fault_duplicated"), 1);
    }

    #[test]
    fn partition_window_drops_and_tags_the_trace() {
        let reg = Registry::enabled();
        let mut hook = hook(&reg);
        let (mut net, a, b) = two_node_net();
        let cfg = crate::FaultConfig {
            link_partitions: vec![crate::LinkPartition {
                a,
                b,
                from: SimTime::ZERO,
                until: SimTime::from_secs(10),
            }],
            ..crate::FaultConfig::none()
        };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        let p = Packet::update(a, b, 2.0);
        let sent = observed(&mut net, &mut hook, SimTime::from_secs(5), &p);
        assert_eq!(sent.fault, FaultDecision::Drop { partitioned: true });
        assert_eq!(
            sent.record(SimTime::from_secs(5), &p).fate,
            Fate::Dropped { partitioned: true }
        );
        assert_eq!(sent.deliveries().count(), 0);
        hook.close(0);
        assert_eq!(reg.snapshot().counter("net_fault_partitioned"), 1);
        // After the window the same link delivers.
        assert_eq!(net.send_faulted(SimTime::from_secs(10), &p).deliveries().count(), 1);
    }

    #[test]
    fn checkpoint_round_trip_resumes_deliveries_exactly() {
        let (mut net, a, b) = two_node_net();
        net.set_fault_plane(crate::FaultPlane::new(crate::FaultConfig::at_intensity(0.5), 9, 2));
        for i in 0..30 {
            net.send_faulted(SimTime::from_secs(i), &Packet::update(a, b, 5.0));
        }
        let text = Ckpt::write("test", |c| net.persist(c));
        // Fresh construction with the same parameters, then restore.
        let (mut restored, _, _) = two_node_net();
        restored.set_fault_plane(crate::FaultPlane::new(
            crate::FaultConfig::at_intensity(0.5),
            9,
            2,
        ));
        Ckpt::read(&text, "test", |c| restored.persist(c)).unwrap();
        assert_eq!(restored.traffic(), net.traffic());
        for i in 30..60 {
            let p = Packet::update(a, b, 5.0);
            let t = SimTime::from_secs(i);
            let expect = net.send_faulted(t, &p);
            let got = restored.send_faulted(t, &p);
            assert_eq!(
                got.deliveries().collect::<Vec<_>>(),
                expect.deliveries().collect::<Vec<_>>(),
                "restored network diverged at send {i}"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_mismatched_fault_presence() {
        let (mut net, _, _) = two_node_net();
        let text = Ckpt::write("test", |c| net.persist(c));
        let (mut restored, _, _) = two_node_net();
        restored.set_fault_plane(crate::FaultPlane::new(crate::FaultConfig::none(), 1, 2));
        assert!(Ckpt::read(&text, "test", |c| restored.persist(c)).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let (mut net, a, b) = {
                let mut net = Network::new(NetworkConfig::default(), seed);
                let a = net.add_node(GeoPoint::new(33.7, -84.4).unwrap(), IspId(0));
                let b = net.add_node(GeoPoint::new(51.5, -0.1).unwrap(), IspId(1));
                (net, a, b)
            };
            (0..20)
                .map(|i| {
                    net.send(SimTime::from_secs(i), &Packet::update(a, b, 1.0)).arrival.as_micros()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
