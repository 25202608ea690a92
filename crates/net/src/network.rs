//! The network facade: nodes + uplinks + latency + traffic accounting.

use crate::fault::{FaultDecision, FaultPlane};
use crate::latency::LatencyModel;
use crate::node::{NetNode, NodeId};
use crate::packet::{Packet, PacketKind, PACKET_KINDS};
use crate::traffic::TrafficStats;
use crate::uplink::Uplink;
use cdnc_geo::{GeoPoint, IspId, World};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{SimDuration, SimRng, SimTime};

/// Per wire class, indexed by `PacketKind as usize`: the sent-message
/// counter and the in-flight gauge, named as the simulator's artifacts are.
const KIND_METRICS: [(&str, &str); PACKET_KINDS] = [
    ("sim_msgs_update", "sim_inflight_update"),
    ("sim_msgs_poll", "sim_inflight_poll"),
    ("sim_msgs_poll_unchanged", "sim_inflight_poll_unchanged"),
    ("sim_msgs_invalidation", "sim_inflight_invalidation"),
    ("sim_msgs_method_switch", "sim_inflight_method_switch"),
    ("sim_msgs_tree_maintenance", "sim_inflight_tree_maintenance"),
    ("sim_msgs_user_request", "sim_inflight_user_request"),
    ("sim_msgs_user_response", "sim_inflight_user_response"),
    ("sim_msgs_ack", "sim_inflight_ack"),
    ("sim_msgs_origin_fetch", "sim_inflight_origin_fetch"),
];

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
/// and accounts traffic.
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
/// let arrival = net.send(SimTime::ZERO, &Packet::update(a, b, 1.0));
/// assert!(arrival.as_secs_f64() > 0.03, "transatlantic hop takes real time");
/// assert_eq!(net.traffic().update_messages(), 1);
/// ```
#[derive(Debug)]
pub struct Network {
    nodes: Vec<NetNode>,
    uplinks: Vec<Uplink>,
    /// Long-term liveness: `true` for a node that has *departed* the system
    /// (left or crashed and not yet rejoined). Stronger than a transient
    /// absence window — a departed node's uplink backlog died with it and
    /// senders may abandon tracked deliveries to it immediately.
    departed: Vec<bool>,
    config: NetworkConfig,
    traffic: TrafficStats,
    rng: SimRng,
    /// Behavioural fault injection; `None` (the default) leaves the send
    /// path untouched. See [`Network::set_fault_plane`].
    faults: Option<FaultPlane>,
    /// Observation-only instrumentation; see [`Network::set_obs`].
    obs_enqueued: cdnc_obs::Counter,
    obs_backlog: cdnc_obs::Gauge,
    obs_queue_delay: cdnc_obs::Histogram,
    obs_bytes: cdnc_obs::Counter,
    obs_tracer: cdnc_obs::Tracer,
    obs_fault_dropped: cdnc_obs::Counter,
    obs_fault_partitioned: cdnc_obs::Counter,
    obs_fault_duplicated: cdnc_obs::Counter,
    obs_fault_delayed: cdnc_obs::Counter,
    /// Per-[`PacketKind`] accounting (indexed by `kind as usize`): packets
    /// sent and packets in flight, whose high-water marks show the peak
    /// concurrent load each message class put on the network.
    obs_sent: [cdnc_obs::Counter; PACKET_KINDS],
    obs_inflight: [cdnc_obs::Gauge; PACKET_KINDS],
    /// Byte accounting per kind and in flight, armed only when the
    /// registry has profiling enabled.
    obs_kind_bytes: [cdnc_obs::Counter; PACKET_KINDS],
    obs_inflight_bytes: cdnc_obs::Gauge,
    /// Determinism audit trail: every send folds the packet's structural
    /// identity (digest gate; inert unless armed).
    obs_digest: cdnc_obs::Digest,
}

/// What [`Network::send_faulted`] delivers: each copy's delivery instant and
/// the trace context its receiver continues from. At most two copies, held
/// inline so a send allocates nothing; derefs to a slice of them.
#[derive(Debug, Clone, Copy)]
pub struct Deliveries {
    copies: [(SimTime, cdnc_obs::TraceCtx); 2],
    len: usize,
}

impl Deliveries {
    const NONE: Deliveries =
        Deliveries { copies: [(SimTime::ZERO, cdnc_obs::TraceCtx::NONE); 2], len: 0 };

    /// These deliveries plus `copy`.
    fn and(mut self, copy: (SimTime, cdnc_obs::TraceCtx)) -> Self {
        self.copies[self.len] = copy;
        self.len += 1;
        self
    }
}

impl std::ops::Deref for Deliveries {
    type Target = [(SimTime, cdnc_obs::TraceCtx)];

    fn deref(&self) -> &Self::Target {
        &self.copies[..self.len]
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            uplinks: Vec::new(),
            departed: Vec::new(),
            config,
            traffic: TrafficStats::new(),
            rng: SimRng::seed_from_u64(seed ^ cdnc_simcore::stream_tag::NETWORK),
            faults: None,
            obs_enqueued: cdnc_obs::Counter::default(),
            obs_backlog: cdnc_obs::Gauge::default(),
            obs_queue_delay: cdnc_obs::Histogram::default(),
            obs_bytes: cdnc_obs::Counter::default(),
            obs_tracer: cdnc_obs::Tracer::default(),
            obs_fault_dropped: cdnc_obs::Counter::default(),
            obs_fault_partitioned: cdnc_obs::Counter::default(),
            obs_fault_duplicated: cdnc_obs::Counter::default(),
            obs_fault_delayed: cdnc_obs::Counter::default(),
            obs_sent: std::array::from_fn(|_| cdnc_obs::Counter::default()),
            obs_inflight: std::array::from_fn(|_| cdnc_obs::Gauge::default()),
            obs_kind_bytes: std::array::from_fn(|_| cdnc_obs::Counter::default()),
            obs_inflight_bytes: cdnc_obs::Gauge::default(),
            obs_digest: cdnc_obs::Digest::default(),
        }
    }

    /// Attaches a [`FaultPlane`]; subsequent [`Network::send_faulted`] calls
    /// consult it. Behavioural — only wire this when the run is meant to
    /// inject faults.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.faults = Some(plane);
    }

    /// The attached fault plane, if any.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.faults.as_ref()
    }

    /// Attaches metrics: `net_packets_enqueued` (counter),
    /// `net_uplink_backlog_ms` (gauge whose high-water mark is the deepest
    /// sender backlog any packet queued behind, in milliseconds), and
    /// `net_uplink_queue_delay_s` (histogram of the queueing delay each
    /// packet faced at its sender's uplink, seconds), and
    /// `net_uplink_bytes` (counter of bytes offered to uplinks).
    /// Observation-only: never read back into delivery times.
    /// The causal tracer (if enabled on the registry) rides along too:
    /// [`Network::send_traced`] records each delivery as a hop span.
    /// Per [`PacketKind`], `sim_msgs_<kind>` counts packets sent and
    /// `sim_inflight_<kind>` those not yet retired by
    /// [`Network::mark_delivered`]. If series sampling is enabled, the
    /// gauges become sampled series and the counters per-second rate series
    /// (packets/s and the uplink traffic rate in bytes/s).
    ///
    /// When the registry has **profiling** enabled
    /// ([`cdnc_obs::Registry::enable_profiling`]) the network additionally
    /// arms byte probes: `net_bytes_<kind>` counters and the
    /// `net_inflight_bytes` gauge.
    pub fn set_obs(&mut self, registry: &cdnc_obs::Registry) {
        self.obs_enqueued = registry.counter("net_packets_enqueued");
        self.obs_backlog = registry.gauge("net_uplink_backlog_ms");
        self.obs_queue_delay = registry.histogram("net_uplink_queue_delay_s");
        self.obs_bytes = registry.counter("net_uplink_bytes");
        self.obs_tracer = registry.tracer();
        self.obs_fault_dropped = registry.counter("net_fault_dropped");
        self.obs_fault_partitioned = registry.counter("net_fault_partitioned");
        self.obs_fault_duplicated = registry.counter("net_fault_duplicated");
        self.obs_fault_delayed = registry.counter("net_fault_delayed");
        registry.series_gauge("net_uplink_backlog_ms");
        registry.series_rate("net_packets_enqueued");
        registry.series_rate("net_uplink_bytes");
        for (k, (sent, inflight)) in KIND_METRICS.into_iter().enumerate() {
            self.obs_sent[k] = registry.counter(sent);
            self.obs_inflight[k] = registry.gauge(inflight);
            registry.series_rate(sent);
            registry.series_gauge(inflight);
        }
        if registry.profiling_enabled() {
            for kind in PacketKind::ALL {
                self.obs_kind_bytes[kind as usize] =
                    registry.counter(&format!("net_bytes_{}", kind.metric_suffix()));
            }
            self.obs_inflight_bytes = registry.gauge("net_inflight_bytes");
        }
        self.obs_digest = registry.digest();
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
        self.uplinks.push(Uplink::new(self.config.uplink_kb_per_s, self.config.processing));
        self.departed.push(false);
        id
    }

    /// Overrides one node's uplink bandwidth (e.g. a beefier provider).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `kb_per_s` invalid.
    pub fn set_uplink(&mut self, node: NodeId, kb_per_s: f64) {
        self.uplinks[node.index()] = Uplink::new(kb_per_s, self.config.processing);
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

    /// Sends `packet` at `now`; returns its delivery instant.
    ///
    /// The packet first drains through the sender's FIFO uplink
    /// (processing + serialisation behind any backlog) and then experiences
    /// a jittered one-way propagation delay. Traffic is recorded at send.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn send(&mut self, now: SimTime, packet: &Packet) -> SimTime {
        self.send_copies(now, packet, 1)
    }

    /// [`Network::send`], putting `copies` of the packet in flight: none
    /// for a packet dropped in transit, two for one the network duplicates.
    fn send_copies(&mut self, now: SimTime, packet: &Packet, copies: u64) -> SimTime {
        let _prof = cdnc_obs::profile::scope(cdnc_obs::profile::Subsystem::Net);
        let distance = self.distance_km(packet.src, packet.dst);
        let crosses_isp = self.node(packet.src).isp() != self.node(packet.dst).isp();
        self.traffic.record_with_isp(packet, distance, crosses_isp);
        let queue_delay = self.uplinks[packet.src.index()].queueing_delay(now);
        let bytes = (packet.size_kb * 1024.0) as u64;
        self.obs_enqueued.inc();
        self.obs_bytes.add(bytes);
        self.obs_queue_delay.record(queue_delay.as_secs_f64());
        self.obs_backlog.set((queue_delay.as_secs_f64() * 1e3) as u64);
        let k = packet.kind as usize;
        self.obs_sent[k].inc();
        self.obs_kind_bytes[k].add(bytes);
        self.obs_inflight[k].add(copies);
        self.obs_inflight_bytes.add(bytes * copies);
        let departed = self.uplinks[packet.src.index()].transmit(now, packet.size_kb);
        let (src, dst) = (&self.nodes[packet.src.index()], &self.nodes[packet.dst.index()]);
        let arrival = departed + self.config.latency.delay(src, dst, &mut self.rng);
        // Structural identity only: kind, endpoints, and the (deterministic)
        // delivery instant — the delay comes from the seeded stream.
        self.obs_digest.fold(
            packet.kind.name(),
            packet.src.0,
            now.as_micros(),
            &[packet.dst.0 as u64, arrival.as_micros()],
        );
        arrival
    }

    /// Marks one previously sent packet of `kind` / `size_kb` as delivered
    /// (or dead at its receiver), retiring it from the in-flight gauges
    /// armed by [`Network::set_obs`]. The simulation calls this when it
    /// processes the arrival event; a packet [`Network::send_faulted`]
    /// drops never counts as in flight. Observation-only — a no-op without
    /// armed instruments.
    pub fn mark_delivered(&mut self, kind: PacketKind, size_kb: f64) {
        self.obs_inflight[kind as usize].sub(1);
        self.obs_inflight_bytes.sub((size_kb * 1024.0) as u64);
    }

    /// Like [`Network::send`], but when `ctx` belongs to a live trace the
    /// delivery is also recorded as a causal hop span labelled with the
    /// packet's wire name. Returns the delivery instant and the context the
    /// receiver should continue the trace from (`ctx` unchanged when the
    /// tracer is off or the context inactive — observation only).
    pub fn send_traced(
        &mut self,
        now: SimTime,
        packet: &Packet,
        ctx: cdnc_obs::TraceCtx,
    ) -> (SimTime, cdnc_obs::TraceCtx) {
        let arrival = self.send(now, packet);
        let hop = self.obs_tracer.hop(
            ctx,
            packet.kind.name(),
            packet.src.0,
            packet.dst.0,
            now.as_micros(),
            arrival.as_micros(),
        );
        (arrival, hop)
    }

    /// Sends `packet` through the attached fault plane. Returns the
    /// delivery instants paired with the contexts receivers continue their
    /// traces from: none when the packet is dropped, one for a clean or
    /// delayed delivery, two when the network duplicates it. Without a
    /// fault plane this is exactly [`Network::send_traced`].
    ///
    /// Traffic and the sender's uplink are charged once per call — a
    /// dropped packet still left its sender, and a duplicate is copied
    /// *inside* the network, not resent. Fault outcomes are tagged on the
    /// trace: a drop records a `Lost` child labelled `fault-drop`, the
    /// trailing copy of a duplicate rides a hop labelled `fault-dup`.
    pub fn send_faulted(
        &mut self,
        now: SimTime,
        packet: &Packet,
        ctx: cdnc_obs::TraceCtx,
    ) -> Deliveries {
        if self.faults.is_none() {
            return Deliveries::NONE.and(self.send_traced(now, packet, ctx));
        }
        let src_isp = self.nodes[packet.src.index()].isp();
        let dst_isp = self.nodes[packet.dst.index()].isp();
        let decision = self.faults.as_mut().expect("fault plane present").decide(
            now,
            packet.src,
            packet.dst,
            src_isp,
            dst_isp,
            packet.size_kb,
        );
        match decision {
            FaultDecision::Drop { partitioned } => {
                // Charge the sender: the packet left and died in transit. It
                // will never see an arrival event, so it never counts as in
                // flight, not even for an instant.
                let _ = self.send_copies(now, packet, 0);
                if partitioned {
                    self.obs_fault_partitioned.inc();
                } else {
                    self.obs_fault_dropped.inc();
                }
                self.obs_tracer.child(
                    ctx,
                    cdnc_obs::SpanKind::Lost,
                    packet.dst.0,
                    now.as_micros(),
                    "fault-drop",
                );
                Deliveries::NONE
            }
            FaultDecision::Deliver { extra, duplicate_extra } => {
                let copies = 1 + u64::from(duplicate_extra.is_some());
                let arrival = self.send_copies(now, packet, copies) + extra;
                if !extra.is_zero() {
                    self.obs_fault_delayed.inc();
                }
                let hop = self.obs_tracer.hop(
                    ctx,
                    packet.kind.name(),
                    packet.src.0,
                    packet.dst.0,
                    now.as_micros(),
                    arrival.as_micros(),
                );
                let mut out = Deliveries::NONE.and((arrival, hop));
                if let Some(lag) = duplicate_extra {
                    // The in-network copy is a second live message, in
                    // flight until its own arrival retires it.
                    self.obs_fault_duplicated.inc();
                    let dup_arrival = arrival + lag;
                    let dup_hop = self.obs_tracer.hop(
                        ctx,
                        "fault-dup",
                        packet.src.0,
                        packet.dst.0,
                        now.as_micros(),
                        dup_arrival.as_micros(),
                    );
                    out = out.and((dup_arrival, dup_hop));
                }
                out
            }
        }
    }

    /// Deterministic round-trip estimate between two nodes (no jitter, no
    /// queueing) — the `RTT` used by the trace crawler's clock-skew
    /// correction (paper §3.1).
    pub fn rtt_estimate(&self, a: NodeId, b: NodeId) -> SimDuration {
        let one_way = self.config.latency.deterministic_delay(self.node(a), self.node(b));
        one_way * 2
    }

    /// Accumulated traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Clears traffic statistics (e.g. to exclude warm-up).
    pub fn reset_traffic(&mut self) {
        self.traffic = TrafficStats::new();
    }

    /// Clears one node's uplink backlog (recovery after absence).
    pub fn reset_uplink(&mut self, node: NodeId, now: SimTime) {
        self.uplinks[node.index()].reset(now);
    }

    /// The sender-side backlog a packet from `node` would face at `now`.
    pub fn backlog(&self, node: NodeId, now: SimTime) -> SimDuration {
        self.uplinks[node.index()].queueing_delay(now)
    }

    /// Marks `node` as departed (graceful leave or crash) and tears its
    /// uplink down — queued transmissions die with the node. Departed is a
    /// *long-term* liveness state, distinct from a transient absence window:
    /// senders may abandon tracked deliveries to a departed node immediately
    /// instead of retransmitting into the void.
    pub fn depart(&mut self, node: NodeId, now: SimTime) {
        self.departed[node.index()] = true;
        self.uplinks[node.index()].reset(now);
    }

    /// Clears the departed mark — a joining or restarting node starts with
    /// an idle uplink (its pre-departure backlog is gone, not resumed).
    pub fn rejoin(&mut self, node: NodeId, now: SimTime) {
        self.departed[node.index()] = false;
        self.uplinks[node.index()].reset(now);
    }

    /// `true` while `node` has departed and not yet rejoined.
    pub fn is_departed(&self, node: NodeId) -> bool {
        self.departed[node.index()]
    }

    /// Walks the network's dynamic state — the latency-jitter rng, each
    /// node's uplink backlog and departure mark, traffic accounting, and the
    /// fault plane's fence and decision streams — as checkpoint state.
    /// Static structure (node attributes, latency model, uplink bandwidths)
    /// is rebuilt from config by fresh construction, so reading fails if
    /// the artifact disagrees about the node count or fault-plane presence.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.rng("net_rng", &mut self.rng)?;
        c.fixed("net_nodes", self.nodes.len())?;
        for (uplink, departed) in self.uplinks.iter_mut().zip(&mut self.departed) {
            uplink.persist(c)?;
            c.bool("net_node_departed", departed)?;
        }
        self.traffic.persist(c)?;
        c.section("net_has_faults", self.faults.as_mut(), |plane, c| plane.persist(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_geo::WorldBuilder;

    fn two_node_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new(NetworkConfig::default(), 9);
        let a = net.add_node(GeoPoint::new(33.7, -84.4).unwrap(), IspId(0));
        let b = net.add_node(GeoPoint::new(34.0, -118.2).unwrap(), IspId(1));
        (net, a, b)
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
        let arrival = net.send(t, &Packet::update(a, b, 1.0));
        assert!(arrival > t);
        // Cross-country: at least the ~15 ms propagation plus base.
        assert!(arrival.since(t).as_secs_f64() > 0.02);
    }

    #[test]
    fn burst_queues_at_sender() {
        let (mut net, a, b) = two_node_net();
        let t = SimTime::ZERO;
        let first = net.send(t, &Packet::update(a, b, 100.0));
        let mut last = first;
        for _ in 0..49 {
            last = net.send(t, &Packet::update(a, b, 100.0));
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
        let reg = cdnc_obs::Registry::enabled();
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
        for _ in 0..10 {
            net.send(SimTime::ZERO, &Packet::update(a, b, 100.0));
        }
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
        let reg = cdnc_obs::Registry::enabled();
        reg.enable_series(1000);
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
        net.send(SimTime::ZERO, &Packet::update(a, b, 2.0));
        net.send(SimTime::ZERO, &Packet::poll(b, a));
        assert_eq!(reg.snapshot().counter("net_uplink_bytes"), 2048 + 1024);
        reg.sampler().tick(0);
        let series = reg.series_snapshot();
        assert!(series.get("net_uplink_bytes", cdnc_obs::SeriesKind::Rate).is_some());
        assert!(series.get("net_packets_enqueued", cdnc_obs::SeriesKind::Rate).is_some());
        assert!(series.get("net_uplink_backlog_ms", cdnc_obs::SeriesKind::Gauge).is_some());
    }

    #[test]
    fn per_kind_accounting_requires_profiling_arming() {
        let reg = cdnc_obs::Registry::enabled();
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
        net.send(SimTime::ZERO, &Packet::update(a, b, 2.0));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim_msgs_update"), 1, "per-kind counts are always armed");
        assert_eq!(snap.counter("net_bytes_update"), 0, "byte probes stay dark without profiling");
        assert!(snap.gauges.iter().all(|(n, _)| n != "net_inflight_bytes"));
    }

    #[test]
    fn per_kind_accounting_tracks_sends_and_deliveries() {
        let reg = cdnc_obs::Registry::enabled();
        reg.enable_profiling();
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
        net.send(SimTime::ZERO, &Packet::update(a, b, 2.0));
        net.send(SimTime::ZERO, &Packet::update(a, b, 2.0));
        net.send(SimTime::ZERO, &Packet::poll(b, a));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim_msgs_update"), 2);
        assert_eq!(snap.counter("net_bytes_update"), 2 * 2048);
        assert_eq!(snap.counter("sim_msgs_poll"), 1);
        assert_eq!(snap.counter("net_bytes_poll"), 1024);
        assert_eq!(snap.counter("sim_msgs_ack"), 0);
        let inflight = snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").unwrap().1;
        assert_eq!(inflight.value, 2 * 2048 + 1024);
        // Deliver the poll and one update: levels fall, high water stays.
        net.mark_delivered(PacketKind::Poll, crate::packet::LIGHT_PACKET_KB);
        net.mark_delivered(PacketKind::Update, 2.0);
        let snap = reg.snapshot();
        let inflight = snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").unwrap().1;
        assert_eq!(inflight.value, 2048);
        assert_eq!(inflight.high_water, 2 * 2048 + 1024);
        let pkts = snap.gauges.iter().find(|(n, _)| n == "sim_inflight_update").unwrap().1;
        assert_eq!((pkts.value, pkts.high_water), (1, 2));
    }

    #[test]
    fn dropped_and_duplicated_packets_balance_inflight() {
        let reg = cdnc_obs::Registry::enabled();
        reg.enable_profiling();
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
        let cfg = crate::FaultConfig { loss_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        let out =
            net.send_faulted(SimTime::ZERO, &Packet::update(a, b, 2.0), cdnc_obs::TraceCtx::NONE);
        assert!(out.is_empty());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim_msgs_update"), 1, "the drop still left the sender");
        for name in ["net_inflight_bytes", "sim_inflight_update"] {
            let inflight = snap.gauges.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(inflight.high_water, 0, "{name}: a dropped packet is never in flight");
        }

        let cfg = crate::FaultConfig { dup_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        let out =
            net.send_faulted(SimTime::ZERO, &Packet::update(a, b, 2.0), cdnc_obs::TraceCtx::NONE);
        assert_eq!(out.len(), 2);
        for _ in out.iter() {
            net.mark_delivered(PacketKind::Update, 2.0);
        }
        let snap = reg.snapshot();
        let inflight = snap.gauges.iter().find(|(n, _)| n == "net_inflight_bytes").unwrap().1;
        assert_eq!(inflight.value, 0, "both copies of a duplicate retire one in-flight slot");
    }

    #[test]
    fn obs_does_not_change_delivery() {
        let (mut plain, a, b) = two_node_net();
        let (mut wired, _, _) = two_node_net();
        wired.set_obs(&cdnc_obs::Registry::enabled());
        for _ in 0..5 {
            let p = Packet::update(a, b, 10.0);
            assert_eq!(plain.send(SimTime::ZERO, &p), wired.send(SimTime::ZERO, &p));
        }
    }

    #[test]
    fn send_traced_records_hops_without_changing_delivery() {
        use cdnc_obs::{SpanKind, TraceCtx};
        let (mut plain, a, b) = two_node_net();
        let (mut wired, _, _) = two_node_net();
        let reg = cdnc_obs::Registry::enabled();
        reg.enable_tracing();
        wired.set_obs(&reg);
        let t = reg.tracer();
        let root = t.publish(0, a.0, 0, "net-test");
        let p = Packet::update(a, b, 10.0);
        let plain_arrival = plain.send(SimTime::ZERO, &p);
        let (arrival, hop) = wired.send_traced(SimTime::ZERO, &p, root);
        assert_eq!(arrival, plain_arrival, "tracing must not change delivery");
        assert!(hop.is_active() && hop.span != root.span);
        let store = t.store();
        let span = store.span(hop.span).unwrap();
        assert_eq!(span.kind, SpanKind::Hop);
        assert_eq!(span.label, "update");
        assert_eq!((span.src, span.node), (Some(a.0), b.0));
        assert_eq!(span.end_us, arrival.as_micros());
        // Inactive context: passthrough, no span recorded.
        let (_, none) = wired.send_traced(SimTime::ZERO, &p, TraceCtx::NONE);
        assert!(!none.is_active());
        assert_eq!(t.store().spans.len(), store.spans.len());
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
        net.reset_traffic();
        assert_eq!(net.traffic().total_messages(), 0);
    }

    #[test]
    fn rtt_estimate_symmetric() {
        let (net, a, b) = two_node_net();
        assert_eq!(net.rtt_estimate(a, b), net.rtt_estimate(b, a));
        assert!(net.rtt_estimate(a, b) > SimDuration::ZERO);
    }

    #[test]
    fn provider_uplink_override() {
        let (mut net, a, b) = two_node_net();
        net.set_uplink(a, 1.0); // 1 KB/s: a 10 KB packet takes 10 s
        let arrival = net.send(SimTime::ZERO, &Packet::update(a, b, 10.0));
        assert!(arrival.as_secs_f64() > 9.0);
    }

    #[test]
    fn reset_uplink_clears_backlog() {
        let (mut net, a, b) = two_node_net();
        net.set_uplink(a, 1.0);
        net.send(SimTime::ZERO, &Packet::update(a, b, 100.0)); // 100 s backlog
        assert!(net.backlog(a, SimTime::from_secs(1)).as_secs() > 90);
        net.reset_uplink(a, SimTime::from_secs(1));
        assert_eq!(net.backlog(a, SimTime::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    fn send_faulted_without_plane_matches_send_traced() {
        let (mut plain, a, b) = two_node_net();
        let (mut faulted, _, _) = two_node_net();
        for _ in 0..5 {
            let p = Packet::update(a, b, 10.0);
            let (arrival, _) = plain.send_traced(SimTime::ZERO, &p, cdnc_obs::TraceCtx::NONE);
            let out = faulted.send_faulted(SimTime::ZERO, &p, cdnc_obs::TraceCtx::NONE);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, arrival, "no plane: identical delivery");
        }
    }

    #[test]
    fn quiet_plane_is_transparent() {
        let (mut plain, a, b) = two_node_net();
        let (mut faulted, _, _) = two_node_net();
        faulted.set_fault_plane(crate::FaultPlane::new(crate::FaultConfig::none(), 1, 2));
        for _ in 0..5 {
            let p = Packet::update(a, b, 10.0);
            let (arrival, _) = plain.send_traced(SimTime::ZERO, &p, cdnc_obs::TraceCtx::NONE);
            let out = faulted.send_faulted(SimTime::ZERO, &p, cdnc_obs::TraceCtx::NONE);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, arrival, "quiet plane: identical delivery");
        }
    }

    #[test]
    fn certain_loss_drops_but_still_charges_traffic() {
        let reg = cdnc_obs::Registry::enabled();
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
        let cfg = crate::FaultConfig { loss_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        for _ in 0..4 {
            let out = net.send_faulted(
                SimTime::ZERO,
                &Packet::update(a, b, 2.0),
                cdnc_obs::TraceCtx::NONE,
            );
            assert!(out.is_empty(), "certain loss delivers nothing");
        }
        assert_eq!(net.traffic().update_messages(), 4, "dropped packets still left the sender");
        assert_eq!(reg.snapshot().counter("net_fault_dropped"), 4);
        assert_eq!(reg.snapshot().counter("net_fault_partitioned"), 0);
    }

    #[test]
    fn certain_duplication_delivers_twice() {
        let reg = cdnc_obs::Registry::enabled();
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
        let cfg = crate::FaultConfig { dup_prob: 1.0, ..crate::FaultConfig::none() };
        net.set_fault_plane(crate::FaultPlane::new(cfg, 1, 2));
        let out =
            net.send_faulted(SimTime::ZERO, &Packet::update(a, b, 2.0), cdnc_obs::TraceCtx::NONE);
        assert_eq!(out.len(), 2);
        assert!(out[1].0 >= out[0].0, "the copy trails the original");
        assert_eq!(net.traffic().update_messages(), 1, "a duplicate is copied in-network");
        assert_eq!(reg.snapshot().counter("net_fault_duplicated"), 1);
    }

    #[test]
    fn partition_window_drops_and_tags_the_trace() {
        use cdnc_obs::SpanKind;
        let reg = cdnc_obs::Registry::enabled();
        reg.enable_tracing();
        let (mut net, a, b) = two_node_net();
        net.set_obs(&reg);
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
        let t = reg.tracer();
        let root = t.publish(0, a.0, 0, "net-test");
        let out = net.send_faulted(SimTime::from_secs(5), &Packet::update(a, b, 2.0), root);
        assert!(out.is_empty());
        assert_eq!(reg.snapshot().counter("net_fault_partitioned"), 1);
        let store = t.store();
        let drop_span = store
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Lost && s.label == "fault-drop")
            .expect("drop recorded on the trace");
        assert_eq!(drop_span.node, b.0);
        // After the window the same link delivers.
        let out = net.send_faulted(SimTime::from_secs(10), &Packet::update(a, b, 2.0), root);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn depart_tears_down_the_uplink_and_rejoin_clears_the_mark() {
        let (mut net, a, b) = two_node_net();
        net.set_uplink(a, 1.0);
        net.send(SimTime::ZERO, &Packet::update(a, b, 100.0)); // 100 s backlog
        assert!(!net.is_departed(a));
        net.depart(a, SimTime::from_secs(1));
        assert!(net.is_departed(a));
        assert_eq!(net.backlog(a, SimTime::from_secs(1)), SimDuration::ZERO);
        net.rejoin(a, SimTime::from_secs(9));
        assert!(!net.is_departed(a));
        assert_eq!(net.backlog(a, SimTime::from_secs(9)), SimDuration::ZERO);
    }

    #[test]
    fn checkpoint_round_trip_resumes_deliveries_exactly() {
        let (mut net, a, b) = two_node_net();
        net.set_fault_plane(crate::FaultPlane::new(crate::FaultConfig::at_intensity(0.5), 9, 2));
        net.depart(b, SimTime::ZERO);
        net.rejoin(b, SimTime::from_secs(1));
        net.depart(a, SimTime::from_secs(2));
        for i in 0..30 {
            net.send_faulted(
                SimTime::from_secs(i),
                &Packet::update(a, b, 5.0),
                cdnc_obs::TraceCtx::NONE,
            );
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
        assert!(restored.is_departed(a) && !restored.is_departed(b));
        assert_eq!(restored.traffic(), net.traffic());
        for i in 30..60 {
            let p = Packet::update(a, b, 5.0);
            let t = SimTime::from_secs(i);
            let expect = net.send_faulted(t, &p, cdnc_obs::TraceCtx::NONE);
            let got = restored.send_faulted(t, &p, cdnc_obs::TraceCtx::NONE);
            assert_eq!(
                got.iter().map(|(at, _)| *at).collect::<Vec<_>>(),
                expect.iter().map(|(at, _)| *at).collect::<Vec<_>>(),
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
                .map(|i| net.send(SimTime::from_secs(i), &Packet::update(a, b, 1.0)).as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
