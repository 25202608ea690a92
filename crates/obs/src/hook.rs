//! The simulation's one observation point.
//!
//! A simulation mints one [`EventHook`] from its registry and hands it one
//! [`EventRecord`] per popped event and one record per packet sent or
//! delivered. The hook feeds every armed plane from those records in a
//! fixed order, which is part of the contract: a digest chain fingerprints
//! the exact fold sequence. Minted from a disabled registry the hook is
//! `None` inside and recording costs one branch.
//!
//! With timeprof armed the hook reads the clock once per event record and
//! charges the time since the previous one to the previous event's label:
//! the handler that ran, the pop that followed and the observation in
//! between. [`EventHook::close`] charges the last event when the run ends
//! or pauses, so each label's count equals its dispatch counter.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::profile::{MemProbe, DEFAULT_SPIKE_MULTIPLE};
use crate::series::DEFAULT_CADENCE_US;
use crate::{Digest, Health, Registry, Sampler, Tracer};
use std::time::Instant;

/// An event kind's names: its dispatch counter, then the label its digest
/// folds and handler time are recorded under.
pub type EventKind = (&'static str, &'static str);

/// A packet kind's names: the label its sends fold under, then its
/// sent-message counter, in-flight gauge and byte counter.
pub type PacketNames = (&'static str, &'static str, &'static str, &'static str);

/// One popped event, as the event loop reports it to [`EventHook::record`].
#[derive(Debug, Clone, Copy)]
pub struct EventRecord<'a> {
    /// Simulated time of the event, µs.
    pub t_us: u64,
    /// The event's index in the hook's kind table.
    pub kind: usize,
    /// The node the event concerns.
    pub node: u32,
    /// Deterministic payload words (snapshot ids, generations, tokens —
    /// never wall-clock readings, trace contexts or pointers).
    pub tags: &'a [u64],
    /// Events still queued after the pop.
    pub depth: usize,
}

/// What the fault plane did to one send, as [`EventHook::send`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered: late when `delayed`, twice when `duplicated`.
    Delivered { delayed: bool, duplicated: bool },
    /// Lost in transit, to a scheduled partition or to random loss.
    Dropped { partitioned: bool },
}

/// One packet sent, as a send site reports it to [`EventHook::send`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendRecord {
    /// Simulated send time, µs.
    pub t_us: u64,
    /// The packet's kind, as an index into the hook's packet table.
    pub kind: usize,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Packet size, KB (the byte instruments count 1,024 bytes a KB).
    pub size_kb: f64,
    /// The wait at the sender's uplink, seconds.
    pub queue_delay_s: f64,
    /// Delivery instant before any fault-plane delay, µs.
    pub arrival_us: u64,
    /// What the fault plane did to the packet.
    pub fate: Fate,
}

/// The simulation's observation hook. See the module docs.
#[derive(Debug, Default)]
pub struct EventHook(Option<Box<Armed>>);

#[derive(Debug)]
struct Armed {
    kinds: &'static [EventKind],
    dispatched: Vec<Counter>,
    processed: Counter,
    depth: Gauge,
    pop_depth: Histogram,
    tracer: Tracer,
    sampler: Sampler,
    mem_probe: MemProbe,
    digest: Digest,
    health: Health,
    timeprof: Option<Boundaries>,
    packets: Packets,
}

/// The instruments packet records feed. `backlog` holds the last packet's
/// uplink queueing delay in ms, so its high-water mark is the deepest
/// backlog any packet queued behind; the in-flight levels count packets
/// sent and not yet delivered. `inflight_bytes` and each kind's `bytes` are
/// armed only when the registry has profiling enabled.
#[derive(Debug)]
struct Packets {
    enqueued: Counter,
    backlog: Gauge,
    queue_delay: Histogram,
    uplink_bytes: Counter,
    dropped: Counter,
    partitioned: Counter,
    duplicated: Counter,
    delayed: Counter,
    kinds: Vec<PacketKindObs>,
    inflight_bytes: Gauge,
}

/// One packet kind's fold label and instruments.
#[derive(Debug)]
struct PacketKindObs {
    label: &'static str,
    sent: Counter,
    inflight: Gauge,
    bytes: Counter,
}

impl Packets {
    /// Registers the network instruments on `registry`, with the uplink
    /// backlog, the enqueue and byte counts and each kind's send count and
    /// in-flight level as series.
    fn new(registry: &Registry, names: &[PacketNames]) -> Packets {
        let profiled = registry.profiling_enabled();
        registry.series_gauge("net_uplink_backlog_ms");
        registry.series_rate("net_packets_enqueued");
        registry.series_rate("net_uplink_bytes");
        let kind = |&(label, sent, inflight, bytes): &PacketNames| {
            registry.series_rate(sent);
            registry.series_gauge(inflight);
            let (sent, inflight) = (registry.counter(sent), registry.gauge(inflight));
            let bytes = if profiled { registry.counter(bytes) } else { Counter::default() };
            PacketKindObs { label, sent, inflight, bytes }
        };
        Packets {
            enqueued: registry.counter("net_packets_enqueued"),
            backlog: registry.gauge("net_uplink_backlog_ms"),
            queue_delay: registry.histogram("net_uplink_queue_delay_s"),
            uplink_bytes: registry.counter("net_uplink_bytes"),
            dropped: registry.counter("net_fault_dropped"),
            partitioned: registry.counter("net_fault_partitioned"),
            duplicated: registry.counter("net_fault_duplicated"),
            delayed: registry.counter("net_fault_delayed"),
            kinds: names.iter().map(kind).collect(),
            inflight_bytes: if profiled {
                registry.gauge("net_inflight_bytes")
            } else {
                Gauge::default()
            },
        }
    }
}

/// Timeprof's boundary clock: each kind's handler histogram, and the
/// previous record's kind and clock reading.
#[derive(Debug)]
struct Boundaries {
    handlers: Vec<Histogram>,
    open: Option<(usize, Instant)>,
}

impl Boundaries {
    /// Charges the open event with the time up to now and opens `next`.
    fn cross(&mut self, next: Option<usize>) {
        let now = Instant::now();
        if let Some((kind, since)) = self.open.take() {
            self.handlers[kind].record(now.duration_since(since).as_secs_f64());
        }
        self.open = next.map(|kind| (kind, now));
    }
}

impl EventHook {
    /// Mints the hook of one simulation with event kinds `kinds`, packet
    /// kinds `packets` and clock horizon `horizon_us`: registers the network
    /// instruments and the `sched_queue_depth` and `sched_events_processed`
    /// series, starts a sampling segment (the simulation's clock starts at
    /// zero) and declares the horizon to health. Inert on a disabled
    /// registry.
    pub fn new(
        registry: &Registry,
        kinds: &'static [EventKind],
        packets: &[PacketNames],
        horizon_us: u64,
    ) -> EventHook {
        if !registry.is_enabled() {
            return EventHook(None);
        }
        let packets = Packets::new(registry, packets);
        let sampler = registry.sampler();
        sampler.begin_segment();
        registry.series_gauge("sched_queue_depth");
        registry.series_rate("sched_events_processed");
        let health = registry.health();
        health.set_horizon(horizon_us);
        let (mut pop_depth, mut mem_probe) = (Histogram::default(), MemProbe::default());
        if registry.profiling_enabled() {
            pop_depth = registry.histogram("sched_queue_depth_at_pop");
            let spikes = registry.counter("profile_mem_spikes");
            mem_probe = MemProbe::armed(
                DEFAULT_CADENCE_US,
                DEFAULT_SPIKE_MULTIPLE,
                spikes,
                registry.tracer(),
            );
        }
        EventHook(Some(Box::new(Armed {
            kinds,
            dispatched: kinds.iter().map(|&(counter, _)| registry.counter(counter)).collect(),
            processed: registry.counter("sched_events_processed"),
            depth: registry.gauge("sched_queue_depth"),
            pop_depth,
            tracer: registry.tracer(),
            sampler,
            mem_probe,
            digest: registry.digest(),
            health,
            timeprof: registry.timeprof_core().map(|core| {
                let cell = |&(_, label): &EventKind| Histogram(Some(core.handlers.cell(label)));
                Boundaries { handlers: kinds.iter().map(cell).collect(), open: None }
            }),
            packets,
        })))
    }

    /// Whether the hook records anything. The event loop checks this
    /// before computing a record's payload tags.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Observes one popped event. One branch when inert.
    #[inline]
    pub fn record(&mut self, rec: EventRecord) {
        if let Some(armed) = &mut self.0 {
            armed.record(rec);
        }
    }

    /// Observes one packet sent, building its record with `rec` only when
    /// armed. One branch when inert.
    #[inline]
    pub fn send(&self, rec: impl FnOnce() -> SendRecord) {
        if let Some(armed) = &self.0 {
            armed.send(rec());
        }
    }

    /// Observes a packet of packet-table kind `kind` and `size_kb` leaving
    /// the wire, delivered or lost at its receiver. One branch when inert.
    #[inline]
    pub fn deliver(&self, kind: usize, size_kb: f64) {
        if let Some(armed) = &self.0 {
            armed.packets.kinds[kind].inflight.sub(1);
            armed.packets.inflight_bytes.sub(bytes(size_kb));
        }
    }

    /// Counts a packet of packet-table kind `kind` and `size_kb` as in
    /// flight without a send record: a delivery a restored run finds queued.
    pub fn in_flight(&self, kind: usize, size_kb: f64) {
        if let Some(armed) = &self.0 {
            armed.packets.kinds[kind].inflight.add(1);
            armed.packets.inflight_bytes.add(bytes(size_kb));
        }
    }

    /// Ends or pauses the run with `depth` events still queued: the depth
    /// gauge takes that level (pushes after the last pop included) and the
    /// last event is charged. Recording may resume afterwards.
    pub fn close(&mut self, depth: usize) {
        let Some(armed) = &mut self.0 else { return };
        armed.depth.set(depth as u64);
        if let Some(b) = &mut armed.timeprof {
            b.cross(None);
        }
    }
}

impl Armed {
    /// Feeds, in order: `sched_queue_depth_at_pop`, `sched_events_processed`,
    /// `sched_queue_depth`, the tracer horizon, the sampler, the memory
    /// probe, the `sched_pop` digest fold, health, then the event's own
    /// digest fold and dispatch counter.
    fn record(&mut self, rec: EventRecord) {
        if let Some(b) = &mut self.timeprof {
            b.cross(Some(rec.kind));
        }
        let (t, depth) = (rec.t_us, rec.depth as u64);
        self.pop_depth.record((depth + 1) as f64);
        self.processed.inc();
        // Between two pops the queue only grows, so it peaked just before
        // this one.
        self.depth.set(depth + 1);
        self.depth.set(depth);
        self.tracer.tick(t);
        self.sampler.tick(t);
        self.mem_probe.tick(t);
        // Structural identity only: sim time and the backlog left behind.
        self.digest.fold("sched_pop", 0, t, &[depth]);
        self.health.tick(t);
        self.digest.fold(self.kinds[rec.kind].1, rec.node, t, rec.tags);
        self.dispatched[rec.kind].inc();
    }

    /// Feeds, in order: `net_packets_enqueued`, `net_uplink_bytes`,
    /// `net_uplink_queue_delay_s`, `net_uplink_backlog_ms`, the kind's sent
    /// and byte counters, the in-flight levels (raised by every copy in
    /// flight), the send's digest fold, then its fault counter.
    fn send(&self, rec: SendRecord) {
        let (p, bytes) = (&self.packets, bytes(rec.size_kb));
        let copies = match rec.fate {
            Fate::Delivered { duplicated, .. } => 1 + u64::from(duplicated),
            Fate::Dropped { .. } => 0,
        };
        p.enqueued.inc();
        p.uplink_bytes.add(bytes);
        p.queue_delay.record(rec.queue_delay_s);
        p.backlog.set((rec.queue_delay_s * 1e3) as u64);
        let kind = &p.kinds[rec.kind];
        kind.sent.inc();
        kind.bytes.add(bytes);
        kind.inflight.add(copies);
        p.inflight_bytes.add(bytes * copies);
        // Structural identity only: kind, endpoints, and the (deterministic)
        // base arrival — the delay comes from the seeded stream.
        self.digest.fold(kind.label, rec.src, rec.t_us, &[u64::from(rec.dst), rec.arrival_us]);
        match rec.fate {
            Fate::Dropped { partitioned: true } => p.partitioned.inc(),
            Fate::Dropped { partitioned: false } => p.dropped.inc(),
            Fate::Delivered { delayed, duplicated } => {
                if delayed {
                    p.delayed.inc();
                }
                if duplicated {
                    p.duplicated.inc();
                }
            }
        }
    }
}

/// A packet's size in the byte instruments' unit.
fn bytes(size_kb: f64) -> u64 {
    (size_kb * 1024.0) as u64
}
