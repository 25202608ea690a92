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
//!
//! # One writer per cell
//!
//! One simulation records into a registry at a time (see the registry's
//! module docs), so the hook writes its counters, gauges and histograms,
//! timeprof's handler histograms among them, through plain handles that
//! update each cell with a load and a store; a registry read sees every
//! update so far. Two values stay in the hook until [`EventHook::close`]
//! (the run ends or pauses) or its drop: the digest segment (fold count,
//! chain, stride, checkpoints and trap entries), whose folds start from
//! label words computed once per event kind, packet kind and `sched_pop`
//! when the hook is minted, and the tracer horizon, raised to the latest
//! event then. A checkpoint walks the segment in place through
//! [`EventHook::digest_segment`].

use crate::digest::{label_word, Checkpoint, OwnedSegment};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::profile::{MemProbe, DEFAULT_SPIKE_MULTIPLE};
use crate::series::DEFAULT_CADENCE_US;
use crate::{Health, Registry, Sampler, Tracer};
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
    registry: Registry,
    kinds: Vec<KindObs>,
    processed: Counter,
    depth: Gauge,
    pop_depth: Histogram,
    tracer: Tracer,
    /// The latest event's sim time, µs: the tracer horizon to raise.
    horizon_us: u64,
    sampler: Sampler,
    mem_probe: MemProbe,
    digest: Option<OwnedSegment>,
    /// `sched_pop`'s label word.
    pop_word: u64,
    health: Health,
    timeprof: Option<Boundaries>,
    packets: Packets,
}

/// One event kind's fold label and word, and its dispatch counter.
#[derive(Debug)]
struct KindObs {
    label: &'static str,
    word: u64,
    dispatched: Counter,
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

/// One packet kind's fold label and word, and its instruments.
#[derive(Debug)]
struct PacketKindObs {
    label: &'static str,
    word: u64,
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
            PacketKindObs {
                label,
                word: label_word(label),
                sent: registry.counter(sent),
                inflight: registry.gauge(inflight),
                bytes: if profiled { registry.counter(bytes) } else { Counter::default() },
            }
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
    /// zero), declares the horizon to health and takes over the digest
    /// segment. Inert on a disabled registry.
    pub fn new(
        registry: &Registry,
        kinds: &'static [EventKind],
        packets: &[PacketNames],
        horizon_us: u64,
    ) -> EventHook {
        if !registry.is_enabled() {
            return EventHook(None);
        }
        registry.claim_hook();
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
        let kind = |&(counter, label): &EventKind| KindObs {
            label,
            word: label_word(label),
            dispatched: registry.counter(counter),
        };
        EventHook(Some(Box::new(Armed {
            registry: registry.clone(),
            kinds: kinds.iter().map(kind).collect(),
            processed: registry.counter("sched_events_processed"),
            depth: registry.gauge("sched_queue_depth"),
            pop_depth,
            tracer: registry.tracer(),
            horizon_us: 0,
            sampler,
            mem_probe,
            digest: OwnedSegment::own(registry.digest()),
            pop_word: label_word("sched_pop"),
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
    pub fn send(&mut self, rec: impl FnOnce() -> SendRecord) {
        if let Some(armed) = &mut self.0 {
            armed.send(rec());
        }
    }

    /// Observes a packet of packet-table kind `kind` and `size_kb` leaving
    /// the wire, delivered or lost at its receiver. One branch when inert.
    #[inline]
    pub fn deliver(&mut self, kind: usize, size_kb: f64) {
        if let Some(armed) = &mut self.0 {
            armed.packets.kinds[kind].inflight.sub(1);
            armed.packets.inflight_bytes.sub(bytes(size_kb));
        }
    }

    /// Counts a packet of packet-table kind `kind` and `size_kb` as in
    /// flight without a send record: a delivery a restored run finds queued.
    pub fn in_flight(&mut self, kind: usize, size_kb: f64) {
        if let Some(armed) = &mut self.0 {
            armed.packets.kinds[kind].inflight.add(1);
            armed.packets.inflight_bytes.add(bytes(size_kb));
        }
    }

    /// Lends the digest segment's fold count, chain, stride and
    /// checkpoints to a checkpoint walk, which reads them in place when it
    /// writes an artifact and overwrites them when it reads one
    /// (`restoring`): a restored run continues the saved chain. Restoring
    /// clears the trap entries, since the saved run's folds are not this
    /// run's. `None` without an armed digest.
    pub fn digest_segment(
        &mut self,
        restoring: bool,
    ) -> Option<(&mut u64, &mut u64, &mut u64, &mut Vec<Checkpoint>)> {
        let digest = self.0.as_mut()?.digest.as_mut()?;
        Some(digest.fields(restoring))
    }

    /// Ends or pauses the run with `depth` events still queued: the depth
    /// gauge takes that level (pushes after the last pop included), the
    /// last event is charged, the digest segment is stored into the
    /// registry and the tracer horizon raised. Recording may resume
    /// afterwards.
    pub fn close(&mut self, depth: usize) {
        let Some(armed) = &mut self.0 else { return };
        armed.depth.set(depth as u64);
        if let Some(b) = &mut armed.timeprof {
            b.cross(None);
        }
        armed.store();
    }
}

impl Armed {
    /// Feeds, in order: `sched_queue_depth_at_pop`, `sched_events_processed`,
    /// `sched_queue_depth`, the tracer horizon, the sampler, the memory
    /// probe, health, the `sched_pop` digest fold, then the event's own
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
        self.horizon_us = self.horizon_us.max(t);
        self.sampler.tick(t);
        self.mem_probe.tick(t);
        self.health.tick(t);
        let kind = &self.kinds[rec.kind];
        if let Some(digest) = &mut self.digest {
            // Structural identity only: sim time and the backlog left behind.
            digest.fold(self.pop_word, "sched_pop", 0, t, &[depth]);
            digest.fold(kind.word, kind.label, rec.node, t, rec.tags);
        }
        kind.dispatched.inc();
    }

    /// Feeds, in order: `net_packets_enqueued`, `net_uplink_bytes`,
    /// `net_uplink_queue_delay_s`, `net_uplink_backlog_ms`, the kind's sent
    /// and byte counters, the in-flight levels (raised by every copy in
    /// flight), the send's digest fold, then its fault counter.
    fn send(&mut self, rec: SendRecord) {
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
        if let Some(digest) = &mut self.digest {
            // Structural identity only: kind, endpoints, and the
            // (deterministic) base arrival — the delay comes from the
            // seeded stream.
            let tags = [u64::from(rec.dst), rec.arrival_us];
            digest.fold(kind.word, kind.label, rec.src, rec.t_us, &tags);
        }
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

    /// Stores the digest segment into the registry and raises the tracer
    /// horizon.
    fn store(&self) {
        if let Some(digest) = &self.digest {
            digest.store();
        }
        self.tracer.tick(self.horizon_us);
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        self.store();
        self.registry.release_hook();
    }
}

/// A packet's size in the byte instruments' unit.
fn bytes(size_kb: f64) -> u64 {
    (size_kb * 1024.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::tests::restore;
    use crate::{Digest, DigestConfig, TrapWindow};
    use proptest::prelude::*;

    const KINDS: &[EventKind] = &[("t_ev_a", "ev_a"), ("t_ev_b", "ev_b"), ("t_ev_c", "ev_c")];
    const PACKETS: &[PacketNames] = &[
        ("pa", "t_msgs_a", "t_inflight_a", "t_bytes_a"),
        ("pb", "t_msgs_b", "t_inflight_b", "t_bytes_b"),
    ];
    const CADENCE_US: u64 = 1_000;

    /// The hook's feed through shared handles alone: every update through
    /// a registry handle, every fold through [`Digest::fold`], the tracer
    /// horizon raised per event. The hook, with its owned digest segment
    /// and horizon, must leave its registry as this feed leaves an
    /// identically armed one at every `close`.
    struct AtomicFeed {
        dispatched: Vec<Counter>,
        processed: Counter,
        depth: Gauge,
        pop_depth: Histogram,
        tracer: Tracer,
        sampler: Sampler,
        mem_probe: MemProbe,
        digest: Digest,
        handlers: Option<Vec<Histogram>>,
        open: Option<(usize, Instant)>,
        enqueued: Counter,
        backlog: Gauge,
        queue_delay: Histogram,
        uplink_bytes: Counter,
        dropped: Counter,
        partitioned: Counter,
        duplicated: Counter,
        delayed: Counter,
        kinds: Vec<(Counter, Gauge, Counter)>,
        inflight_bytes: Gauge,
    }

    impl AtomicFeed {
        fn new(registry: &Registry) -> AtomicFeed {
            let profiled = registry.profiling_enabled();
            registry.series_gauge("net_uplink_backlog_ms");
            registry.series_rate("net_packets_enqueued");
            registry.series_rate("net_uplink_bytes");
            let kind = |&(_, sent, inflight, bytes): &PacketNames| {
                registry.series_rate(sent);
                registry.series_gauge(inflight);
                let (sent, inflight) = (registry.counter(sent), registry.gauge(inflight));
                let bytes = if profiled { registry.counter(bytes) } else { Counter::default() };
                (sent, inflight, bytes)
            };
            let packet_kinds = PACKETS.iter().map(kind).collect();
            let sampler = registry.sampler();
            sampler.begin_segment();
            registry.series_gauge("sched_queue_depth");
            registry.series_rate("sched_events_processed");
            let (mut pop_depth, mut mem_probe) = (Histogram::default(), MemProbe::default());
            if profiled {
                pop_depth = registry.histogram("sched_queue_depth_at_pop");
                let spikes = registry.counter("profile_mem_spikes");
                mem_probe = MemProbe::armed(
                    DEFAULT_CADENCE_US,
                    DEFAULT_SPIKE_MULTIPLE,
                    spikes,
                    registry.tracer(),
                );
            }
            AtomicFeed {
                dispatched: KINDS.iter().map(|&(counter, _)| registry.counter(counter)).collect(),
                processed: registry.counter("sched_events_processed"),
                depth: registry.gauge("sched_queue_depth"),
                pop_depth,
                tracer: registry.tracer(),
                sampler,
                mem_probe,
                digest: registry.digest(),
                handlers: registry.timeprof_core().map(|core| {
                    let cell = |&(_, label): &EventKind| Histogram(Some(core.handlers.cell(label)));
                    KINDS.iter().map(cell).collect()
                }),
                open: None,
                enqueued: registry.counter("net_packets_enqueued"),
                backlog: registry.gauge("net_uplink_backlog_ms"),
                queue_delay: registry.histogram("net_uplink_queue_delay_s"),
                uplink_bytes: registry.counter("net_uplink_bytes"),
                dropped: registry.counter("net_fault_dropped"),
                partitioned: registry.counter("net_fault_partitioned"),
                duplicated: registry.counter("net_fault_duplicated"),
                delayed: registry.counter("net_fault_delayed"),
                kinds: packet_kinds,
                inflight_bytes: if profiled {
                    registry.gauge("net_inflight_bytes")
                } else {
                    Gauge::default()
                },
            }
        }

        fn cross(&mut self, next: Option<usize>) {
            if let Some(handlers) = &self.handlers {
                let now = Instant::now();
                if let Some((kind, since)) = self.open.take() {
                    handlers[kind].record(now.duration_since(since).as_secs_f64());
                }
                self.open = next.map(|kind| (kind, now));
            }
        }

        fn record(&mut self, rec: EventRecord) {
            self.cross(Some(rec.kind));
            let (t, depth) = (rec.t_us, rec.depth as u64);
            self.pop_depth.record((depth + 1) as f64);
            self.processed.inc();
            self.depth.set(depth + 1);
            self.depth.set(depth);
            self.tracer.tick(t);
            self.sampler.tick(t);
            self.mem_probe.tick(t);
            self.digest.fold("sched_pop", 0, t, &[depth]);
            self.digest.fold(KINDS[rec.kind].1, rec.node, t, rec.tags);
            self.dispatched[rec.kind].inc();
        }

        fn send(&self, rec: SendRecord) {
            let bytes = bytes(rec.size_kb);
            let copies = match rec.fate {
                Fate::Delivered { duplicated, .. } => 1 + u64::from(duplicated),
                Fate::Dropped { .. } => 0,
            };
            self.enqueued.inc();
            self.uplink_bytes.add(bytes);
            self.queue_delay.record(rec.queue_delay_s);
            self.backlog.set((rec.queue_delay_s * 1e3) as u64);
            let (sent, inflight, kind_bytes) = &self.kinds[rec.kind];
            sent.inc();
            kind_bytes.add(bytes);
            inflight.add(copies);
            self.inflight_bytes.add(bytes * copies);
            let tags = [u64::from(rec.dst), rec.arrival_us];
            self.digest.fold(PACKETS[rec.kind].0, rec.src, rec.t_us, &tags);
            match rec.fate {
                Fate::Dropped { partitioned: true } => self.partitioned.inc(),
                Fate::Dropped { partitioned: false } => self.dropped.inc(),
                Fate::Delivered { delayed, duplicated } => {
                    if delayed {
                        self.delayed.inc();
                    }
                    if duplicated {
                        self.duplicated.inc();
                    }
                }
            }
        }

        fn deliver(&self, kind: usize, size_kb: f64) {
            self.kinds[kind].1.sub(1);
            self.inflight_bytes.sub(bytes(size_kb));
        }

        fn in_flight(&self, kind: usize, size_kb: f64) {
            self.kinds[kind].1.add(1);
            self.inflight_bytes.add(bytes(size_kb));
        }

        fn close(&mut self, depth: usize) {
            self.depth.set(depth as u64);
            self.cross(None);
        }
    }

    /// A registry with every plane the hook feeds armed: series at a
    /// millisecond cadence, profiling, timeprof, tracing, and a digest
    /// that checkpoints every 4 folds, flips fold `perturb` and traps the
    /// window from `trap_lo`.
    fn armed(perturb: u64, trap_lo: u64) -> Registry {
        let reg = Registry::enabled();
        reg.enable_series(CADENCE_US);
        reg.enable_profiling();
        reg.enable_timeprof();
        reg.enable_tracing();
        reg.enable_digest(DigestConfig {
            checkpoint_every: 4,
            perturb: Some(perturb),
            trap: Some(TrapWindow { segment: 0, lo: trap_lo, hi: trap_lo + 40 }),
        });
        reg
    }

    /// What a registry recorded that the hook feeds, floats as bits: the
    /// counters, gauges (level and high-water mark) and histograms, every
    /// series point, the digest (Debug text), the timeprof handler counts
    /// and the tracer horizon.
    fn recorded(reg: &Registry) -> String {
        let m = reg.snapshot();
        let histograms: Vec<_> = m
            .histograms
            .iter()
            .map(|(n, h)| {
                let bits = [h.sum, h.min, h.max].map(f64::to_bits);
                (n.clone(), h.buckets.clone(), h.count, bits)
            })
            .collect();
        let handlers: Vec<(String, u64)> = reg
            .timeprof_snapshot()
            .map(|t| t.handlers.into_iter().map(|(n, h)| (n, h.count)).collect())
            .unwrap_or_default();
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\nhorizon {}",
            m.counters,
            m.gauges,
            histograms,
            reg.series_snapshot(),
            reg.digest_snapshot(),
            handlers,
            reg.tracer().store().horizon_us
        )
    }

    proptest! {
        /// The hook and the atomic feed take one random stream each,
        /// on identically armed registries: event records of every kind,
        /// sends of every `Fate` (queue delays include infinities and
        /// NaNs), deliveries, in-flight counts, pauses (`close`, then more
        /// records) and digest restores, the hook's through
        /// [`EventHook::digest_segment`]. After every `close`, and after
        /// the hook is dropped, both registries hold the same counters,
        /// gauges, bit-identical histograms, series points, digest,
        /// timeprof handler counts and tracer horizon.
        #[test]
        fn prop_owned_hook_matches_the_atomic_feed(
            perturb in 0u64..400,
            trap_lo in 0u64..400,
            steps in proptest::collection::vec((0u8..32, 0u32..1_000, 0u64..5_000), 1..300),
        ) {
            let (reg, oracle_reg) = (armed(perturb, trap_lo), armed(perturb, trap_lo));
            let mut hook = EventHook::new(&reg, KINDS, PACKETS, 0);
            let mut oracle = AtomicFeed::new(&oracle_reg);
            let mut t = 0;
            for (i, &(op, a, c)) in steps.iter().enumerate() {
                let (kind, size_kb) = (a as usize % PACKETS.len(), f64::from(a % 50) / 4.0);
                match op {
                    0..=13 => {
                        t += c % 3_000;
                        let tags = [c, u64::from(a)];
                        let rec = EventRecord {
                            t_us: t,
                            kind: a as usize % KINDS.len(),
                            node: a,
                            tags: &tags[..(c % 3) as usize],
                            depth: (c % 17) as usize,
                        };
                        hook.record(rec);
                        oracle.record(rec);
                    }
                    14..=21 => {
                        let fate = match c % 6 {
                            0 => Fate::Dropped { partitioned: true },
                            1 => Fate::Dropped { partitioned: false },
                            f => Fate::Delivered { delayed: f % 2 == 0, duplicated: f > 3 },
                        };
                        let queue_delay_s = match c % 101 {
                            0 => f64::INFINITY,
                            1 => f64::NAN,
                            _ => c as f64 * 1e-4,
                        };
                        let rec = SendRecord {
                            t_us: t,
                            kind,
                            src: a,
                            dst: c as u32,
                            size_kb,
                            queue_delay_s,
                            arrival_us: t + c,
                            fate,
                        };
                        hook.send(|| rec);
                        oracle.send(rec);
                    }
                    22..=25 => {
                        hook.deliver(kind, size_kb);
                        oracle.deliver(kind, size_kb);
                    }
                    26..=27 => {
                        hook.in_flight(kind, size_kb);
                        oracle.in_flight(kind, size_kb);
                    }
                    28..=30 => {
                        hook.close((c % 9) as usize);
                        oracle.close((c % 9) as usize);
                        prop_assert_eq!(recorded(&reg), recorded(&oracle_reg), "step {}", i);
                    }
                    _ => {
                        let checkpoints = (1..=c % 4)
                            .map(|k| crate::Checkpoint { index: k * 8, chain: k ^ c })
                            .collect::<Vec<_>>();
                        let (events, chain, stride) = (c % 40, c.wrapping_mul(0x9E37), 1 << (a % 4));
                        let segment = hook.digest_segment(true).expect("a digest is armed");
                        (*segment.0, *segment.1, *segment.2) = (events, chain, stride);
                        segment.3.clone_from(&checkpoints);
                        restore(&oracle.digest, events, chain, stride, checkpoints);
                    }
                }
            }
            hook.close(0);
            oracle.close(0);
            prop_assert_eq!(recorded(&reg), recorded(&oracle_reg), "at the end");
            drop(hook);
            prop_assert_eq!(recorded(&reg), recorded(&oracle_reg), "after the drop");
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the check is a debug assertion")]
    #[should_panic(expected = "a second event hook")]
    fn a_second_live_hook_on_one_registry_is_refused() {
        let reg = Registry::enabled();
        let _first = EventHook::new(&reg, KINDS, PACKETS, 0);
        let _second = EventHook::new(&reg, KINDS, PACKETS, 0);
    }

    #[test]
    fn hooks_minted_in_turn_continue_each_other() {
        let reg = Registry::enabled();
        reg.enable_profiling();
        for t_us in [1, 2] {
            let mut hook = EventHook::new(&reg, KINDS, PACKETS, 0);
            hook.record(EventRecord { t_us, kind: 0, node: 0, tags: &[], depth: t_us as usize });
            // A read while the hook is live sees every update so far.
            assert_eq!(reg.counter("t_ev_a").get(), t_us);
            assert_eq!(reg.counter("sched_events_processed").get(), t_us);
            let depth = reg.gauge("sched_queue_depth");
            assert_eq!((depth.get(), depth.high_water()), (t_us, t_us + 1));
            let pops = reg.snapshot().histogram("sched_queue_depth_at_pop").map(|h| h.count);
            assert_eq!(pops, Some(t_us));
        }
        assert_eq!(reg.counter("t_ev_a").get(), 2, "the second hook continued the first");
    }
}
