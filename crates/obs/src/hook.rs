//! The event loop's one observation point.
//!
//! A simulation mints one [`EventHook`] from its registry and hands it one
//! [`EventRecord`] per popped event. The hook feeds every armed plane from
//! that record in a fixed order, which is part of the contract: a digest
//! chain fingerprints the exact fold sequence. Minted from a disabled
//! registry the hook is `None` inside and recording costs one branch.
//!
//! With timeprof armed the hook reads the clock once per record and charges
//! the time since the previous record to the previous event's label: the
//! handler that ran, the pop that followed and the observation in between.
//! [`EventHook::close`] charges the last event when the run ends or pauses,
//! so each label's count equals its dispatch counter.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::profile::{MemProbe, DEFAULT_SPIKE_MULTIPLE};
use crate::series::DEFAULT_CADENCE_US;
use crate::{Digest, Health, Registry, Sampler, Tracer};
use std::time::Instant;

/// An event kind's names: its dispatch counter, then the label its digest
/// folds and handler time are recorded under.
pub type EventKind = (&'static str, &'static str);

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

/// The event loop's observation hook. See the module docs.
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
    /// Mints the hook of one simulation with event kinds `kinds` and clock
    /// horizon `horizon_us`: registers the `sched_queue_depth` and
    /// `sched_events_processed` series, starts a sampling segment (the
    /// simulation's clock starts at zero) and declares the horizon to
    /// health. Inert on a disabled registry.
    pub fn new(registry: &Registry, kinds: &'static [EventKind], horizon_us: u64) -> EventHook {
        if !registry.is_enabled() {
            return EventHook(None);
        }
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
}
