//! An event queue fused with a simulation clock.
//!
//! [`Scheduler`] is the main driver used by every simulator in the workspace:
//! the crawl simulator that synthesises the measurement trace and the CDN
//! evaluation simulator that replays it under alternative update methods.

use crate::ckpt::{Ckpt, CkptError};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use cdnc_obs::profile::{self, Subsystem};

/// Drives a simulation: owns the clock and the pending-event queue.
///
/// Handlers pull events with [`Scheduler::next`], which advances the clock to
/// the event's timestamp. Scheduling into the past is a logic error and
/// panics, which catches causality bugs at their source. The scheduler
/// observes nothing: an event loop that wants metrics hands each popped
/// event to a [`cdnc_obs::EventHook`].
///
/// # Examples
///
/// ```
/// use cdnc_simcore::{Scheduler, SimDuration};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick(u32) }
///
/// let mut sched = Scheduler::new();
/// sched.schedule_in(SimDuration::from_secs(1), Ev::Tick(1));
/// let mut ticks = 0;
/// while let Some((now, Ev::Tick(n))) = sched.next() {
///     ticks = n;
///     if n < 3 {
///         sched.schedule_at(now + SimDuration::from_secs(1), Ev::Tick(n + 1));
///     }
/// }
/// assert_eq!(ticks, 3);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: Option<SimTime>,
    processed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler { queue: EventQueue::new(), now: SimTime::ZERO, horizon: None, processed: 0 }
    }

    /// Creates a scheduler that silently stops yielding events past `horizon`
    /// (events scheduled later stay in the queue but [`Scheduler::next`]
    /// returns `None`).
    pub fn with_horizon(horizon: SimTime) -> Self {
        Scheduler { horizon: Some(horizon), ..Self::new() }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handed out so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Every pending event with its time, in no particular order (events
    /// past the horizon included).
    pub fn queued(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.queue.iter()
    }

    /// The configured horizon, if any.
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// The timestamp of the earliest pending event, if any (horizon-blind:
    /// reports events beyond the horizon too, so callers can decide whether
    /// the next [`Scheduler::next`] would deliver).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Walks the dynamic scheduler state: the clock, the processed-event
    /// count, and the exact pending queue (see [`EventQueue::persist`]), each
    /// event through `event`. Restored runs pop — and digest — identically
    /// to the saved one.
    pub fn persist<'a>(
        &mut self,
        c: &mut Ckpt<'a>,
        event: impl FnMut(&mut E, &mut Ckpt<'a>) -> Result<(), CkptError>,
    ) -> Result<(), CkptError>
    where
        E: Default,
    {
        c.time("sched_now", &mut self.now)?;
        c.u64("sched_processed", &mut self.processed)?;
        self.queue.persist(c, self.now, event)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock — causality violation.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduled into the past: {} < {}", at, self.now);
        let _prof = profile::scope(Subsystem::Scheduler);
        self.queue.push(at, event);
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let _prof = profile::scope(Subsystem::Scheduler);
        self.queue.push(self.now + delay, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the horizon.
    ///
    /// Not an `Iterator`: iterating would hold `&mut self`, and handlers
    /// need the scheduler back to enqueue follow-up events.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        if let (Some(h), Some(t)) = (self.horizon, self.queue.peek_time()) {
            if t > h {
                return None;
            }
        }
        let (t, e) = {
            let _prof = profile::scope(Subsystem::Scheduler);
            self.queue.pop()?
        };
        debug_assert!(t >= self.now, "event queue yielded a past event");
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_obs::{EventHook, EventRecord, Registry};

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut s = Scheduler::new();
        s.schedule_in(SimDuration::from_secs(3), Ev::A);
        s.schedule_in(SimDuration::from_secs(1), Ev::B);
        assert_eq!(s.now(), SimTime::ZERO);
        let (t1, e1) = s.next().unwrap();
        assert_eq!((t1, e1), (SimTime::from_secs(1), Ev::B));
        assert_eq!(s.now(), SimTime::from_secs(1));
        let (t2, e2) = s.next().unwrap();
        assert_eq!((t2, e2), (SimTime::from_secs(3), Ev::A));
        assert!(s.next().is_none());
        assert_eq!(s.processed(), 2);
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut s = Scheduler::with_horizon(SimTime::from_secs(10));
        s.schedule_in(SimDuration::from_secs(5), Ev::A);
        s.schedule_in(SimDuration::from_secs(15), Ev::B);
        assert!(s.next().is_some());
        assert!(s.next().is_none(), "event beyond horizon must not be delivered");
        assert_eq!(s.pending(), 1, "the late event stays queued");
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut s = Scheduler::with_horizon(SimTime::from_secs(10));
        s.schedule_at(SimTime::from_secs(10), Ev::A);
        assert!(s.next().is_some());
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn past_scheduling_panics() {
        let mut s = Scheduler::new();
        s.schedule_in(SimDuration::from_secs(5), Ev::A);
        s.next();
        s.schedule_at(SimTime::from_secs(1), Ev::B);
    }

    #[test]
    fn relative_scheduling_is_from_current_clock() {
        let mut s = Scheduler::new();
        s.schedule_in(SimDuration::from_secs(2), Ev::A);
        let (now, _) = s.next().unwrap();
        s.schedule_in(SimDuration::from_secs(2), Ev::B);
        let (t, _) = s.next().unwrap();
        assert_eq!(t, now + SimDuration::from_secs(2));
    }

    #[test]
    fn restored_state_pops_identically() {
        let mut straight = Scheduler::with_horizon(SimTime::from_secs(60));
        let t = SimTime::from_secs(5);
        for ev in ["a", "b", "c"] {
            straight.schedule_at(t, ev.to_owned());
        }
        straight.schedule_at(SimTime::from_secs(1), "early".to_owned());
        straight.next().unwrap();
        // Capture mid-run, then drain both the original and the restored copy.
        let walk = |s: &mut Scheduler<String>, c: &mut Ckpt| s.persist(c, |e, c| c.str("e", e));
        let text = Ckpt::write("test", |c| walk(&mut straight, c));
        let mut resumed = Scheduler::with_horizon(SimTime::from_secs(60));
        Ckpt::read(&text, "test", |c| walk(&mut resumed, c)).unwrap();
        assert_eq!((resumed.now(), resumed.processed()), (SimTime::from_secs(1), 1));
        assert_eq!(resumed.peek_time(), Some(t));
        loop {
            match (straight.next(), resumed.next()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b, "restored run diverged"),
            }
        }
        assert_eq!(straight.processed(), resumed.processed());
    }

    // The event loop's observation, as the CDN simulator runs it: each pop
    // recorded into an `EventHook`, which closes when the queue stops.

    const KINDS: &[cdnc_obs::EventKind] = &[("test_ev_a", "ev_a"), ("test_ev_b", "ev_b")];

    fn mint(reg: &Registry, s: &Scheduler<Ev>) -> EventHook {
        EventHook::new(reg, KINDS, &[], s.horizon().map_or(0, SimTime::as_micros))
    }

    /// Pops one event and records it into `hook`.
    fn step(s: &mut Scheduler<Ev>, hook: &mut EventHook) -> Option<(SimTime, Ev)> {
        let (t, ev) = s.next()?;
        let kind = match ev {
            Ev::A => 0,
            Ev::B => 1,
        };
        hook.record(EventRecord {
            t_us: t.as_micros(),
            kind,
            node: 0,
            tags: &[],
            depth: s.pending(),
        });
        Some((t, ev))
    }

    /// Steps until the queue stops, then closes the hook.
    fn drain(s: &mut Scheduler<Ev>, hook: &mut EventHook) {
        while step(s, hook).is_some() {}
        hook.close(s.pending());
    }

    #[test]
    fn metrics_track_processing_and_backlog() {
        let reg = Registry::enabled();
        let mut s = Scheduler::new();
        let mut hook = mint(&reg, &s);
        s.schedule_in(SimDuration::from_secs(1), Ev::A);
        s.schedule_in(SimDuration::from_secs(2), Ev::B);
        drain(&mut s, &mut hook);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sched_events_processed"), 2);
        let depth = snap.gauges.iter().find(|(n, _)| n == "sched_queue_depth").unwrap().1;
        assert_eq!(depth.high_water, 2);
        assert_eq!(depth.value, 0);
    }

    #[test]
    fn depth_gauge_sees_pushes_after_the_last_pop() {
        let reg = Registry::enabled();
        let mut s = Scheduler::with_horizon(SimTime::from_secs(10));
        let mut hook = mint(&reg, &s);
        s.schedule_in(SimDuration::from_secs(1), Ev::A);
        let (now, _) = step(&mut s, &mut hook).unwrap();
        // The last handler queues three events past the horizon.
        for i in 1..=3 {
            s.schedule_at(now + SimDuration::from_secs(20 * i), Ev::B);
        }
        drain(&mut s, &mut hook);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sched_events_processed"), 1);
        let depth = snap.gauges.iter().find(|(n, _)| n == "sched_queue_depth").unwrap().1;
        assert_eq!((depth.value, depth.high_water), (3, 3));
    }

    #[test]
    fn tracer_horizon_follows_clock() {
        let reg = Registry::enabled();
        reg.enable_tracing();
        let mut s = Scheduler::new();
        let mut hook = mint(&reg, &s);
        s.schedule_in(SimDuration::from_secs(5), Ev::A);
        drain(&mut s, &mut hook);
        assert_eq!(reg.tracer().store().horizon_us, 5_000_000);
    }

    #[test]
    fn sampler_records_queue_depth_and_event_rate_series() {
        let reg = Registry::enabled();
        reg.enable_series(1_000_000); // sample every simulated second
        let mut s = Scheduler::new();
        let mut hook = mint(&reg, &s);
        for i in 1..=5 {
            s.schedule_in(SimDuration::from_secs(i), Ev::A);
        }
        drain(&mut s, &mut hook);
        let snap = reg.series_snapshot();
        let depth = snap.get("sched_queue_depth", cdnc_obs::SeriesKind::Gauge).unwrap();
        assert_eq!(depth.points.len(), 5, "one sample per 1 s event");
        assert_eq!(depth.points[0], cdnc_obs::SeriesPoint { t_us: 1_000_000, value: 4.0 });
        assert_eq!(depth.points[4].value, 0.0, "queue drains by the last sample");
        let rate = snap.get("sched_events_processed", cdnc_obs::SeriesKind::Rate).unwrap();
        assert!(rate.points.iter().skip(1).all(|p| p.value == 1.0), "1 event/s steady state");
    }

    #[test]
    fn disabled_obs_changes_nothing() {
        let mut a = Scheduler::new();
        let mut b = Scheduler::new();
        let mut off = mint(&Registry::disabled(), &b);
        assert!(!off.is_armed());
        for s in [&mut a, &mut b] {
            s.schedule_in(SimDuration::from_secs(1), Ev::A);
        }
        assert_eq!(a.next().unwrap(), step(&mut b, &mut off).unwrap());
    }

    #[test]
    fn pop_depth_histogram_matches_ground_truth() {
        let reg = Registry::enabled();
        reg.enable_profiling();
        let mut s = Scheduler::new();
        let mut hook = mint(&reg, &s);
        // Interleave schedules and pops, tracking the depth each pop sees.
        let mut expected: Vec<u64> = Vec::new();
        for i in 1..=4u64 {
            s.schedule_in(SimDuration::from_secs(i), Ev::A);
        }
        expected.push(4);
        step(&mut s, &mut hook).unwrap();
        s.schedule_in(SimDuration::from_secs(10), Ev::B);
        while s.pending() > 0 {
            expected.push(s.pending() as u64);
            step(&mut s, &mut hook).unwrap();
        }
        assert!(step(&mut s, &mut hook).is_none(), "an empty queue must not record a sample");
        let snap = reg.snapshot();
        let h = snap.histogram("sched_queue_depth_at_pop").expect("armed probe records");
        assert_eq!(h.count, expected.len() as u64);
        assert_eq!(h.sum, expected.iter().sum::<u64>() as f64);
        assert_eq!(h.min, *expected.iter().min().unwrap() as f64);
        assert_eq!(h.max, *expected.iter().max().unwrap() as f64);
    }

    #[test]
    fn pop_depth_histogram_requires_profiling_arming() {
        let reg = Registry::enabled();
        let mut s = Scheduler::new();
        let mut hook = mint(&reg, &s);
        s.schedule_in(SimDuration::from_secs(1), Ev::A);
        drain(&mut s, &mut hook);
        assert!(
            reg.snapshot().histogram("sched_queue_depth_at_pop").is_none(),
            "the probe is opt-in"
        );
    }

    #[test]
    fn digest_folds_each_pop_and_health_tracks_progress() {
        let run = || {
            let reg = Registry::enabled();
            reg.enable_digest(cdnc_obs::DigestConfig::default());
            reg.enable_health();
            let mut s = Scheduler::with_horizon(SimTime::from_secs(60));
            let mut hook = mint(&reg, &s);
            s.schedule_in(SimDuration::from_secs(1), Ev::A);
            s.schedule_in(SimDuration::from_secs(2), Ev::B);
            drain(&mut s, &mut hook);
            reg
        };
        let (a, b) = (run(), run());
        let (da, db) = (a.digest_snapshot().unwrap(), b.digest_snapshot().unwrap());
        assert_eq!(da.events, 4, "two folds per delivered event: the pop and the event");
        assert_eq!(da.chain, db.chain, "identical runs chain identically");
        let h = a.health_snapshot().unwrap();
        assert_eq!(h.events, 2);
        assert_eq!(h.sim_time_us, SimTime::from_secs(2).as_micros());
        assert_eq!(h.horizon_us, SimTime::from_secs(60).as_micros());
    }
}
