//! A deterministic event queue.
//!
//! Wraps a binary heap of `(SimTime, sequence, E)` where `sequence` is a
//! monotonically increasing insertion counter. Events scheduled for the same
//! instant therefore pop in insertion order, which makes whole-simulation runs
//! reproducible regardless of heap internals.

use crate::ckpt::{Ckpt, CkptError};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Default)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events with stable FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use cdnc_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "b");
/// q.push(SimTime::from_secs(1), "a");
/// q.push(SimTime::from_secs(2), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Creates an empty queue with capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(cap), next_seq: 0 }
    }

    /// Schedules `event` at `time`. Events at equal times pop in push order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Walks the pending entries in pop order — `(time, seq, event)`, each
    /// event through `event` — plus the insertion counter. Sequence numbers
    /// are stored verbatim, so same-time events keep their pop order after a
    /// read and fresh pushes continue from the stored counter: restored runs
    /// pop exactly like the saved one.
    ///
    /// Reading rejects an entry earlier than `not_before` (the clock it is
    /// restored under) or with a sequence number not below the counter —
    /// either would break the queue's ordering invariants.
    pub fn persist<'a>(
        &mut self,
        c: &mut Ckpt<'a>,
        not_before: SimTime,
        mut event: impl FnMut(&mut E, &mut Ckpt<'a>) -> Result<(), CkptError>,
    ) -> Result<(), CkptError>
    where
        E: Default,
    {
        c.u64("sched_next_seq", &mut self.next_seq)?;
        let next_seq = self.next_seq;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        let walked = c.seq("sched_entries", &mut entries, |e: &mut Entry<E>, c| {
            c.time("ev_t", &mut e.time)?;
            c.u64("ev_seq", &mut e.seq)?;
            if e.time < not_before || e.seq >= next_seq {
                return Err(CkptError(format!(
                    "queue entry (t={}us, seq={}) precedes the clock ({}us) or the counter ({next_seq})",
                    e.time.as_micros(),
                    e.seq,
                    not_before.as_micros()
                )));
            }
            event(&mut e.event, c)
        });
        self.heap = BinaryHeap::from(entries);
        walked
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for secs in [5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_secs(secs), secs);
        }
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t.as_secs(), e);
            out.push(e);
        }
        assert_eq!(out, [1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn entries_round_trip_preserves_pop_order() {
        let mut q = EventQueue::new();
        for (secs, tag) in [(2u64, "b"), (1, "a"), (2, "c"), (1, "d")] {
            q.push(SimTime::from_secs(secs), tag.to_owned());
        }
        q.pop(); // consume "a" so restored seqs are non-contiguous
        let walk = |q: &mut EventQueue<String>, c: &mut Ckpt| {
            q.persist(c, SimTime::ZERO, |e, c| c.str("e", e))
        };
        let text = Ckpt::write("test", |c| walk(&mut q, c));
        assert!(text.contains("sched_next_seq=4\n"));
        let mut restored = EventQueue::new();
        Ckpt::read(&text, "test", |c| walk(&mut restored, c)).unwrap();
        restored.push(SimTime::from_secs(2), "e".to_owned());
        let order: Vec<_> = std::iter::from_fn(|| restored.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["d", "b", "c", "e"], "tie order and fresh pushes survive");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["d", "b", "c"], "writing leaves the queue's pop order intact");
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and within a
        /// timestamp the original insertion order.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_secs(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "FIFO violated within a timestamp");
                    }
                }
                last = Some((t, i));
            }
        }
    }
}
