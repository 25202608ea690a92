//! A deterministic event queue.
//!
//! Events live in a slab; a binary heap orders 16-byte keys: the event's
//! time in the high 64 bits, then a monotonically increasing insertion
//! sequence, then the event's slab slot. The sequence sits above the slot,
//! so the heap orders exactly by `(time, sequence)`: events scheduled for
//! the same instant pop in insertion order, which makes whole-simulation
//! runs reproducible regardless of heap internals, and sifts move and
//! compare one 16-byte integer instead of whole events.

use crate::ckpt::{Ckpt, CkptError};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of a heap key that hold the slab slot; the sequence takes the rest
/// of the low 64 bits.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Events that can be pending at once (16.7 M).
const SLOT_LIMIT: usize = 1 << SLOT_BITS;
/// Events that can ever be pushed (1.1 × 10¹²).
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// The heap key of the event in `slot`, pushed `seq`-th, due at `time`.
fn key(time: SimTime, seq: u64, slot: u32) -> u128 {
    u128::from(time.as_micros()) << 64 | u128::from(seq << SLOT_BITS | u64::from(slot))
}

/// `(time, seq, slot)` of a heap key.
fn unpack(key: u128) -> (SimTime, u64, u32) {
    let low = key as u64;
    (SimTime::from_micros((key >> 64) as u64), low >> SLOT_BITS, (low & SLOT_MASK) as u32)
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
    /// The [`key`] of every pending event.
    heap: BinaryHeap<Reverse<u128>>,
    /// Pending events by slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), slots: Vec::new(), free: Vec::new(), next_seq: 0 }
    }

    /// Creates an empty queue with capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`. Events at equal times pop in push order.
    ///
    /// # Panics
    ///
    /// Panics after 2⁴⁰ pushes, or when 2²⁴ events would be pending at once.
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(self.next_seq < SEQ_LIMIT, "event queue: all {SEQ_LIMIT} sequence numbers used");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => new_slot(&mut self.slots, event)
                .unwrap_or_else(|| panic!("event queue: more than {SLOT_LIMIT} events pending")),
        };
        self.heap.push(Reverse(key(time, self.next_seq, slot)));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let (time, _, slot) = unpack(key);
        let event = self.slots[slot as usize].take().expect("a heaped key names a filled slot");
        self.free.push(slot);
        Some((time, event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| unpack(key).0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every pending event with its time, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap.iter().map(|&Reverse(key)| {
            let (time, _, slot) = unpack(key);
            (time, self.slots[slot as usize].as_ref().expect("a heaped key names a filled slot"))
        })
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }

    /// Walks the pending entries in pop order — `(time, seq, event)`, each
    /// event through `event` — plus the insertion counter. Sequence numbers
    /// are stored verbatim, so same-time events keep their pop order after a
    /// read and fresh pushes continue from the stored counter: restored runs
    /// pop exactly like the saved one. Writing walks the events where they
    /// lie; reading fills fresh slots.
    ///
    /// Reading rejects a counter past the 2⁴⁰ sequence limit, more than 2²⁴
    /// entries, an entry earlier than `not_before` (the clock it is restored
    /// under) or with a sequence number not below the counter, and an entry
    /// that does not follow the previous one in `(time, seq)` order — each
    /// would break the queue's ordering invariants. A failed read leaves the
    /// queue empty.
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
        if next_seq > SEQ_LIMIT {
            self.clear();
            return Err(CkptError(format!(
                "sched_next_seq={next_seq} is past the queue's limit of {SEQ_LIMIT} events"
            )));
        }
        if c.is_reading() {
            self.clear();
        }
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.sort_unstable_by_key(|&Reverse(key)| key);
        let slots = &mut self.slots;
        let mut previous: Option<(SimTime, u64)> = None;
        let walked = c.seq("sched_entries", &mut keys, |Reverse(k): &mut Reverse<u128>, c| {
            let (mut time, mut seq, slot) = unpack(*k);
            c.time("ev_t", &mut time)?;
            c.u64("ev_seq", &mut seq)?;
            if time < not_before || seq >= next_seq {
                return Err(CkptError(format!(
                    "queue entry (t={}us, seq={seq}) precedes the clock ({}us) or the counter ({next_seq})",
                    time.as_micros(),
                    not_before.as_micros()
                )));
            }
            if let Some((t, s)) = previous.filter(|&p| p >= (time, seq)) {
                return Err(CkptError(format!(
                    "queue entry (t={}us, seq={seq}) does not follow (t={}us, seq={s})",
                    time.as_micros(),
                    t.as_micros()
                )));
            }
            previous = Some((time, seq));
            let slot = if c.is_reading() {
                new_slot(slots, E::default()).ok_or_else(|| {
                    CkptError(format!("more than {SLOT_LIMIT} queue entries pending"))
                })?
            } else {
                slot
            };
            *k = key(time, seq, slot);
            event(slots[slot as usize].as_mut().expect("a heaped key names a filled slot"), c)
        });
        self.heap = BinaryHeap::from(keys);
        if walked.is_err() {
            self.clear();
        }
        walked
    }
}

/// Appends `event` to the slab as a new slot, or returns `None` when the
/// slab already holds [`SLOT_LIMIT`] slots.
fn new_slot<E>(slots: &mut Vec<Option<E>>, event: E) -> Option<u32> {
    if slots.len() >= SLOT_LIMIT {
        return None;
    }
    slots.push(Some(event));
    Some((slots.len() - 1) as u32)
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
    use std::cmp::Ordering;

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

    /// The reference queue: a binary heap of whole `(time, seq, event)`
    /// entries.
    #[derive(Default)]
    struct OracleQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> OracleQueue<E> {
        fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        fn persist<'a>(
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
                    return Err(CkptError("entry precedes the clock or the counter".into()));
                }
                event(&mut e.event, c)
            });
            self.heap = BinaryHeap::from(entries);
            walked
        }
    }

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

    fn walk_strings(q: &mut EventQueue<String>, c: &mut Ckpt) -> Result<(), CkptError> {
        q.persist(c, SimTime::ZERO, |e, c| c.str("e", e))
    }

    #[test]
    fn entries_round_trip_preserves_pop_order() {
        let mut q = EventQueue::new();
        for (secs, tag) in [(2u64, "b"), (1, "a"), (2, "c"), (1, "d")] {
            q.push(SimTime::from_secs(secs), tag.to_owned());
        }
        q.pop(); // consume "a" so restored seqs are non-contiguous
        let text = Ckpt::write("test", |c| walk_strings(&mut q, c));
        assert!(text.contains("sched_next_seq=4\n"));
        let mut restored = EventQueue::new();
        Ckpt::read(&text, "test", |c| walk_strings(&mut restored, c)).unwrap();
        restored.push(SimTime::from_secs(2), "e".to_owned());
        let order: Vec<_> = std::iter::from_fn(|| restored.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["d", "b", "c", "e"], "tie order and fresh pushes survive");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["d", "b", "c"], "writing leaves the queue's pop order intact");
    }

    #[test]
    fn reading_rejects_entries_out_of_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a".to_owned());
        q.push(SimTime::from_secs(1), "b".to_owned());
        q.push(SimTime::from_secs(2), "c".to_owned());
        let text = Ckpt::write("test", |c| walk_strings(&mut q, c));
        let read = |text: &str| {
            let mut restored = EventQueue::new();
            let read = Ckpt::read(text, "test", |c| walk_strings(&mut restored, c));
            assert!(read.is_ok() || restored.is_empty(), "a failed read leaves the queue empty");
            read
        };
        assert!(read(&text).is_ok());
        // A duplicated key: the second t=1 s entry claims seq 0 as well.
        let duplicated = text.replacen("ev_seq=1\n", "ev_seq=0\n", 1);
        assert_ne!(duplicated, text);
        let err = read(&duplicated).unwrap_err();
        assert!(
            err.0.contains("(t=1000000us, seq=0) does not follow (t=1000000us, seq=0)"),
            "{err}"
        );
        // Two entries swapped: t=2 s written before t=1 s.
        let lines: Vec<&str> = text.lines().collect();
        let at = |key: &str| lines.iter().position(|l| l.starts_with(key)).unwrap();
        let (first, last) = (at("ev_t=1000000"), at("ev_t=2000000"));
        let mut swapped = lines.clone();
        swapped[first..first + 3].copy_from_slice(&lines[last..last + 3]);
        swapped[last..last + 3].copy_from_slice(&lines[first..first + 3]);
        let swapped = swapped.join("\n") + "\n";
        let err = read(&swapped).unwrap_err();
        assert!(err.0.contains("does not follow (t=2000000us, seq=2)"), "{err}");
    }

    #[test]
    fn reading_rejects_a_counter_past_the_sequence_limit() {
        let mut q: EventQueue<String> = EventQueue::new();
        let text = Ckpt::write("test", |c| walk_strings(&mut q, c));
        let at_limit = text.replace("sched_next_seq=0\n", &format!("sched_next_seq={SEQ_LIMIT}\n"));
        let mut restored = EventQueue::new();
        Ckpt::read(&at_limit, "test", |c| walk_strings(&mut restored, c)).unwrap();
        let past =
            text.replace("sched_next_seq=0\n", &format!("sched_next_seq={}\n", SEQ_LIMIT + 1));
        let mut restored = EventQueue::new();
        let err = Ckpt::read(&past, "test", |c| walk_strings(&mut restored, c)).unwrap_err();
        assert!(err.0.contains("past the queue's limit"), "{err}");
    }

    #[test]
    #[should_panic(expected = "sequence numbers used")]
    fn push_past_the_sequence_limit_panics() {
        let mut q = EventQueue { next_seq: SEQ_LIMIT - 1, ..EventQueue::new() };
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The key heap over the slab pops and checkpoints exactly like the
        /// whole-entry heap, through pushes at colliding times, pops, clears
        /// and write→read round trips. Each step draws an operation code —
        /// push 6 in 12, pop 4, clear 1, round trip 1 — and a push delay of
        /// 0–7 s past the clock.
        #[test]
        fn prop_matches_the_entry_heap(
            ops in proptest::collection::vec((0u8..12, 0u64..8), 0..300),
        ) {
            let mut queue = EventQueue::new();
            let mut oracle = OracleQueue::default();
            let mut now = SimTime::ZERO;
            for (i, (op, dt)) in ops.into_iter().enumerate() {
                match op {
                    0..=5 => {
                        let t = now + crate::time::SimDuration::from_secs(dt);
                        queue.push(t, i as u64);
                        oracle.push(t, i as u64);
                    }
                    6..=9 => {
                        let popped = queue.pop();
                        prop_assert_eq!(popped, oracle.pop());
                        if let Some((t, _)) = popped {
                            now = t;
                        }
                    }
                    10 => {
                        queue.clear();
                        oracle.heap.clear();
                    }
                    _ => {
                        let walk = |e: &mut u64, c: &mut Ckpt| c.u64("e", e);
                        let text = Ckpt::write("q", |c| queue.persist(c, now, walk));
                        let oracle_text = Ckpt::write("q", |c| oracle.persist(c, now, walk));
                        prop_assert_eq!(&text, &oracle_text);
                        queue = EventQueue::new();
                        Ckpt::read(&text, "q", |c| queue.persist(c, now, walk)).unwrap();
                    }
                }
                prop_assert_eq!(queue.len(), oracle.heap.len());
                prop_assert_eq!(queue.peek_time(), oracle.heap.peek().map(|e| e.time));
            }
            while let Some(popped) = oracle.pop() {
                prop_assert_eq!(queue.pop(), Some(popped));
            }
            prop_assert!(queue.is_empty());
        }
    }
}
