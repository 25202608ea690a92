//! Per-edge LRU object caches with delayed-hit semantics.
//!
//! A request for a cached object is a *hit* (served at zero latency). A
//! request for an object another request is already fetching is a *delayed
//! hit*: it joins the in-flight fetch's waiter queue instead of issuing a
//! second origin fetch, and is released — exactly once — when the fill
//! lands ("Caching with Delayed Hits", Atre et al., SIGCOMM '20). Only the
//! first requester pays an origin fetch; the cache stays deterministic
//! because every structure iterates in key order.
//!
//! Eviction is classic LRU by default. The optional MAD-aware variant
//! (Minimizing Aggregate Delay) scans a small window of the least-recently
//! used entries and evicts the one that has absorbed the fewest hits since
//! its fill — a deterministic proxy for the aggregate delay its loss would
//! cost at the next miss.

use crate::catalog::ObjectId;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimTime;
use std::collections::BTreeMap;

/// How many least-recently-used entries the MAD variant considers.
const MAD_WINDOW: usize = 8;

/// A request queued behind an in-flight origin fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Waiter {
    /// The requesting user's index.
    pub user: u32,
    /// When the request arrived (latency accrues from here).
    pub requested_at: SimTime,
}

/// The outcome of one cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from cache; the copy carries provider snapshot `snap`.
    Hit {
        /// Provider snapshot the cached copy was filled at.
        snap: u32,
    },
    /// Coalesced behind an in-flight fetch; released on fill.
    Delayed,
    /// Not cached and not in flight: the caller must start an origin fetch
    /// (the requester is already queued as the fetch's first waiter).
    Miss,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    snap: u32,
    tick: u64,
    uses: u64,
}

#[derive(Debug, Clone, Default)]
struct InFlight {
    waiters: Vec<Waiter>,
}

/// An LRU cache of catalog objects with miss coalescing.
///
/// # Examples
///
/// ```
/// use cdnc_simcore::SimTime;
/// use cdnc_workload::{Lookup, LruCache, ObjectId};
///
/// let mut cache = LruCache::new(2, false);
/// let id = ObjectId { slot: 0, gen: 0 };
/// let t = SimTime::ZERO;
/// assert_eq!(cache.request(id, 1, t), Lookup::Miss);
/// assert_eq!(cache.request(id, 2, t), Lookup::Delayed);
/// let (waiters, evicted) = cache.fill(id, 5, t);
/// assert_eq!(waiters.len(), 2, "initiator + delayed hit released together");
/// assert_eq!(evicted, None);
/// assert_eq!(cache.request(id, 3, t), Lookup::Hit { snap: 5 });
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    mad: bool,
    tick: u64,
    entries: BTreeMap<ObjectId, Entry>,
    recency: BTreeMap<u64, ObjectId>,
    inflight: BTreeMap<ObjectId, InFlight>,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` objects; `mad` selects
    /// the MAD-aware eviction variant.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, mad: bool) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        LruCache {
            capacity,
            mad,
            tick: 0,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            inflight: BTreeMap::new(),
        }
    }

    /// Number of cached objects (in-flight fetches excluded).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of fetches currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// The provider snapshot the cached copy of `id` carries, if cached.
    pub fn peek_snap(&self, id: ObjectId) -> Option<u32> {
        self.entries.get(&id).map(|e| e.snap)
    }

    /// One user request for `id`: hit, delayed hit, or miss. On a miss the
    /// requester is queued as the new fetch's first waiter, so the caller
    /// only has to start the origin fetch.
    pub fn request(&mut self, id: ObjectId, user: u32, now: SimTime) -> Lookup {
        if let Some(entry) = self.entries.get_mut(&id) {
            self.recency.remove(&entry.tick);
            self.tick += 1;
            entry.tick = self.tick;
            entry.uses += 1;
            self.recency.insert(self.tick, id);
            return Lookup::Hit { snap: entry.snap };
        }
        let waiter = Waiter { user, requested_at: now };
        if let Some(fetch) = self.inflight.get_mut(&id) {
            fetch.waiters.push(waiter);
            return Lookup::Delayed;
        }
        self.inflight.insert(id, InFlight { waiters: vec![waiter] });
        Lookup::Miss
    }

    /// Drops the cached copy of `id` (serve-time revalidation found it
    /// stale). Returns `true` if a copy was cached.
    pub fn invalidate(&mut self, id: ObjectId) -> bool {
        match self.entries.remove(&id) {
            Some(entry) => {
                self.recency.remove(&entry.tick);
                true
            }
            None => false,
        }
    }

    /// The origin fill for `id` landed carrying provider snapshot `snap`:
    /// caches the object and releases every queued waiter exactly once.
    /// Returns the waiters and the evicted victim, if the fill pushed the
    /// cache past capacity.
    ///
    /// # Panics
    ///
    /// Panics if no fetch for `id` is in flight.
    pub fn fill(
        &mut self,
        id: ObjectId,
        snap: u32,
        _now: SimTime,
    ) -> (Vec<Waiter>, Option<ObjectId>) {
        let fetch = self.inflight.remove(&id).expect("fill without an in-flight fetch");
        self.tick += 1;
        self.entries.insert(id, Entry { snap, tick: self.tick, uses: 0 });
        self.recency.insert(self.tick, id);
        let evicted = if self.entries.len() > self.capacity { Some(self.evict()) } else { None };
        (fetch.waiters, evicted)
    }

    /// `true` while a fetch for `id` is in flight — lets a caller detect an
    /// orphaned fill (the fetch was aborted while the response travelled).
    pub fn is_fetching(&self, id: ObjectId) -> bool {
        self.inflight.contains_key(&id)
    }

    /// Aborts every in-flight fetch — the edge died mid-fetch. The queued
    /// waiters are returned so the caller can release them as aborted
    /// misses; any fill that later arrives for an aborted fetch is an
    /// orphan the caller must drop (see [`LruCache::is_fetching`]).
    pub fn abort_inflight(&mut self) -> Vec<Waiter> {
        let inflight = std::mem::take(&mut self.inflight);
        inflight.into_values().flat_map(|f| f.waiters).collect()
    }

    /// Cold restart after a crash: drops every cached object and aborts
    /// every in-flight fetch, returning the orphaned waiters. The recency
    /// clock keeps running, so post-restart ticks never collide with
    /// pre-crash history.
    pub fn cold_restart(&mut self) -> Vec<Waiter> {
        self.entries.clear();
        self.recency.clear();
        self.abort_inflight()
    }

    /// Walks the cache's dynamic state — recency clock, cached entries, and
    /// in-flight fetches with their waiter queues — as checkpoint state.
    /// Capacity and the eviction variant are construction parameters
    /// rebuilt from config. Reading replaces whatever the cache held and
    /// rebuilds the recency index from the entries' ticks.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.u64("cache_tick", &mut self.tick)?;
        c.seq("cache_entries", &mut self.entries, |(id, entry), c| {
            c.u32("cache_slot", &mut id.slot)?;
            c.u32("cache_gen", &mut id.gen)?;
            c.u32("cache_snap", &mut entry.snap)?;
            c.u64("cache_entry_tick", &mut entry.tick)?;
            c.u64("cache_uses", &mut entry.uses)
        })?;
        c.seq("cache_inflight", &mut self.inflight, |(id, fetch), c| {
            c.u32("cache_slot", &mut id.slot)?;
            c.u32("cache_gen", &mut id.gen)?;
            c.seq("cache_waiters", &mut fetch.waiters, |waiter, c| {
                c.u32("cache_waiter_user", &mut waiter.user)?;
                c.time("cache_waiter_at", &mut waiter.requested_at)
            })
        })?;
        if c.is_reading() {
            self.recency = self.entries.iter().map(|(&id, entry)| (entry.tick, id)).collect();
        }
        Ok(())
    }

    /// Picks and removes the eviction victim; returns its id.
    fn evict(&mut self) -> ObjectId {
        let victim = if self.mad {
            // MAD-aware: among the least-recent window, the entry with the
            // fewest absorbed hits costs the least aggregate delay to lose.
            // Ties fall to the older entry, so the scan is deterministic.
            let mut best: Option<(u64, u64, ObjectId)> = None;
            for (&tick, &id) in self.recency.iter().take(MAD_WINDOW) {
                let uses = self.entries[&id].uses;
                if best.is_none_or(|(bu, bt, _)| uses < bu || (uses == bu && tick < bt)) {
                    best = Some((uses, tick, id));
                }
            }
            best.expect("eviction from a non-empty cache").2
        } else {
            *self.recency.first_key_value().expect("eviction from a non-empty cache").1
        };
        let entry = self.entries.remove(&victim).expect("victim is cached");
        self.recency.remove(&entry.tick);
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(slot: u32) -> ObjectId {
        ObjectId { slot, gen: 0 }
    }

    fn filled(cache: &mut LruCache, slot: u32) {
        assert_eq!(cache.request(id(slot), 0, SimTime::ZERO), Lookup::Miss);
        cache.fill(id(slot), 0, SimTime::ZERO);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = LruCache::new(2, false);
        filled(&mut cache, 1);
        filled(&mut cache, 2);
        // Touch 1 so 2 is the LRU victim.
        assert!(matches!(cache.request(id(1), 0, SimTime::ZERO), Lookup::Hit { .. }));
        assert_eq!(cache.request(id(3), 0, SimTime::ZERO), Lookup::Miss);
        let (_, evicted) = cache.fill(id(3), 0, SimTime::ZERO);
        assert_eq!(evicted, Some(id(2)));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek_snap(id(1)).is_some() && cache.peek_snap(id(3)).is_some());
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_fetch() {
        let mut cache = LruCache::new(4, false);
        assert_eq!(cache.request(id(9), 1, SimTime::from_secs(1)), Lookup::Miss);
        assert_eq!(cache.request(id(9), 2, SimTime::from_secs(2)), Lookup::Delayed);
        assert_eq!(cache.request(id(9), 3, SimTime::from_secs(3)), Lookup::Delayed);
        assert_eq!(cache.inflight(), 1, "one fetch serves all three");
        let (waiters, _) = cache.fill(id(9), 7, SimTime::from_secs(4));
        assert_eq!(
            waiters,
            vec![
                Waiter { user: 1, requested_at: SimTime::from_secs(1) },
                Waiter { user: 2, requested_at: SimTime::from_secs(2) },
                Waiter { user: 3, requested_at: SimTime::from_secs(3) },
            ]
        );
        assert_eq!(cache.inflight(), 0);
        assert_eq!(cache.request(id(9), 4, SimTime::from_secs(5)), Lookup::Hit { snap: 7 });
    }

    #[test]
    fn invalidation_forces_a_refetch() {
        let mut cache = LruCache::new(4, false);
        filled(&mut cache, 5);
        assert!(cache.invalidate(id(5)));
        assert!(!cache.invalidate(id(5)), "second invalidate is a no-op");
        assert_eq!(cache.request(id(5), 0, SimTime::ZERO), Lookup::Miss);
    }

    #[test]
    fn mad_variant_spares_hit_absorbing_entries() {
        // Entry 1 is the *least recent* but has absorbed hits; 2 and 3 are
        // newer and unused. Plain LRU evicts 1; MAD spares it and evicts
        // the older of the unused entries instead.
        let mut cache = LruCache::new(3, true);
        filled(&mut cache, 1);
        for _ in 0..5 {
            assert!(matches!(cache.request(id(1), 0, SimTime::ZERO), Lookup::Hit { .. }));
        }
        filled(&mut cache, 2);
        filled(&mut cache, 3);
        let mut plain = cache.clone();
        plain.mad = false;
        assert_eq!(cache.request(id(4), 0, SimTime::ZERO), Lookup::Miss);
        let (_, evicted) = cache.fill(id(4), 0, SimTime::ZERO);
        assert_eq!(evicted, Some(id(2)), "MAD spares the hit-absorbing entry");
        assert_eq!(plain.request(id(4), 0, SimTime::ZERO), Lookup::Miss);
        let (_, evicted) = plain.fill(id(4), 0, SimTime::ZERO);
        assert_eq!(evicted, Some(id(1)), "plain LRU evicts by recency alone");
    }

    #[test]
    #[should_panic(expected = "fill without an in-flight fetch")]
    fn fill_requires_a_fetch() {
        LruCache::new(1, false).fill(id(0), 0, SimTime::ZERO);
    }

    #[test]
    fn abort_inflight_releases_waiters_and_orphans_fills() {
        let mut cache = LruCache::new(4, false);
        filled(&mut cache, 1);
        assert_eq!(cache.request(id(9), 1, SimTime::from_secs(1)), Lookup::Miss);
        assert_eq!(cache.request(id(9), 2, SimTime::from_secs(2)), Lookup::Delayed);
        assert!(cache.is_fetching(id(9)));
        let waiters = cache.abort_inflight();
        assert_eq!(waiters.len(), 2, "initiator and delayed hit both released");
        assert!(!cache.is_fetching(id(9)), "the fill that lands later is an orphan");
        assert_eq!(cache.inflight(), 0);
        assert_eq!(cache.len(), 1, "cached entries survive an inflight abort");
        // A fresh request for the aborted object starts a new fetch.
        assert_eq!(cache.request(id(9), 3, SimTime::from_secs(3)), Lookup::Miss);
    }

    #[test]
    fn cold_restart_empties_everything_and_keeps_the_clock() {
        let mut cache = LruCache::new(4, false);
        filled(&mut cache, 1);
        filled(&mut cache, 2);
        assert_eq!(cache.request(id(7), 5, SimTime::from_secs(1)), Lookup::Miss);
        let waiters = cache.cold_restart();
        assert_eq!(waiters, vec![Waiter { user: 5, requested_at: SimTime::from_secs(1) }]);
        assert!(cache.is_empty() && cache.inflight() == 0);
        // Post-restart fills behave normally (monotonic recency clock).
        filled(&mut cache, 3);
        assert!(matches!(cache.request(id(3), 0, SimTime::ZERO), Lookup::Hit { .. }));
    }

    #[test]
    fn checkpoint_round_trip_preserves_behaviour() {
        let mut cache = LruCache::new(2, true);
        filled(&mut cache, 1);
        for _ in 0..3 {
            cache.request(id(1), 0, SimTime::ZERO);
        }
        filled(&mut cache, 2);
        assert_eq!(cache.request(id(8), 4, SimTime::from_secs(2)), Lookup::Miss);
        assert_eq!(cache.request(id(8), 5, SimTime::from_secs(3)), Lookup::Delayed);
        let text = Ckpt::write("test", |c| cache.persist(c));
        let mut restored = LruCache::new(2, true);
        Ckpt::read(&text, "test", |c| restored.persist(c)).unwrap();
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.inflight(), 1);
        // The in-flight fetch still carries both waiters…
        let (waiters, evicted) = restored.fill(id(8), 9, SimTime::from_secs(4));
        let (expect_waiters, expect_evicted) = cache.fill(id(8), 9, SimTime::from_secs(4));
        assert_eq!(waiters, expect_waiters);
        // …and the MAD eviction decision sees identical uses/recency state.
        assert_eq!(evicted, expect_evicted);
    }

    #[test]
    fn checkpoint_encoding_is_pinned() {
        // Two entries (one touched since its fill) and one in-flight fetch
        // with two waiters; the literal is the artifact format itself, so
        // a renamed key, a reordered field or a re-encoded value fails here.
        const PINNED: &str = "ckpt_version=1\nckpt_kind=test\ncache_tick=3\n\
            cache_entries=2\n\
            cache_slot=1\ncache_gen=1\ncache_snap=5\ncache_entry_tick=3\ncache_uses=1\n\
            cache_slot=2\ncache_gen=1\ncache_snap=6\ncache_entry_tick=2\ncache_uses=0\n\
            cache_inflight=1\ncache_slot=3\ncache_gen=1\ncache_waiters=2\n\
            cache_waiter_user=7\ncache_waiter_at=1000000\n\
            cache_waiter_user=8\ncache_waiter_at=2000000\n";
        let id = |slot| ObjectId { slot, gen: 1 };
        let mut cache = LruCache::new(4, false);
        assert_eq!(cache.request(id(1), 0, SimTime::ZERO), Lookup::Miss);
        cache.fill(id(1), 5, SimTime::ZERO);
        assert_eq!(cache.request(id(2), 1, SimTime::ZERO), Lookup::Miss);
        cache.fill(id(2), 6, SimTime::ZERO);
        assert_eq!(cache.request(id(1), 2, SimTime::ZERO), Lookup::Hit { snap: 5 });
        assert_eq!(cache.request(id(3), 7, SimTime::from_secs(1)), Lookup::Miss);
        assert_eq!(cache.request(id(3), 8, SimTime::from_secs(2)), Lookup::Delayed);
        assert_eq!(Ckpt::write("test", |c| cache.persist(c)), PINNED);
        let mut restored = LruCache::new(4, false);
        Ckpt::read(PINNED, "test", |c| restored.persist(c)).unwrap();
        assert_eq!(Ckpt::write("test", |c| restored.persist(c)), PINNED);
    }

    #[test]
    #[should_panic(expected = "zero-capacity cache")]
    fn zero_capacity_is_rejected() {
        LruCache::new(0, false);
    }
}
