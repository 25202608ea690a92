//! Per-edge LRU object caches with delayed-hit semantics.
//!
//! A request for a cached object is a *hit* (served at zero latency). A
//! request for an object another request is already fetching is a *delayed
//! hit*: it joins the in-flight fetch's waiter queue instead of issuing a
//! second origin fetch, and is released — exactly once — when the fill
//! lands ("Caching with Delayed Hits", Atre et al., SIGCOMM '20). Only the
//! first requester pays an origin fetch.
//!
//! Eviction is classic LRU by default. The optional MAD-aware variant
//! (Minimizing Aggregate Delay) scans a small window of the least-recently
//! used entries and evicts the one that has absorbed the fewest hits since
//! its fill — a deterministic proxy for the aggregate delay its loss would
//! cost at the next miss.
//!
//! Every operation is O(1) apart from the in-flight list, which holds the
//! few fetches under way. Cached entries live in a slab, linked into one
//! recency list from the least to the most recently used, and a hash index
//! maps each object to its slot. The cache stays deterministic because
//! nothing reads the index in its iteration order: eviction walks the
//! list, and the in-flight list and checkpoints are in object order.

use crate::catalog::ObjectId;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimTime;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How many least-recently-used entries the MAD variant considers.
const MAD_WINDOW: usize = 8;

/// The slab slot that stands for "no entry" in the recency links.
const NIL: u32 = u32::MAX;

/// A request queued behind an in-flight origin fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Waiter {
    /// The requesting user's index.
    pub user: u32,
    /// When the request arrived (latency accrues from here).
    pub requested_at: SimTime,
}

/// The requests queued behind one in-flight fetch, in arrival order. A
/// miss starts the queue with its requester inline, so it allocates
/// nothing; the first delayed hit moves the queue into a `Vec`, which the
/// fill hands back as it is. Either form keeps an in-flight entry at the
/// size of an object id and a `Vec`.
#[derive(Debug, Clone)]
enum Waiters {
    One(Waiter),
    Many(Vec<Waiter>),
}

impl Waiters {
    /// Queues `waiter` behind the others.
    fn push(&mut self, waiter: Waiter) {
        match self {
            Waiters::One(first) => {
                let mut many = Vec::with_capacity(4);
                many.extend([*first, waiter]);
                *self = Waiters::Many(many);
            }
            Waiters::Many(many) => many.push(waiter),
        }
    }

    /// Every waiter, in arrival order.
    fn into_vec(self) -> Vec<Waiter> {
        match self {
            Waiters::One(first) => vec![first],
            Waiters::Many(many) => many,
        }
    }
}

/// The empty queue, which only a checkpoint reader holds, as the
/// placeholder it reads into.
impl Default for Waiters {
    fn default() -> Self {
        Waiters::Many(Vec::new())
    }
}

impl IntoIterator for Waiters {
    type Item = Waiter;
    type IntoIter = std::vec::IntoIter<Waiter>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl FromIterator<Waiter> for Waiters {
    fn from_iter<I: IntoIterator<Item = Waiter>>(iter: I) -> Self {
        let many = Vec::from_iter(iter);
        match many[..] {
            [one] => Waiters::One(one),
            _ => Waiters::Many(many),
        }
    }
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

/// A cached object in its slab slot. A free slot keeps its last contents
/// and chains to the next free slot through `older`.
#[derive(Debug, Clone, Default)]
struct Entry {
    id: ObjectId,
    snap: u32,
    /// The recency clock at the entry's last fill or hit.
    tick: u64,
    /// Hits absorbed since the fill.
    uses: u64,
    /// The next less recently used entry's slot, or [`NIL`].
    older: u32,
    /// The next more recently used entry's slot, or [`NIL`].
    newer: u32,
}

/// Hashes an [`ObjectId`] by one multiply-rotate over its two words. A
/// fixed function, so the index's layout and allocations depend only on
/// the operations applied, never on a per-process key. Ids come from the
/// simulation's own catalog, and a checkpoint holds at most `capacity` of
/// them, so no input can flood the index with colliding keys.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0 << 32) | u64::from(word);
    }
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
    /// Entry slots. A fill holds one entry past capacity until it evicts,
    /// so the slab never needs more than `capacity + 1` slots.
    slab: Vec<Entry>,
    /// The slot of each cached object.
    index: HashMap<ObjectId, u32, BuildHasherDefault<IdHasher>>,
    /// The least and most recently used entries' slots, or [`NIL`].
    oldest: u32,
    newest: u32,
    /// The first free slot, or [`NIL`].
    free: u32,
    /// In-flight fetches with their waiter queues, sorted by object.
    inflight: Vec<(ObjectId, Waiters)>,
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
            slab: Vec::new(),
            index: HashMap::default(),
            oldest: NIL,
            newest: NIL,
            free: NIL,
            inflight: Vec::new(),
        }
    }

    /// Number of cached objects (in-flight fetches excluded).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
        self.index.get(&id).map(|&slot| self.slab[slot as usize].snap)
    }

    /// One user request for `id`: hit, delayed hit, or miss. On a miss the
    /// requester is queued as the new fetch's first waiter, so the caller
    /// only has to start the origin fetch.
    pub fn request(&mut self, id: ObjectId, user: u32, now: SimTime) -> Lookup {
        if let Some(&slot) = self.index.get(&id) {
            self.tick += 1;
            if slot != self.newest {
                self.unlink(slot);
                self.push_newest(slot);
            }
            let entry = &mut self.slab[slot as usize];
            entry.tick = self.tick;
            entry.uses += 1;
            return Lookup::Hit { snap: entry.snap };
        }
        let waiter = Waiter { user, requested_at: now };
        match self.fetch(id) {
            Ok(at) => {
                self.inflight[at].1.push(waiter);
                Lookup::Delayed
            }
            Err(at) => {
                self.inflight.insert(at, (id, Waiters::One(waiter)));
                Lookup::Miss
            }
        }
    }

    /// Drops the cached copy of `id` (serve-time revalidation found it
    /// stale). Returns `true` if a copy was cached.
    pub fn invalidate(&mut self, id: ObjectId) -> bool {
        match self.index.remove(&id) {
            Some(slot) => {
                self.release(slot);
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
        let Ok(at) = self.fetch(id) else { panic!("fill without an in-flight fetch") };
        let waiters = self.inflight.remove(at).1.into_vec();
        self.tick += 1;
        self.insert(Entry { id, snap, tick: self.tick, uses: 0, older: NIL, newer: NIL });
        let evicted = if self.index.len() > self.capacity { Some(self.evict()) } else { None };
        (waiters, evicted)
    }

    /// `true` while a fetch for `id` is in flight — lets a caller detect an
    /// orphaned fill (the fetch was aborted while the response travelled).
    pub fn is_fetching(&self, id: ObjectId) -> bool {
        self.fetch(id).is_ok()
    }

    /// Aborts every in-flight fetch — the edge died mid-fetch. The queued
    /// waiters are returned in object order so the caller can release them
    /// as aborted misses; any fill that later arrives for an aborted fetch
    /// is an orphan the caller must drop (see [`LruCache::is_fetching`]).
    pub fn abort_inflight(&mut self) -> Vec<Waiter> {
        self.inflight.drain(..).flat_map(|(_, waiters)| waiters).collect()
    }

    /// Cold restart after a crash: drops every cached object and aborts
    /// every in-flight fetch, returning the orphaned waiters. The recency
    /// clock keeps running, so post-restart ticks never collide with
    /// pre-crash history.
    pub fn cold_restart(&mut self) -> Vec<Waiter> {
        self.clear_entries();
        self.abort_inflight()
    }

    /// Walks the cache's dynamic state — recency clock, cached entries, and
    /// in-flight fetches with their waiter queues, both in object order —
    /// as checkpoint state. Capacity and the eviction variant are
    /// construction parameters rebuilt from config. Reading replaces
    /// whatever the cache held and relinks the recency list by the entries'
    /// ticks; it rejects a catalog slot not below `slots`, a snapshot not
    /// below `snapshots`, a waiting user not below `users`, more entries
    /// than the capacity, an object cached twice, in flight twice or both,
    /// a tick repeated or past the clock, and a fetch without waiters.
    pub fn persist(
        &mut self,
        c: &mut Ckpt,
        slots: usize,
        snapshots: usize,
        users: usize,
    ) -> Result<(), CkptError> {
        c.u64("cache_tick", &mut self.tick)?;
        let mut entries = Vec::new();
        if !c.is_reading() {
            entries.reserve_exact(self.index.len());
            let mut slot = self.oldest;
            while slot != NIL {
                entries.push(self.slab[slot as usize].clone());
                slot = self.slab[slot as usize].newer;
            }
            entries.sort_unstable_by_key(|e| e.id);
        }
        c.seq("cache_entries", &mut entries, |entry: &mut Entry, c| {
            c.index("cache_slot", &mut entry.id.slot, slots)?;
            c.u32("cache_gen", &mut entry.id.gen)?;
            c.index("cache_snap", &mut entry.snap, snapshots)?;
            c.u64("cache_entry_tick", &mut entry.tick)?;
            c.u64("cache_uses", &mut entry.uses)
        })?;
        c.seq("cache_inflight", &mut self.inflight, |(id, waiters), c| {
            c.index("cache_slot", &mut id.slot, slots)?;
            c.u32("cache_gen", &mut id.gen)?;
            c.seq("cache_waiters", waiters, |waiter, c| {
                c.index("cache_waiter_user", &mut waiter.user, users)?;
                c.time("cache_waiter_at", &mut waiter.requested_at)
            })
        })?;
        if c.is_reading() {
            self.relink(entries)?;
        }
        Ok(())
    }

    /// Rebuilds the slab, index and recency list from restored entries and
    /// puts the restored in-flight list in object order.
    fn relink(&mut self, mut entries: Vec<Entry>) -> Result<(), CkptError> {
        let bad = |what: &str| Err(CkptError(format!("cache checkpoint: {what}")));
        if entries.len() > self.capacity {
            return bad(&format!("{} entries exceed capacity {}", entries.len(), self.capacity));
        }
        entries.sort_unstable_by_key(|e| e.tick);
        if entries.windows(2).any(|w| w[0].tick == w[1].tick) {
            return bad("two entries share a tick");
        }
        if entries.last().is_some_and(|e| e.tick > self.tick) {
            return bad("an entry tick is past the recency clock");
        }
        self.inflight.sort_unstable_by_key(|(id, _)| *id);
        if self.inflight.windows(2).any(|w| w[0].0 == w[1].0) {
            return bad("an object is in flight twice");
        }
        if self.inflight.iter().any(|(_, w)| matches!(w, Waiters::Many(many) if many.is_empty())) {
            return bad("a fetch is in flight without waiters");
        }
        self.clear_entries();
        for entry in entries {
            let id = entry.id;
            if self.index.contains_key(&id) || self.is_fetching(id) {
                return bad("an object is cached twice or both cached and in flight");
            }
            self.insert(entry);
        }
        Ok(())
    }

    /// Caches `entry` as the most recently used.
    fn insert(&mut self, entry: Entry) {
        let id = entry.id;
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.slab[slot as usize].older;
            self.slab[slot as usize] = entry;
            slot
        } else {
            if self.slab.len() == self.slab.capacity() {
                // Grow geometrically, but never past the slots a full
                // cache can use.
                let limit = self.capacity.saturating_add(1);
                let want = (2 * self.slab.len()).clamp(4.min(limit), limit);
                self.slab.reserve_exact(want - self.slab.len());
            }
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        };
        self.push_newest(slot);
        self.index.insert(id, slot);
    }

    /// Unlinks the entry in `slot` (already dropped from the index) and
    /// frees the slot.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        self.slab[slot as usize].older = self.free;
        self.free = slot;
    }

    /// Drops every cached entry, keeping the slab's and index's storage.
    fn clear_entries(&mut self) {
        self.slab.clear();
        self.index.clear();
        (self.oldest, self.newest, self.free) = (NIL, NIL, NIL);
    }

    /// Takes the entry in `slot` off the recency list.
    fn unlink(&mut self, slot: u32) {
        let Entry { older, newer, .. } = self.slab[slot as usize];
        match older {
            NIL => self.oldest = newer,
            _ => self.slab[older as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            _ => self.slab[newer as usize].older = older,
        }
    }

    /// Links the entry in `slot` in as the most recently used.
    fn push_newest(&mut self, slot: u32) {
        let entry = &mut self.slab[slot as usize];
        (entry.older, entry.newer) = (self.newest, NIL);
        match self.newest {
            NIL => self.oldest = slot,
            newest => self.slab[newest as usize].newer = slot,
        }
        self.newest = slot;
    }

    /// The position of `id`'s fetch in the in-flight list, or where it
    /// would go.
    fn fetch(&self, id: ObjectId) -> Result<usize, usize> {
        self.inflight.binary_search_by_key(&id, |(fetched, _)| *fetched)
    }

    /// Picks and removes the eviction victim; returns its id.
    fn evict(&mut self) -> ObjectId {
        let mut victim = self.oldest;
        if self.mad {
            // MAD-aware: among the least-recent window, the entry with the
            // fewest absorbed hits costs the least aggregate delay to lose.
            // The walk runs from the oldest entry and only a strictly
            // smaller count displaces the pick, so ties fall to the older.
            let mut slot = self.slab[victim as usize].newer;
            for _ in 1..MAD_WINDOW {
                if slot == NIL {
                    break;
                }
                if self.slab[slot as usize].uses < self.slab[victim as usize].uses {
                    victim = slot;
                }
                slot = self.slab[slot as usize].newer;
            }
        }
        let id = self.slab[victim as usize].id;
        self.index.remove(&id);
        self.release(victim);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The `BTreeMap` cache [`LruCache`] replaced, kept as its oracle:
    /// entries by object, recency by tick, in-flight fetches by object.
    #[derive(Debug, Clone)]
    struct OracleCache {
        capacity: usize,
        mad: bool,
        tick: u64,
        entries: BTreeMap<ObjectId, (u32, u64, u64)>,
        recency: BTreeMap<u64, ObjectId>,
        inflight: BTreeMap<ObjectId, Vec<Waiter>>,
    }

    impl OracleCache {
        fn new(capacity: usize, mad: bool) -> Self {
            let (entries, recency, inflight) = Default::default();
            OracleCache { capacity, mad, tick: 0, entries, recency, inflight }
        }

        fn request(&mut self, id: ObjectId, user: u32, now: SimTime) -> Lookup {
            if let Some((snap, tick, uses)) = self.entries.get_mut(&id) {
                self.recency.remove(tick);
                self.tick += 1;
                *tick = self.tick;
                *uses += 1;
                self.recency.insert(self.tick, id);
                return Lookup::Hit { snap: *snap };
            }
            let waiter = Waiter { user, requested_at: now };
            if let Some(waiters) = self.inflight.get_mut(&id) {
                waiters.push(waiter);
                return Lookup::Delayed;
            }
            self.inflight.insert(id, vec![waiter]);
            Lookup::Miss
        }

        fn invalidate(&mut self, id: ObjectId) -> bool {
            let removed = self.entries.remove(&id);
            removed.map(|(_, tick, _)| self.recency.remove(&tick)).is_some()
        }

        fn fill(&mut self, id: ObjectId, snap: u32) -> (Vec<Waiter>, Option<ObjectId>) {
            let waiters = self.inflight.remove(&id).expect("fill without an in-flight fetch");
            self.tick += 1;
            self.entries.insert(id, (snap, self.tick, 0));
            self.recency.insert(self.tick, id);
            let evicted = (self.entries.len() > self.capacity).then(|| self.evict());
            (waiters, evicted)
        }

        fn abort_inflight(&mut self) -> Vec<Waiter> {
            std::mem::take(&mut self.inflight).into_values().flatten().collect()
        }

        fn cold_restart(&mut self) -> Vec<Waiter> {
            self.entries.clear();
            self.recency.clear();
            self.abort_inflight()
        }

        /// The checkpoint text [`LruCache::persist`] writes for this state.
        fn artifact(&mut self) -> String {
            Ckpt::write("test", |c| {
                c.u64("cache_tick", &mut self.tick)?;
                c.seq("cache_entries", &mut self.entries, |(id, (snap, tick, uses)), c| {
                    c.u32("cache_slot", &mut id.slot)?;
                    c.u32("cache_gen", &mut id.gen)?;
                    c.u32("cache_snap", snap)?;
                    c.u64("cache_entry_tick", tick)?;
                    c.u64("cache_uses", uses)
                })?;
                c.seq("cache_inflight", &mut self.inflight, |(id, waiters), c| {
                    c.u32("cache_slot", &mut id.slot)?;
                    c.u32("cache_gen", &mut id.gen)?;
                    c.seq("cache_waiters", waiters, |waiter, c| {
                        c.u32("cache_waiter_user", &mut waiter.user)?;
                        c.time("cache_waiter_at", &mut waiter.requested_at)
                    })
                })
            })
        }

        fn evict(&mut self) -> ObjectId {
            let victim = if self.mad {
                let mut best: Option<(u64, u64, ObjectId)> = None;
                for (&tick, &id) in self.recency.iter().take(MAD_WINDOW) {
                    let uses = self.entries[&id].2;
                    if best.is_none_or(|(bu, bt, _)| uses < bu || (uses == bu && tick < bt)) {
                        best = Some((uses, tick, id));
                    }
                }
                best.expect("eviction from a non-empty cache").2
            } else {
                *self.recency.first_key_value().expect("eviction from a non-empty cache").1
            };
            let (_, tick, _) = self.entries.remove(&victim).expect("victim is cached");
            self.recency.remove(&tick);
            victim
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// Every lookup, every released waiter list and eviction, and the
        /// checkpoint text after every step equal the `BTreeMap` oracle's,
        /// over random operation sequences at capacities 1..12 (past the
        /// MAD window), plain and MAD, with checkpoint round trips mixed in.
        /// A step is an op code (requests most often, aborts and cold
        /// restarts rarely, so the cache fills), an object key and a user,
        /// snapshot or fetch pick. Keys name two generations of each slot,
        /// and only a few more objects than the capacity, so entries absorb
        /// the hits MAD eviction has to weigh.
        #[test]
        fn prop_cache_matches_the_btreemap_oracle(
            capacity in 1usize..12,
            mad in prop_oneof![Just(false), Just(true)],
            spare in 1u32..12,
            steps in proptest::collection::vec((0u8..64, 0u32..1_000, 0u32..40), 1..300),
        ) {
            let mut cache = LruCache::new(capacity, mad);
            let mut oracle = OracleCache::new(capacity, mad);
            for (i, &(op, key, arg)) in steps.iter().enumerate() {
                let key = key % (capacity as u32 + spare);
                let id = ObjectId { slot: key / 2, gen: key % 2 };
                let now = SimTime::from_secs(i as u64);
                match op {
                    0..=31 => {
                        prop_assert_eq!(cache.request(id, arg, now), oracle.request(id, arg, now));
                    }
                    32..=51 => {
                        // Fill one of the fetches under way, if any.
                        let Some(&id) = oracle.inflight.keys().nth(arg as usize % 4) else {
                            continue;
                        };
                        prop_assert_eq!(cache.fill(id, arg, now), oracle.fill(id, arg));
                    }
                    52..=56 => prop_assert_eq!(cache.invalidate(id), oracle.invalidate(id)),
                    57 => prop_assert_eq!(cache.abort_inflight(), oracle.abort_inflight()),
                    58 => prop_assert_eq!(cache.cold_restart(), oracle.cold_restart()),
                    _ => {
                        let text = Ckpt::write("test", |c| cache.persist(c, 20, 40, 40));
                        cache = LruCache::new(capacity, mad);
                        Ckpt::read(&text, "test", |c| cache.persist(c, 20, 40, 40)).unwrap();
                    }
                }
                let text = Ckpt::write("test", |c| cache.persist(c, 20, 40, 40));
                prop_assert_eq!(text, oracle.artifact(), "step {}: {:?}", i, (op, id, arg));
                prop_assert_eq!(cache.len(), oracle.entries.len());
                prop_assert_eq!(cache.inflight(), oracle.inflight.len());
                prop_assert_eq!(cache.peek_snap(id), oracle.entries.get(&id).map(|e| e.0));
                prop_assert_eq!(cache.is_fetching(id), oracle.inflight.contains_key(&id));
                prop_assert!(cache.slab.capacity() <= capacity + 1, "slab outgrew capacity + 1");
            }
        }
    }

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
        let text = Ckpt::write("test", |c| cache.persist(c, 16, 16, 16));
        let mut restored = LruCache::new(2, true);
        Ckpt::read(&text, "test", |c| restored.persist(c, 16, 16, 16)).unwrap();
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
        const PINNED: &str = "ckpt_version=3\nckpt_kind=test\ncache_tick=3\n\
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
        assert_eq!(Ckpt::write("test", |c| cache.persist(c, 4, 7, 9)), PINNED);
        let mut restored = LruCache::new(4, false);
        Ckpt::read(PINNED, "test", |c| restored.persist(c, 4, 7, 9)).unwrap();
        assert_eq!(Ckpt::write("test", |c| restored.persist(c, 4, 7, 9)), PINNED);
        // The literal stores slot 3, snapshot 6 and user 8: one table short
        // of any of them rejects the artifact.
        for (slots, snapshots, users) in [(3, 7, 9), (4, 6, 9), (4, 7, 8)] {
            let read = Ckpt::read(PINNED, "test", |c| {
                LruCache::new(4, false).persist(c, slots, snapshots, users)
            });
            assert!(read.is_err(), "bounds {slots}/{snapshots}/{users} must reject it");
        }
    }

    #[test]
    fn checkpoint_rejects_what_the_layout_cannot_hold() {
        // Entries 1 (tick 3) and 2 (tick 2), slot 3 in flight, clock 3.
        let id = |slot| ObjectId { slot, gen: 1 };
        let mut cache = LruCache::new(4, false);
        for slot in [1, 2] {
            assert_eq!(cache.request(id(slot), 0, SimTime::ZERO), Lookup::Miss);
            cache.fill(id(slot), 0, SimTime::ZERO);
        }
        cache.request(id(1), 0, SimTime::ZERO);
        assert_eq!(cache.request(id(3), 0, SimTime::ZERO), Lookup::Miss);
        let text = Ckpt::write("test", |c| cache.persist(c, 8, 8, 8));
        let read = |text: &str, capacity| {
            Ckpt::read(text, "test", |c| LruCache::new(capacity, false).persist(c, 8, 8, 8))
        };
        assert!(read(&text, 4).is_ok());
        assert!(read(&text, 1).is_err(), "two entries in a one-object cache");
        for (from, to, why) in [
            ("cache_slot=2\n", "cache_slot=1\n", "an object cached twice"),
            ("cache_slot=3\n", "cache_slot=1\n", "an object both cached and in flight"),
            ("cache_entry_tick=2\n", "cache_entry_tick=3\n", "a tick repeated"),
            ("cache_tick=3\n", "cache_tick=2\n", "a tick past the clock"),
            (
                "cache_waiters=1\ncache_waiter_user=0\ncache_waiter_at=0\n",
                "cache_waiters=0\n",
                "a fetch without waiters",
            ),
        ] {
            assert!(read(&text.replacen(from, to, 1), 4).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "zero-capacity cache")]
    fn zero_capacity_is_rejected() {
        LruCache::new(0, false);
    }
}
