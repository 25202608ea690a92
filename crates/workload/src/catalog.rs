//! The object catalog: what users can ask for, and how popular it is.
//!
//! The catalog is a fixed ladder of popularity *ranks*; requests pick a rank
//! by a bounded-Zipf draw ([`SimRng::zipf`]) and get the object currently
//! occupying it. Publish/perish churn replaces a rank's occupant with a
//! fresh object (a new generation): the perished object is never requested
//! again, the newcomer inherits the rank's request share. Because the ranks
//! themselves never move, re-normalising the Zipf weights after churn is the
//! identity — the deterministic re-normalisation the live-content model
//! needs, at zero cost.
//!
//! The hottest `live_slots` ranks are *live* content: their bytes follow the
//! provider's update stream, so serving them stale is what the
//! staleness-served metric measures. The remaining ranks are immutable
//! objects whose misses come only from churn and cache evictions.

use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// A catalog object: the `gen`-th occupant of popularity rank `slot`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ObjectId {
    /// Popularity rank (0 = most popular).
    pub slot: u32,
    /// Churn generation of the occupant (0 = the original object).
    pub gen: u32,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    born: SimTime,
}

/// A Zipf-popularity object catalog with publish/perish dynamics.
///
/// # Examples
///
/// ```
/// use cdnc_simcore::{SimRng, SimTime};
/// use cdnc_workload::Catalog;
///
/// let mut catalog = Catalog::new(64, 1.0, 8);
/// let mut rng = SimRng::seed_from_u64(7);
/// let id = catalog.sample(&mut rng);
/// assert_eq!(id.gen, 0, "nothing churned yet");
/// let (old, new) = catalog.churn(&mut rng, SimTime::from_secs(10));
/// assert_eq!(old.slot, new.slot);
/// assert_eq!(old.gen + 1, new.gen);
/// ```
#[derive(Debug, Clone)]
pub struct Catalog {
    slots: Vec<Slot>,
    zipf_s: f64,
    live_slots: usize,
}

impl Catalog {
    /// Creates a catalog of `size` ranks with Zipf exponent `zipf_s`; the
    /// hottest `live_slots` ranks are live content.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `live_slots > size`.
    pub fn new(size: usize, zipf_s: f64, live_slots: usize) -> Self {
        assert!(size > 0, "empty catalog");
        assert!(live_slots <= size, "live slots exceed catalog size");
        Catalog { slots: vec![Slot { gen: 0, born: SimTime::ZERO }; size], zipf_s, live_slots }
    }

    /// Number of ranks in the catalog.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the catalog holds no ranks (never: `new` rejects size 0).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Draws the object a request asks for: a Zipf rank's current occupant.
    pub fn sample(&self, rng: &mut SimRng) -> ObjectId {
        let slot = rng.zipf(self.slots.len(), self.zipf_s);
        ObjectId { slot: slot as u32, gen: self.slots[slot].gen }
    }

    /// One publish/perish event at `now`: a Zipf-sampled rank's occupant
    /// perishes and a fresh object takes its place (new objects enter with
    /// sampled popularity, so hot ranks turn over fastest — live content).
    /// Returns `(perished, newcomer)`.
    pub fn churn(&mut self, rng: &mut SimRng, now: SimTime) -> (ObjectId, ObjectId) {
        let slot = rng.zipf(self.slots.len(), self.zipf_s);
        let old = ObjectId { slot: slot as u32, gen: self.slots[slot].gen };
        self.slots[slot].gen += 1;
        self.slots[slot].born = now;
        (old, ObjectId { slot: slot as u32, gen: self.slots[slot].gen })
    }

    /// The current occupant of rank `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn head(&self, slot: u32) -> ObjectId {
        ObjectId { slot, gen: self.slots[slot as usize].gen }
    }

    /// When the current occupant of rank `slot` entered the catalog.
    pub fn born(&self, slot: u32) -> SimTime {
        self.slots[slot as usize].born
    }

    /// `true` if `id` is the rank's current occupant (not perished).
    pub fn is_current(&self, id: ObjectId) -> bool {
        self.slots[id.slot as usize].gen == id.gen
    }

    /// `true` if rank `slot` is live content (versioned by the provider's
    /// update stream).
    pub fn is_live(&self, slot: u32) -> bool {
        (slot as usize) < self.live_slots
    }

    /// Number of live ranks.
    pub fn live_slots(&self) -> usize {
        self.live_slots
    }

    /// Walks the churn state — each rank's generation and birth time — as
    /// checkpoint state. Size, skew, and the live prefix are construction
    /// parameters rebuilt from config, so reading fails if the artifact's
    /// rank count disagrees with this catalog.
    pub fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.fixed("catalog_slots", self.slots.len())?;
        for slot in &mut self.slots {
            c.u32("catalog_gen", &mut slot.gen)?;
            c.time("catalog_born", &mut slot.born)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_prefers_hot_ranks() {
        let catalog = Catalog::new(100, 1.0, 10);
        let mut rng = SimRng::seed_from_u64(5);
        let mut head = 0u64;
        for _ in 0..10_000 {
            if catalog.sample(&mut rng).slot < 10 {
                head += 1;
            }
        }
        // At s = 1 over 100 ranks the top-10 share is H(10)/H(100) ≈ 56%.
        assert!(head > 4_500, "top-10 ranks got {head}/10000 requests");
    }

    #[test]
    fn churn_perishes_and_renews_in_place() {
        let mut catalog = Catalog::new(16, 0.8, 4);
        let mut rng = SimRng::seed_from_u64(1);
        for step in 1..=50u64 {
            let now = SimTime::from_secs(step);
            let (old, new) = catalog.churn(&mut rng, now);
            assert_eq!(old.slot, new.slot, "churn replaces in place");
            assert!(!catalog.is_current(old), "perished object is gone");
            assert!(catalog.is_current(new), "newcomer is the head");
            assert_eq!(catalog.born(new.slot), now);
        }
        // The ladder itself never changed: samples stay in range and ranks
        // re-normalise trivially.
        for _ in 0..1_000 {
            let id = catalog.sample(&mut rng);
            assert!(catalog.is_current(id));
        }
    }

    #[test]
    fn liveness_follows_the_hot_prefix() {
        let catalog = Catalog::new(10, 1.0, 3);
        assert!(catalog.is_live(0) && catalog.is_live(2));
        assert!(!catalog.is_live(3) && !catalog.is_live(9));
        assert_eq!(catalog.live_slots(), 3);
    }

    #[test]
    fn checkpoint_round_trip_resumes_churn_exactly() {
        let mut catalog = Catalog::new(32, 1.0, 4);
        let mut rng = SimRng::seed_from_u64(3);
        for i in 1..=40u64 {
            catalog.churn(&mut rng, SimTime::from_secs(i));
        }
        let text = Ckpt::write("test", |c| catalog.persist(c));
        let mut restored = Catalog::new(32, 1.0, 4);
        Ckpt::read(&text, "test", |c| restored.persist(c)).unwrap();
        for slot in 0..32u32 {
            assert_eq!(restored.head(slot), catalog.head(slot));
            assert_eq!(restored.born(slot), catalog.born(slot));
        }
        let mut tiny = Catalog::new(8, 1.0, 2);
        let read = Ckpt::read(&text, "test", |c| tiny.persist(c));
        assert!(read.is_err(), "rank-count mismatch rejected");
    }

    #[test]
    fn catalog_is_deterministic() {
        let run = |seed| {
            let mut catalog = Catalog::new(64, 1.1, 8);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut ids = Vec::new();
            for i in 0..200u64 {
                ids.push(catalog.sample(&mut rng));
                if i % 7 == 0 {
                    catalog.churn(&mut rng, SimTime::from_secs(i));
                }
            }
            ids
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
