//! Metric instruments: counters, gauges with high-water marks, and
//! fixed-bucket log-scale histograms.
//!
//! Every handle is an `Option<Arc<..>>`: a handle minted from a disabled
//! registry holds `None`, so the cost of an update on the disabled path is
//! a single branch.
//!
//! # One writer per cell
//!
//! An instrument cell has one writer at a time: one simulation records
//! into a registry or shard at a time (see the registry's module docs), and
//! parallel callers count per task and fold the counts after the join. So
//! an update is one relaxed load and one relaxed store per word it moves,
//! never an atomic read-modify-write: a reader on another thread still sees
//! whole words, and every f64 sum keeps its addition order. Two concurrent
//! writers could lose updates, so state several threads write — run health,
//! the profiler's process-wide cells — keeps its own atomics.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Lower bound of the first histogram bucket.
///
/// Bucket `i` covers `[HISTOGRAM_MIN * 2^i, HISTOGRAM_MIN * 2^(i+1))`, so 64
/// doubling buckets span `1e-9 .. ~9.2e9` — nanoseconds to centuries when
/// values are seconds, and bytes to gigabytes when they are sizes.
pub const HISTOGRAM_MIN: f64 = 1e-9;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n` (saturating at `u64::MAX`: a pinned counter is a
    /// visible anomaly, a wrapped one silently reads as near-zero).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.store(cell.load(Relaxed).saturating_add(n), Relaxed);
        }
    }

    /// The current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Relaxed))
    }
}

#[derive(Debug, Default)]
pub(crate) struct GaugeCore {
    pub(crate) value: AtomicU64,
    pub(crate) high_water: AtomicU64,
}

impl GaugeCore {
    /// Raises the high-water mark to `v` if `v` is higher.
    #[inline]
    pub(crate) fn raise(&self, v: u64) {
        if v > self.high_water.load(Relaxed) {
            self.high_water.store(v, Relaxed);
        }
    }
}

/// A level indicator that also tracks its high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCore>>);

impl Gauge {
    /// Sets the level to `v` and raises the high-water mark if needed.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.value.store(v, Relaxed);
            core.raise(v);
        }
    }

    /// Adds `n` to the level (saturating at `u64::MAX`, like
    /// [`Counter::add`]).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.0 {
            let now = core.value.load(Relaxed).saturating_add(n);
            core.value.store(now, Relaxed);
            core.raise(now);
        }
    }

    /// Subtracts `n` from the level (saturating at zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(core) = &self.0 {
            core.value.store(core.value.load(Relaxed).saturating_sub(n), Relaxed);
        }
    }

    /// The current level (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| core.value.load(Relaxed))
    }

    /// The highest level ever set (0 for a disabled handle).
    pub fn high_water(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| core.high_water.load(Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    /// Sum of recorded values, stored as f64 bits.
    pub(crate) sum_bits: AtomicU64,
    /// Minimum recorded value, stored as f64 bits (`+inf` when empty).
    pub(crate) min_bits: AtomicU64,
    /// Maximum recorded value, stored as f64 bits (`-inf` when empty).
    pub(crate) max_bits: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// The bucket a value falls into: doubling buckets from [`HISTOGRAM_MIN`],
/// clamped at both ends (values `<= HISTOGRAM_MIN` land in bucket 0).
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= HISTOGRAM_MIN {
        return 0;
    }
    let idx = (v / HISTOGRAM_MIN).log2() as usize;
    idx.min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_floor(i: usize) -> f64 {
    HISTOGRAM_MIN * (i as f64).exp2()
}

/// A fixed-bucket log-scale histogram of non-negative values.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation. Negative or non-finite values are clamped
    /// into the edge buckets so the count is always conserved.
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(core) = &self.0 {
            let bucket = &core.buckets[bucket_index(v)];
            bucket.store(bucket.load(Relaxed) + 1, Relaxed);
            core.count.store(core.count.load(Relaxed) + 1, Relaxed);
            let v = if v.is_finite() { v } else { bucket_floor(HISTOGRAM_BUCKETS - 1) };
            // f64 cells hold their bit patterns.
            let float = |cell: &AtomicU64| f64::from_bits(cell.load(Relaxed));
            core.sum_bits.store((float(&core.sum_bits) + v).to_bits(), Relaxed);
            if v < float(&core.min_bits) {
                core.min_bits.store(v.to_bits(), Relaxed);
            }
            if v > float(&core.max_bits) {
                core.max_bits.store(v.to_bits(), Relaxed);
            }
        }
    }

    /// A point-in-time copy of the histogram contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::empty(),
            Some(core) => HistogramSnapshot {
                buckets: core.buckets.iter().map(|b| b.load(Relaxed)).collect(),
                count: core.count.load(Relaxed),
                sum: f64::from_bits(core.sum_bits.load(Relaxed)),
                min: f64::from_bits(core.min_bits.load(Relaxed)),
                max: f64::from_bits(core.max_bits.load(Relaxed)),
            },
        }
    }

    /// Folds `other` into this histogram as if its stream had been
    /// recorded here ([`HistogramSnapshot::merge`]): the shard and timeprof
    /// handler absorbs.
    pub(crate) fn absorb(&self, other: &HistogramSnapshot) {
        let Some(core) = &self.0 else { return };
        let mut merged = self.snapshot();
        merged.merge(other);
        for (cell, &n) in core.buckets.iter().zip(&merged.buckets) {
            cell.store(n, Relaxed);
        }
        core.count.store(merged.count, Relaxed);
        core.sum_bits.store(merged.sum.to_bits(), Relaxed);
        core.min_bits.store(merged.min.to_bits(), Relaxed);
        core.max_bits.store(merged.max.to_bits(), Relaxed);
    }
}

/// An owned, mergeable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds `other` into this snapshot as if both streams had been
    /// recorded into one histogram. Min and max move only to a strictly
    /// smaller or larger value, as in [`Histogram::record`], so of two zeros
    /// the first kept stays.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Mean of observed values, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate quantile (`q` in `[0, 1]`) from bucket boundaries: the
    /// geometric midpoint of the bucket holding the `q`-th observation,
    /// sharpened by the tracked exact min / max at the extremes.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are known exactly.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let mid = (bucket_floor(i) * bucket_floor(i + 1)).sqrt();
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn enabled_histogram() -> Histogram {
        Histogram(Some(Arc::new(HistogramCore::default())))
    }

    /// The cells' updates as atomic read-modify-writes, safe under any
    /// number of writers: the oracle the single-writer updates must match
    /// bit for bit.
    mod rmw {
        use super::*;

        pub(super) fn counter_add(cell: &AtomicU64, n: u64) {
            let _ = cell.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_add(n)));
        }

        pub(super) fn gauge_set(core: &GaugeCore, v: u64) {
            core.value.store(v, Relaxed);
            core.high_water.fetch_max(v, Relaxed);
        }

        pub(super) fn gauge_add(core: &GaugeCore, n: u64) {
            let mut now = 0;
            let _ = core.value.fetch_update(Relaxed, Relaxed, |v| {
                now = v.saturating_add(n);
                Some(now)
            });
            core.high_water.fetch_max(now, Relaxed);
        }

        pub(super) fn gauge_sub(core: &GaugeCore, n: u64) {
            let _ = core.value.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
        }

        pub(super) fn record(core: &HistogramCore, v: f64) {
            core.buckets[bucket_index(v)].fetch_add(1, Relaxed);
            core.count.fetch_add(1, Relaxed);
            let v = if v.is_finite() { v } else { bucket_floor(HISTOGRAM_BUCKETS - 1) };
            let _ = core
                .sum_bits
                .fetch_update(Relaxed, Relaxed, |bits| Some((f64::from_bits(bits) + v).to_bits()));
            let _ = core.min_bits.fetch_update(Relaxed, Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
            let _ = core.max_bits.fetch_update(Relaxed, Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
        }
    }

    /// A counter's value, a gauge's level and mark, and a histogram's
    /// contents with its floats as bits.
    fn contents(c: &Counter, g: &Gauge, h: &Histogram) -> (u64, u64, u64, Vec<u64>, u64, [u64; 3]) {
        let s = h.snapshot();
        let floats = [s.sum, s.min, s.max].map(f64::to_bits);
        (c.get(), g.get(), g.high_water(), s.buckets, s.count, floats)
    }

    /// Amounts near both ends of `u64`, where saturation shows.
    fn amount() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..1_000, (u64::MAX - 1_000)..=u64::MAX, 0u64..=u64::MAX]
    }

    /// Histogram values, the ones `record` clamps included.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1e3f64..1e3,
            1e-12f64..1e12,
            (0u64..=u64::MAX).prop_map(f64::from_bits),
        ]
    }

    proptest! {
        /// One random stream of counter adds, gauge sets, adds and subs and
        /// histogram records goes through the single-writer updates and
        /// through the read-modify-write oracle; after every step the
        /// counters, the gauge levels with their high-water marks and the
        /// histogram snapshots match bit for bit.
        #[test]
        fn prop_single_writer_cells_match_the_rmw_oracle(
            steps in proptest::collection::vec((0u8..5, amount(), value()), 1..200),
        ) {
            let cells = || {
                let (c, g) = (Counter(Some(Arc::default())), Gauge(Some(Arc::default())));
                (c, g, enabled_histogram())
            };
            let ((c, g, h), (oc, og, oh)) = (cells(), cells());
            let (ocell, ogauge) = (oc.0.as_deref().unwrap(), og.0.as_deref().unwrap());
            let ohist = oh.0.as_deref().unwrap();
            for (i, &(op, n, v)) in steps.iter().enumerate() {
                match op {
                    0 => {
                        c.add(n);
                        rmw::counter_add(ocell, n);
                    }
                    1 => {
                        g.set(n);
                        rmw::gauge_set(ogauge, n);
                    }
                    2 => {
                        g.add(n);
                        rmw::gauge_add(ogauge, n);
                    }
                    3 => {
                        g.sub(n);
                        rmw::gauge_sub(ogauge, n);
                    }
                    _ => {
                        h.record(v);
                        rmw::record(ohist, v);
                    }
                }
                prop_assert_eq!(contents(&c, &g, &h), contents(&oc, &og, &oh), "step {}", i);
            }
        }
    }

    #[test]
    fn counter_and_disabled_counter() {
        let on = Counter(Some(Arc::new(AtomicU64::new(0))));
        on.inc();
        on.add(4);
        assert_eq!(on.get(), 5);
        let off = Counter(None);
        off.add(100);
        assert_eq!(off.get(), 0);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge(Some(Arc::new(GaugeCore::default())));
        g.add(3);
        g.add(5);
        g.sub(6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 8);
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 8);
        g.sub(10);
        assert_eq!(g.get(), 0, "sub saturates");
    }

    #[test]
    fn counter_and_gauge_saturate_instead_of_wrapping() {
        let c = Counter(Some(Arc::new(AtomicU64::new(u64::MAX - 1))));
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "counter pins at MAX");
        c.inc();
        assert_eq!(c.get(), u64::MAX, "and stays there");

        let g = Gauge(Some(Arc::new(GaugeCore::default())));
        g.set(u64::MAX - 1);
        g.add(10);
        assert_eq!(g.get(), u64::MAX, "gauge level pins at MAX");
        assert_eq!(g.high_water(), u64::MAX, "high-water follows the saturated level");
        g.sub(5);
        assert_eq!(g.get(), u64::MAX - 5, "a pinned gauge can still drain");
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(HISTOGRAM_MIN), 0);
        assert_eq!(bucket_index(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_summarises() {
        let h = enabled_histogram();
        for v in [0.001, 0.002, 0.004, 1.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 1.007).abs() < 1e-12);
        assert_eq!(s.min, 0.001);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
        let p50 = s.quantile(0.5).unwrap();
        assert!((0.001..=0.004).contains(&p50), "p50 {p50}");
        assert_eq!(s.quantile(1.0), Some(1.0));
    }

    /// An absorb moves min and max only to a strictly smaller or larger
    /// value, as `record` does, so of two zeros the first stays.
    #[test]
    fn absorb_keeps_the_first_of_two_zeros_as_record_does() {
        let bits = |h: &Histogram| {
            let s = h.snapshot();
            (s.buckets, s.count, [s.sum, s.min, s.max].map(f64::to_bits))
        };
        for (first, second) in [(0.0, -0.0), (-0.0, 0.0)] {
            let (merged, shard, both) =
                (enabled_histogram(), enabled_histogram(), enabled_histogram());
            merged.record(first);
            shard.record(second);
            merged.absorb(&shard.snapshot());
            both.record(first);
            both.record(second);
            assert_eq!(bits(&merged), bits(&both), "{first} then {second}");
        }
    }

    #[test]
    fn empty_snapshot_quantiles() {
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), None);
        assert_eq!(HistogramSnapshot::empty().mean(), None);
        assert_eq!(Histogram(None).snapshot(), HistogramSnapshot::empty());
    }
}
