//! Metric instruments: counters, gauges with high-water marks, and
//! fixed-bucket log-scale histograms.
//!
//! Every handle is an `Option<Arc<..>>`: a handle minted from a disabled
//! registry holds `None`, so the cost of an update on the disabled path is
//! a single branch. Enabled updates through a handle use relaxed atomics —
//! metrics are monotone accumulations read only at snapshot time, so no
//! ordering is required.
//!
//! The event hook is the exception: while a simulation runs it is the one
//! writer of the instruments it feeds, so it holds each one as an owned
//! value (`OwnedCounter`, `OwnedGauge`, `OwnedHistogram`) loaded from
//! the cell when the hook is minted, updates it with plain arithmetic and
//! stores it back at the hook's write-back points (see
//! [`EventHook`](crate::EventHook)). A store, not an add, so every f64 sum
//! keeps its addition order and reads bit-identical to atomic recording.

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
            // fetch_update never fails with a Relaxed pair and a Some return.
            let _ = cell.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_add(n)));
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

/// A level indicator that also tracks its high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCore>>);

impl Gauge {
    /// Sets the level to `v` and raises the high-water mark if needed.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.value.store(v, Relaxed);
            core.high_water.fetch_max(v, Relaxed);
        }
    }

    /// Adds `n` to the level (saturating at `u64::MAX`, like
    /// [`Counter::add`]).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.0 {
            let mut now = 0;
            let _ = core.value.fetch_update(Relaxed, Relaxed, |v| {
                now = v.saturating_add(n);
                Some(now)
            });
            core.high_water.fetch_max(now, Relaxed);
        }
    }

    /// Subtracts `n` from the level (saturating at zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(core) = &self.0 {
            // fetch_update never fails with a Relaxed pair and a Some return.
            let _ = core.value.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
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

/// Folds an owned snapshot into a live histogram core as if its stream had
/// been recorded there: buckets and count add, sum accumulates, min/max
/// extend. Shared by registry absorb and the timeprof handler merge.
pub(crate) fn merge_into_core(dst: &HistogramCore, src: &HistogramSnapshot) {
    for (d, s) in dst.buckets.iter().zip(src.buckets.iter()) {
        d.fetch_add(*s, Relaxed);
    }
    dst.count.fetch_add(src.count, Relaxed);
    let _ = dst
        .sum_bits
        .fetch_update(Relaxed, Relaxed, |b| Some((f64::from_bits(b) + src.sum).to_bits()));
    let _ = dst.min_bits.fetch_update(Relaxed, Relaxed, |b| {
        (src.min < f64::from_bits(b)).then(|| src.min.to_bits())
    });
    let _ = dst.max_bits.fetch_update(Relaxed, Relaxed, |b| {
        (src.max > f64::from_bits(b)).then(|| src.max.to_bits())
    });
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
            core.buckets[bucket_index(v)].fetch_add(1, Relaxed);
            core.count.fetch_add(1, Relaxed);
            let v = if v.is_finite() { v } else { bucket_floor(HISTOGRAM_BUCKETS - 1) };
            // CAS loops: f64 cells updated through their bit patterns.
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
}

/// A counter's value held by its one writer. See the module docs.
#[derive(Debug)]
pub(crate) struct OwnedCounter {
    cell: Option<Arc<AtomicU64>>,
    value: u64,
}

impl OwnedCounter {
    /// Takes over `counter`, starting from its current value. A disabled
    /// handle counts into the owned value only.
    pub(crate) fn own(counter: Counter) -> Self {
        OwnedCounter { value: counter.get(), cell: counter.0 }
    }

    /// Increments by one.
    #[inline]
    pub(crate) fn inc(&mut self) {
        self.add(1);
    }

    /// Increments by `n`, saturating like [`Counter::add`].
    #[inline]
    pub(crate) fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Writes the value back into the cell.
    pub(crate) fn store(&self) {
        if let Some(cell) = &self.cell {
            cell.store(self.value, Relaxed);
        }
    }
}

/// A gauge's level and high-water mark held by their one writer. See the
/// module docs.
#[derive(Debug)]
pub(crate) struct OwnedGauge {
    cell: Option<Arc<GaugeCore>>,
    value: u64,
    high_water: u64,
}

impl OwnedGauge {
    /// Takes over `gauge`, starting from its current level and mark. A
    /// disabled handle moves the owned values only.
    pub(crate) fn own(gauge: Gauge) -> Self {
        OwnedGauge { value: gauge.get(), high_water: gauge.high_water(), cell: gauge.0 }
    }

    /// Sets the level to `v` and raises the high-water mark if needed.
    #[inline]
    pub(crate) fn set(&mut self, v: u64) {
        self.value = v;
        self.high_water = self.high_water.max(v);
    }

    /// Adds `n` to the level, saturating like [`Gauge::add`].
    #[inline]
    pub(crate) fn add(&mut self, n: u64) {
        self.set(self.value.saturating_add(n));
    }

    /// Subtracts `n` from the level (saturating at zero).
    #[inline]
    pub(crate) fn sub(&mut self, n: u64) {
        self.value = self.value.saturating_sub(n);
    }

    /// Writes the level and the high-water mark back into the cell.
    pub(crate) fn store(&self) {
        if let Some(core) = &self.cell {
            core.value.store(self.value, Relaxed);
            core.high_water.store(self.high_water, Relaxed);
        }
    }
}

/// A histogram's contents held by their one writer. See the module docs.
#[derive(Debug)]
pub(crate) struct OwnedHistogram {
    cell: Arc<HistogramCore>,
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl OwnedHistogram {
    /// Takes over `histogram`, starting from its contents; `None` for a
    /// disabled handle.
    pub(crate) fn own(histogram: Histogram) -> Option<Self> {
        let cell = histogram.0?;
        let float = |bits: &AtomicU64| f64::from_bits(bits.load(Relaxed));
        Some(OwnedHistogram {
            buckets: std::array::from_fn(|i| cell.buckets[i].load(Relaxed)),
            count: cell.count.load(Relaxed),
            sum: float(&cell.sum_bits),
            min: float(&cell.min_bits),
            max: float(&cell.max_bits),
            cell,
        })
    }

    /// Records one observation exactly as [`Histogram::record`] does.
    #[inline]
    pub(crate) fn record(&mut self, v: f64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        let v = if v.is_finite() { v } else { bucket_floor(HISTOGRAM_BUCKETS - 1) };
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Writes the contents back into the cell.
    pub(crate) fn store(&self) {
        let core = &self.cell;
        for (cell, &n) in core.buckets.iter().zip(&self.buckets) {
            cell.store(n, Relaxed);
        }
        core.count.store(self.count, Relaxed);
        core.sum_bits.store(self.sum.to_bits(), Relaxed);
        core.min_bits.store(self.min.to_bits(), Relaxed);
        core.max_bits.store(self.max.to_bits(), Relaxed);
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
    /// recorded into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

    fn enabled_histogram() -> Histogram {
        Histogram(Some(Arc::new(HistogramCore::default())))
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

    #[test]
    fn empty_snapshot_quantiles() {
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), None);
        assert_eq!(HistogramSnapshot::empty().mean(), None);
        assert_eq!(Histogram(None).snapshot(), HistogramSnapshot::empty());
    }
}
