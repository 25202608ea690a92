//! Memory and hot-path profiling: per-subsystem allocation attribution.
//!
//! The ROADMAP's million-node core needs to know *which* subsystem owns the
//! bytes a run allocates — the event queue, per-node replica state, net
//! packets, trace spans, or series cells — before any of it is rewritten to
//! arenas or pools. This module provides:
//!
//! - **A tagged counting global allocator** ([`ProfiledAlloc`]): binaries
//!   install it with `#[global_allocator]`. It always maintains the legacy
//!   total-allocation estimate (one relaxed add per allocation, exactly the
//!   cost the old counting allocator paid). When attribution is switched on
//!   with [`set_enabled`], every allocation and deallocation is additionally
//!   charged to the [`Subsystem`] named by the innermost [`scope`] guard on
//!   the current thread; unattributed traffic lands in [`Subsystem::Other`].
//! - **Scoped attribution guards** ([`scope`]): cheap thread-local tags
//!   placed inside component code (scheduler queue ops, network sends, the
//!   core simulation loop, span/series recording, analysis) so worker
//!   threads attribute correctly no matter which task they run.
//! - **Window accounting** ([`snapshot`], [`ProfileSnapshot::window_since`],
//!   [`reset_window_peaks`]): callers bracket a workload with snapshots and
//!   get the bytes/allocs/peak-live attributable to that window, excluding
//!   process-startup noise.
//! - **An allocation-spike detector** ([`SpikeDetector`], [`MemProbe`]):
//!   ticked with the simulation clock, it compares per-interval allocated
//!   bytes against a running median and records a `memory_spike` control
//!   span (plus a `profile_mem_spikes` counter) when an interval exceeds a
//!   configurable multiple of it.
//!
//! # Determinism
//!
//! Tagged buckets count only work performed inside component scopes, which
//! is dominated by the workload itself — a pure function of the inputs. The
//! allocator is process-global though (unlike registry instruments, it is
//! not sharded and absorbed per task), so per-thread warm-up allocations
//! that happen to occur inside a scope (lock machinery, lazy TLS) add a
//! sub-0.1% jitter to the named totals across worker counts. Cross-`--jobs`
//! comparisons therefore use the registry's structural probes (which *are*
//! bit-identical for every `--jobs N`) for exact equality and hold the
//! named attribution totals to a tight relative tolerance. Everything tied
//! to worker count or wall clock outright — the `other` bucket (thread
//! spawn and orchestration overhead), live/peak levels, and spike timing —
//! is volatile telemetry, and the experiments crate scrubs it before
//! determinism comparisons exactly like wall times.
//!
//! # Zero overhead when off
//!
//! With attribution disabled the allocator performs the same single relaxed
//! add the previous counting allocator did, [`scope`] returns an inert
//! guard after one atomic load, and probe handles minted from unarmed
//! registries are `None` inside — one branch per tick.

use crate::metrics::Counter;
use crate::trace::{SpanKind, Tracer};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Number of attribution buckets (all of [`Subsystem::ALL`]).
pub const SUBSYSTEMS: usize = 7;

/// The attribution buckets: one per major subsystem, plus the residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Event-queue operations (`cdnc-simcore`): schedule and pop.
    Scheduler = 0,
    /// Packet transport (`cdnc-net`).
    Net = 1,
    /// The CDN simulation proper (`cdnc-core`): node/user state, handlers.
    SimCore = 2,
    /// Measurement-trace synthesis (`cdnc-trace`) and causal span
    /// recording (`cdnc-obs::trace`).
    Trace = 3,
    /// Sim-time series sampling and storage.
    Series = 4,
    /// Statistics over finished runs (`cdnc-analysis`).
    Analysis = 5,
    /// Everything not under a scope guard: orchestration, thread spawns,
    /// I/O, formatting. The residual bucket — never tagged explicitly.
    Other = 6,
}

impl Subsystem {
    /// Every bucket, in index order.
    pub const ALL: [Subsystem; SUBSYSTEMS] = [
        Subsystem::Scheduler,
        Subsystem::Net,
        Subsystem::SimCore,
        Subsystem::Trace,
        Subsystem::Series,
        Subsystem::Analysis,
        Subsystem::Other,
    ];

    /// Stable lowercase name used in artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Scheduler => "scheduler",
            Subsystem::Net => "net",
            Subsystem::SimCore => "sim_core",
            Subsystem::Trace => "trace",
            Subsystem::Series => "series",
            Subsystem::Analysis => "analysis",
            Subsystem::Other => "other",
        }
    }

    /// `true` for every bucket except the [`Subsystem::Other`] residual.
    pub fn is_named(self) -> bool {
        !matches!(self, Subsystem::Other)
    }

    fn from_index(i: usize) -> Subsystem {
        Subsystem::ALL[i]
    }
}

/// Per-bucket atomic cells. All counter updates saturate (a pinned counter
/// is a visible anomaly; a wrapped one silently reads near zero), and live
/// levels are signed: frees of memory allocated before attribution was
/// enabled legitimately drive a bucket's live level negative.
#[derive(Debug, Default)]
struct Cells {
    allocs: AtomicU64,
    bytes: AtomicU64,
    frees: AtomicU64,
    freed_bytes: AtomicU64,
    live: AtomicI64,
    peak_live: AtomicI64,
}

impl Cells {
    const fn new() -> Cells {
        Cells {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            freed_bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
            peak_live: AtomicI64::new(0),
        }
    }

    fn stats(&self) -> SubsystemStats {
        SubsystemStats {
            allocs: self.allocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            frees: self.frees.load(Relaxed),
            freed_bytes: self.freed_bytes.load(Relaxed),
            live_bytes: self.live.load(Relaxed),
            peak_live_bytes: self.peak_live.load(Relaxed),
        }
    }
}

fn sat_add(cell: &AtomicU64, n: u64) {
    // fetch_update never fails with a Relaxed pair and a Some return.
    let _ = cell.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_add(n)));
}

fn live_add(live: &AtomicI64, peak: &AtomicI64, delta: i64) {
    let mut now = 0;
    let _ = live.fetch_update(Relaxed, Relaxed, |v| {
        now = v.saturating_add(delta);
        Some(now)
    });
    if delta > 0 {
        peak.fetch_max(now, Relaxed);
    }
}

/// Byte counts pinned into the signed live-level domain (a count beyond
/// `i64::MAX` saturates rather than flipping the sign).
fn signed(bytes: u64) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

/// The counting core behind the global allocator. Instantiable so tests
/// can drive an isolated instance; the process uses one `static` instance
/// through the free functions of this module.
#[derive(Debug)]
pub struct ProfileCounters {
    enabled: AtomicBool,
    total_allocs: AtomicU64,
    total_bytes: AtomicU64,
    live: AtomicI64,
    peak_live: AtomicI64,
    cells: [Cells; SUBSYSTEMS],
}

impl Default for ProfileCounters {
    fn default() -> Self {
        ProfileCounters::new()
    }
}

impl ProfileCounters {
    /// A zeroed, disabled counter set.
    pub const fn new() -> ProfileCounters {
        ProfileCounters {
            enabled: AtomicBool::new(false),
            total_allocs: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
            peak_live: AtomicI64::new(0),
            cells: [const { Cells::new() }; SUBSYSTEMS],
        }
    }

    /// Turns per-subsystem attribution on or off. Totals count regardless.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Whether attribution is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Counts an allocation of `bytes`, charged to `tag` when attribution
    /// is enabled.
    pub fn record_alloc(&self, tag: Subsystem, bytes: u64) {
        sat_add(&self.total_allocs, 1);
        sat_add(&self.total_bytes, bytes);
        if !self.is_enabled() {
            return;
        }
        live_add(&self.live, &self.peak_live, signed(bytes));
        let cells = &self.cells[tag as usize];
        sat_add(&cells.allocs, 1);
        sat_add(&cells.bytes, bytes);
        live_add(&cells.live, &cells.peak_live, signed(bytes));
    }

    /// Counts a deallocation of `bytes`, charged to `tag` when attribution
    /// is enabled. No-op when disabled (matching the legacy counting
    /// allocator, which never looked at frees).
    pub fn record_dealloc(&self, tag: Subsystem, bytes: u64) {
        if !self.is_enabled() {
            return;
        }
        live_add(&self.live, &self.peak_live, -signed(bytes));
        let cells = &self.cells[tag as usize];
        sat_add(&cells.frees, 1);
        sat_add(&cells.freed_bytes, bytes);
        live_add(&cells.live, &cells.peak_live, -signed(bytes));
    }

    /// Counts an in-place resize from `old` to `new` bytes: growth adds to
    /// the byte totals (shrinkage doesn't — preserving the historic
    /// "cumulative allocation estimate" semantics) and the live level moves
    /// by the signed difference.
    pub fn record_realloc(&self, tag: Subsystem, old: u64, new: u64) {
        sat_add(&self.total_allocs, 1);
        sat_add(&self.total_bytes, new.saturating_sub(old));
        if !self.is_enabled() {
            return;
        }
        let delta = signed(new).saturating_sub(signed(old));
        live_add(&self.live, &self.peak_live, delta);
        let cells = &self.cells[tag as usize];
        sat_add(&cells.allocs, 1);
        sat_add(&cells.bytes, new.saturating_sub(old));
        live_add(&cells.live, &cells.peak_live, delta);
    }

    /// Rebases every peak-live level to the current live level, starting a
    /// fresh measurement window for peaks.
    pub fn reset_window_peaks(&self) {
        self.peak_live.store(self.live.load(Relaxed), Relaxed);
        for cells in &self.cells {
            cells.peak_live.store(cells.live.load(Relaxed), Relaxed);
        }
    }

    /// Cumulative bytes counted so far (lives independently of attribution).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Relaxed)
    }

    /// A point-in-time copy of every cell.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut subsystems = [SubsystemStats::default(); SUBSYSTEMS];
        for (slot, cells) in subsystems.iter_mut().zip(&self.cells) {
            *slot = cells.stats();
        }
        ProfileSnapshot {
            enabled: self.is_enabled(),
            total_allocs: self.total_allocs.load(Relaxed),
            total_bytes: self.total_bytes.load(Relaxed),
            live_bytes: self.live.load(Relaxed),
            peak_live_bytes: self.peak_live.load(Relaxed),
            subsystems,
        }
    }
}

/// One bucket's accumulated numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubsystemStats {
    /// Allocation events charged here.
    pub allocs: u64,
    /// Bytes allocated (realloc counts growth only).
    pub bytes: u64,
    /// Deallocation events charged here.
    pub frees: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Net live bytes (may be negative: frees of pre-attribution memory).
    pub live_bytes: i64,
    /// Highest live level since the last window reset.
    pub peak_live_bytes: i64,
}

/// A point-in-time copy of [`ProfileCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfileSnapshot {
    /// Whether attribution was on when the snapshot was taken.
    pub enabled: bool,
    /// Allocation events since process start (or instance creation).
    pub total_allocs: u64,
    /// Bytes allocated since process start (realloc counts growth only).
    pub total_bytes: u64,
    /// Net live bytes while attribution was enabled.
    pub live_bytes: i64,
    /// Highest live level since the last window reset.
    pub peak_live_bytes: i64,
    /// Per-bucket numbers, indexed by `Subsystem as usize`.
    pub subsystems: [SubsystemStats; SUBSYSTEMS],
}

impl ProfileSnapshot {
    /// One bucket's stats.
    pub fn subsystem(&self, s: Subsystem) -> &SubsystemStats {
        &self.subsystems[s as usize]
    }

    /// The cumulative deltas between `base` (taken earlier) and this
    /// snapshot: counters subtract, live levels difference, and peaks stay
    /// at this snapshot's values (bracket the window with
    /// [`reset_window_peaks`] at its start for meaningful peaks).
    pub fn window_since(&self, base: &ProfileSnapshot) -> ProfileSnapshot {
        let mut out = *self;
        out.total_allocs = self.total_allocs.saturating_sub(base.total_allocs);
        out.total_bytes = self.total_bytes.saturating_sub(base.total_bytes);
        out.live_bytes = self.live_bytes - base.live_bytes;
        for (slot, (now, then)) in
            out.subsystems.iter_mut().zip(self.subsystems.iter().zip(base.subsystems.iter()))
        {
            slot.allocs = now.allocs.saturating_sub(then.allocs);
            slot.bytes = now.bytes.saturating_sub(then.bytes);
            slot.frees = now.frees.saturating_sub(then.frees);
            slot.freed_bytes = now.freed_bytes.saturating_sub(then.freed_bytes);
            slot.live_bytes = now.live_bytes - then.live_bytes;
        }
        out
    }

    /// Bytes charged to named (non-`other`) subsystems.
    pub fn named_bytes(&self) -> u64 {
        Subsystem::ALL
            .iter()
            .filter(|s| s.is_named())
            .map(|&s| self.subsystem(s).bytes)
            .fold(0u64, u64::saturating_add)
    }

    /// Fraction of the counting-allocator byte total charged to named
    /// subsystems (0.0 when nothing was counted).
    pub fn attributed_fraction(&self) -> f64 {
        let tagged: u64 =
            Subsystem::ALL.iter().map(|&s| self.subsystem(s).bytes).fold(0u64, u64::saturating_add);
        if tagged == 0 {
            return 0.0;
        }
        self.named_bytes() as f64 / tagged as f64
    }
}

// ---------------------------------------------------------------------------
// The process-global instance and its allocator front-end.
// ---------------------------------------------------------------------------

static GLOBAL: ProfileCounters = ProfileCounters::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The innermost scope's tag; `const` init so the allocator can read it
    /// without triggering lazy initialisation (no allocation, no recursion).
    static CURRENT_TAG: Cell<u8> = const { Cell::new(Subsystem::Other as u8) };
}

fn current_tag() -> Subsystem {
    // try_with: survives reads during TLS teardown (report as Other).
    let idx = CURRENT_TAG.try_with(Cell::get).unwrap_or(Subsystem::Other as u8);
    Subsystem::from_index(idx as usize)
}

/// The bucket allocations on this thread are currently charged to.
pub fn current() -> Subsystem {
    current_tag()
}

/// An RAII attribution tag: while alive, allocations on this thread are
/// charged to the scope's subsystem; dropping restores the previous tag, so
/// scopes nest. Inert (and free) when attribution is disabled.
#[must_use = "the scope tags allocations only while the guard lives"]
#[derive(Debug)]
pub struct ScopeGuard {
    prev: Option<u8>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            let _ = CURRENT_TAG.try_with(|c| c.set(prev));
        }
    }
}

/// Charges allocations on this thread to `tag` until the guard drops.
#[inline]
pub fn scope(tag: Subsystem) -> ScopeGuard {
    if !GLOBAL.is_enabled() {
        return ScopeGuard { prev: None };
    }
    let prev = CURRENT_TAG
        .try_with(|c| {
            let prev = c.get();
            c.set(tag as u8);
            prev
        })
        .ok();
    ScopeGuard { prev }
}

/// Turns per-subsystem attribution on or off for the process.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// Whether per-subsystem attribution is on.
pub fn is_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Whether [`ProfiledAlloc`] is this process's global allocator (i.e. the
/// counters are actually fed).
pub fn installed() -> bool {
    INSTALLED.load(Relaxed)
}

/// A point-in-time copy of the process counters.
pub fn snapshot() -> ProfileSnapshot {
    GLOBAL.snapshot()
}

/// Rebases the process peak-live levels; see
/// [`ProfileCounters::reset_window_peaks`].
pub fn reset_window_peaks() {
    GLOBAL.reset_window_peaks();
}

/// Cumulative bytes allocated since process start, or `None` when
/// [`ProfiledAlloc`] is not installed.
pub fn total_allocated_bytes() -> Option<u64> {
    installed().then(|| GLOBAL.total_bytes())
}

/// Cumulative allocation events since process start, or `None` when
/// [`ProfiledAlloc`] is not installed.
pub fn total_allocs() -> Option<u64> {
    installed().then(|| GLOBAL.total_allocs.load(Relaxed))
}

/// The tagged counting global allocator: a thin wrapper around [`System`]
/// feeding [`ProfileCounters`]. Install in a binary with
/// `#[global_allocator]` and call [`ProfiledAlloc::mark_installed`] first
/// thing in `main` so library code can tell "nothing counted" from "no
/// allocator installed".
pub struct ProfiledAlloc;

impl ProfiledAlloc {
    /// Marks the counters live.
    pub fn mark_installed() {
        INSTALLED.store(true, Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the extra work
// is relaxed atomic accounting on success paths plus a thread-local read
// that cannot allocate (const-initialised `Cell<u8>`).
unsafe impl GlobalAlloc for ProfiledAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            GLOBAL.record_alloc(current_tag(), layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        GLOBAL.record_dealloc(current_tag(), layout.size() as u64);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            GLOBAL.record_alloc(current_tag(), layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            GLOBAL.record_realloc(current_tag(), layout.size() as u64, new_size as u64);
        }
        p
    }
}

// ---------------------------------------------------------------------------
// Allocation-spike detection.
// ---------------------------------------------------------------------------

/// Samples of interval-allocated bytes kept for the running median.
pub const SPIKE_WINDOW: usize = 32;

/// Intervals observed before spike judgements begin (a median over fewer
/// samples is noise).
pub const SPIKE_MIN_SAMPLES: usize = 4;

/// Default spike threshold: an interval allocating more than this multiple
/// of the running median is anomalous.
pub const DEFAULT_SPIKE_MULTIPLE: f64 = 8.0;

/// Flags intervals whose allocated bytes exceed a configurable multiple of
/// the running median of recent intervals. Pure state machine — feed it
/// per-interval byte counts, it answers "was that a spike".
#[derive(Debug, Clone)]
pub struct SpikeDetector {
    multiple: f64,
    window: VecDeque<u64>,
}

impl SpikeDetector {
    /// A detector flagging intervals above `multiple` × running median.
    pub fn new(multiple: f64) -> SpikeDetector {
        SpikeDetector { multiple, window: VecDeque::with_capacity(SPIKE_WINDOW) }
    }

    /// The current running median, once enough samples exist.
    pub fn median(&self) -> Option<u64> {
        if self.window.len() < SPIKE_MIN_SAMPLES {
            return None;
        }
        let mut sorted: Vec<u64> = self.window.iter().copied().collect();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    /// Feeds one interval's allocated bytes; returns `Some(median)` when
    /// the interval is a spike (judged against the median of *previous*
    /// intervals, then added to the window).
    pub fn observe(&mut self, interval_bytes: u64) -> Option<u64> {
        let spike = match self.median() {
            Some(median) if median > 0 => {
                (interval_bytes as f64 > self.multiple * median as f64).then_some(median)
            }
            _ => None,
        };
        if self.window.len() == SPIKE_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(interval_bytes);
        spike
    }
}

/// One detected allocation spike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeRecord {
    /// Simulated end of the spiking interval, microseconds.
    pub at_us: u64,
    /// Bytes the interval allocated.
    pub bytes: u64,
    /// The running median it was judged against.
    pub median_bytes: u64,
}

#[derive(Debug)]
struct ProbeState {
    last_total_bytes: u64,
    detector: SpikeDetector,
    spikes: Vec<SpikeRecord>,
}

/// Shared state behind an armed [`MemProbe`].
#[derive(Debug)]
pub struct MemProbeCore {
    cadence_us: u64,
    next_boundary_us: AtomicU64,
    state: Mutex<ProbeState>,
    spike_counter: Counter,
    tracer: Tracer,
}

/// A sim-clock-ticked allocation-spike probe (inert when profiling is not
/// armed on the registry). On every cadence boundary of *simulated* time it
/// reads the process allocation total, feeds the interval delta to a
/// [`SpikeDetector`], and records a `memory_spike` control span plus a
/// `profile_mem_spikes` counter increment for each spike.
///
/// Allocation totals are process-global and wall-clock-class: spike counts
/// and timings are volatile telemetry (like `wall_s`), not part of the
/// deterministic artifact surface.
#[derive(Debug, Clone, Default)]
pub struct MemProbe(pub(crate) Option<Arc<MemProbeCore>>);

impl MemProbe {
    /// An armed probe judging intervals of `cadence_us` simulated time
    /// against `multiple` × running median, counting spikes on
    /// `spike_counter` and recording spans through `tracer`.
    pub fn armed(cadence_us: u64, multiple: f64, spike_counter: Counter, tracer: Tracer) -> Self {
        MemProbe(Some(Arc::new(MemProbeCore {
            cadence_us: cadence_us.max(1),
            next_boundary_us: AtomicU64::new(cadence_us.max(1)),
            state: Mutex::new(ProbeState {
                last_total_bytes: GLOBAL.total_bytes(),
                detector: SpikeDetector::new(multiple),
                spikes: Vec::new(),
            }),
            spike_counter,
            tracer,
        })))
    }

    /// Whether the probe records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advances the probe clock; cheap (one load and compare) until a
    /// cadence boundary is crossed.
    #[inline]
    pub fn tick(&self, now_us: u64) {
        if let Some(core) = &self.0 {
            if now_us >= core.next_boundary_us.load(Relaxed) {
                core.cross(now_us);
            }
        }
    }

    /// The spikes detected so far.
    pub fn spikes(&self) -> Vec<SpikeRecord> {
        self.0.as_ref().map_or_else(Vec::new, |core| core.state.lock().spikes.clone())
    }
}

impl MemProbeCore {
    fn cross(&self, now_us: u64) {
        let mut state = self.state.lock();
        // Re-check under the lock: another thread may have advanced past us.
        if now_us < self.next_boundary_us.load(Relaxed) {
            return;
        }
        let total = GLOBAL.total_bytes();
        let delta = total.saturating_sub(state.last_total_bytes);
        state.last_total_bytes = total;
        if let Some(median) = state.detector.observe(delta) {
            state.spikes.push(SpikeRecord { at_us: now_us, bytes: delta, median_bytes: median });
            self.spike_counter.inc();
            self.tracer.control(SpanKind::MemorySpike, 0, now_us, "memory-spike");
        }
        self.next_boundary_us.store(now_us.saturating_add(self.cadence_us), Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_attribute_only_when_enabled() {
        let c = ProfileCounters::new();
        c.record_alloc(Subsystem::Net, 100);
        assert_eq!(c.snapshot().total_bytes, 100);
        assert_eq!(c.snapshot().subsystem(Subsystem::Net).bytes, 0, "attribution off");
        c.set_enabled(true);
        c.record_alloc(Subsystem::Net, 50);
        let snap = c.snapshot();
        assert_eq!(snap.total_bytes, 150);
        assert_eq!(snap.subsystem(Subsystem::Net).bytes, 50);
        assert_eq!(snap.subsystem(Subsystem::Net).live_bytes, 50);
        assert_eq!(snap.live_bytes, 50);
    }

    #[test]
    fn dealloc_of_pre_enable_memory_goes_negative_not_wrapping() {
        let c = ProfileCounters::new();
        c.set_enabled(true);
        c.record_dealloc(Subsystem::SimCore, 10);
        let snap = c.snapshot();
        assert_eq!(snap.subsystem(Subsystem::SimCore).live_bytes, -10);
        assert_eq!(snap.live_bytes, -10);
        assert_eq!(snap.subsystem(Subsystem::SimCore).freed_bytes, 10);
    }

    #[test]
    fn realloc_counts_growth_only_but_tracks_live_both_ways() {
        let c = ProfileCounters::new();
        c.set_enabled(true);
        c.record_alloc(Subsystem::Trace, 100);
        c.record_realloc(Subsystem::Trace, 100, 160);
        assert_eq!(c.snapshot().subsystem(Subsystem::Trace).bytes, 160);
        assert_eq!(c.snapshot().subsystem(Subsystem::Trace).live_bytes, 160);
        c.record_realloc(Subsystem::Trace, 160, 40);
        let snap = c.snapshot();
        assert_eq!(snap.subsystem(Subsystem::Trace).bytes, 160, "shrink adds nothing");
        assert_eq!(snap.subsystem(Subsystem::Trace).live_bytes, 40);
        assert_eq!(snap.subsystem(Subsystem::Trace).peak_live_bytes, 160);
    }

    #[test]
    fn window_since_subtracts_counters() {
        let c = ProfileCounters::new();
        c.set_enabled(true);
        c.record_alloc(Subsystem::Scheduler, 100);
        let base = c.snapshot();
        c.reset_window_peaks();
        c.record_alloc(Subsystem::Scheduler, 30);
        c.record_dealloc(Subsystem::Scheduler, 130);
        let win = c.snapshot().window_since(&base);
        let s = win.subsystem(Subsystem::Scheduler);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.bytes, 30);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live_bytes, -100);
        assert_eq!(win.total_allocs, 1);
    }

    #[test]
    fn alloc_estimate_requires_installation() {
        // Library tests run under the default allocator: the totals must
        // report "not installed" rather than a misleading zero.
        assert_eq!(total_allocated_bytes(), None);
        assert_eq!(total_allocs(), None);
    }

    #[test]
    fn attribution_fraction_counts_named_buckets_only() {
        let c = ProfileCounters::new();
        c.set_enabled(true);
        c.record_alloc(Subsystem::SimCore, 90);
        c.record_alloc(Subsystem::Other, 10);
        let snap = c.snapshot();
        assert_eq!(snap.named_bytes(), 90);
        assert!((snap.attributed_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn scope_guards_nest_and_restore() {
        // Scopes are inert while attribution is off process-wide; flip it
        // on briefly. Serial within this test; other tests don't read tags.
        set_enabled(true);
        assert_eq!(current(), Subsystem::Other);
        {
            let _sim = scope(Subsystem::SimCore);
            assert_eq!(current(), Subsystem::SimCore);
            {
                let _net = scope(Subsystem::Net);
                assert_eq!(current(), Subsystem::Net);
            }
            assert_eq!(current(), Subsystem::SimCore);
        }
        assert_eq!(current(), Subsystem::Other);
        set_enabled(false);
        let guard = scope(Subsystem::Trace);
        assert_eq!(current(), Subsystem::Other, "disabled scopes are inert");
        drop(guard);
    }

    #[test]
    fn spike_detector_flags_multiples_of_running_median() {
        let mut d = SpikeDetector::new(4.0);
        for _ in 0..SPIKE_MIN_SAMPLES {
            assert_eq!(d.observe(100), None, "warm-up intervals never spike");
        }
        assert_eq!(d.observe(150), None, "within the band");
        assert_eq!(d.observe(1000), Some(100), "10x the median spikes");
        // The spike itself joined the window but the median is robust.
        assert_eq!(d.observe(120), None);
    }

    #[test]
    fn spike_detector_window_is_bounded() {
        let mut d = SpikeDetector::new(2.0);
        for i in 0..(SPIKE_WINDOW * 3) {
            let _ = d.observe(100 + (i % 7) as u64);
        }
        assert!(d.window.len() <= SPIKE_WINDOW);
        assert!(d.median().is_some());
    }

    #[test]
    fn mem_probe_detects_injected_spike() {
        let reg = crate::Registry::enabled();
        reg.enable_tracing();
        let counter = reg.counter("profile_mem_spikes");
        let probe = MemProbe::armed(1_000, 4.0, counter.clone(), reg.tracer());
        // Establish a quiet baseline, then allocate heavily in one
        // interval. The process allocator is not installed under test, so
        // drive the global byte total directly — ambient noise would only
        // make intervals larger, never suppress the spike.
        for i in 1..=8u64 {
            GLOBAL.record_alloc(Subsystem::Other, 1024);
            probe.tick(i * 1_000);
        }
        let snap_before = counter.get();
        // The injected "spike": bump the process total by a large amount.
        // (Runs under the test allocator too — drive the global counters
        // directly so the test is deterministic without installation.)
        GLOBAL.record_alloc(Subsystem::Other, 100 << 20);
        probe.tick(9_000);
        if probe.spikes().is_empty() {
            // Ambient allocator noise can only make the interval bigger, so
            // a missed spike would mean the probe is broken.
            panic!("100 MiB in one interval must register as a spike");
        }
        assert!(counter.get() > snap_before);
        let store = reg.tracer().store();
        assert!(store.spans.iter().any(|s| s.kind == SpanKind::MemorySpike));
        assert_eq!(probe.spikes()[0].at_us, 9_000);
    }

    #[test]
    fn unarmed_probe_is_inert() {
        let probe = MemProbe::default();
        probe.tick(1_000_000);
        assert!(!probe.is_enabled());
        assert!(probe.spikes().is_empty());
    }
}
