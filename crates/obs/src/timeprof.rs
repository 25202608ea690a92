//! Hot-path time attribution: the hierarchical frame tree behind
//! [`Registry::span`](crate::Registry::span), the per-event-kind handler
//! table that [`EventHook`](crate::EventHook) charges at event boundaries,
//! worker-utilization accounting, and the collapsed-stack ("folded")
//! flamegraph export.
//!
//! # Phase timers
//!
//! `registry.span("build_tree")` returns a [`SpanGuard`]; when it drops,
//! the elapsed wall time is folded into the frame tree under the span's
//! *path* — nested spans on the same thread compose their names with `/`,
//! so a `flush` opened under `build_tree` records as `build_tree/flush`.
//!
//! # Frame tree
//!
//! Span paths are interned into frame ids once: every `(parent, name)`
//! pair maps to one `Frame` holding its invocation count, total
//! nanoseconds, and the time attributed to child frames (so self time is
//! `total - children`). The per-thread stack of open spans holds frame
//! *ids*, not composed path strings, so the hot enter/exit path performs
//! no allocation and no linear scan over recorded paths — a hash lookup
//! on first entry, an id push/pop afterwards.
//!
//! # Determinism contract
//!
//! Like the rest of the crate, everything here is observation-only: wall
//! clock feeds histograms and frame totals but never simulation state.
//! Frame *structure* (paths, order, counts) and per-kind handler
//! *counts* are deterministic and survive `shard`/`absorb` bit-identically
//! at any `--jobs`; the nanosecond moments are volatile telemetry.

use crate::metrics::{Histogram, HistogramCore, HistogramSnapshot};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// One open-span stack entry: the owning tree's token plus the frame id.
type StackEntry = (u64, u32);

thread_local! {
    /// The stack of open frames on this thread (across all trees).
    static FRAME_STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

/// Tree tokens distinguish registries sharing the thread-local stack.
static NEXT_TREE_TOKEN: AtomicU64 = AtomicU64::new(1);

#[cfg(test)]
fn stack_is_empty() -> bool {
    FRAME_STACK.with(|s| s.borrow().is_empty())
}

/// Aggregate timing of one frame (span path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTiming {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries, children included.
    pub total_ns: u128,
    /// Nanoseconds spent in the frame itself, children excluded.
    pub self_ns: u128,
}

impl PhaseTiming {
    /// Total time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Self time in seconds.
    pub fn self_secs(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

#[derive(Debug, Default)]
struct Frame {
    parent: Option<u32>,
    /// Full `/`-joined path, composed once at intern time.
    path: String,
    /// Child name -> frame id; fan-out lookup without composing paths.
    children: HashMap<Box<str>, u32>,
    count: u64,
    total_ns: u128,
    /// Nanoseconds attributed to direct children (folded in as each
    /// child closes), so `self = total - child_ns`.
    child_ns: u128,
}

#[derive(Debug, Default)]
struct TreeState {
    frames: Vec<Frame>,
    /// Top-level name -> frame id.
    roots: HashMap<Box<str>, u32>,
    /// Frame ids in first-closed order — the snapshot and export order
    /// (matches the order the flat recorder used to report).
    order: Vec<u32>,
}

/// The hierarchical span store. See the module docs.
#[derive(Debug)]
pub(crate) struct FrameTree {
    /// Distinguishes trees on the shared thread-local stack: a frame
    /// opened on tree A is never made the parent of one opened on tree B.
    token: u64,
    state: Mutex<TreeState>,
}

impl Default for FrameTree {
    fn default() -> Self {
        FrameTree {
            token: NEXT_TREE_TOKEN.fetch_add(1, Relaxed),
            state: Mutex::new(TreeState::default()),
        }
    }
}

impl FrameTree {
    fn intern(state: &mut TreeState, parent: Option<u32>, name: &str) -> u32 {
        let hit = match parent {
            Some(p) => state.frames[p as usize].children.get(name).copied(),
            None => state.roots.get(name).copied(),
        };
        if let Some(id) = hit {
            return id;
        }
        let path = match parent {
            Some(p) => format!("{}/{}", state.frames[p as usize].path, name),
            None => name.to_owned(),
        };
        let id = state.frames.len() as u32;
        state.frames.push(Frame { parent, path, ..Frame::default() });
        match parent {
            Some(p) => state.frames[p as usize].children.insert(name.into(), id),
            None => state.roots.insert(name.into(), id),
        };
        id
    }

    /// Opens the frame `name` under this thread's innermost open frame of
    /// this tree (top-level when the stack top belongs to another tree)
    /// and pushes it on the stack.
    pub(crate) fn enter(&self, name: &str) -> u32 {
        let parent = FRAME_STACK.with(|s| {
            s.borrow().last().copied().filter(|(tok, _)| *tok == self.token).map(|(_, id)| id)
        });
        let id = Self::intern(&mut self.state.lock(), parent, name);
        FRAME_STACK.with(|s| s.borrow_mut().push((self.token, id)));
        id
    }

    /// Closes frame `id`, folding `elapsed_ns` into it and into its
    /// parent's child attribution. Drop order can be violated by
    /// `mem::forget` games; recover by truncating to this frame's stack
    /// position rather than panicking.
    pub(crate) fn exit(&self, id: u32, elapsed_ns: u128) {
        FRAME_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&e| e == (self.token, id)) {
                stack.truncate(pos);
            }
        });
        let mut state = self.state.lock();
        if state.frames[id as usize].count == 0 {
            state.order.push(id);
        }
        let parent = state.frames[id as usize].parent;
        let frame = &mut state.frames[id as usize];
        frame.count += 1;
        frame.total_ns += elapsed_ns;
        if let Some(p) = parent {
            state.frames[p as usize].child_ns += elapsed_ns;
        }
    }

    /// Folds a shard's aggregate for one path into this tree, re-interning
    /// each `/`-separated segment. Absorbing shard snapshots in task order
    /// keeps first-closed path order deterministic.
    pub(crate) fn absorb(&self, path: &str, timing: PhaseTiming) {
        let mut state = self.state.lock();
        let mut id = None;
        for seg in path.split('/') {
            id = Some(Self::intern(&mut state, id, seg));
        }
        let Some(id) = id else { return };
        if state.frames[id as usize].count == 0 && timing.count > 0 {
            state.order.push(id);
        }
        let frame = &mut state.frames[id as usize];
        frame.count += timing.count;
        frame.total_ns += timing.total_ns;
        frame.child_ns += timing.total_ns.saturating_sub(timing.self_ns);
    }

    /// Paths and timings in first-closed order.
    pub(crate) fn snapshot(&self) -> Vec<(String, PhaseTiming)> {
        let state = self.state.lock();
        state
            .order
            .iter()
            .map(|&id| {
                let f = &state.frames[id as usize];
                (
                    f.path.clone(),
                    PhaseTiming {
                        count: f.count,
                        total_ns: f.total_ns,
                        self_ns: f.total_ns.saturating_sub(f.child_ns),
                    },
                )
            })
            .collect()
    }
}

/// A detached span-nesting context; restores the previous one on drop.
#[derive(Debug)]
#[must_use = "dropping immediately re-attaches the previous span context"]
pub struct DetachedSpans {
    saved: Vec<StackEntry>,
}

/// Detaches the current thread's span-nesting context until the guard
/// drops: spans entered meanwhile record as top-level paths. Use when
/// recording into a shard registry that will be absorbed into a parent —
/// shard paths must not inherit the spawning thread's open spans, or
/// inline (serial) task execution would nest where worker threads don't.
pub fn detach_spans() -> DetachedSpans {
    DetachedSpans { saved: FRAME_STACK.with(|s| std::mem::take(&mut *s.borrow_mut())) }
}

impl Drop for DetachedSpans {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        FRAME_STACK.with(|s| *s.borrow_mut() = saved);
    }
}

/// An open phase timer; records on drop.
#[must_use = "a span measures the scope it is alive for"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    tree: Arc<FrameTree>,
    frame: u32,
    start: Instant,
}

impl SpanGuard {
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard { inner: None }
    }

    pub(crate) fn enter(tree: Arc<FrameTree>, name: &str) -> SpanGuard {
        let frame = tree.enter(name);
        SpanGuard { inner: Some(OpenSpan { tree, frame, start: Instant::now() }) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.inner.take() {
            let elapsed = open.start.elapsed().as_nanos();
            open.tree.exit(open.frame, elapsed);
        }
    }
}

/// Renders frame timings as collapsed-stack ("folded") lines —
/// `root;child;leaf <self-ns>` — the input format of standard flamegraph
/// tooling (`flamegraph.pl`, inferno). Line order follows the input
/// (first-closed order), so the stack *structure* is deterministic even
/// though the values are wall clock.
pub fn to_folded(frames: &[(String, PhaseTiming)]) -> String {
    let mut out = String::new();
    for (path, t) in frames {
        out.push_str(&path.replace('/', ";"));
        out.push(' ');
        out.push_str(&t.self_ns.to_string());
        out.push('\n');
    }
    out
}

/// Parses collapsed-stack lines back into `(path, self_ns)` pairs (paths
/// rejoined with the tree's `/` separator). `None` on a malformed line.
pub fn parse_folded(text: &str) -> Option<Vec<(String, u128)>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (stack, value) = line.rsplit_once(' ')?;
            Some((stack.replace(';', "/"), value.parse().ok()?))
        })
        .collect()
}

/// Per-kind handler-time accumulators: label -> log-scale latency
/// histogram (seconds), the same bucket layout as `metrics.rs`. Counts
/// are dispatch counts (deterministic); moments are wall clock.
#[derive(Debug, Default)]
pub(crate) struct HandlerStats {
    kinds: Mutex<Vec<(String, Arc<HistogramCore>)>>,
}

impl HandlerStats {
    /// The cell labelled `label`, interning it on first use. Cells are
    /// fetched once per run (cold path) and charged on hot paths.
    pub(crate) fn cell(&self, label: &str) -> Arc<HistogramCore> {
        let mut kinds = self.kinds.lock();
        match kinds.iter().find(|(n, _)| n == label) {
            Some((_, c)) => Arc::clone(c),
            None => {
                let c = Arc::new(HistogramCore::default());
                kinds.push((label.to_owned(), Arc::clone(&c)));
                c
            }
        }
    }

    /// Labels and histogram contents, sorted by label.
    pub(crate) fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut out: Vec<(String, HistogramSnapshot)> = self
            .kinds
            .lock()
            .iter()
            .map(|(n, c)| (n.clone(), Histogram(Some(Arc::clone(c))).snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub(crate) fn absorb(&self, other: &HandlerStats) {
        for (label, snap) in other.snapshot() {
            if snap.count > 0 {
                Histogram(Some(self.cell(&label))).absorb(&snap);
            }
        }
    }
}

/// One worker's utilization over parallel map calls. All fields are wall
/// clock — volatile telemetry, never compared across runs or `--jobs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerUse {
    /// Worker index within the pool.
    pub worker: usize,
    /// Nanoseconds inside task closures.
    pub busy_ns: u128,
    /// Nanoseconds claiming chunks from the shared queue.
    pub steal_ns: u128,
    /// Nanoseconds in the worker loop not spent busy or claiming.
    pub idle_ns: u128,
    /// Nanoseconds between this worker finishing and the slowest one.
    pub join_wait_ns: u128,
    /// Chunks claimed.
    pub chunks: u64,
    /// Tasks executed.
    pub tasks: u64,
}

/// Backing store for the timeprof opt-in gate: per-kind handler
/// histograms plus accumulated worker utilization.
#[derive(Debug, Default)]
pub(crate) struct TimeProfCore {
    pub(crate) handlers: HandlerStats,
    workers: Mutex<Vec<WorkerUse>>,
}

impl TimeProfCore {
    /// Accumulates one parallel map's worker stats by worker index.
    pub(crate) fn record_workers(&self, stats: &[WorkerUse]) {
        let mut workers = self.workers.lock();
        for s in stats {
            if workers.len() <= s.worker {
                workers.resize(s.worker + 1, WorkerUse::default());
            }
            let w = &mut workers[s.worker];
            w.busy_ns += s.busy_ns;
            w.steal_ns += s.steal_ns;
            w.idle_ns += s.idle_ns;
            w.join_wait_ns += s.join_wait_ns;
            w.chunks += s.chunks;
            w.tasks += s.tasks;
        }
    }

    pub(crate) fn workers_snapshot(&self) -> Vec<WorkerUse> {
        self.workers.lock().iter().enumerate().map(|(i, w)| WorkerUse { worker: i, ..*w }).collect()
    }

    pub(crate) fn absorb(&self, other: &TimeProfCore) {
        self.handlers.absorb(&other.handlers);
        self.record_workers(&other.workers_snapshot());
    }
}

/// A point-in-time copy of the time profiler's state.
#[derive(Debug, Clone, Default)]
pub struct TimeProfSnapshot {
    /// Frame timings in first-closed order. Paths, order, and counts are
    /// deterministic; nanoseconds are wall clock.
    pub frames: Vec<(String, PhaseTiming)>,
    /// Per-kind handler histograms (seconds), sorted by label. Counts
    /// are deterministic; moments are wall clock.
    pub handlers: Vec<(String, HistogramSnapshot)>,
    /// Per-worker utilization accumulated across parallel maps (volatile).
    pub workers: Vec<WorkerUse>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interning_reuses_frames_and_composes_paths() {
        let tree = FrameTree::default();
        let a1 = tree.enter("outer");
        let b = tree.enter("inner");
        tree.exit(b, 10);
        tree.exit(a1, 30);
        let a2 = tree.enter("outer");
        assert_eq!(a1, a2, "same (parent, name) reuses the frame id");
        tree.exit(a2, 5);
        let snap = tree.snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["outer/inner", "outer"]);
        assert_eq!(snap[1].1.count, 2);
        assert_eq!(snap[1].1.total_ns, 35);
        assert_eq!(snap[1].1.self_ns, 25, "child's 10ns attributed away from outer");
        assert_eq!(snap[0].1.self_ns, 10, "leaf keeps all its time");
    }

    #[test]
    fn sibling_trees_do_not_nest_across_tokens() {
        let a = FrameTree::default();
        let b = FrameTree::default();
        let fa = a.enter("outer");
        let fb = b.enter("task");
        b.exit(fb, 1);
        a.exit(fa, 2);
        assert_eq!(b.snapshot()[0].0, "task", "tree B span is top-level, not outer/task");
        assert!(stack_is_empty());
    }

    #[test]
    fn absorb_matches_live_recording() {
        let live = FrameTree::default();
        let o = live.enter("outer");
        let i = live.enter("inner");
        live.exit(i, 10);
        live.exit(o, 30);

        let merged = FrameTree::default();
        for (path, t) in live.snapshot() {
            merged.absorb(&path, t);
        }
        assert_eq!(merged.snapshot(), live.snapshot());
    }

    #[test]
    fn folded_round_trips() {
        let tree = FrameTree::default();
        let o = tree.enter("outer");
        let i = tree.enter("inner");
        tree.exit(i, 10);
        tree.exit(o, 30);
        let snap = tree.snapshot();
        let folded = to_folded(&snap);
        assert!(folded.contains("outer;inner 10\n"), "{folded}");
        let back = parse_folded(&folded).expect("well-formed");
        let expect: Vec<(String, u128)> =
            snap.iter().map(|(p, t)| (p.clone(), t.self_ns)).collect();
        assert_eq!(back, expect);
        assert_eq!(parse_folded("no-value-line"), None);
    }

    #[test]
    fn handler_stats_count_and_merge() {
        let a = HandlerStats::default();
        let t = Histogram(Some(a.cell("ev_publish")));
        for _ in 0..3 {
            t.record(1e-6);
        }
        let b = HandlerStats::default();
        Histogram(Some(b.cell("ev_publish"))).record(1e-6);
        Histogram(Some(b.cell("ev_probe"))).record(1e-6);
        let _ = b.cell("ev_fail"); // interned but never charged: not merged
        a.absorb(&b);
        let snap = a.snapshot();
        let labels: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(labels, ["ev_probe", "ev_publish"], "sorted by label");
        assert_eq!(snap[1].1.count, 4);
        assert_eq!(snap[0].1.count, 1);
    }

    #[test]
    fn worker_use_accumulates_by_index() {
        let core = TimeProfCore::default();
        core.record_workers(&[
            WorkerUse { worker: 1, busy_ns: 10, chunks: 2, ..WorkerUse::default() },
            WorkerUse { worker: 0, busy_ns: 5, tasks: 3, ..WorkerUse::default() },
        ]);
        core.record_workers(&[WorkerUse { worker: 1, busy_ns: 7, ..WorkerUse::default() }]);
        let snap = core.workers_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], WorkerUse { worker: 0, busy_ns: 5, tasks: 3, ..WorkerUse::default() });
        assert_eq!(
            snap[1],
            WorkerUse { worker: 1, busy_ns: 17, chunks: 2, ..WorkerUse::default() }
        );
    }

    #[test]
    fn nesting_composes_paths() {
        let rec = Arc::new(FrameTree::default());
        {
            let _outer = SpanGuard::enter(Arc::clone(&rec), "outer");
            for _ in 0..3 {
                let _inner = SpanGuard::enter(Arc::clone(&rec), "inner");
            }
        }
        let snap = rec.snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["outer/inner", "outer"]);
        assert_eq!(snap[0].1.count, 3);
        assert_eq!(snap[1].1.count, 1);
        assert!(snap[1].1.self_ns <= snap[1].1.total_ns);
    }

    #[test]
    fn sibling_after_nested_is_top_level() {
        let rec = Arc::new(FrameTree::default());
        {
            let _a = SpanGuard::enter(Arc::clone(&rec), "a");
        }
        {
            let _b = SpanGuard::enter(Arc::clone(&rec), "b");
        }
        let paths: Vec<String> = rec.snapshot().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["a", "b"]);
    }

    #[test]
    fn detaching_makes_spans_top_level_and_restores() {
        let rec = Arc::new(FrameTree::default());
        {
            let _outer = SpanGuard::enter(Arc::clone(&rec), "outer");
            {
                let _detached = detach_spans();
                let _task = SpanGuard::enter(Arc::clone(&rec), "task");
            }
            let _inner = SpanGuard::enter(Arc::clone(&rec), "inner");
        }
        let paths: Vec<String> = rec.snapshot().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["task", "outer/inner", "outer"]);
    }

    #[test]
    fn disabled_guard_is_inert() {
        let g = SpanGuard::disabled();
        drop(g);
        assert!(stack_is_empty());
    }

    #[test]
    fn forgotten_inner_guard_recovers() {
        let rec = Arc::new(FrameTree::default());
        {
            let _outer = SpanGuard::enter(Arc::clone(&rec), "outer");
            let inner = SpanGuard::enter(Arc::clone(&rec), "inner");
            std::mem::forget(inner);
        }
        assert!(stack_is_empty(), "outer's drop truncates the leaked frame");
        let paths: Vec<String> = rec.snapshot().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["outer"], "the forgotten span never records");
    }

    /// A random nesting script: each step either opens a frame (name from
    /// a small alphabet), closes the innermost, or closes everything.
    fn span_script() -> impl Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((0u8..8, 1u64..1000), 1..40)
    }

    proptest! {
        #[test]
        fn frame_invariants_hold(script in span_script()) {
            let tree = FrameTree::default();
            let mut open: Vec<(u32, u128)> = Vec::new(); // (id, accumulated charge)
            for (op, charge) in script {
                if op < 5 || open.is_empty() {
                    let name = ["a", "b", "c"][(op % 3) as usize];
                    let id = tree.enter(name);
                    open.push((id, 0));
                } else {
                    let (id, inner) = open.pop().unwrap();
                    let elapsed = inner + charge as u128;
                    tree.exit(id, elapsed);
                    if let Some(top) = open.last_mut() {
                        top.1 += elapsed;
                    }
                }
            }
            while let Some((id, inner)) = open.pop() {
                tree.exit(id, inner + 1);
                if let Some(top) = open.last_mut() {
                    top.1 += inner + 1;
                }
            }
            let snap = tree.snapshot();
            // self <= total for every frame.
            for (path, t) in &snap {
                prop_assert!(t.self_ns <= t.total_ns, "{path}: self > total");
            }
            // Children's totals sum to <= the parent's total.
            for (path, t) in &snap {
                let prefix = format!("{path}/");
                let child_sum: u128 = snap
                    .iter()
                    .filter(|(p, _)| {
                        p.starts_with(&prefix) && !p[prefix.len()..].contains('/')
                    })
                    .map(|(_, c)| c.total_ns)
                    .sum();
                prop_assert!(child_sum <= t.total_ns, "{path}: children {child_sum} > {}", t.total_ns);
                prop_assert_eq!(t.self_ns, t.total_ns - child_sum);
            }
            // The folded export re-parses to the same tree.
            let back = parse_folded(&to_folded(&snap)).expect("well-formed");
            let expect: Vec<(String, u128)> =
                snap.iter().map(|(p, c)| (p.clone(), c.self_ns)).collect();
            prop_assert_eq!(back, expect);
        }

        #[test]
        fn absorb_is_equivalent_to_replay(script in span_script()) {
            let tree = FrameTree::default();
            let mut open: Vec<u32> = Vec::new();
            for (op, charge) in script {
                if op < 5 || open.is_empty() {
                    open.push(tree.enter(["x", "y", "z"][(op % 3) as usize]));
                } else {
                    tree.exit(open.pop().unwrap(), charge as u128);
                }
            }
            while let Some(id) = open.pop() {
                tree.exit(id, 1);
            }
            let snap = tree.snapshot();
            let merged = FrameTree::default();
            for (path, t) in &snap {
                merged.absorb(path, *t);
            }
            prop_assert_eq!(merged.snapshot(), snap);
        }
    }
}
