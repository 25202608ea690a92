//! # cdnc-par
//!
//! Deterministic parallel execution for the workspace — dependency-free,
//! built on [`std::thread::scope`].
//!
//! Every workload in this repository is a pure function of its
//! configuration (including the seed). That makes work *embarrassingly
//! parallel*: tasks never communicate, so the only way parallelism can leak
//! into results is through scheduling — which task ran on which thread, and
//! in what order results were collected. [`Pool`] closes both holes:
//!
//! * **Per-task identity, not per-thread identity.** Tasks are identified by
//!   their index in the submission order. Anything a task derives from its
//!   identity (an RNG stream via `cdnc_simcore::derive_stream`, a shard
//!   registry) depends only on that index, never on the executing thread.
//! * **Chunked work-stealing index queue.** Workers repeatedly claim the
//!   next chunk of task indices from a shared atomic cursor. Which worker
//!   claims which chunk is racy — and irrelevant, because of the next point.
//! * **Ordered reduction.** Results are committed into the output in task
//!   order after all workers join, so `pool.map(n, f)` returns exactly
//!   `(0..n).map(f).collect()` no matter how tasks were interleaved.
//!
//! Consequently a run at `jobs = 7` is bit-identical to the serial run, and
//! `Pool::serial()` (`jobs = 1`) never spawns a thread at all — the default
//! everywhere, preserving single-threaded behaviour exactly.
//!
//! ```
//! use cdnc_par::Pool;
//!
//! let serial: Vec<u64> = (0..100u64).map(|i| i * i).collect();
//! for jobs in [1, 2, 4, 7] {
//!     let parallel = Pool::new(jobs).map(100, |i| (i as u64) * (i as u64));
//!     assert_eq!(parallel, serial);
//! }
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One worker's utilization over a single [`Pool::map_timed`] call. All
/// fields are wall clock: which worker claimed which chunk is racy, so
/// these numbers are telemetry, never inputs to anything deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index (0-based submission order of the spawned threads).
    pub worker: usize,
    /// Nanoseconds spent inside task closures.
    pub busy_ns: u128,
    /// Nanoseconds spent claiming chunks from the shared queue.
    pub steal_ns: u128,
    /// Nanoseconds in the worker loop not spent busy or claiming.
    pub idle_ns: u128,
    /// Nanoseconds between this worker draining the queue and the
    /// slowest worker doing so — the join-barrier wait.
    pub join_wait_ns: u128,
    /// Chunks claimed from the queue.
    pub chunks: u64,
    /// Tasks executed.
    pub tasks: u64,
}

/// One worker's share of a timed map: its `(start, results)` chunks, its
/// accounting, and the instant it drained the queue (for the join wait).
type TimedPart<R> = (Vec<(usize, Vec<R>)>, WorkerStat, Instant);

/// How many chunks each worker should get on average: small enough to
/// amortise the atomic claim, large enough that uneven task costs still
/// balance across workers.
const CHUNKS_PER_WORKER: usize = 8;

/// The number of workers `jobs = 0` ("auto") resolves to on this machine.
pub fn auto_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// A chunked work-stealing queue over the task index range `0..len`.
///
/// Workers call [`IndexQueue::take`] until it returns `None`; each call
/// claims the next contiguous chunk of indices. Claims are serialised by one
/// atomic counter, so every index is handed out exactly once.
#[derive(Debug)]
pub struct IndexQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl IndexQueue {
    /// A queue over `0..len` handing out chunks of `chunk` indices.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn new(len: usize, chunk: usize) -> IndexQueue {
        assert!(chunk > 0, "chunk size must be positive");
        IndexQueue { next: AtomicUsize::new(0), len, chunk }
    }

    /// Claims the next chunk of task indices, or `None` when drained.
    pub fn take(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }
}

/// A fixed-size deterministic worker pool.
///
/// `jobs` is the number of worker threads a parallel region may use;
/// `jobs = 1` runs inline on the calling thread. The pool is a value, not a
/// resource: threads are scoped to each call, so a `Pool` is freely `Copy`
/// and can be embedded in configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::serial()
    }
}

impl Pool {
    /// A pool of `jobs` workers; `0` means "auto" ([`auto_jobs`]).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: if jobs == 0 { auto_jobs() } else { jobs } }
    }

    /// The single-threaded pool: every map runs inline, no threads spawned.
    pub fn serial() -> Pool {
        Pool { jobs: 1 }
    }

    /// The worker count this pool runs with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over the task indices `0..len` and returns the results in
    /// index order. `f` must be a pure function of the index for the
    /// determinism contract to hold (the pool guarantees ordered output
    /// regardless). [`Pool::map_timed`] without its worker accounting.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` (by task order).
    pub fn map<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_timed(len, f).0
    }

    /// Maps `f` over the task indices `0..len`, returning the results in
    /// index order plus per-worker utilization (busy / steal / idle
    /// nanoseconds and the join-barrier wait). The stats cost a few
    /// `Instant` reads per chunk and are observation-only wall clock.
    ///
    /// Each worker returns its `(start, results)` chunks, its accounting,
    /// and the instant it finished (for the join-wait computation); the
    /// ordered reduction then commits the chunks into the output by task
    /// index, so the output is independent of which worker ran what.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` (by task order).
    pub fn map_timed<R, F>(&self, len: usize, f: F) -> (Vec<R>, Vec<WorkerStat>)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.jobs.min(len);
        if workers <= 1 {
            let start = Instant::now();
            let out: Vec<R> = (0..len).map(f).collect();
            let stat = WorkerStat {
                worker: 0,
                busy_ns: start.elapsed().as_nanos(),
                chunks: 1,
                tasks: len as u64,
                ..WorkerStat::default()
            };
            return (out, vec![stat]);
        }
        let chunk = len.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
        let queue = IndexQueue::new(len, chunk);
        let f = &f;
        let queue = &queue;
        let mut timed: Vec<TimedPart<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    scope.spawn(move || {
                        let loop_start = Instant::now();
                        let mut stat = WorkerStat { worker, ..WorkerStat::default() };
                        let mut claimed = Vec::new();
                        loop {
                            let t_claim = Instant::now();
                            let range = queue.take();
                            stat.steal_ns += t_claim.elapsed().as_nanos();
                            let Some(range) = range else { break };
                            stat.chunks += 1;
                            stat.tasks += range.len() as u64;
                            let start = range.start;
                            let t_busy = Instant::now();
                            claimed.push((start, range.map(f).collect::<Vec<R>>()));
                            stat.busy_ns += t_busy.elapsed().as_nanos();
                        }
                        let end = Instant::now();
                        stat.idle_ns = (end - loop_start)
                            .as_nanos()
                            .saturating_sub(stat.busy_ns)
                            .saturating_sub(stat.steal_ns);
                        (claimed, stat, end)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let last_end = timed.iter().map(|(_, _, end)| *end).max().expect("workers > 1");
        let mut stats = Vec::with_capacity(workers);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        for (part, mut stat, end) in timed.drain(..) {
            stat.join_wait_ns = (last_end - end).as_nanos();
            stats.push(stat);
            for (start, results) in part {
                for (offset, r) in results.into_iter().enumerate() {
                    slots[start + offset] = Some(r);
                }
            }
        }
        let out =
            slots.into_iter().map(|s| s.expect("every task index produced a result")).collect();
        (out, stats)
    }

    /// Maps `f` over `items`, passing each element with its index; results
    /// come back in item order (see [`Pool::map`]).
    pub fn map_slice<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_slice_timed(items, f).0
    }

    /// Like [`Pool::map_slice`], with the per-worker utilization of
    /// [`Pool::map_timed`].
    pub fn map_slice_timed<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, Vec<WorkerStat>)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_timed(items.len(), |i| f(i, &items[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn queue_hands_out_every_index_once() {
        let q = IndexQueue::new(10, 3);
        let mut seen = Vec::new();
        while let Some(r) = q.take() {
            seen.extend(r);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(q.take(), None, "drained queue stays drained");
    }

    #[test]
    fn queue_handles_empty_range() {
        let q = IndexQueue::new(0, 4);
        assert_eq!(q.take(), None);
    }

    #[test]
    fn map_matches_serial_for_every_job_count() {
        let serial: Vec<usize> = (0..257).map(|i| i * 31 % 97).collect();
        for jobs in [1, 2, 3, 4, 7, 16] {
            assert_eq!(Pool::new(jobs).map(257, |i| i * 31 % 97), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        for jobs in [1, 4] {
            let pool = Pool::new(jobs);
            assert!(pool.map(0, |i| i).is_empty());
            assert_eq!(pool.map(1, |i| i + 10), vec![10]);
            assert_eq!(pool.map(2, |i| i), vec![0, 1]);
        }
    }

    #[test]
    fn map_slice_passes_elements_in_order() {
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let out = Pool::new(4).map_slice(&items, |i, s| format!("{i}:{s}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("{i}:item-{i}"));
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let n = 300;
        let ran = AtomicU64::new(0);
        let out = Pool::new(7).map(n, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), n as u64);
        assert_eq!(out.len(), n);
    }

    #[test]
    fn jobs_zero_resolves_to_auto() {
        assert_eq!(Pool::new(0).jobs(), auto_jobs());
        assert!(auto_jobs() >= 1);
        assert_eq!(Pool::default(), Pool::serial());
    }

    #[test]
    fn oversubscription_is_allowed() {
        // More workers than tasks: the pool clamps to the task count.
        assert_eq!(Pool::new(64).map(3, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn map_timed_matches_map_and_accounts_every_task() {
        let serial: Vec<usize> = (0..257).map(|i| i * 31 % 97).collect();
        for jobs in [1, 2, 4] {
            let (out, stats) = Pool::new(jobs).map_timed(257, |i| i * 31 % 97);
            assert_eq!(out, serial, "jobs={jobs}");
            assert_eq!(stats.len(), jobs.min(257));
            assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 257, "jobs={jobs}");
            assert!(stats.iter().map(|s| s.chunks).sum::<u64>() >= 1);
            for (i, s) in stats.iter().enumerate() {
                assert_eq!(s.worker, i);
            }
            assert!(
                stats.iter().any(|s| s.join_wait_ns == 0),
                "the slowest worker waits on nobody"
            );
        }
    }

    #[test]
    fn map_timed_handles_empty_input() {
        let (out, stats) = Pool::new(4).map_timed(0, |i| i);
        assert!(out.is_empty());
        assert_eq!(stats.len(), 1, "serial inline path reports one worker");
        assert_eq!(stats[0].tasks, 0);
    }

    #[test]
    fn map_slice_timed_passes_elements_in_order() {
        let items: Vec<u32> = (0..100).collect();
        let (out, _) = Pool::new(3).map_slice_timed(&items, |i, v| i as u32 + v);
        assert_eq!(out, (0..100).map(|v| v * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(100, |i| {
                assert!(i != 57, "boom at 57");
                i
            })
        });
        assert!(result.is_err(), "a worker panic must reach the caller");
    }
}
