//! Execution context threaded through every figure runner: the scale to run
//! at, the worker pool batches fan out on, and the replicate index for
//! multi-seed runs.
//!
//! The context never changes *what* a figure computes — only how wide it
//! runs (`pool`) and which seed replicate it draws (`replicate`). Replicate
//! 0 is the canonical run whose numbers EXPERIMENTS.md records; replicate
//! `r > 0` re-derives every base seed through
//! [`derive_seed`], giving statistically
//! independent repetitions that stay reproducible by index.

use crate::scale::Scale;
use cdnc_par::Pool;
use cdnc_simcore::derive_seed;

/// How one figure run executes: scale, parallelism, seed replicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCtx {
    /// Experiment scale (sweep sizes, server counts).
    pub scale: Scale,
    /// Worker pool simulation batches fan out on (serial by default).
    pub pool: Pool,
    /// Replicate index; 0 = the canonical seeds.
    pub replicate: u64,
}

impl RunCtx {
    /// The canonical serial context for a scale — exactly the behaviour of
    /// the pre-`--jobs` runners.
    pub fn new(scale: Scale) -> RunCtx {
        RunCtx { scale, pool: Pool::serial(), replicate: 0 }
    }

    /// A context fanning batches out on `pool`.
    pub fn with_pool(scale: Scale, pool: Pool) -> RunCtx {
        RunCtx { scale, pool, replicate: 0 }
    }

    /// This context switched to replicate `r`.
    pub fn replicate(self, r: u64) -> RunCtx {
        RunCtx { replicate: r, ..self }
    }

    /// The seed a component seeded with `base` uses under this context:
    /// `base` itself on replicate 0, stream `replicate` of `base` otherwise.
    pub fn seed(&self, base: u64) -> u64 {
        if self.replicate == 0 {
            base
        } else {
            derive_seed(base, self.replicate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_zero_keeps_canonical_seeds() {
        let ctx = RunCtx::new(Scale::Smoke);
        assert_eq!(ctx.seed(42), 42);
        assert_eq!(ctx.seed(7), 7);
    }

    #[test]
    fn replicates_derive_distinct_stable_seeds() {
        let r1 = RunCtx::new(Scale::Smoke).replicate(1);
        let r2 = RunCtx::new(Scale::Smoke).replicate(2);
        assert_ne!(r1.seed(42), 42);
        assert_ne!(r1.seed(42), r2.seed(42));
        assert_eq!(r1.seed(42), derive_seed(42, 1), "replicates are derive_seed streams");
    }
}
