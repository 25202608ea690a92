//! The determinism audit trail, enforced end-to-end: chained digests are
//! bit-identical across worker counts, an injected perturbation is
//! localized by the divergence bisection to exactly the perturbed event
//! index, and the fold itself is order-sensitive (a digest that ignored
//! event order could not catch reordering bugs).

use cdnc_experiments::divergence::digest_doc;
use cdnc_experiments::divergence::{self, Outcome};
use cdnc_experiments::obs_out::Artifact;
use cdnc_experiments::{run_figure_ctx, RunCtx, Scale};
use cdnc_obs::{Digest, DigestConfig, DigestSnapshot, Registry};
use cdnc_par::Pool;
use proptest::prelude::*;
use std::path::PathBuf;

/// Runs one figure with the digest armed and returns the snapshot.
fn digest_run(id: &str, jobs: usize, perturb: Option<u64>) -> DigestSnapshot {
    let reg = Registry::enabled();
    reg.enable_digest(DigestConfig { perturb, ..DigestConfig::default() });
    let ctx = RunCtx::with_pool(Scale::Smoke, Pool::new(jobs));
    run_figure_ctx(id, ctx, None, &reg).expect("known id");
    reg.digest_snapshot().expect("digest armed")
}

/// A scratch directory unique to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdnc-digest-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn chains_are_bit_identical_across_worker_counts() {
    // fig14 launches a batch of simulations, so the parallel path (shard +
    // absorb-in-task-order) is actually exercised.
    let serial = digest_run("fig14", 1, None);
    for jobs in [2, 4] {
        let parallel = digest_run("fig14", jobs, None);
        assert_eq!(
            serial.chain, parallel.chain,
            "digest chain must be bit-identical for --jobs {jobs}"
        );
        assert_eq!(serial.events, parallel.events, "fold counts must match for --jobs {jobs}");
        assert_eq!(
            serial.segments.len(),
            parallel.segments.len(),
            "segment structure must match for --jobs {jobs}"
        );
        for (i, (a, b)) in serial.segments.iter().zip(&parallel.segments).enumerate() {
            assert_eq!(a.chain, b.chain, "segment {i} chain must match for --jobs {jobs}");
        }
    }
}

#[test]
fn injected_perturbation_localizes_to_its_exact_index() {
    let dir = scratch("perturb");
    const PERTURB: u64 = 137;
    let write = |name: &str, perturb: Option<u64>| {
        let reg = Registry::enabled();
        reg.enable_digest(DigestConfig { perturb, ..DigestConfig::default() });
        run_figure_ctx("fig14", RunCtx::new(Scale::Smoke), None, &reg).expect("known id");
        let sub = dir.join(name);
        let doc = digest_doc("fig14", Scale::Smoke, &reg).expect("digest armed");
        Artifact::Digest.write(&sub, "fig14", doc.to_pretty()).unwrap()
    };
    let clean = write("clean", None);
    let perturbed = write("perturbed", Some(PERTURB));
    let settings = cdnc_experiments::obs_out::ObsSettings {
        dir: dir.join("traces"),
        ..cdnc_experiments::obs_out::ObsSettings::off()
    };
    match divergence::run(&clean, &perturbed, &settings).expect("bisect succeeds") {
        Outcome::Diverged(loc) => {
            // The perturbation XORs the fold word at one local index of
            // segment 0, so segment 0 diverges first and the localized
            // index is exactly the injected one.
            assert_eq!(loc.segment, 0, "first diverging segment");
            assert_eq!(loc.local, PERTURB, "divergence must localize to the perturbed index");
            assert_eq!(loc.global, PERTURB, "segment 0 local index is the global index");
            assert!(!loc.rerun_mismatch, "re-runs must reproduce their recorded chains");
            let rendered = loc.render();
            assert!(
                rendered.contains(&format!("first diverging event: global index {PERTURB}")),
                "headline line missing:\n{rendered}"
            );
        }
        Outcome::Identical => panic!("a perturbed run must diverge from a clean one"),
    }
    // Two clean runs of the same scenario are identical.
    let clean2 = write("clean2", None);
    assert!(
        matches!(divergence::run(&clean, &clean2, &settings), Ok(Outcome::Identical)),
        "identical scenarios must compare identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Swapping any two adjacent distinct folds changes the chain: the
    /// digest is order-sensitive, so event reorderings cannot cancel out.
    #[test]
    fn fold_order_is_significant(
        events in proptest::collection::vec((0u32..64, 0u64..1_000_000, 0u64..256), 2..40),
        swap_at in 0usize..38,
    ) {
        let swap_at = swap_at % (events.len() - 1);
        if events[swap_at] == events[swap_at + 1] {
            // Swapping identical folds is a no-op; nothing to check.
            return Ok(());
        }
        let chain_of = |seq: &[(u32, u64, u64)]| {
            let reg = Registry::enabled();
            reg.enable_digest(DigestConfig::default());
            let d: Digest = reg.digest();
            for &(node, t_us, tag) in seq {
                d.fold("ev_probe", node, t_us, &[tag]);
            }
            reg.digest_snapshot().unwrap().chain
        };
        let mut swapped = events.clone();
        swapped.swap(swap_at, swap_at + 1);
        prop_assert_ne!(chain_of(&events), chain_of(&swapped));
    }
}
