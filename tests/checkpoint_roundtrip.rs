//! Integration: checkpoint/restore is exact. For arbitrary scheme ×
//! churn-intensity × pause-time combinations, serializing a paused
//! simulation and resuming it must reproduce the uninterrupted run bit
//! for bit — same report, same determinism-digest chain — and the replay
//! artifact layer on top must self-verify. Tampered or structurally
//! mismatched artifacts must fail loudly, never restore garbage.

use cdnc_core::{
    checkpoint, checkpoint_with_obs, resume, resume_until, resume_with_obs, run_with_obs,
    ChurnPlan, FaultPlan, MethodKind, Scheme, SimConfig, WorkloadPlan,
};
use cdnc_experiments::replay::{read_artifact, replay, take_checkpoint, ReplaySpec};
use cdnc_experiments::Scale;
use cdnc_obs::{DigestConfig, Registry};
use cdnc_simcore::{SimRng, SimTime};
use cdnc_trace::UpdateSequence;
use proptest::prelude::*;

/// The scheme palette the property sweeps (unicast, tree, hybrid).
fn schemes() -> [Scheme; 4] {
    [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Ttl),
        Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 },
        Scheme::hat(),
    ]
}

fn cfg(scheme_idx: usize, intensity: f64, workload: bool) -> SimConfig {
    let scheme = schemes()[scheme_idx % 4];
    let mut cfg =
        SimConfig::section4(scheme, UpdateSequence::live_game(&mut SimRng::seed_from_u64(42)));
    cfg.servers = 24;
    cfg.faults = Some(FaultPlan::at_intensity(0.0));
    cfg.churn = Some(ChurnPlan::at_intensity(intensity));
    if workload {
        cfg.workload = Some(WorkloadPlan::default());
    }
    cfg
}

fn digest_registry() -> Registry {
    let reg = Registry::enabled();
    reg.enable_digest(DigestConfig::default());
    reg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Pause anywhere, resume, and nothing is different: the resumed
    /// report equals the uninterrupted one and the restored digest chain
    /// continues to the same final value over the same fold count.
    #[test]
    fn prop_resume_is_bit_identical(
        scheme_idx in 0usize..4,
        intensity_tenths in 0u32..=10,
        at_s in 0u64..=600,
        workload in (0u8..2).prop_map(|b| b == 1),
    ) {
        let cfg = cfg(scheme_idx, f64::from(intensity_tenths) / 10.0, workload);
        let straight_reg = digest_registry();
        let straight = run_with_obs(&cfg, &straight_reg);

        let ckpt_reg = digest_registry();
        let artifact = checkpoint_with_obs(&cfg, &ckpt_reg, SimTime::from_secs(at_s));
        let resume_reg = digest_registry();
        let resumed = resume_with_obs(&cfg, &resume_reg, &artifact).expect("well-formed artifact");
        prop_assert_eq!(&resumed, &straight, "resumed report diverged");

        let s = straight_reg.digest_snapshot().expect("digest armed");
        let r = resume_reg.digest_snapshot().expect("digest armed");
        prop_assert_eq!(r.chain, s.chain, "digest chain diverged after restore");
        prop_assert_eq!(r.events, s.events, "fold counts diverged after restore");
    }

    /// Stepping a restored run only to an intermediate time re-serializes
    /// to exactly the artifact a straight run checkpoints there: restore
    /// is exact at every instant, not just at the horizon.
    #[test]
    fn prop_windowed_resume_reserializes_identically(
        scheme_idx in 0usize..4,
        at_s in 0u64..=300,
        window_s in 1u64..=300,
    ) {
        let cfg = cfg(scheme_idx, 0.8, false);
        let artifact = checkpoint(&cfg, SimTime::from_secs(at_s));
        let until = SimTime::from_secs(at_s + window_s);
        let stepped = resume_until(&cfg, &artifact, until).expect("well-formed artifact");
        let straight = checkpoint(&cfg, until);
        prop_assert_eq!(stepped, straight, "windowed restore drifted from a straight run");
    }
}

#[test]
fn structural_mismatch_and_tampering_fail_loudly() {
    let base = cfg(0, 0.5, false);
    let artifact = checkpoint(&base, SimTime::from_secs(120));

    let mut more_servers = cfg(0, 0.5, false);
    more_servers.servers += 8;
    assert!(resume(&more_servers, &artifact).is_err(), "server-count mismatch must be rejected");

    let mut with_workload = cfg(0, 0.5, true);
    with_workload.servers = base.servers;
    assert!(resume(&with_workload, &artifact).is_err(), "subsystem mismatch must be rejected");

    let truncated: String = artifact.lines().take(40).map(|l| format!("{l}\n")).collect();
    assert!(resume(&base, &truncated).is_err(), "truncation must be rejected");
    assert!(resume(&base, "not an artifact").is_err(), "garbage must be rejected");

    // One-line tampers of a request-plane churn cell: each must come back
    // as an error from `resume`, never a panic or a silently wrong run.
    let cell = cfg(0, 0.5, true);
    let artifact = checkpoint(&cell, SimTime::from_secs(200));
    for (key, value, why) in [
        ("sched_next_seq", "0", "queued seqs not below the counter"),
        ("sched_entries", "18446744073709551615", "queue count beyond the artifact"),
        ("topo_down", "18446744073709551615", "child count beyond the artifact"),
        ("topo_kid", "4000000000", "child id past the node table"),
        ("ev_t", "0", "queued event before the restored clock"),
        ("u_seen_max", "4294967296", "u32 field above u32::MAX"),
    ] {
        let tampered = tamper(&artifact, key, value);
        assert!(resume(&cell, &tampered).is_err(), "{key}={value} ({why}) must be rejected");
    }
    assert!(resume(&cell, &artifact).is_ok(), "the untampered artifact still resumes");
}

/// `artifact` with the value of its first `key=` line replaced by `value`.
fn tamper(artifact: &str, key: &str, value: &str) -> String {
    let prefix = format!("{key}=");
    let at = artifact
        .lines()
        .position(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("artifact has no {key:?} line"));
    let mut lines: Vec<String> = artifact.lines().map(str::to_owned).collect();
    lines[at] = format!("{prefix}{value}");
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn replay_artifact_self_verifies_end_to_end() {
    // The experiments-level artifact: header + core checkpoint. Reading
    // it back recovers the cell spec, and replaying it — full or an
    // anomaly window — verifies bit-identity against a from-scratch run.
    let spec = ReplaySpec {
        scheme_key: "invalidation-mcast".to_owned(),
        intensity: 0.8,
        flash: true,
        scale: Scale::Smoke,
        at: SimTime::from_secs(240),
    };
    let text = take_checkpoint(&spec, &Registry::disabled());
    let (read, core) = read_artifact(&text).expect("well-formed replay artifact");
    assert_eq!(read, spec, "header round-trips the cell spec");
    assert!(core.starts_with("ckpt_version="), "core artifact embedded after the header");

    let full = replay(&text, None).expect("full replay");
    assert!(full.chain_match && full.report_match, "full replay diverged");
    let window = replay(&text, Some(SimTime::from_secs(360))).expect("windowed replay");
    assert!(window.chain_match && window.report_match, "anomaly-window replay diverged");
}
