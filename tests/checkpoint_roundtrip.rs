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
use cdnc_obs::digest::MAX_CHECKPOINTS_PER_SEGMENT;
use cdnc_obs::{DigestConfig, Registry};
use cdnc_simcore::{SimDuration, SimRng, SimTime};
use cdnc_trace::{SnapshotId, UpdateSequence};
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
    let catalog = cell.workload.as_ref().expect("request plane").catalog_size.to_string();
    let users = cell.users().to_string();
    // A snapshot of the sequence that the provider (node 0, whose
    // `n_content` line comes first) has not published yet: pending
    // publishes count as `head − cursor`, so no lag cursor may pass it.
    let head: u32 = field(&artifact, "n_content").parse().expect("a snapshot id");
    let past_head = (head + 1).to_string();
    assert!(head as usize + 1 < cell.updates.len(), "the cell pauses before its last publish");
    // The queue holds the publishes after the head, each at its instant; the
    // first one (an `ev=0` line, then its snapshot) moved four snapshots on
    // is at the wrong instant and leaves a snapshot unpublished.
    let lines: Vec<&str> = artifact.lines().collect();
    let publish = lines.iter().position(|&l| l == "ev=0").expect("a queued publish") + 1;
    let first: u32 = field(lines[publish], "a").parse().expect("a snapshot id");
    assert!(first as usize + 4 < cell.updates.len(), "four publishes follow the first queued");
    let nth_a = lines[..publish].iter().filter(|l| l.starts_with("a=")).count();
    for (key, nth, value, why) in [
        ("sched_next_seq", 0, "0", "queued seqs not below the counter"),
        ("sched_entries", 0, "18446744073709551615", "queue count beyond the artifact"),
        ("topo_down", 0, "18446744073709551615", "child count beyond the artifact"),
        ("topo_kid", 0, "4000000000", "child id past the node table"),
        ("ev_t", 0, "0", "queued event before the restored clock"),
        ("u_seen_max", 0, "4294967296", "u32 field above u32::MAX"),
        ("cache_slot", 0, catalog.as_str(), "cached object past the catalog"),
        ("cache_waiter_user", 0, users.as_str(), "waiting user past the user table"),
        ("n_resolved", 0, past_head.as_str(), "adoption lag cursor past the provider's head"),
        ("u_seen_max", 0, past_head.as_str(), "observation lag cursor past the provider's head"),
        ("n_content", 1, past_head.as_str(), "server content past the provider's head"),
        ("a", nth_a, &(first + 4).to_string(), "queued publish out of the schedule"),
    ] {
        let tampered = tamper_nth(&artifact, key, nth, value);
        assert!(resume(&cell, &tampered).is_err(), "{key}={value} ({why}) must be rejected");
    }
    assert!(resume(&cell, &artifact).is_ok(), "the untampered artifact still resumes");

    // Each dynamic fact is stored once, so the reader checks what the
    // derivations from it assume, naming the key. A HAT cell has a
    // supernode tree and supernodes; node 0, the provider, is never absent.
    let hat = cfg(3, 0.5, false);
    let hat_artifact = checkpoint(&hat, SimTime::from_secs(200));
    let kids = hat_artifact.lines().filter(|l| l.starts_with("tree_kid=")).count();
    assert!(kids > 4, "the supernode tree has branches below the root's");
    let twice = tamper_nth(&hat_artifact, "tree_kid", kids - 1, field(&hat_artifact, "tree_kid"));
    let supernodes: usize = field(&hat_artifact, "topo_supernodes").parse().expect("a count");
    let short = tamper(&hat_artifact, "topo_supernodes", &(supernodes - 1).to_string()).replacen(
        &format!("\ntopo_sn={}\n", field(&hat_artifact, "topo_sn")),
        "\n",
        1,
    );
    let present_departed = tamper(&hat_artifact, "lc_down", "1");
    for (tampered, key, why) in [
        (twice, "tree_kid", "a supernode listed under two parents"),
        (short, "topo_supernodes", "a supernode list one short"),
        (present_departed, "lc_down", "a departure recorded on a present node"),
    ] {
        let err = resume(&hat, &tampered).expect_err(why);
        assert!(err.0.contains(key), "{why}: {err} must name {key}");
    }
    assert!(resume(&hat, &hat_artifact).is_ok(), "the untampered HAT artifact still resumes");

    // Artifacts of the earlier layouts are refused by their header: version
    // 1 queued every publish at every server and user, and version 2 kept
    // departures, cluster supernodes, tree parents and Last-Modified
    // instants beside their sources.
    for version in [1, 2] {
        let old = tamper(&artifact, "ckpt_version", &version.to_string());
        assert_eq!(
            resume(&cell, &old).expect_err("an earlier version must be rejected").0,
            format!("unsupported checkpoint version {version} (this build reads 3)")
        );
    }

    // After the last publish the edges cache the final snapshot, so a
    // provider head (node 0's content) past the update sequence would send
    // staleness accounting past the publish schedule.
    let last_publish =
        SimTime::ZERO + cell.update_start + cell.updates.last_update().since(SimTime::ZERO);
    let late = checkpoint(&cell, last_publish + SimDuration::from_secs(60));
    let past_end = cell.updates.len().to_string();
    let tampered = tamper(&late, "n_content", &past_end);
    assert!(resume(&cell, &tampered).is_err(), "snapshot id past the updates must be rejected");
    let rewound = tamper(&late, "sched_now", "0");
    let err = resume(&cell, &rewound).expect_err("a head published after the clock");
    assert!(err.0.contains("published after the clock"), "{err}");
    assert!(resume(&cell, &late).is_ok(), "the untampered late artifact still resumes");

    // Just after the first publish its updates are on the wire, in tracked
    // envelopes, and held by the reliable ledger for resending; one naming
    // a later snapshot passes the provider's head.
    let publishing =
        checkpoint(&cell, cell.published_at(SnapshotId(1)) + SimDuration::from_millis(1));
    let lines: Vec<&str> = publishing.lines().collect();
    let ledger = lines.iter().position(|l| l.starts_with("rel_pending=")).expect("a ledger");
    let updates: Vec<usize> = (1..lines.len()).filter(|&i| lines[i - 1] == "msg=0").collect();
    let (queued, held) = (updates[0], updates[updates.len() - 1]);
    assert!(queued < ledger && ledger < held, "updates both queued and held");
    for (at, why) in [(queued, "a queued update"), (held, "a held update")] {
        let nth_a = lines[..at].iter().filter(|l| l.starts_with("a=")).count();
        let err = resume(&cell, &tamper_nth(&publishing, "a", nth_a, "2")).expect_err(why);
        assert!(err.0.contains("passes the provider's head 1"), "{why}: {err}");
    }
    assert!(resume(&cell, &publishing).is_ok(), "the untampered artifact still resumes");

    // Invalidation state names snapshots too: the provider's last
    // invalidation, its known-stale mark (stored as the snapshot + 1) and
    // the news of a queued and of a held invalidation may not pass the head
    // either, just after the first publish of an invalidation tree.
    let inval = cfg(2, 0.5, false);
    let invalidating =
        checkpoint(&inval, inval.published_at(SnapshotId(1)) + SimDuration::from_millis(1));
    let lines: Vec<&str> = invalidating.lines().collect();
    let ledger = lines.iter().position(|l| l.starts_with("rel_pending=")).expect("a ledger");
    let news: Vec<usize> = (1..lines.len()).filter(|&i| lines[i - 1] == "msg=1").collect();
    let (queued, held) = (news[0], news[news.len() - 1]);
    assert!(queued < ledger && ledger < held, "invalidations both queued and held");
    let nth_a = |at: usize| lines[..at].iter().filter(|l| l.starts_with("a=")).count();
    for (key, nth, value, named) in [
        ("n_last_invalidated", 0, "2", "n_last_invalidated"),
        ("n_known_stale", 0, "3", "n_known_stale"),
        ("a", nth_a(queued), "2", "queued invalidation a"),
        ("a", nth_a(held), "2", "held invalidation a"),
    ] {
        let tampered = tamper_nth(&invalidating, key, nth, value);
        let err = resume(&inval, &tampered).expect_err(named);
        assert!(err.0.contains(named), "{err} must name {named}");
        assert!(err.0.contains("passes the provider's head 1"), "{named}: {err}");
    }
    assert!(resume(&inval, &invalidating).is_ok(), "the untampered artifact still resumes");

    // The digest segment must be one folding builds: a nonzero stride, at
    // most the cap of checkpoints, strictly ascending on the stride's grid
    // and none past the fold count. The reader checks it whether or not the
    // resuming registry arms a digest.
    let digested = checkpoint_with_obs(&cell, &digest_registry(), SimTime::from_secs(200));
    let stride: u64 = field(&digested, "dg_stride").parse().expect("a stride");
    let events: u64 = field(&digested, "dg_events").parse().expect("a fold count");
    assert!(events >= 3 * stride, "three checkpoints: {events} folds, stride {stride}");
    let (off_grid, past_end) = (2 * stride + 1, (events / stride + 2) * stride);
    let cap = MAX_CHECKPOINTS_PER_SEGMENT as u64 + 1;
    let list = tamper(&digested, "dg_stride", "1");
    let list = &list[..list.find("dg_checkpoints=").expect("a checkpoint list")];
    let over_cap = (1..=cap).fold(format!("{list}dg_checkpoints={cap}\n"), |text, index| {
        text + &format!("dg_idx={index}\ndg_val=0\n")
    });
    for (tampered, named, why) in [
        (tamper(&digested, "dg_stride", "0"), "dg_stride", "a zero stride"),
        (tamper_nth(&digested, "dg_idx", 1, &off_grid.to_string()), "dg_idx", "off the grid"),
        (tamper_nth(&digested, "dg_idx", 2, &past_end.to_string()), "dg_idx", "past the folds"),
        (tamper(&digested, "dg_events", "100"), "dg_events", "fewer folds than checkpoints"),
        (over_cap, "dg_checkpoints", "more checkpoints than the cap"),
    ] {
        for err in [resume(&cell, &tampered), resume_with_obs(&cell, &digest_registry(), &tampered)]
        {
            let err = err.expect_err(why);
            assert!(err.0.contains(named), "{why}: {err} must name {named}");
        }
    }
    assert!(resume(&cell, &digested).is_ok(), "the untampered digest artifact still resumes");
    let resumed = resume_with_obs(&cell, &digest_registry(), &digested);
    assert!(resumed.is_ok(), "and resumes into a digest");
}

/// The value of the first `key=` line of `artifact`.
fn field<'a>(artifact: &'a str, key: &str) -> &'a str {
    let prefix = format!("{key}=");
    artifact
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("artifact has no {key:?} line"))
}

/// `artifact` with the value of its first `key=` line replaced by `value`.
fn tamper(artifact: &str, key: &str, value: &str) -> String {
    tamper_nth(artifact, key, 0, value)
}

/// `artifact` with the value of its `nth` `key=` line (from 0) replaced by
/// `value`.
fn tamper_nth(artifact: &str, key: &str, nth: usize, value: &str) -> String {
    let prefix = format!("{key}=");
    let mut lines: Vec<String> = artifact.lines().map(str::to_owned).collect();
    let line = lines
        .iter_mut()
        .filter(|l| l.starts_with(&prefix))
        .nth(nth)
        .unwrap_or_else(|| panic!("artifact has no {key:?} line {nth}"));
    *line = format!("{prefix}{value}");
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
