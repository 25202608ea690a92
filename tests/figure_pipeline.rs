//! End-to-end checks of the `experiments` figure pipeline: whichever command
//! runs a figure, every observation plane armed on its command line writes
//! its files into `--obs-dir`. `profile` and `timeprof` arm their own plane
//! on top of the figure flags; they must not drop the others.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary")
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cdnc-figure-pipeline-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `args --obs-dir <dir>` and requires every file in `expected` to be
/// written there, non-empty.
fn assert_writes(args: &[&str], dir: &Path, expected: &[&str]) {
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let out = experiments(&[args, &["--obs-dir", dir_arg]].concat());
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in expected {
        let len = std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
        assert!(len > 0, "experiments {args:?} did not write {name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn profile_writes_every_armed_plane() {
    assert_writes(
        &["profile", "fig14", "--scale", "smoke", "--digest", "--series", "--trace"],
        &scratch("profile"),
        &["fig14.profile.json", "fig14.digest.json", "fig14.series.json", "fig14.trace.json"],
    );
}

#[test]
fn timeprof_writes_every_armed_plane() {
    assert_writes(
        &["timeprof", "fig14", "--scale", "smoke", "--digest", "--health"],
        &scratch("timeprof"),
        &["fig14.timeprof.json", "fig14.folded", "fig14.digest.json", "fig14.health.json"],
    );
}

#[test]
fn retired_trace_dir_flag_is_rejected_with_usage() {
    // Flags the CLI no longer takes must fail with usage, not be ignored.
    // `list` runs nothing, so an accepted flag would exit 0 at once.
    let retired: [&[&str]; 7] = [
        &["fig17", "--trace-dir", "x"],
        &["list", "--obs-log", "info"],
        &["list", "--trace-threshold", "60"],
        &["list", "--series-cadence", "0.25"],
        &["list", "--digest-every", "4096"],
        &["list", "--stall-after", "10"],
        &["list", "--spike-multiple", "8"],
    ];
    for args in retired {
        let out = experiments(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: usage text expected:\n{stderr}");
    }
}

#[test]
fn malformed_invocations_exit_1_with_their_first_stderr_line() {
    // `list` runs nothing, so a flag it accepted would exit 0 at once.
    let usage = "usage: experiments <figure-id | all | list> [--scale smoke|default|paper]";
    let cases: [(&[&str], &str); 31] = [
        (&["list", "--jobs"], usage),
        (&["list", "--jobs", "x"], "--jobs needs a worker count (0 = one per core), got: x"),
        (&["list", "--seeds", "0"], "--seeds needs at least one replicate"),
        (&["list", "--seeds", "x"], "--seeds needs a replicate count, got: x"),
        (&["list", "--until", "nan"], "--until must be non-negative, got: nan"),
        (&["list", "--scale", "huge"], "unknown scale: huge"),
        (&["list", "--at", "x"], "--at needs seconds of simulated time, got: x"),
        (&["list", "--at", "-1"], "--at must be non-negative, got: -1"),
        (&["list", "--intensity", "2"], "--intensity must be in [0, 1], got: 2"),
        (
            &["list", "--scheme", "nope"],
            "unknown scheme: nope (one of: push, invalidation, ttl, push-mcast, \
             invalidation-mcast, ttl-mcast, hat)",
        ),
        (&["list", "--digest-perturb", "x"], "--digest-perturb needs an event index, got: x"),
        (&["list", "a", "b"], "unexpected argument: b"),
        (&["crawl"], "crawl needs an output path"),
        (&["verdict"], "verdict needs a trace path"),
        (&["checkpoint"], "checkpoint needs an output path"),
        (&["replay"], "replay needs a checkpoint path"),
        (&["obs-diff", "a"], "obs-diff needs two artifact directories"),
        (&["divergence", "a"], "divergence needs two .digest.json paths"),
        (&["watch"], "watch needs a directory of *.health.json heartbeats"),
        (&["profile"], "profile needs a figure id"),
        (&["timeprof"], "timeprof needs a figure id"),
        (&["trace"], "trace needs an action: summary | critical-path | inspect"),
        (&["trace", "summary"], "trace summary needs a trace JSON path"),
        (&["trace", "critical-path"], "trace critical-path needs a trace JSON path"),
        (&["trace", "inspect", "3"], "trace inspect needs <update-id> <trace.json>"),
        (&["trace", "inspect", "x", "y"], "update id must be a number, got: x"),
        (&["trace", "bogus", "x"], "unknown trace action: bogus"),
        (&["fig17", "--bogus"], "unexpected argument: --bogus"),
        (&["report", "--out"], usage),
        (&["--jobs"], usage),
        (&[], usage),
    ];
    for (args, first_line) in cases {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(first_line), "{args:?}: first stderr line");
    }
}
