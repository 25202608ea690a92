#!/usr/bin/env bash
# The CI gate: .github/workflows/ci.yml runs this script, and it runs the
# same way locally.
# Usage: ./ci.sh
# The series-report and time-profile runs stay under target/ci/ (gitignored)
# so the workflow can upload them; every other step cleans up after itself.
# target/ci/ is emptied first, so a run that fails early leaves no files of
# an earlier run there to upload.
set -euo pipefail
cd "$(dirname "$0")"
CI_OUT="target/ci"
rm -rf "$CI_OUT"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check + clippy (perfbench)"
# perfbench is its own workspace, so the two steps above do not reach it.
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --locked --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Catches intra-doc links left dangling when an item is renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> benchmark build + self-tests (perfbench)"
# perfbench is its own workspace linking the crates by path, so a public-API
# change in any of them must keep it building; --locked fails instead of
# rewriting perfbench/Cargo.lock. The self-tests run one at a time: they
# read the process-wide live and peak heap counters of perfbench's
# allocator, which tests on parallel threads would move under each other.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml -- --test-threads=1

# Runs the release build of the experiments binary with the given arguments.
exp() {
  cargo run -q -p cdnc-experiments --release -- "$@"
}

echo "==> traced figure run + Chrome trace round-trip"
TRACE_DIR="$(mktemp -d)"
exp fig24 --scale smoke --trace --obs-dir "$TRACE_DIR"
test -s "$TRACE_DIR/fig24.trace.json"
# `trace summary` re-parses the emitted Chrome trace through obs::json,
# so a successful read is the round-trip check.
exp trace summary "$TRACE_DIR/fig24.trace.json"
exp trace critical-path "$TRACE_DIR/fig24.trace.json"
rm -rf "$TRACE_DIR"

# Runs `experiments <args>` serially and with `--jobs <jobs>`, writing into
# <dir>/serial and <dir>/jobs<jobs> with stdout in <dir>/serial.txt and
# <dir>/jobs<jobs>.txt. Stdout must match line-for-line except output paths,
# wall-clock "[fig: …s on N worker thread(s)]" lines, and phase-timing
# table rows; the artifact dirs must match with wall-clock fields scrubbed.
# Usage: jobs_diff <dir> <jobs> <args>...
jobs_diff() {
  local dir="$1" jobs="$2"
  shift 2
  exp "$@" --obs-dir "$dir/serial" > "$dir/serial.txt"
  exp "$@" --obs-dir "$dir/jobs$jobs" --jobs "$jobs" > "$dir/jobs$jobs.txt"
  filter() {
    grep -vF "$dir" "$1" | grep -vE 'worker thread\(s\)\]$|^  [A-Za-z0-9_/]+ +[0-9]+ +[0-9.]+s$|^  phase '
  }
  diff <(filter "$dir/serial.txt") <(filter "$dir/jobs$jobs.txt")
  exp obs-diff "$dir/serial" "$dir/jobs$jobs"
}

echo "==> serial vs --jobs 2 determinism diff"
PAR_DIR="$(mktemp -d)"
jobs_diff "$PAR_DIR" 2 fig17 --scale smoke --obs --trace
rm -rf "$PAR_DIR"

echo "==> all figures: serial vs --jobs 4 artifact diff"
ALL_DIR="$(mktemp -d)"
exp all --scale smoke --obs --obs-dir "$ALL_DIR/serial" > "$ALL_DIR/serial.txt"
exp all --scale smoke --obs --jobs 4 --obs-dir "$ALL_DIR/jobs4" > "$ALL_DIR/jobs4.txt"
# Every figure's artifact — §3 trace analyses included — is bit-identical
# across worker counts once wall-clock fields are scrubbed.
exp obs-diff "$ALL_DIR/serial" "$ALL_DIR/jobs4"
rm -rf "$ALL_DIR"

echo "==> chaos smoke: convergence, traced round-trip, serial vs --jobs 4 diff"
CHAOS_DIR="$(mktemp -d)"
# Fault injection, retransmit timers and failovers — and the per-send digest
# fold under drops and duplicates — are bit-identical across worker counts.
jobs_diff "$CHAOS_DIR" 4 ext_chaos --scale smoke --obs --trace --digest
# Every sweep row — calm through storm — must satisfy the convergence
# invariant (zero present-but-stale replicas at the horizon).
if grep 'violations=' "$CHAOS_DIR/serial.txt" | grep -qv 'violations= 0'; then
  echo "ext_chaos: convergence violations detected"; exit 1
fi
# The chaos trace (fault drops, retransmits, failovers) survives the
# Chrome-trace round-trip.
test -s "$CHAOS_DIR/serial/ext_chaos.trace.json"
exp trace summary "$CHAOS_DIR/serial/ext_chaos.trace.json"
rm -rf "$CHAOS_DIR"

echo "==> churn smoke: convergence, checkpoint/replay identity, serial vs --jobs 4 diff"
CHURN_DIR="$(mktemp -d)"
# Lifecycle scheduling, waiter handoff and failovers are bit-identical
# across worker counts.
jobs_diff "$CHURN_DIR" 4 ext_churn --scale smoke --obs
# Every lifecycle cell — calm through the supernode-kill storm — must
# satisfy the convergence invariant (zero present-but-stale replicas at
# the horizon) despite leaves, crashes, and cold rejoins.
if grep 'violations=' "$CHURN_DIR/serial.txt" | grep -qv 'violations= 0'; then
  echo "ext_churn: convergence violations detected"; exit 1
fi
# Checkpoint/restore self-test: pause the storm cell of every scheme just
# before the scheduled supernode-kill incident, replay it across the
# incident, and require a bit-identical digest chain and end state vs an
# uninterrupted run — for the full horizon and for an anomaly window. The
# seven schemes cover every tree, cluster and ledger walk of the reader.
for scheme in push invalidation ttl push-mcast invalidation-mcast ttl-mcast hat; do
  exp checkpoint "$CHURN_DIR/$scheme.ckpt" --scale smoke --flash --at 240 --scheme "$scheme"
  exp replay "$CHURN_DIR/$scheme.ckpt" > "$CHURN_DIR/replay.txt"
  exp replay "$CHURN_DIR/$scheme.ckpt" --until 420 > "$CHURN_DIR/replay_window.txt"
  for out in replay replay_window; do
    grep -q 'replay_chain_match=true' "$CHURN_DIR/$out.txt"
    grep -q 'replay_report_match=true' "$CHURN_DIR/$out.txt"
  done
done
# The reader rejects a digest segment that folding cannot build: the push
# artifact with a zero digest stride must fail to decode (exit 1, naming
# the key), not replay.
sed 's/^dg_stride=.*/dg_stride=0/' "$CHURN_DIR/push.ckpt" > "$CHURN_DIR/bad_stride.ckpt"
status=0
exp replay "$CHURN_DIR/bad_stride.ckpt" > "$CHURN_DIR/bad_stride.txt" 2>&1 || status=$?
test "$status" -eq 1
grep -q 'checkpoint decode error: dg_stride' "$CHURN_DIR/bad_stride.txt"
rm -rf "$CHURN_DIR"

echo "==> request-plane smoke: workload curves, serial vs --jobs 4 diff, report section"
WL_DIR="$(mktemp -d)"
# Request arrivals, cache hits/misses, delayed-hit coalescing and origin
# fetches — their series and per-send digest folds included — are
# bit-identical across worker counts.
jobs_diff "$WL_DIR" 4 ext_workload --scale smoke --obs --series --digest
# The latency/staleness CDF curves landed next to the artifact.
test -s "$WL_DIR/serial/ext_workload.workload.json"
exp report --obs-dir "$WL_DIR/serial" --out "$WL_DIR/report"
grep -q 'Request plane' "$WL_DIR/report/ext_workload.html"
rm -rf "$WL_DIR"

echo "==> series emission + HTML report"
SERIES_DIR="$CI_OUT/series"
exp fig17 --scale smoke --obs --series --obs-dir "$SERIES_DIR"
test -s "$SERIES_DIR/fig17.series.json"
exp report --obs-dir "$SERIES_DIR" --out "$SERIES_DIR/report"
test -s "$SERIES_DIR/report/index.html"
test -s "$SERIES_DIR/report/fig17.html"

echo "==> memory profile smoke: attribution + probes artifact"
PROF_DIR="$(mktemp -d)"
exp profile fig20 --scale smoke --obs-dir "$PROF_DIR" > "$PROF_DIR/profile.txt"
test -s "$PROF_DIR/fig20.profile.json"
# The counting allocator is installed in the release binary: the run must
# attribute the bulk of its bytes to named subsystems, not "other".
grep -q 'attributed to named subsystems' "$PROF_DIR/profile.txt"
exp report --obs-dir "$PROF_DIR" --out "$PROF_DIR/report"
grep -q 'Memory profile' "$PROF_DIR/report/fig20.html"
# Allocation counts repeat exactly from run to run (obs-diff compares the
# attribution section exactly). The chaos sweep's HAT failovers remove and
# re-insert tree members, so a run-dependent hash layout would show there.
exp profile ext_chaos --scale smoke --obs-dir "$PROF_DIR/first" > /dev/null
exp profile ext_chaos --scale smoke --obs-dir "$PROF_DIR/second" > /dev/null
exp obs-diff "$PROF_DIR/first" "$PROF_DIR/second"
rm -rf "$PROF_DIR"

echo "==> time profile smoke: flamegraph export + structural serial vs --jobs 4 diff"
TP_DIR="$CI_OUT/timeprof"
exp timeprof fig17 --scale smoke --obs-dir "$TP_DIR/serial"
exp timeprof fig17 --scale smoke --obs-dir "$TP_DIR/jobs4" --jobs 4
test -s "$TP_DIR/serial/fig17.folded"
test -s "$TP_DIR/jobs4/fig17.folded"
# Frame paths, counts and handler counts are deterministic; obs-diff
# scrubs the nanosecond telemetry and compares .folded stacks structurally.
exp obs-diff "$TP_DIR/serial" "$TP_DIR/jobs4"
exp report --obs-dir "$TP_DIR/serial" --out "$TP_DIR/report"
grep -q 'Time profile' "$TP_DIR/report/fig17.html"
grep -q 'Worker utilization' "$TP_DIR/report/fig17.html"

echo "==> determinism audit smoke: --jobs digest identity + perturbation self-test"
DIG_DIR="$(mktemp -d)"
exp fig14 --scale smoke --obs --digest --health --obs-dir "$DIG_DIR/serial"
exp fig14 --scale smoke --obs --digest --obs-dir "$DIG_DIR/jobs4" --jobs 4
# The chained digest is part of the artifact set: obs-diff compares the
# .digest.json files bit-for-bit (health heartbeats are wall-clock and
# skipped), so this fails if --jobs 4 perturbs the event order.
exp obs-diff "$DIG_DIR/serial" "$DIG_DIR/jobs4"
# End-to-end fault-localization self-test: inject a single-event
# perturbation, bisect, and require the exact injected index back.
exp fig14 --scale smoke --digest --digest-perturb 123 --obs-dir "$DIG_DIR/perturbed"
if exp divergence "$DIG_DIR/serial/fig14.digest.json" "$DIG_DIR/perturbed/fig14.digest.json" > "$DIG_DIR/divergence.txt"; then
  echo "divergence: a perturbed run compared identical"; exit 1
fi
grep -q 'first diverging event: global index 123 (segment 0' "$DIG_DIR/divergence.txt"
# The heartbeat left a final finished heartbeat and watch renders it.
test -s "$DIG_DIR/serial/fig14.health.json"
exp watch "$DIG_DIR/serial" --once | grep -q 'done'
rm -rf "$DIG_DIR"

echo "==> benchmark correctness smoke (perfbench, every workload at full size, seeds 42 and 7)"
# One untimed pass per workload on the default seed and on the held-out
# seed 7 (perfbench/README.md): every simulation must run, match its own
# re-run and pass the workload's checks. perfbench exits 0 even when a check
# fails, so the verdict is read from its last line, not its exit status.
for seed in 42 7; do
  for w in consistency request_plane observed lifecycle; do
    last="$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seed "$seed" --seconds 0 --trace 0 | tail -n 1)"
    case "$last" in
      '{"correct": true'*) echo "perfbench $w seed $seed: correct" ;;
      *) echo "perfbench $w seed $seed: not correct: $last"; exit 1 ;;
    esac
  done
done

echo "CI gate passed."
