//! CLI entry point: regenerate paper figures, persist crawl traces, and
//! render measurement verdicts.
//!
//! ```text
//! experiments <figure-id | all | list> [--scale smoke|default|paper]
//!                                      [--jobs <n>] [--seeds <k>]
//!                                      [--obs] [--obs-dir <dir>] [--trace] [--series]
//!                                      [--digest] [--digest-perturb <i>] [--health]
//! experiments crawl <out.bin>          [--scale …] [--jobs <n>]   # save a crawl trace
//! experiments verdict <trace.bin>                    # §3.6 verdict on a saved trace
//! experiments checkpoint <out.ckpt>    [--scheme <key>] [--intensity <f>]
//!                                      [--flash] [--at <secs>] [--scale …]
//! experiments replay <ckpt> [--until <secs>]         # restore + self-verify
//! experiments obs-diff <dirA> <dirB>                 # compare runs, wall-clock ignored
//! experiments divergence <a.digest.json> <b.digest.json>  # bisect to first diverging event
//! experiments watch <dir> [--once]                   # live run-health status table
//! experiments report [--obs-dir <d>] [--out <d>]     # render artifacts as static HTML
//! experiments profile <figure-id>      [figure flags]  # memory profile
//! experiments timeprof <figure-id>     [figure flags]  # time profile + flamegraph
//! experiments trace summary <t.json>                 # store-wide tracing statistics
//! experiments trace critical-path <t.json>           # per-method critical paths
//! experiments trace inspect <update-id> <t.json>     # one update's propagation tree
//! ```
//!
//! `--jobs n` fans simulation batches and crawl timeline construction out on
//! `n` worker threads (`0` = one per core). Results are bit-identical for
//! every `n` — parallelism only changes wall time. `--seeds k` runs every
//! figure `k` times on independently derived seed streams and reports
//! mean ± half-range per headline number.
//!
//! Each observation plane is one on/off flag; its tuning is fixed (see
//! `ObsSettings`). With `--obs`, every figure run collects metrics and phase
//! timings into a run artifact at `<obs-dir>/<figure>.json`, a phase-timing
//! table prints at the end, and `all` additionally writes a consolidated
//! `<obs-dir>/summary.json`.
//!
//! With `--trace`, every simulation records a causal span per update journey
//! (publish → hops → adoptions → user views); each figure writes
//! `<obs-dir>/<figure>.trace.json` in Chrome trace-event format (loadable
//! in ui.perfetto.dev or chrome://tracing), updates adopted more than 60 s
//! late are dumped in full under `<obs-dir>/flightrec/`, and a per-method
//! critical-path table prints after the run. The `trace` subcommand
//! re-reads those files.
//!
//! With `--series`, a sim-time sampler (every 0.25 s of simulated time)
//! additionally records queue depth, in-flight traffic, staleness, and
//! mode-occupancy trajectories into `<obs-dir>/<figure>.series.json`.
//! `report` renders every artifact under an obs dir into a self-contained
//! static HTML report.
//!
//! `checkpoint` runs one node-lifecycle sweep cell (an `ext_churn`
//! scheme × churn-intensity configuration; `--flash` arms the scheduled
//! supernode-kill incident) until sim time `--at` and serializes the
//! paused simulator — scheduler queue, RNG streams, node/tree/cache
//! state, digest segment — into a versioned artifact. `replay` restores
//! the artifact (the header rebuilds the exact configuration, so no flags
//! need to match), runs it forward — to the horizon, or only to
//! `--until` for anomaly-window replay — and self-verifies against an
//! uninterrupted run, printing greppable `replay_chain_match=` /
//! `replay_report_match=` verdict lines (exit 0 = bit-identical).
//!
//! With `--digest`, every scheduled event folds into a chained 64-bit
//! determinism digest with a checkpoint every 4096 folds, written per
//! figure to `<obs-dir>/<figure>.digest.json` (bit-identical for every
//! `--jobs` count). `divergence` compares two such files and, when the
//! chains disagree, binary-searches the checkpoints and re-runs both
//! recorded scenarios with an event trap to print the exact first diverging
//! event (exit 0 = identical, 1 = diverged, 2 = error). With `--health`, a
//! heartbeat thread samples throughput, sim-time progress, ETA, and RSS
//! into `<obs-dir>/<figure>.health.json` and a stall watchdog flags runs
//! silent for 10 s; `watch <dir>` tails those files as a live status table.
//!
//! `profile` and `timeprof` run one figure like `<figure-id>` with the
//! memory or time profiler armed (the memory profiler flags an allocation
//! spike at 8× the running median), print its breakdown table, and write
//! `<obs-dir>/<figure>.profile.json`, or `<figure>.timeprof.json` plus the
//! `<figure>.folded` flamegraph stacks. They take every figure flag, and
//! write every other armed plane's files too. `all`, `<figure-id>`,
//! `profile` and `timeprof` all run and write through one pipeline,
//! [`run_and_write`].

use cdnc_experiments::divergence;
use cdnc_experiments::ext_figs::{churn_scheme, CHURN_SCHEME_KEYS};
use cdnc_experiments::html_report::generate_report;
use cdnc_experiments::obs_out::{
    diff_artifact_dirs, run_and_write, summary_entry, timing_table, write_summary, FigureRun,
    ObsSettings,
};
use cdnc_experiments::profile_out::profile_table;
use cdnc_experiments::replay::{self, ReplaySpec};
use cdnc_experiments::timeprof_out::timeprof_table;
use cdnc_experiments::trace_out::{
    critical_path_table, inspect_text, load_store, summary_text, FLIGHTREC_SUBDIR,
};
use cdnc_experiments::watch;
use cdnc_experiments::{build_trace_ctx, figure_ids, RunCtx, Scale};
use cdnc_obs::ProfiledAlloc;
use cdnc_par::Pool;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Counting allocator behind the total-allocation estimate reported in
/// `summary.json` and the `profile` subcommand's attribution (one relaxed
/// atomic add per allocation; see `cdnc_obs::profile`).
#[global_allocator]
static ALLOC: ProfiledAlloc = ProfiledAlloc;

fn usage() -> ExitCode {
    eprintln!("usage: experiments <figure-id | all | list> [--scale smoke|default|paper]");
    eprintln!("                   [--jobs <n>] [--seeds <k>]");
    eprintln!("                   [--obs] [--obs-dir <dir>] [--trace] [--series]");
    eprintln!("                   [--digest] [--digest-perturb <index>] [--health]");
    eprintln!("                   (fixed tuning: traces of updates adopted over 60 s late go");
    eprintln!("                   to flightrec/, series every 0.25 s of sim time, a digest");
    eprintln!("                   checkpoint every 4096 folds, a stall after 10 s silence)");
    eprintln!("       experiments crawl <out.bin> [--scale …]   write a crawl trace to disk");
    eprintln!("       experiments verdict <trace.bin>           analyse a saved trace (§3.6)");
    eprintln!("       experiments checkpoint <out.ckpt> [--scheme <key>] [--intensity <f>]");
    eprintln!("                              [--flash] [--at <secs>] [--scale …]");
    eprintln!("                                                 pause a churn-cell run at a sim");
    eprintln!("                                                 time and save its full state");
    eprintln!("       experiments replay <ckpt> [--until <secs>]  restore a checkpoint, run it");
    eprintln!("                                                 forward, and self-verify against");
    eprintln!("                                                 an uninterrupted run (exit 0 =");
    eprintln!("                                                 bit-identical)");
    eprintln!("       experiments obs-diff <dirA> <dirB>        compare two artifact dirs,");
    eprintln!("                                                 ignoring wall-clock fields");
    eprintln!("                                                 (exit 0 = match, 1 = differ)");
    eprintln!("       experiments divergence <a.digest.json> <b.digest.json>");
    eprintln!("                                                 bisect two audit trails to the");
    eprintln!("                                                 first diverging event (exit 0 =");
    eprintln!(
        "                                                 identical, 1 = diverged, 2 = error)"
    );
    eprintln!("       experiments watch <dir> [--once]          live run-health status table");
    eprintln!("                                                 for *.health.json heartbeats");
    eprintln!("       experiments report [--obs-dir <dir>] [--out <dir>]");
    eprintln!("                                                 render artifacts as static HTML");
    eprintln!("       experiments profile <figure-id> [figure flags]");
    eprintln!("                                                 per-subsystem memory profile");
    eprintln!("                                                 (spike: 8× the running median)");
    eprintln!("       experiments timeprof <figure-id> [figure flags]");
    eprintln!("                                                 hot-path time profile: frame");
    eprintln!("                                                 tree, handler timing, worker");
    eprintln!("                                                 use, flamegraph .folded");
    eprintln!("                                                 (both also write every other");
    eprintln!("                                                 armed plane's files)");
    eprintln!("       experiments trace summary <t.json>        tracing statistics for a run");
    eprintln!("       experiments trace critical-path <t.json>  per-method critical paths");
    eprintln!("       experiments trace inspect <update> <t.json>  one update's full tree");
    eprintln!("scheme keys (checkpoint): {}", CHURN_SCHEME_KEYS.join(", "));
    eprintln!("figure ids:");
    for id in figure_ids() {
        eprintln!("  {id}");
    }
    ExitCode::FAILURE
}

/// Prints one figure run: its report and wall time, every file it wrote,
/// and the armed planes' tables. `false` when writing failed.
fn print_run(id: &str, run: &FigureRun, obs: &ObsSettings, workers: usize) -> bool {
    print!("{}", run.report);
    println!("[{id}: {:.2}s on {workers} worker thread(s)]", run.wall_s);
    for (what, path) in &run.written {
        println!("{what}: {}", path.display());
    }
    if run.dumps > 0 {
        println!(
            "flight recorder: {} anomalous update(s) dumped under {}",
            run.dumps,
            obs.dir.join(FLIGHTREC_SUBDIR).display()
        );
    }
    if let Some(table) = obs.enabled.then(|| timing_table(&run.reg)).flatten() {
        println!("--- phase timings ---\n{table}");
    }
    if let Some(window) = &run.window {
        println!("--- memory profile ---\n{}", profile_table(window));
    }
    if let Some(snap) = run.reg.timeprof_snapshot() {
        println!("--- time profile ---\n{}", timeprof_table(&snap));
    }
    if let Some(table) = run.spans.as_ref().and_then(critical_path_table) {
        println!("--- critical paths ---\n{table}");
    }
    match &run.error {
        None => true,
        Some(e) => {
            eprintln!("cannot write artifacts for {id}: {e}");
            false
        }
    }
}

/// Runs and prints one figure (`<figure-id>`, `profile`, `timeprof`).
fn figure_command(obs: &ObsSettings, id: &str, ctx: RunCtx, seeds: u64) -> ExitCode {
    let Some(run) = run_and_write(obs, id, ctx, seeds, &[]) else {
        eprintln!("unknown figure id: {id}");
        return usage();
    };
    if print_run(id, &run, obs, ctx.pool.jobs()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    ProfiledAlloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut scale = Scale::Default;
    let mut jobs = 1usize;
    let mut seeds = 1u64;
    let mut obs = ObsSettings::off();
    let mut out: Option<PathBuf> = None;
    let mut once = false;
    let mut scheme_key = "hat".to_owned();
    let mut intensity = 0.8f64;
    let mut flash = false;
    let mut at_s = 240.0f64;
    let mut until_s: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Some(parsed) = Scale::parse(value) else {
                    eprintln!("unknown scale: {value}");
                    return usage();
                };
                scale = parsed;
                i += 2;
            }
            "--jobs" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(n) = value.parse::<usize>() else {
                    eprintln!("--jobs needs a worker count (0 = one per core), got: {value}");
                    return usage();
                };
                jobs = n;
                i += 2;
            }
            "--seeds" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(k) = value.parse::<u64>() else {
                    eprintln!("--seeds needs a replicate count, got: {value}");
                    return usage();
                };
                if k == 0 {
                    eprintln!("--seeds needs at least one replicate");
                    return usage();
                }
                seeds = k;
                i += 2;
            }
            "--obs" => {
                obs.enabled = true;
                i += 1;
            }
            "--obs-dir" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                obs.dir = PathBuf::from(value);
                i += 2;
            }
            "--trace" => {
                obs.trace = true;
                i += 1;
            }
            "--series" => {
                obs.series = true;
                i += 1;
            }
            "--digest" => {
                obs.digest = true;
                i += 1;
            }
            "--digest-perturb" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(n) = value.parse::<u64>() else {
                    eprintln!("--digest-perturb needs an event index, got: {value}");
                    return usage();
                };
                obs.digest = true;
                obs.digest_perturb = Some(n);
                i += 2;
            }
            "--health" => {
                obs.health = true;
                i += 1;
            }
            "--once" => {
                once = true;
                i += 1;
            }
            "--scheme" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                if churn_scheme(value).is_none() {
                    eprintln!("unknown scheme: {value} (one of: {})", CHURN_SCHEME_KEYS.join(", "));
                    return usage();
                }
                scheme_key = value.clone();
                i += 2;
            }
            "--intensity" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(f) = value.parse::<f64>() else {
                    eprintln!("--intensity needs a churn intensity in [0, 1], got: {value}");
                    return usage();
                };
                if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                    eprintln!("--intensity must be in [0, 1], got: {value}");
                    return usage();
                }
                intensity = f;
                i += 2;
            }
            "--flash" => {
                flash = true;
                i += 1;
            }
            "--at" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(secs) = value.parse::<f64>() else {
                    eprintln!("--at needs seconds of simulated time, got: {value}");
                    return usage();
                };
                if !secs.is_finite() || secs < 0.0 {
                    eprintln!("--at must be non-negative, got: {value}");
                    return usage();
                }
                at_s = secs;
                i += 2;
            }
            "--until" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(secs) = value.parse::<f64>() else {
                    eprintln!("--until needs seconds of simulated time, got: {value}");
                    return usage();
                };
                if !secs.is_finite() || secs < 0.0 {
                    eprintln!("--until must be non-negative, got: {value}");
                    return usage();
                }
                until_s = Some(secs);
                i += 2;
            }
            "--out" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                out = Some(PathBuf::from(value));
                i += 2;
            }
            other
                if !other.starts_with("--")
                    && (positional.len() < 2
                        || (positional[0] == "trace" && positional.len() < 4)
                        || (["obs-diff", "divergence"].contains(&positional[0].as_str())
                            && positional.len() < 3)) =>
            {
                positional.push(other.to_owned());
                i += 1;
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return usage();
            }
        }
    }
    let Some(target) = positional.first().cloned() else { return usage() };
    let ctx = RunCtx::with_pool(scale, Pool::new(jobs));

    match target.as_str() {
        "list" => {
            for id in figure_ids() {
                println!("{id}");
            }
            ExitCode::SUCCESS
        }
        "all" => {
            let started = std::time::Instant::now();
            let workers = ctx.pool.jobs();
            let mut entries = Vec::new();
            println!(
                "building measurement trace ({scale:?} scale, {workers} worker(s), {seeds} seed(s))…"
            );
            let crawl_reg = obs.registry();
            let crawl_started = std::time::Instant::now();
            let traces: Vec<cdnc_trace::Trace> =
                (0..seeds).map(|r| build_trace_ctx(ctx.replicate(r), &crawl_reg)).collect();
            let crawl_wall_s = crawl_started.elapsed().as_secs_f64();
            println!("[crawl: {crawl_wall_s:.2}s on {workers} worker thread(s)]");
            if obs.enabled {
                entries.push(summary_entry("crawl", crawl_wall_s, workers, &crawl_reg));
            }
            let mut ok = true;
            for id in figure_ids() {
                let run = run_and_write(&obs, id, ctx, seeds, &traces).expect("known id");
                ok &= print_run(id, &run, &obs, workers);
                if obs.enabled {
                    entries.push(summary_entry(id, run.wall_s, workers, &run.reg));
                }
            }
            if obs.enabled {
                match write_summary(&obs.dir, scale, entries) {
                    Ok(path) => println!("observability summary: {}", path.display()),
                    Err(e) => {
                        eprintln!("cannot write summary: {e}");
                        ok = false;
                    }
                }
            }
            println!("all figures regenerated in {:.1?}", started.elapsed());
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "crawl" => {
            let Some(path) = positional.get(1) else {
                eprintln!("crawl needs an output path");
                return usage();
            };
            println!("crawling at {scale:?} scale ({} worker(s))…", ctx.pool.jobs());
            let reg = obs.registry();
            let trace = build_trace_ctx(ctx, &reg);
            if let Some(table) = obs.enabled.then(|| timing_table(&reg)).flatten() {
                println!("--- phase timings ---\n{table}");
            }
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = cdnc_trace::write_trace(&trace, std::io::BufWriter::new(file)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {path}: {} servers × {} days, {} poll records",
                trace.servers.len(),
                trace.days.len(),
                trace.total_server_polls()
            );
            ExitCode::SUCCESS
        }
        "verdict" => {
            let Some(path) = positional.get(1) else {
                eprintln!("verdict needs a trace path");
                return usage();
            };
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match cdnc_trace::read_trace(std::io::BufReader::new(file)) {
                Ok(trace) => {
                    println!("{}", cdnc_analysis::analyze(&trace));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "checkpoint" => {
            let Some(path) = positional.get(1) else {
                eprintln!("checkpoint needs an output path");
                return usage();
            };
            let spec = ReplaySpec {
                scheme_key,
                intensity,
                flash,
                scale,
                at: cdnc_simcore::SimTime::from_secs_f64(at_s),
            };
            println!(
                "checkpointing {} (intensity {:.2}, flash {}) at t={:.0}s, {scale:?} scale…",
                spec.scheme_key, spec.intensity, spec.flash, at_s
            );
            let reg = obs.registry();
            let started = std::time::Instant::now();
            let artifact = replay::take_checkpoint(&spec, &reg);
            let lines = artifact.lines().count();
            if let Err(e) = std::fs::write(path, &artifact) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "checkpoint: {path} ({lines} state fields, {:.2}s)",
                started.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        "replay" => {
            let Some(path) = positional.get(1) else {
                eprintln!("replay needs a checkpoint path");
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let until = until_s.map(cdnc_simcore::SimTime::from_secs_f64);
            match replay::replay(&text, until) {
                Ok(v) => {
                    let window = match until_s {
                        Some(t) => format!("t={:.0}s..{t:.0}s", v.spec.at.as_secs_f64()),
                        None => format!("t={:.0}s..horizon", v.spec.at.as_secs_f64()),
                    };
                    println!(
                        "replayed {} (intensity {:.2}, flash {}, {:?} scale) over {window}: \
                         {} event(s) folded",
                        v.spec.scheme_key,
                        v.spec.intensity,
                        v.spec.flash,
                        v.spec.scale,
                        v.replay_events
                    );
                    println!("replay_chain={:016x}", v.replay_chain);
                    println!("straight_chain={:016x}", v.straight_chain);
                    println!("replay_chain_match={}", v.chain_match);
                    println!("replay_report_match={}", v.report_match);
                    if v.chain_match && v.report_match {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("replay diverged from the uninterrupted run");
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("cannot replay {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "obs-diff" => {
            let (Some(dir_a), Some(dir_b)) = (positional.get(1), positional.get(2)) else {
                eprintln!("obs-diff needs two artifact directories");
                return usage();
            };
            match diff_artifact_dirs(Path::new(dir_a), Path::new(dir_b)) {
                Ok(diffs) if diffs.is_empty() => {
                    println!("artifacts match: {dir_a} vs {dir_b} (wall-clock fields ignored)");
                    ExitCode::SUCCESS
                }
                Ok(diffs) => {
                    for diff in &diffs {
                        eprintln!("{diff}");
                    }
                    eprintln!("{} difference(s) between {dir_a} and {dir_b}", diffs.len());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("cannot diff {dir_a} vs {dir_b}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "divergence" => {
            let (Some(path_a), Some(path_b)) = (positional.get(1), positional.get(2)) else {
                eprintln!("divergence needs two .digest.json paths");
                return usage();
            };
            match divergence::run(Path::new(path_a), Path::new(path_b), &obs) {
                Ok(divergence::Outcome::Identical) => {
                    println!("digest chains identical: {path_a} vs {path_b}");
                    ExitCode::SUCCESS
                }
                Ok(divergence::Outcome::Diverged(loc)) => {
                    print!("{}", loc.render());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("cannot bisect {path_a} vs {path_b}: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "watch" => {
            let Some(dir) = positional.get(1) else {
                eprintln!("watch needs a directory of *.health.json heartbeats");
                return usage();
            };
            match watch::run(Path::new(dir), once) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cannot watch {dir}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "report" => {
            let out_dir = out.unwrap_or_else(|| obs.dir.join("report"));
            match generate_report(&obs.dir, &out_dir) {
                Ok(written) => {
                    println!("report: {} page(s) under {}", written.len(), out_dir.display());
                    println!("index: {}", written[0].display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot generate report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "profile" | "timeprof" => {
            let Some(id) = positional.get(1) else {
                eprintln!("{target} needs a figure id");
                return usage();
            };
            obs.profile = target == "profile";
            obs.timeprof = !obs.profile;
            let verb = if obs.profile { "profiling" } else { "time-profiling" };
            if obs.profile && !cdnc_obs::profile::installed() {
                eprintln!(
                    "warning: counting allocator not installed in this binary; \
                     allocation attribution will be empty"
                );
            }
            println!(
                "{verb} {id} at {scale:?} scale ({} worker(s), {seeds} seed(s))…",
                ctx.pool.jobs()
            );
            figure_command(&obs, id, ctx, seeds)
        }
        "trace" => {
            let Some(action) = positional.get(1) else {
                eprintln!("trace needs an action: summary | critical-path | inspect");
                return usage();
            };
            let path_at =
                |idx: usize| -> Option<PathBuf> { positional.get(idx).map(PathBuf::from) };
            match action.as_str() {
                "summary" | "critical-path" => {
                    let Some(path) = path_at(2) else {
                        eprintln!("trace {action} needs a trace JSON path");
                        return usage();
                    };
                    let store = match load_store(&path) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("cannot load trace: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    if action == "summary" {
                        print!("{}", summary_text(&store));
                    } else {
                        match critical_path_table(&store) {
                            Some(table) => print!("{table}"),
                            None => println!("no traces recorded"),
                        }
                    }
                    ExitCode::SUCCESS
                }
                "inspect" => {
                    let (Some(update), Some(path)) = (positional.get(2), path_at(3)) else {
                        eprintln!("trace inspect needs <update-id> <trace.json>");
                        return usage();
                    };
                    let Ok(update) = update.parse::<u32>() else {
                        eprintln!("update id must be a number, got: {update}");
                        return usage();
                    };
                    let store = match load_store(&path) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("cannot load trace: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    match inspect_text(&store, update) {
                        Some(text) => {
                            print!("{text}");
                            ExitCode::SUCCESS
                        }
                        None => {
                            eprintln!("no trace for update {update} in {}", path.display());
                            ExitCode::FAILURE
                        }
                    }
                }
                other => {
                    eprintln!("unknown trace action: {other}");
                    usage()
                }
            }
        }
        id => figure_command(&obs, id, ctx, seeds),
    }
}
