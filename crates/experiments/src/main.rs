//! CLI entry point: regenerate paper figures, persist crawl traces, and
//! render measurement verdicts.
//!
//! ```text
//! experiments <figure-id | all | list> [--scale smoke|default|paper]
//!                                      [--jobs <n>] [--seeds <k>]
//!                                      [--obs] [--obs-log <level>] [--obs-dir <dir>]
//!                                      [--trace] [--trace-dir <dir>] [--trace-threshold <s>]
//!                                      [--series] [--series-cadence <s>]
//!                                      [--digest] [--digest-every <n>] [--digest-perturb <i>]
//!                                      [--health] [--stall-after <s>]
//! experiments crawl <out.bin>          [--scale …] [--jobs <n>]   # save a crawl trace
//! experiments verdict <trace.bin>                    # §3.6 verdict on a saved trace
//! experiments checkpoint <out.ckpt>    [--scheme <key>] [--intensity <f>]
//!                                      [--flash] [--at <secs>] [--scale …]
//! experiments replay <ckpt> [--until <secs>]         # restore + self-verify
//! experiments obs-diff <dirA> <dirB>                 # compare runs, wall-clock ignored
//! experiments divergence <a.digest.json> <b.digest.json>  # bisect to first diverging event
//! experiments watch <dir> [--once]                   # live run-health status table
//! experiments report [--obs-dir <d>] [--out <d>]     # render artifacts as static HTML
//! experiments profile <figure-id>      [--scale …] [--jobs <n>] [--spike-multiple <f>]
//! experiments timeprof <figure-id>     [--scale …] [--jobs <n>]  # time profile + flamegraph
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
//! With `--obs`, every figure run collects metrics and phase timings into a
//! run artifact at `<obs-dir>/<figure>.json`, a phase-timing table prints at
//! the end, and `all` additionally writes a consolidated
//! `<obs-dir>/summary.json`. `--obs-log debug|info|warn` also streams
//! structured events into `<obs-dir>/<figure>.jsonl`.
//!
//! With `--trace`, every simulation records a causal span per update journey
//! (publish → hops → adoptions → user views); each figure writes
//! `<trace-dir>/<figure>.trace.json` in Chrome trace-event format (loadable
//! in ui.perfetto.dev or chrome://tracing), anomalous updates are dumped in
//! full under `<trace-dir>/flightrec/`, and a per-method critical-path table
//! prints after the run. The `trace` subcommand re-reads those files.
//!
//! With `--series`, a sim-time sampler (cadence `--series-cadence`, default
//! 0.25 s sim time) additionally records queue depth, in-flight traffic,
//! staleness, and mode-occupancy trajectories into
//! `<obs-dir>/<figure>.series.json`. `report` renders every artifact under
//! an obs dir into a self-contained static HTML report.
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
//! determinism digest with periodic checkpoints, written per figure to
//! `<obs-dir>/<figure>.digest.json` (bit-identical for every `--jobs`
//! count). `divergence` compares two such files and, when the chains
//! disagree, binary-searches the checkpoints and re-runs both recorded
//! scenarios with an event trap to print the exact first diverging event
//! (exit 0 = identical, 1 = diverged, 2 = error). With `--health`, a
//! heartbeat thread samples throughput, sim-time progress, ETA, and RSS
//! into `<obs-dir>/<figure>.health.json` and a stall watchdog flags silent
//! runs; `watch <dir>` tails those files as a live status table.

use cdnc_experiments::divergence;
use cdnc_experiments::ext_figs::{churn_scheme, CHURN_SCHEME_KEYS};
use cdnc_experiments::html_report::generate_report;
use cdnc_experiments::obs_out::{
    diff_artifact_dirs, summary_entry, timing_table, write_figure_artifact, write_figure_digest,
    write_figure_series, write_figure_workload, write_summary, ObsSettings,
};
use cdnc_experiments::profile_out::{profile_table, write_profile_artifact};
use cdnc_experiments::replay::{self, ReplaySpec};
use cdnc_experiments::report::aggregate_replicates;
use cdnc_experiments::timeprof_out::{timeprof_table, write_timeprof_artifact};
use cdnc_experiments::trace_out::{
    critical_path_table, inspect_text, load_store, summary_text, write_figure_trace,
    FLIGHTREC_SUBDIR,
};
use cdnc_experiments::watch;
use cdnc_experiments::{
    build_trace_ctx, run_figure_ctx, run_figure_replicated, FigureReport, RunCtx, Scale,
    EVAL_FIGURES, EXT_FIGURES, HAT_FIGURES, TRACE_FIGURES,
};
use cdnc_obs::{Level, ProfiledAlloc};
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
    eprintln!("                   [--obs] [--obs-log debug|info|warn] [--obs-dir <dir>]");
    eprintln!("                   [--trace] [--trace-dir <dir>] [--trace-threshold <seconds>]");
    eprintln!("                   [--series] [--series-cadence <seconds>]");
    eprintln!("                   [--digest] [--digest-every <events>] [--digest-perturb <index>]");
    eprintln!("                   [--health] [--stall-after <seconds>]");
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
    eprintln!("       experiments profile <figure-id> [--scale …] [--jobs <n>]");
    eprintln!("                          [--spike-multiple <f>]   per-subsystem memory profile");
    eprintln!("       experiments timeprof <figure-id> [--scale …] [--jobs <n>]");
    eprintln!("                                                 hot-path time profile: frame");
    eprintln!("                                                 tree, handler timing, worker");
    eprintln!("                                                 use, flamegraph .folded");
    eprintln!("       experiments trace summary <t.json>        tracing statistics for a run");
    eprintln!("       experiments trace critical-path <t.json>  per-method critical paths");
    eprintln!("       experiments trace inspect <update> <t.json>  one update's full tree");
    eprintln!("scheme keys (checkpoint): {}", CHURN_SCHEME_KEYS.join(", "));
    eprintln!("figure ids:");
    for id in TRACE_FIGURES.iter().chain(&EVAL_FIGURES).chain(&HAT_FIGURES).chain(&EXT_FIGURES) {
        eprintln!("  {id}");
    }
    ExitCode::FAILURE
}

/// Starts the run-health heartbeat for one figure when `--health` armed
/// the registry: `<obs-dir>/<figure>.health.json`, refreshed twice a
/// second, with the stall watchdog at `--stall-after`. No-op (`None`)
/// otherwise.
fn start_health(
    obs: &ObsSettings,
    id: &str,
    reg: &cdnc_obs::Registry,
) -> Option<cdnc_obs::HealthMonitor> {
    cdnc_obs::HealthMonitor::start(
        reg,
        cdnc_obs::HealthMonitorConfig {
            figure: id.to_owned(),
            path: obs.dir.join(format!("{id}.health.json")),
            interval: std::time::Duration::from_millis(cdnc_obs::DEFAULT_HEARTBEAT_MS),
            stall_after: std::time::Duration::from_secs_f64(obs.stall_after_s),
        },
    )
}

/// Writes one figure's determinism digest (when `--digest` armed the
/// registry) and prints where it went.
fn emit_digest(obs: &ObsSettings, id: &str, scale: Scale, reg: &cdnc_obs::Registry) {
    match write_figure_digest(&obs.dir, id, scale, reg) {
        Ok(Some(path)) => println!("digest: {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("cannot write digest for {id}: {e}"),
    }
}

/// Writes one figure's trace JSON and flight-recorder dumps, then prints
/// where they went and the per-method critical-path table.
fn emit_trace(obs: &ObsSettings, id: &str, reg: &cdnc_obs::Registry) {
    let store = reg.tracer().store();
    match write_figure_trace(obs, id, &store) {
        Ok(Some((path, dumps))) => {
            println!("trace: {}", path.display());
            if dumps > 0 {
                println!(
                    "flight recorder: {dumps} anomalous update(s) dumped under {}",
                    obs.trace_dir().join(FLIGHTREC_SUBDIR).display()
                );
            }
            if let Some(table) = critical_path_table(&store) {
                println!("--- critical paths ---\n{table}");
            }
        }
        Ok(None) => {}
        Err(e) => eprintln!("cannot write trace for {id}: {e}"),
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
            "--obs-log" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Some(level) = Level::parse(value) else {
                    eprintln!("unknown event level: {value}");
                    return usage();
                };
                obs.enabled = true;
                obs.log_level = Some(level);
                i += 2;
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
            "--trace-dir" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                obs.trace = true;
                obs.trace_dir = Some(PathBuf::from(value));
                i += 2;
            }
            "--trace-threshold" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(secs) = value.parse::<f64>() else {
                    eprintln!("--trace-threshold needs seconds, got: {value}");
                    return usage();
                };
                obs.trace = true;
                obs.trace_threshold_s = secs;
                i += 2;
            }
            "--series" => {
                obs.series = true;
                i += 1;
            }
            "--series-cadence" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(secs) = value.parse::<f64>() else {
                    eprintln!("--series-cadence needs seconds of simulated time, got: {value}");
                    return usage();
                };
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("--series-cadence must be positive, got: {value}");
                    return usage();
                }
                obs.series = true;
                obs.series_cadence_us = (secs * 1e6) as u64;
                i += 2;
            }
            "--digest" => {
                obs.digest = true;
                i += 1;
            }
            "--digest-every" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(n) = value.parse::<u64>() else {
                    eprintln!("--digest-every needs an event count, got: {value}");
                    return usage();
                };
                if n == 0 {
                    eprintln!("--digest-every must be at least 1");
                    return usage();
                }
                obs.digest = true;
                obs.digest_every = n;
                i += 2;
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
            "--stall-after" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(secs) = value.parse::<f64>() else {
                    eprintln!("--stall-after needs seconds, got: {value}");
                    return usage();
                };
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("--stall-after must be positive, got: {value}");
                    return usage();
                }
                obs.health = true;
                obs.stall_after_s = secs;
                i += 2;
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
            "--spike-multiple" => {
                let Some(value) = args.get(i + 1) else { return usage() };
                let Ok(f) = value.parse::<f64>() else {
                    eprintln!("--spike-multiple needs a factor, got: {value}");
                    return usage();
                };
                if !f.is_finite() || f <= 1.0 {
                    eprintln!("--spike-multiple must be a finite factor above 1, got: {value}");
                    return usage();
                }
                obs.spike_multiple = f;
                i += 2;
            }
            other
                if positional.len() < 2
                    || (positional.first().is_some_and(|p| p == "trace")
                        && positional.len() < 4)
                    || (positional.first().is_some_and(|p| p == "obs-diff")
                        && positional.len() < 3)
                    || (positional.first().is_some_and(|p| p == "divergence")
                        && positional.len() < 3) =>
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
            for id in
                TRACE_FIGURES.iter().chain(&EVAL_FIGURES).chain(&HAT_FIGURES).chain(&EXT_FIGURES)
            {
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
            let mut run_one = |id: &str, use_trace: bool| {
                let reg = obs.registry();
                let health = start_health(&obs, id, &reg);
                let fig_started = std::time::Instant::now();
                let runs: Vec<FigureReport> = (0..seeds)
                    .map(|r| {
                        let shared = use_trace.then(|| &traces[r as usize]);
                        run_figure_ctx(id, ctx.replicate(r), shared, &reg).expect("known id")
                    })
                    .collect();
                if let Some(health) = health {
                    health.stop();
                }
                let report = aggregate_replicates(&runs);
                print!("{report}");
                let wall_s = fig_started.elapsed().as_secs_f64();
                println!("[{id}: {wall_s:.2}s on {workers} worker thread(s)]");
                if obs.enabled {
                    entries.push(summary_entry(id, wall_s, workers, &reg));
                    if let Err(e) =
                        write_figure_artifact(&obs.dir, id, scale, &report, wall_s, &reg)
                    {
                        eprintln!("cannot write artifact for {id}: {e}");
                    }
                    if let Err(e) = write_figure_workload(&obs.dir, id, &report) {
                        eprintln!("cannot write workload curves for {id}: {e}");
                    }
                }
                if obs.series {
                    if let Err(e) = write_figure_series(&obs.dir, id, &reg) {
                        eprintln!("cannot write series for {id}: {e}");
                    }
                }
                if obs.digest {
                    emit_digest(&obs, id, scale, &reg);
                }
                if obs.trace {
                    emit_trace(&obs, id, &reg);
                }
            };
            for id in TRACE_FIGURES {
                run_one(id, true);
            }
            for id in EVAL_FIGURES.iter().chain(&HAT_FIGURES).chain(&EXT_FIGURES) {
                run_one(id, false);
            }
            if obs.enabled {
                match write_summary(&obs.dir, scale, entries) {
                    Ok(path) => println!("observability summary: {}", path.display()),
                    Err(e) => eprintln!("cannot write summary: {e}"),
                }
            }
            println!("all figures regenerated in {:.1?}", started.elapsed());
            ExitCode::SUCCESS
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
        "profile" => {
            let Some(id) = positional.get(1) else {
                eprintln!("profile needs a figure id");
                return usage();
            };
            obs.enabled = true;
            obs.profile = true;
            let reg = obs.registry();
            if !cdnc_obs::profile::installed() {
                eprintln!(
                    "warning: counting allocator not installed in this binary; \
                     allocation attribution will be empty"
                );
            }
            println!(
                "profiling {id} at {scale:?} scale ({} worker(s), {seeds} seed(s))…",
                ctx.pool.jobs()
            );
            // Bracket the run: enable tagged attribution, reset window
            // peaks, snapshot a base, and diff against it afterwards so the
            // artifact covers exactly this figure's work.
            cdnc_obs::profile::set_enabled(true);
            cdnc_obs::profile::reset_window_peaks();
            let base = cdnc_obs::profile::snapshot();
            let started = std::time::Instant::now();
            let result = run_figure_replicated(id, ctx, seeds, &reg);
            cdnc_obs::profile::set_enabled(false);
            let wall_s = started.elapsed().as_secs_f64();
            let window = cdnc_obs::profile::snapshot().window_since(&base);
            let Some(report) = result else {
                eprintln!("unknown figure id: {id}");
                return usage();
            };
            print!("{report}");
            println!("[{id}: {wall_s:.2}s on {} worker thread(s)]", ctx.pool.jobs());
            println!("--- memory profile ---\n{}", profile_table(&window));
            match write_profile_artifact(&obs.dir, id, scale, &window, &reg, wall_s) {
                Ok(path) => {
                    println!("profile artifact: {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write profile artifact for {id}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "timeprof" => {
            let Some(id) = positional.get(1) else {
                eprintln!("timeprof needs a figure id");
                return usage();
            };
            obs.enabled = true;
            obs.timeprof = true;
            let reg = obs.registry();
            println!(
                "time-profiling {id} at {scale:?} scale ({} worker(s), {seeds} seed(s))…",
                ctx.pool.jobs()
            );
            let started = std::time::Instant::now();
            let result = run_figure_replicated(id, ctx, seeds, &reg);
            let wall_s = started.elapsed().as_secs_f64();
            let Some(report) = result else {
                eprintln!("unknown figure id: {id}");
                return usage();
            };
            print!("{report}");
            println!("[{id}: {wall_s:.2}s on {} worker thread(s)]", ctx.pool.jobs());
            let snap = reg.timeprof_snapshot().expect("timeprof armed above");
            println!("--- time profile ---\n{}", timeprof_table(&snap));
            match write_timeprof_artifact(&obs.dir, id, scale, &reg, wall_s) {
                Ok((json_path, folded_path)) => {
                    println!("timeprof artifact: {}", json_path.display());
                    println!("flamegraph stacks: {}", folded_path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write timeprof artifact for {id}: {e}");
                    ExitCode::FAILURE
                }
            }
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
        id => {
            let reg = obs.registry();
            let health = start_health(&obs, id, &reg);
            let started = std::time::Instant::now();
            let result = run_figure_replicated(id, ctx, seeds, &reg);
            if let Some(health) = health {
                health.stop();
            }
            match result {
                Some(report) => {
                    print!("{report}");
                    println!(
                        "[{id}: {:.2}s on {} worker thread(s)]",
                        started.elapsed().as_secs_f64(),
                        ctx.pool.jobs()
                    );
                    if obs.enabled {
                        let wall_s = started.elapsed().as_secs_f64();
                        match write_figure_artifact(&obs.dir, id, scale, &report, wall_s, &reg) {
                            Ok(path) => println!("run artifact: {}", path.display()),
                            Err(e) => eprintln!("cannot write artifact for {id}: {e}"),
                        }
                        match write_figure_workload(&obs.dir, id, &report) {
                            Ok(Some(path)) => println!("workload curves: {}", path.display()),
                            Ok(None) => {}
                            Err(e) => eprintln!("cannot write workload curves for {id}: {e}"),
                        }
                        if let Some(table) = timing_table(&reg) {
                            println!("--- phase timings ---\n{table}");
                        }
                    }
                    if obs.series {
                        match write_figure_series(&obs.dir, id, &reg) {
                            Ok(Some(path)) => println!("series: {}", path.display()),
                            Ok(None) => {}
                            Err(e) => eprintln!("cannot write series for {id}: {e}"),
                        }
                    }
                    if obs.digest {
                        emit_digest(&obs, id, scale, &reg);
                    }
                    if obs.trace {
                        emit_trace(&obs, id, &reg);
                    }
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("unknown figure id: {id}");
                    usage()
                }
            }
        }
    }
}
