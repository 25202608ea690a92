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
    diff_artifact_dirs, run_and_write, summary_doc, summary_entry, timing_table, Artifact,
    FigureRun, ObsSettings, FLIGHTREC_SUBDIR,
};
use cdnc_experiments::profile_out::profile_table;
use cdnc_experiments::replay::{self, ReplaySpec};
use cdnc_experiments::timeprof_out::timeprof_table;
use cdnc_experiments::trace_out::{critical_path_table, inspect_text, load_store, summary_text};
use cdnc_experiments::watch;
use cdnc_experiments::{build_trace_ctx, figure_ids, RunCtx, Scale};
use cdnc_obs::ProfiledAlloc;
use cdnc_par::Pool;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

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

/// Each subcommand's operands: how many it needs, how many it takes, and
/// the line printed when one is missing. A command not listed here (a
/// figure id, `all`, `list`, `report`) needs none and takes one, which it
/// ignores; `trace` checks its action's own operands.
const OPERANDS: [(&str, usize, usize, &str); 10] = [
    ("crawl", 1, 1, "crawl needs an output path"),
    ("verdict", 1, 1, "verdict needs a trace path"),
    ("checkpoint", 1, 1, "checkpoint needs an output path"),
    ("replay", 1, 1, "replay needs a checkpoint path"),
    ("obs-diff", 2, 2, "obs-diff needs two artifact directories"),
    ("divergence", 2, 2, "divergence needs two .digest.json paths"),
    ("watch", 1, 1, "watch needs a directory of *.health.json heartbeats"),
    ("profile", 1, 1, "profile needs a figure id"),
    ("timeprof", 1, 1, "timeprof needs a figure id"),
    ("trace", 1, 3, "trace needs an action: summary | critical-path | inspect"),
];

/// `(needed, taken, missing-line)` for subcommand `command`.
fn operands(command: &str) -> (usize, usize, &'static str) {
    let row = OPERANDS.iter().find(|row| row.0 == command);
    row.map_or((0, 1, ""), |&(_, needs, takes, missing)| (needs, takes, missing))
}

/// What the command line asked for: the positional arguments (the
/// subcommand or figure id first) and every flag's value.
struct Cli {
    positional: Vec<String>,
    scale: Scale,
    jobs: usize,
    seeds: u64,
    obs: ObsSettings,
    out: Option<PathBuf>,
    once: bool,
    scheme_key: String,
    intensity: f64,
    flash: bool,
    at_s: f64,
    until_s: Option<f64>,
}

/// The value after a valued flag, read by `parse`, which returns the line
/// to print when the value is malformed. `None` when the value is missing
/// or malformed.
fn flag<T>(value: Option<String>, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    parse(&value?).map_err(|line| eprintln!("{line}")).ok()
}

/// `value` parsed as a `T`, or the line `<needs>, got: <value>`.
fn number<T: FromStr>(value: &str, needs: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{needs}, got: {value}"))
}

/// `value` as seconds of simulated time for `flag`: finite and at least 0.
fn seconds(flag: &str, value: &str) -> Result<f64, String> {
    let secs: f64 = number(value, &format!("{flag} needs seconds of simulated time"))?;
    if secs.is_finite() && secs >= 0.0 {
        Ok(secs)
    } else {
        Err(format!("{flag} must be non-negative, got: {value}"))
    }
}

/// Parses the arguments; `None` when they are malformed (the reason, if
/// any, already printed).
fn parse_args(mut args: impl Iterator<Item = String>) -> Option<Cli> {
    let mut cli = Cli {
        positional: Vec::new(),
        scale: Scale::Default,
        jobs: 1,
        seeds: 1,
        obs: ObsSettings::off(),
        out: None,
        once: false,
        scheme_key: "hat".to_owned(),
        intensity: 0.8,
        flash: false,
        at_s: 240.0,
        until_s: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => cli.obs.enabled = true,
            "--trace" => cli.obs.trace = true,
            "--series" => cli.obs.series = true,
            "--digest" => cli.obs.digest = true,
            "--health" => cli.obs.health = true,
            "--once" => cli.once = true,
            "--flash" => cli.flash = true,
            "--obs-dir" => cli.obs.dir = flag(args.next(), |v| Ok(v.into()))?,
            "--out" => cli.out = Some(flag(args.next(), |v| Ok(v.into()))?),
            "--scale" => {
                cli.scale =
                    flag(args.next(), |v| Scale::parse(v).ok_or(format!("unknown scale: {v}")))?;
            }
            "--jobs" => {
                cli.jobs = flag(args.next(), |v| {
                    number(v, "--jobs needs a worker count (0 = one per core)")
                })?;
            }
            "--seeds" => {
                cli.seeds =
                    flag(args.next(), |v| match number(v, "--seeds needs a replicate count")? {
                        0 => Err("--seeds needs at least one replicate".to_owned()),
                        k => Ok(k),
                    })?;
            }
            "--digest-perturb" => {
                let index =
                    flag(args.next(), |v| number(v, "--digest-perturb needs an event index"))?;
                cli.obs.digest = true;
                cli.obs.digest_perturb = Some(index);
            }
            "--scheme" => {
                cli.scheme_key = flag(args.next(), |v| match churn_scheme(v) {
                    Some(_) => Ok(v.to_owned()),
                    None => Err(format!(
                        "unknown scheme: {v} (one of: {})",
                        CHURN_SCHEME_KEYS.join(", ")
                    )),
                })?;
            }
            "--intensity" => {
                cli.intensity = flag(args.next(), |v| {
                    let f: f64 = number(v, "--intensity needs a churn intensity in [0, 1]")?;
                    match (0.0..=1.0).contains(&f) {
                        true => Ok(f),
                        false => Err(format!("--intensity must be in [0, 1], got: {v}")),
                    }
                })?;
            }
            "--at" => cli.at_s = flag(args.next(), |v| seconds("--at", v))?,
            "--until" => cli.until_s = Some(flag(args.next(), |v| seconds("--until", v))?),
            other
                if !other.starts_with("--")
                    && cli.positional.len()
                        <= cli.positional.first().map_or(0, |c| operands(c).1) =>
            {
                cli.positional.push(other.to_owned());
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return None;
            }
        }
    }
    Some(cli)
}

/// Prints one figure run: its report and wall time, every file it wrote,
/// and the armed planes' tables. `false` when writing failed.
fn print_run(id: &str, run: &FigureRun, obs: &ObsSettings, workers: usize) -> bool {
    print!("{}", run.report);
    println!("[{id}: {:.2}s on {workers} worker thread(s)]", run.wall_s);
    for (kind, path) in &run.written {
        println!("{}: {}", kind.label(), path.display());
    }
    if run.dumps > 0 {
        println!(
            "{}: {} anomalous update(s) dumped under {}",
            Artifact::FlightDump.label(),
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
    exit_code(print_run(id, &run, obs, ctx.pool.jobs()))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    ProfiledAlloc::mark_installed();
    let Some(cli) = parse_args(std::env::args().skip(1)) else { return usage() };
    let Some(command) = cli.positional.first() else { return usage() };
    let (needs, _, missing) = operands(command);
    if cli.positional.len() <= needs {
        eprintln!("{missing}");
        return usage();
    }
    run(cli).unwrap_or_else(|line| {
        eprintln!("{line}");
        ExitCode::FAILURE
    })
}

/// Runs the command `cli` names, its operands present. `Err` is the line
/// to print before exiting 1.
fn run(cli: Cli) -> Result<ExitCode, String> {
    let Cli { positional, scale, seeds, mut obs, .. } = cli;
    let ctx = RunCtx::with_pool(scale, Pool::new(cli.jobs));
    let workers = ctx.pool.jobs();
    match positional[0].as_str() {
        "list" => {
            for id in figure_ids() {
                println!("{id}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "all" => {
            let started = Instant::now();
            println!(
                "building measurement trace ({scale:?} scale, {workers} worker(s), {seeds} seed(s))…"
            );
            let crawl_reg = obs.registry();
            let crawl_started = Instant::now();
            let traces: Vec<cdnc_trace::Trace> =
                (0..seeds).map(|r| build_trace_ctx(ctx.replicate(r), &crawl_reg)).collect();
            let crawl_wall_s = crawl_started.elapsed().as_secs_f64();
            println!("[crawl: {crawl_wall_s:.2}s on {workers} worker thread(s)]");
            let mut entries = Vec::new();
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
                match Artifact::Summary.write(&obs.dir, "", summary_doc(scale, entries).to_pretty())
                {
                    Ok(path) => println!("{}: {}", Artifact::Summary.label(), path.display()),
                    Err(e) => {
                        eprintln!("cannot write summary: {e}");
                        ok = false;
                    }
                }
            }
            println!("all figures regenerated in {:.1?}", started.elapsed());
            Ok(exit_code(ok))
        }
        "crawl" => {
            let path = &positional[1];
            println!("crawling at {scale:?} scale ({workers} worker(s))…");
            let reg = obs.registry();
            let trace = build_trace_ctx(ctx, &reg);
            if let Some(table) = obs.enabled.then(|| timing_table(&reg)).flatten() {
                println!("--- phase timings ---\n{table}");
            }
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            cdnc_trace::write_trace(&trace, std::io::BufWriter::new(file))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "wrote {path}: {} servers × {} days, {} poll records",
                trace.servers.len(),
                trace.days.len(),
                trace.total_server_polls()
            );
            Ok(ExitCode::SUCCESS)
        }
        "verdict" => {
            let path = &positional[1];
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let trace = cdnc_trace::read_trace(std::io::BufReader::new(file))
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            println!("{}", cdnc_analysis::analyze(&trace));
            Ok(ExitCode::SUCCESS)
        }
        "checkpoint" => {
            let path = &positional[1];
            let spec = ReplaySpec {
                scheme_key: cli.scheme_key,
                intensity: cli.intensity,
                flash: cli.flash,
                scale,
                at: cdnc_simcore::SimTime::from_secs_f64(cli.at_s),
            };
            println!(
                "checkpointing {} (intensity {:.2}, flash {}) at t={:.0}s, {scale:?} scale…",
                spec.scheme_key, spec.intensity, spec.flash, cli.at_s
            );
            let reg = obs.registry();
            let started = Instant::now();
            let artifact = replay::take_checkpoint(&spec, &reg);
            let lines = artifact.lines().count();
            std::fs::write(path, &artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "checkpoint: {path} ({lines} state fields, {:.2}s)",
                started.elapsed().as_secs_f64()
            );
            Ok(ExitCode::SUCCESS)
        }
        "replay" => {
            let path = &positional[1];
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let until = cli.until_s.map(cdnc_simcore::SimTime::from_secs_f64);
            let v =
                replay::replay(&text, until).map_err(|e| format!("cannot replay {path}: {e}"))?;
            let window = match cli.until_s {
                Some(t) => format!("t={:.0}s..{t:.0}s", v.spec.at.as_secs_f64()),
                None => format!("t={:.0}s..horizon", v.spec.at.as_secs_f64()),
            };
            println!(
                "replayed {} (intensity {:.2}, flash {}, {:?} scale) over {window}: \
                 {} event(s) folded",
                v.spec.scheme_key, v.spec.intensity, v.spec.flash, v.spec.scale, v.replay_events
            );
            println!("replay_chain={:016x}", v.replay_chain);
            println!("straight_chain={:016x}", v.straight_chain);
            println!("replay_chain_match={}", v.chain_match);
            println!("replay_report_match={}", v.report_match);
            if v.chain_match && v.report_match {
                Ok(ExitCode::SUCCESS)
            } else {
                Err("replay diverged from the uninterrupted run".to_owned())
            }
        }
        "obs-diff" => {
            let (dir_a, dir_b) = (&positional[1], &positional[2]);
            let diffs = diff_artifact_dirs(Path::new(dir_a), Path::new(dir_b))
                .map_err(|e| format!("cannot diff {dir_a} vs {dir_b}: {e}"))?;
            if diffs.is_empty() {
                println!("artifacts match: {dir_a} vs {dir_b} (wall-clock fields ignored)");
                return Ok(ExitCode::SUCCESS);
            }
            for diff in &diffs {
                eprintln!("{diff}");
            }
            Err(format!("{} difference(s) between {dir_a} and {dir_b}", diffs.len()))
        }
        "divergence" => {
            let (path_a, path_b) = (&positional[1], &positional[2]);
            match divergence::run(Path::new(path_a), Path::new(path_b), &obs) {
                Ok(divergence::Outcome::Identical) => {
                    println!("digest chains identical: {path_a} vs {path_b}");
                    Ok(ExitCode::SUCCESS)
                }
                Ok(divergence::Outcome::Diverged(loc)) => {
                    print!("{}", loc.render());
                    Ok(ExitCode::FAILURE)
                }
                Err(e) => {
                    eprintln!("cannot bisect {path_a} vs {path_b}: {e}");
                    Ok(ExitCode::from(2))
                }
            }
        }
        "watch" => {
            let dir = &positional[1];
            watch::run(Path::new(dir), cli.once).map_err(|e| format!("cannot watch {dir}: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
        "report" => {
            let out_dir = cli.out.unwrap_or_else(|| obs.dir.join("report"));
            let written = generate_report(&obs.dir, &out_dir)
                .map_err(|e| format!("cannot generate report: {e}"))?;
            println!("report: {} page(s) under {}", written.len(), out_dir.display());
            println!("index: {}", written[0].display());
            Ok(ExitCode::SUCCESS)
        }
        target @ ("profile" | "timeprof") => {
            let id = &positional[1];
            obs.profile = target == "profile";
            obs.timeprof = !obs.profile;
            let verb = if obs.profile { "profiling" } else { "time-profiling" };
            if obs.profile && !cdnc_obs::profile::installed() {
                eprintln!(
                    "warning: counting allocator not installed in this binary; \
                     allocation attribution will be empty"
                );
            }
            println!("{verb} {id} at {scale:?} scale ({workers} worker(s), {seeds} seed(s))…");
            Ok(figure_command(&obs, id, ctx, seeds))
        }
        "trace" => {
            let action = positional[1].as_str();
            let (path, missing) = match action {
                "summary" | "critical-path" => {
                    (positional.get(2), format!("trace {action} needs a trace JSON path"))
                }
                "inspect" => {
                    (positional.get(3), "trace inspect needs <update-id> <trace.json>".to_owned())
                }
                other => {
                    eprintln!("unknown trace action: {other}");
                    return Ok(usage());
                }
            };
            let Some(path) = path.map(PathBuf::from) else {
                eprintln!("{missing}");
                return Ok(usage());
            };
            let update = match action {
                "inspect" => match positional[2].parse::<u32>() {
                    Ok(update) => Some(update),
                    Err(_) => {
                        eprintln!("update id must be a number, got: {}", positional[2]);
                        return Ok(usage());
                    }
                },
                _ => None,
            };
            let store = load_store(&path).map_err(|e| format!("cannot load trace: {e}"))?;
            match update {
                Some(update) => {
                    let text = inspect_text(&store, update).ok_or_else(|| {
                        format!("no trace for update {update} in {}", path.display())
                    })?;
                    print!("{text}");
                }
                None if action == "summary" => print!("{}", summary_text(&store)),
                None => match critical_path_table(&store) {
                    Some(table) => print!("{table}"),
                    None => println!("no traces recorded"),
                },
            }
            Ok(ExitCode::SUCCESS)
        }
        id => Ok(figure_command(&obs, id, ctx, seeds)),
    }
}
