//! The untraced run: a workload's end-to-end metrics with observers off.
//!
//! The load is a closed batch: each simulation starts when the previous
//! one returns, and passes over the workload's cells repeat until the next
//! pass would overrun the run length. A simulation's host time is its
//! fastest over the passes: the machine is shared, other tenants' load
//! arrives in sub-second bursts, and the fastest of ten or more
//! repetitions varies between runs two to three times less than their
//! median does.

use crate::workloads::{pass_events, run_pass, verify, Inputs, Scale, SimRun, Workload};
use crate::{alloc, median, Outcome};
use std::time::Instant;

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// Measures `workload` for about `seconds` of passes. `process_start` is
/// when the benchmark process began, so the first set-up round includes
/// process start-up.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    process_start: Instant,
    inject_failure: bool,
) -> Outcome {
    // Set-up: input generation plus a warm-up pass over the small cells.
    let mut setup_s = Vec::new();
    let mut round_start = process_start;
    let mut inputs = None;
    for _ in 0..SETUP_ROUNDS {
        let fresh = Inputs::new(workload, seed, scale);
        drop(run_pass(&fresh, fresh.small_cells()));
        setup_s.push(round_start.elapsed().as_secs_f64());
        inputs = Some(fresh);
        round_start = Instant::now();
    }
    let inputs = inputs.expect("at least one set-up round");
    let cells = inputs.cells.len();

    // Timed window.
    let window = Instant::now();
    let mut first = Vec::new();
    let mut best_s = vec![f64::INFINITY; cells];
    // Per pass, per cell: failed to run, or differs from the first pass.
    let mut diverged: Vec<Vec<bool>> = Vec::new();
    loop {
        let started = Instant::now();
        let pass = run_pass(&inputs, 0..cells);
        let wall = started.elapsed().as_secs_f64();
        for (best, r) in best_s.iter_mut().zip(&pass) {
            if let Ok(r) = r {
                *best = best.min(r.wall_s);
            }
        }
        if first.is_empty() {
            diverged.push(pass.iter().map(Result::is_err).collect());
            first = pass;
        } else {
            diverged.push(
                pass.iter()
                    .zip(&first)
                    .map(|(now, then)| match (now, then) {
                        (Ok(now), Ok(then)) => now.report != then.report,
                        _ => true,
                    })
                    .collect(),
            );
        }
        if window.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let peak_rss = alloc::peak_rss_bytes().unwrap_or(0);

    let verdict = verify(&inputs, &first, inject_failure);
    for reason in &verdict.reasons {
        eprintln!("perfbench: {} check failed: {reason}", workload.name());
    }
    let failed = diverged
        .iter()
        .map(|pass| pass.iter().zip(&verdict.failed).filter(|(d, f)| **d || **f).count() as u64)
        .sum();
    let attempted = (diverged.len() * cells) as u64;

    let run_s: f64 = best_s.iter().sum();
    let events = pass_events(&first);
    let mut out = Outcome { attempted, failed, ..Outcome::default() };
    out.push("setup_s", median(&setup_s), "s");
    out.push("run_s", run_s, "s");
    out.push("events_per_s", events as f64 / run_s, "1/s");
    out.push("peak_heap_mb", peak_heap_mb(&inputs, &first), "MB");
    out.push("bytes_per_node", bytes_per_node(&inputs, &first), "bytes");
    out.push("peak_rss_mb", peak_rss as f64 / 1e6, "MB");
    let failed_share = failed as f64 / attempted as f64;
    println!(
        "perfbench {}: {} passes of {} simulations, {} events per pass, failed_share {}",
        workload.name(),
        diverged.len(),
        cells,
        events,
        failed_share
    );
    out
}

/// Median over the simulations at the workload's large size of each one's
/// own peak live heap, MB. Growable containers double their capacity, so
/// a single simulation's peak moves in steps; the median does not jump
/// when one scheme crosses a step on some seeds.
pub fn peak_heap_mb(inputs: &Inputs, pass: &[Result<SimRun, String>]) -> f64 {
    let peaks: Vec<f64> = pass
        .iter()
        .zip(&inputs.cells)
        .filter(|(_, c)| c.cfg.servers == inputs.sizes[1])
        .filter_map(|(r, _)| Some(r.as_ref().ok()?.own_peak_bytes() as f64 / 1e6))
        .collect();
    median(&peaks)
}

/// Marginal heap bytes per server: for each scheme and regime, the slope
/// of its simulation's own peak live heap between the workload's two
/// sizes; the median over those slopes, so one scheme whose peak crosses
/// a container-doubling step on some seeds does not move it.
pub fn bytes_per_node(inputs: &Inputs, pass: &[Result<SimRun, String>]) -> f64 {
    let half = inputs.cells.len() / 2;
    let peak = |i: usize| Some(pass[i].as_ref().ok()?.own_peak_bytes() as f64);
    let slopes: Vec<f64> = (0..half)
        .filter_map(|i| {
            let run = inputs.cells[i + half].cfg.servers - inputs.cells[i].cfg.servers;
            Some((peak(i + half)? - peak(i)?) / run as f64)
        })
        .collect();
    median(&slopes)
}
