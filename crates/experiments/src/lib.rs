//! # cdnc-experiments
//!
//! One runner per figure of the paper. Each `figN` function regenerates the
//! corresponding figure's data — the same rows/series the paper plots — at a
//! configurable [`Scale`], and returns a [`FigureReport`] with the headline
//! numbers recorded in `EXPERIMENTS.md`.
//!
//! Run them via the `experiments` binary:
//!
//! ```text
//! cargo run -p cdnc-experiments --release -- fig6 --scale default
//! cargo run -p cdnc-experiments --release -- all  --scale smoke
//! ```

pub mod ctx;
pub mod divergence;
pub mod eval_figs;
pub mod ext_figs;
pub mod hat_figs;
pub mod html_report;
pub mod obs_out;
pub mod profile_out;
pub mod replay;
pub mod report;
pub mod scale;
pub mod timeprof_out;
pub mod trace_figs;
pub mod trace_out;
pub mod watch;

pub use ctx::RunCtx;
pub use report::FigureReport;
pub use scale::Scale;

use cdnc_obs::Registry;
use cdnc_trace::{crawl_with_obs_par, Trace};

/// Figure ids in paper order (§3 measurement).
pub const TRACE_FIGURES: [&str; 11] =
    ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"];
/// §4 evaluation figure ids.
pub const EVAL_FIGURES: [&str; 7] = ["fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20"];
/// §5 HAT figure ids.
pub const HAT_FIGURES: [&str; 4] = ["fig22a", "fig22b", "fig23", "fig24"];
/// Extension experiment ids (beyond the paper's figures).
pub const EXT_FIGURES: [&str; 6] =
    ["ext_failures", "ext_adaptive", "ext_policy", "ext_chaos", "ext_workload", "ext_churn"];

/// Builds the measurement trace for a scale (shared by all §3 figures).
pub fn build_trace(scale: Scale) -> Trace {
    build_trace_with_obs(scale, &Registry::disabled())
}

/// Builds the measurement trace with crawl instrumentation recording into
/// `obs` (poll counts, absence skips, skew-correction residuals, phase
/// timings).
pub fn build_trace_with_obs(scale: Scale, obs: &Registry) -> Trace {
    build_trace_ctx(RunCtx::new(scale), obs)
}

/// Builds the measurement trace under an execution context: the crawl seed
/// follows `ctx.replicate` and timeline construction fans out on `ctx.pool`.
/// The trace is bit-identical for every worker count.
pub fn build_trace_ctx(ctx: RunCtx, obs: &Registry) -> Trace {
    let mut cfg = ctx.scale.crawl_config();
    cfg.seed = ctx.seed(cfg.seed);
    crawl_with_obs_par(&cfg, obs, &ctx.pool)
}

/// Runs one figure by id. §3 figures need a trace: pass the output of
/// [`build_trace`] to share one across figures, or `None` to build it on
/// demand.
///
/// Returns `None` for an unknown id.
pub fn run_figure(id: &str, scale: Scale, trace: Option<&Trace>) -> Option<FigureReport> {
    run_figure_with_obs(id, scale, trace, &Registry::disabled())
}

/// Runs one figure with instrumentation recording into `obs`: the whole
/// figure runs under a span named after it, every simulation it launches
/// accumulates metrics into the registry, and an on-demand trace build is
/// instrumented too. Observation-only — the returned report is identical
/// to [`run_figure`]'s for the same inputs.
pub fn run_figure_with_obs(
    id: &str,
    scale: Scale,
    trace: Option<&Trace>,
    obs: &Registry,
) -> Option<FigureReport> {
    run_figure_ctx(id, RunCtx::new(scale), trace, obs)
}

/// Runs one figure under an execution context: simulation batches fan out
/// on `ctx.pool` (metrics absorbed in task order, so the registry contents
/// are bit-identical for every worker count) and every seed follows
/// `ctx.replicate`.
pub fn run_figure_ctx(
    id: &str,
    ctx: RunCtx,
    trace: Option<&Trace>,
    obs: &Registry,
) -> Option<FigureReport> {
    let _figure_span = obs.span(id);
    let report = match id {
        "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "fig11"
        | "fig12" | "fig13" => {
            let owned;
            let t = match trace {
                Some(t) => t,
                None => {
                    owned = build_trace_ctx(ctx, obs);
                    &owned
                }
            };
            // Allocation attribution: the §3 analysis pipeline (episodes,
            // TTL inference, tree tests) is the `analysis` bucket; the
            // on-demand trace build above tags itself `trace`.
            let _prof = cdnc_obs::profile::scope(cdnc_obs::profile::Subsystem::Analysis);
            match id {
                "fig3" => trace_figs::fig3(t),
                "fig4" => trace_figs::fig4(t),
                "fig5" => trace_figs::fig5(t),
                "fig6" => trace_figs::fig6(t),
                "fig7" => trace_figs::fig7(t),
                "fig8" => trace_figs::fig8(t),
                "fig9" => trace_figs::fig9(t),
                "fig10" => trace_figs::fig10(t),
                "fig11" => trace_figs::fig11(t),
                "fig12" => trace_figs::fig12(t),
                _ => trace_figs::fig13(t),
            }
        }
        "fig14" => eval_figs::fig14(ctx, obs),
        "fig15" => eval_figs::fig15(ctx, obs),
        "fig16" => eval_figs::fig16(ctx, obs),
        "fig17" => eval_figs::fig17(ctx, obs),
        "fig18" => eval_figs::fig18(ctx, obs),
        "fig19" => eval_figs::fig19(ctx, obs),
        "fig20" => eval_figs::fig20(ctx, obs),
        "fig22a" => hat_figs::fig22a(ctx, obs),
        "fig22b" => hat_figs::fig22b(ctx, obs),
        "fig23" => hat_figs::fig23(ctx, obs),
        "fig24" => hat_figs::fig24(ctx, obs),
        "ext_failures" => ext_figs::ext_failures(ctx, obs),
        "ext_adaptive" => ext_figs::ext_adaptive(ctx, obs),
        "ext_policy" => ext_figs::ext_policy(ctx, obs),
        "ext_chaos" => ext_figs::ext_chaos(ctx, obs),
        "ext_workload" => ext_figs::ext_workload(ctx, obs),
        "ext_churn" => ext_figs::ext_churn(ctx, obs),
        _ => return None,
    };
    Some(report)
}

/// Runs every figure at the given scale, in paper order.
pub fn run_all(scale: Scale) -> Vec<FigureReport> {
    run_all_ctx(RunCtx::new(scale), &Registry::disabled())
}

/// Runs every figure under an execution context, in paper order. The §3
/// trace is built once per call and shared across the trace figures.
pub fn run_all_ctx(ctx: RunCtx, obs: &Registry) -> Vec<FigureReport> {
    let trace = build_trace_ctx(ctx, obs);
    let mut out = Vec::new();
    for id in TRACE_FIGURES {
        out.push(run_figure_ctx(id, ctx, Some(&trace), obs).expect("known id"));
    }
    for id in EVAL_FIGURES.iter().chain(&HAT_FIGURES).chain(&EXT_FIGURES) {
        out.push(run_figure_ctx(id, ctx, None, obs).expect("known id"));
    }
    out
}

/// Runs one figure `seeds` times — replicate 0 is the canonical run, each
/// further replicate re-derives every seed through its index — and folds
/// the runs into one report whose keyvals carry the mean plus a
/// `<name>__spread` half-range. One replicate returns the plain report.
pub fn run_figure_replicated(
    id: &str,
    ctx: RunCtx,
    seeds: u64,
    obs: &Registry,
) -> Option<FigureReport> {
    let runs: Vec<FigureReport> = (0..seeds.max(1))
        .map(|r| run_figure_ctx(id, ctx.replicate(r), None, obs))
        .collect::<Option<_>>()?;
    Some(report::aggregate_replicates(&runs))
}

/// Runs every figure `seeds` times (one shared §3 trace per replicate) and
/// aggregates each figure across replicates as [`run_figure_replicated`]
/// does.
pub fn run_all_replicated(ctx: RunCtx, seeds: u64, obs: &Registry) -> Vec<FigureReport> {
    let per_replicate: Vec<Vec<FigureReport>> =
        (0..seeds.max(1)).map(|r| run_all_ctx(ctx.replicate(r), obs)).collect();
    (0..per_replicate[0].len())
        .map(|i| {
            let runs: Vec<FigureReport> =
                per_replicate.iter().map(|reports| reports[i].clone()).collect();
            report::aggregate_replicates(&runs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_rejected() {
        assert!(run_figure("fig99", Scale::Smoke, None).is_none());
    }

    #[test]
    fn trace_figures_run_from_shared_trace() {
        let trace = build_trace(Scale::Smoke);
        for id in ["fig3", "fig7"] {
            let r = run_figure(id, Scale::Smoke, Some(&trace)).unwrap();
            assert_eq!(r.id, id);
            assert!(!r.keyvals.is_empty(), "{id} must produce headline numbers");
        }
    }
}
