//! The four benchmark workloads: their inputs, one pass over their
//! simulations, and the checks on the pass's outputs.
//!
//! Every input is built from the workload seed: the seed derives the
//! configuration seed shared by all cells (so scheme comparisons are
//! paired) and the live-game update sequence. The simulator only ever
//! sees the generated `SimConfig`s.

use crate::{alloc, spans};
use cdnc_core::{
    checkpoint, resume, run, run_with_obs, ChurnKind, ChurnPlan, ChurnTarget, FaultPlan,
    MethodKind, ScheduledChurn, Scheme, SimConfig, SimReport, WorkloadPlan,
};
use cdnc_obs::{DigestConfig, Registry, DEFAULT_CADENCE_US};
use cdnc_simcore::{derive_seed, SimDuration, SimRng, SimTime};
use cdnc_trace::{GameConfig, GamePhase, UpdateSequence};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's scheme lineup replaying the live game, observers off.
    Consistency,
    /// A Zipf catalog served through per-edge delayed-hit LRU caches.
    RequestPlane,
    /// The small consistency cells with every observation plane armed.
    Observed,
    /// Churn cells, each checkpointed at mid-horizon and resumed.
    Lifecycle,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Consistency, Workload::RequestPlane, Workload::Observed, Workload::Lifecycle];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Consistency => "consistency",
            Workload::RequestPlane => "request_plane",
            Workload::Observed => "observed",
            Workload::Lifecycle => "lifecycle",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scheme keys of this workload's cells, in cell order.
    pub fn scheme_keys(self) -> &'static [&'static str] {
        match self {
            Workload::Consistency | Workload::Observed => &LINEUP_KEYS,
            Workload::RequestPlane | Workload::Lifecycle => &PLANE_KEYS,
        }
    }

    /// The two network sizes (content servers) the workload runs at.
    pub fn sizes(self, scale: Scale) -> [usize; 2] {
        match (scale, self) {
            (Scale::Tiny, _) => [24, 48],
            (Scale::Full, Workload::Consistency) => [170, 1_020],
            (Scale::Full, Workload::RequestPlane) => [40, 80],
            (Scale::Full, Workload::Observed) => [100, 200],
            (Scale::Full, Workload::Lifecycle) => [200, 400],
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Keys of the consistency lineup: the six §5.3 schemes plus Push,
/// Invalidation and TTL on an arity-2 multicast tree.
pub const LINEUP_KEYS: [&str; 9] = [
    "push",
    "invalidation",
    "ttl",
    "self",
    "hybrid",
    "hat",
    "push-mcast",
    "invalidation-mcast",
    "ttl-mcast",
];

/// Keys of the request-plane and lifecycle schemes.
pub const PLANE_KEYS: [&str; 4] = ["push", "invalidation", "ttl", "hat"];

/// Request-plane regimes: (name, catalog size, Zipf exponent).
pub const REGIMES: [(&str, usize, f64); 3] =
    [("base", 512, 0.9), ("wide", 2_048, 0.6), ("hot", 2_048, 1.2)];

/// Lifecycle regimes: (name, churn intensity, supernode-kill flash).
const CHURN_REGIMES: [(&str, f64, bool); 2] = [("mild", 0.3, false), ("storm", 0.8, true)];

/// Observation planes in the order the observed workload arms them.
pub const PLANES: [&str; 5] = ["metrics", "tracing", "series", "timeprof", "digest"];

fn scheme(key: &str) -> Scheme {
    let mcast = |method| Scheme::Multicast { method, arity: 2 };
    match key {
        "push" => Scheme::Unicast(MethodKind::Push),
        "invalidation" => Scheme::Unicast(MethodKind::Invalidation),
        "ttl" => Scheme::Unicast(MethodKind::Ttl),
        "self" => Scheme::Unicast(MethodKind::SelfAdaptive),
        "hybrid" => Scheme::hybrid(),
        "hat" => Scheme::hat(),
        "push-mcast" => mcast(MethodKind::Push),
        "invalidation-mcast" => mcast(MethodKind::Invalidation),
        "ttl-mcast" => mcast(MethodKind::Ttl),
        _ => unreachable!("unknown scheme key {key}"),
    }
}

/// The live-game day at a twentieth of its length: the same warm-up, two
/// bursty halves at the paper's ~18 s mean update gap, silent break and
/// sparse tail, each phase a twentieth as long, so that every cell of a
/// workload can be repeated many times within one run. The day is redrawn
/// until it holds [`GAME_DAY_SNAPSHOTS`], as the paper's day holds exactly
/// 306: every seed then replays the same number of updates, and memory
/// that grows with them does not cross a container-doubling step on some
/// seeds only.
fn game_day(seed: u64) -> UpdateSequence {
    let phase = |secs: u64, gap: Option<u64>| match gap {
        Some(gap) => GamePhase::active(SimDuration::from_secs(secs), SimDuration::from_secs(gap)),
        None => GamePhase::silent(SimDuration::from_secs(secs)),
    };
    let config = GameConfig {
        phases: vec![
            phase(15, None),
            phase(135, Some(18)),
            phase(45, None),
            phase(135, Some(18)),
            phase(108, Some(400)),
        ],
        min_gap: SimDuration::from_secs(2),
    };
    (2..)
        .map(|k| {
            UpdateSequence::live_game_with(
                &config,
                &mut SimRng::seed_from_u64(derive_seed(seed, k)),
            )
        })
        .find(|day| day.len() == GAME_DAY_SNAPSHOTS)
        .expect("an endless supply of draws")
}

/// Length of [`game_day`], seconds.
const GAME_DAY_S: u64 = 438;

/// Snapshots in [`game_day`]: the paper's 306 scaled to a twentieth, and
/// the most likely count of one draw (about one draw in ten).
const GAME_DAY_SNAPSHOTS: usize = 15;

/// One simulation of a workload: a scheme under one regime at one size.
#[derive(Debug, Clone)]
pub struct Cell {
    pub scheme: &'static str,
    pub regime: &'static str,
    pub cfg: SimConfig,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub sizes: [usize; 2],
    pub cells: Vec<Cell>,
}

impl Inputs {
    /// Builds the workload's cells from `seed`, small size first.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let updates = game_day(seed);
        let cfg_seed = derive_seed(seed, 1);
        let sizes = workload.sizes(scale);
        let mut cells = Vec::new();
        for servers in sizes {
            let regimes: Vec<&'static str> = match workload {
                Workload::Consistency | Workload::Observed => vec!["lineup"],
                Workload::RequestPlane => REGIMES.iter().map(|r| r.0).collect(),
                Workload::Lifecycle => CHURN_REGIMES.iter().map(|r| r.0).collect(),
            };
            for regime in regimes {
                for &key in workload.scheme_keys() {
                    let mut cfg = SimConfig::section4(scheme(key), updates.clone());
                    cfg.servers = servers;
                    cfg.seed = cfg_seed;
                    // Pin the horizon whatever the sequence's last update,
                    // so every seed simulates the same span of time.
                    let last_s = updates.last_update().since(SimTime::ZERO).as_secs_f64();
                    cfg.drain += SimDuration::from_secs_f64(GAME_DAY_S as f64 - last_s);
                    plan(workload, regime, &mut cfg);
                    cells.push(Cell { scheme: key, regime, cfg });
                }
            }
        }
        Inputs { workload, sizes, cells }
    }

    /// Indices of the cells at the small size.
    pub fn small_cells(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cells.len()).filter(|&i| self.cells[i].cfg.servers == self.sizes[0])
    }
}

fn plan(workload: Workload, regime: &str, cfg: &mut SimConfig) {
    match workload {
        Workload::Consistency | Workload::Observed => {}
        Workload::RequestPlane => {
            let &(_, catalog, zipf_s) = REGIMES.iter().find(|r| r.0 == regime).expect("regime");
            cfg.workload = Some(WorkloadPlan::with_catalog(catalog, zipf_s));
        }
        Workload::Lifecycle => {
            let &(_, intensity, flash) =
                CHURN_REGIMES.iter().find(|r| r.0 == regime).expect("regime");
            cfg.faults = Some(FaultPlan::at_intensity(0.0));
            let mut churn = ChurnPlan::at_intensity(intensity);
            if flash {
                churn.scheduled.push(ScheduledChurn {
                    at: SimDuration::from_secs(300),
                    target: ChurnTarget::Supernode(0),
                    kind: ChurnKind::Crash,
                    downtime: SimDuration::from_secs(45),
                });
            }
            cfg.churn = Some(churn);
        }
    }
}

/// A registry with the first `planes` of [`PLANES`] armed; 0 is the
/// disabled registry.
pub fn armed_registry(planes: usize) -> Registry {
    if planes == 0 {
        return Registry::disabled();
    }
    let reg = Registry::enabled();
    for plane in &PLANES[1..planes] {
        match *plane {
            "tracing" => reg.enable_tracing(),
            "series" => reg.enable_series(DEFAULT_CADENCE_US),
            "timeprof" => reg.enable_timeprof(),
            "digest" => reg.enable_digest(DigestConfig::default()),
            _ => unreachable!("unknown plane {plane}"),
        }
    }
    reg
}

/// The mid-horizon instant a lifecycle cell is checkpointed at.
fn mid_horizon(cfg: &SimConfig) -> SimTime {
    SimTime::from_micros(cfg.horizon().as_micros() / 2)
}

/// One simulation's outcome and cost.
#[derive(Debug, Clone)]
pub struct SimRun {
    pub report: SimReport,
    /// Host seconds of the calls into the simulator.
    pub wall_s: f64,
    /// Peak live heap during the calls, bytes.
    pub peak_bytes: usize,
    /// Live heap when the calls began, bytes.
    pub base_bytes: usize,
    /// Lifecycle only: size of the mid-horizon checkpoint artifact, bytes.
    pub ckpt_bytes: Option<usize>,
}

impl SimRun {
    /// The simulation's own peak live heap: its peak above the live level
    /// it started from, bytes.
    pub fn own_peak_bytes(&self) -> usize {
        self.peak_bytes.saturating_sub(self.base_bytes)
    }
}

/// Runs one cell the way its workload runs it.
pub fn run_cell(workload: Workload, cell: &Cell) -> Result<SimRun, String> {
    let base_bytes = alloc::reset_peak();
    let started = Instant::now();
    let mut ckpt_bytes = None;
    let report = match workload {
        Workload::Consistency | Workload::RequestPlane => {
            let _span = spans::enter("core.run");
            run(&cell.cfg)
        }
        Workload::Observed => {
            let reg = {
                let _span = spans::enter("obs.registry");
                armed_registry(PLANES.len())
            };
            let _span = spans::enter("core.run_with_obs");
            run_with_obs(&cell.cfg, &reg)
        }
        Workload::Lifecycle => {
            let artifact = {
                let _span = spans::enter("core.checkpoint");
                checkpoint(&cell.cfg, mid_horizon(&cell.cfg))
            };
            ckpt_bytes = Some(artifact.len());
            let _span = spans::enter("core.resume");
            resume(&cell.cfg, &artifact).map_err(|e| format!("resume failed: {e:?}"))?
        }
    };
    Ok(SimRun {
        report,
        wall_s: started.elapsed().as_secs_f64(),
        peak_bytes: alloc::peak_bytes(),
        base_bytes,
        ckpt_bytes,
    })
}

/// One pass over `cells` of `inputs`, in order.
pub fn run_pass(
    inputs: &Inputs,
    cells: impl Iterator<Item = usize>,
) -> Vec<Result<SimRun, String>> {
    let _span = spans::enter("bench.pass");
    cells.map(|i| run_cell(inputs.workload, &inputs.cells[i])).collect()
}

/// Simulated events of a pass's successful simulations.
pub fn pass_events(pass: &[Result<SimRun, String>]) -> u64 {
    pass.iter().flatten().map(|r| r.report.events).sum()
}

/// The verdict on a workload's first pass.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Per cell: `true` when one of its output checks failed.
    pub failed: Vec<bool>,
    /// Human-readable reason per failed check.
    pub reasons: Vec<String>,
    /// Per cell, host seconds of its reference run: the bare run for
    /// `observed`, the uninterrupted run for `lifecycle`; empty otherwise.
    pub reference_wall_s: Vec<f64>,
}

/// Checks a first pass's outputs, running whatever reference simulations
/// the workload's checks need. With `inject_failure` the first cell's
/// report is corrupted before checking, which must fail it.
pub fn verify(inputs: &Inputs, pass: &[Result<SimRun, String>], inject_failure: bool) -> Verdict {
    let mut v = Verdict {
        failed: vec![false; pass.len()],
        reasons: Vec::new(),
        reference_wall_s: Vec::new(),
    };
    let mut reports: Vec<Option<SimReport>> =
        pass.iter().map(|r| r.as_ref().ok().map(|r| r.report.clone())).collect();
    for (i, r) in pass.iter().enumerate() {
        if let Err(e) = r {
            v.fail(&[i], format!("cell {i}: {e}"));
        }
    }
    if inject_failure {
        if let Some(Some(r)) = reports.first_mut() {
            r.events += 1;
            r.total_observations = 0;
            r.node_joins += 1;
            r.workload.requests += 1;
        }
    }
    let cells = &inputs.cells;
    let find = |servers: usize, regime: &str, key: &str| {
        cells.iter().position(|c| c.cfg.servers == servers && c.regime == regime && c.scheme == key)
    };
    let reference = |cfg: &SimConfig| {
        let _span = spans::enter("core.run");
        let started = Instant::now();
        let report = run(cfg);
        (report, started.elapsed().as_secs_f64())
    };
    match inputs.workload {
        Workload::Consistency => {
            for (i, r) in reports.iter().enumerate() {
                if r.as_ref().is_some_and(|r| r.total_observations == 0) {
                    v.fail(&[i], format!("cell {i}: no user observations"));
                }
            }
            for servers in inputs.sizes {
                let (push, ttl) = (find(servers, "lineup", "push"), find(servers, "lineup", "ttl"));
                if let (Some(p), Some(t)) = (push, ttl) {
                    if let (Some(pr), Some(tr)) = (&reports[p], &reports[t]) {
                        if pr.mean_server_lag_s() > tr.mean_server_lag_s() {
                            v.fail(&[p, t], format!("{servers} servers: Push lags TTL"));
                        }
                    }
                }
            }
            // One cell re-run must reproduce its report bit for bit.
            if let Some(Some(first)) = reports.first() {
                let (again, _) = reference(&cells[0].cfg);
                if &again != first {
                    v.fail(&[0], "re-run of cell 0 differs".to_owned());
                }
            }
        }
        Workload::RequestPlane => {
            for (i, r) in reports.iter().enumerate() {
                if let Some(r) = r {
                    let w = &r.workload;
                    if w.hits + w.delayed_hits + w.misses != w.requests || w.requests == 0 {
                        v.fail(&[i], format!("cell {i}: request tally does not add up"));
                    }
                }
            }
            for servers in inputs.sizes {
                for &key in &PLANE_KEYS {
                    let (wide, hot) = (find(servers, "wide", key), find(servers, "hot", key));
                    if let (Some(w), Some(h)) = (wide, hot) {
                        if let (Some(wr), Some(hr)) = (&reports[w], &reports[h]) {
                            if hr.workload.hit_rate() <= wr.workload.hit_rate() {
                                v.fail(
                                    &[w, h],
                                    format!("{servers} servers {key}: hot hit rate not above wide"),
                                );
                            }
                        }
                    }
                }
            }
        }
        Workload::Observed => {
            // Observation only: every armed report equals its bare report.
            for (i, cell) in cells.iter().enumerate() {
                let (bare, wall) = reference(&cell.cfg);
                v.reference_wall_s.push(wall);
                if reports[i].as_ref().is_some_and(|r| *r != bare) {
                    v.fail(&[i], format!("cell {i}: armed report differs from bare"));
                }
            }
        }
        Workload::Lifecycle => {
            for (i, cell) in cells.iter().enumerate() {
                let (whole, wall) = reference(&cell.cfg);
                v.reference_wall_s.push(wall);
                let Some(r) = &reports[i] else { continue };
                if r.node_joins != r.node_leaves + r.crash_restarts {
                    v.fail(&[i], format!("cell {i}: joins != leaves + crash restarts"));
                }
                if r.convergence_violations != 0 {
                    v.fail(
                        &[i],
                        format!("cell {i}: {} convergence violations", r.convergence_violations),
                    );
                }
                if *r != whole {
                    v.fail(&[i], format!("cell {i}: resumed report differs from uninterrupted"));
                }
            }
        }
    }
    v
}

impl Verdict {
    fn fail(&mut self, cells: &[usize], reason: String) {
        for &i in cells {
            self.failed[i] = true;
        }
        self.reasons.push(reason);
    }
}
