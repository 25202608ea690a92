//! The traced run: per-layer metrics.
//!
//! Every traced run covers all four workloads, so it emits every per-layer
//! metric whichever workload it is named after. For each workload it
//! alternates untraced passes with the same passes recorded with spans
//! around each call into a layer; the difference of their times is
//! `trace_overhead_s.<workload>`.
//! Layer micro-timings call each layer's public functions directly, at the
//! consistency workload's two sizes.

use crate::workloads::{
    armed_registry, pass_events, run_pass, verify, Inputs, Scale, SimRun, Workload, PLANES, REGIMES,
};
use crate::{spans, Outcome};
use cdnc_core::{run_with_obs, MethodKind, Scheme, Topology};
use cdnc_geo::WorldBuilder;
use cdnc_net::{Network, NetworkConfig, NodeId, Packet, PacketKind};
use cdnc_obs::{DigestConfig, Registry};
use cdnc_simcore::{EventQueue, Scheduler, SimDuration, SimRng, SimTime};
use cdnc_workload::{Catalog, Lookup, LruCache};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 6] = ["simcore", "net", "geo", "core", "workload", "obs"];

/// Untraced and traced passes alternate this many times; a cell's time is
/// its fastest over the rounds.
const ROUNDS: usize = 2;

/// Each cell's fastest host time so far.
fn fold_best(best: &mut Vec<f64>, pass: &[Result<SimRun, String>]) {
    best.resize(pass.len(), f64::INFINITY);
    for (b, r) in best.iter_mut().zip(pass) {
        if let Ok(r) = r {
            *b = b.min(r.wall_s);
        }
    }
}

/// Runs the per-layer suite. Returns the metrics and the recorded spans.
pub fn per_layer(seed: u64, scale: Scale) -> (Outcome, Vec<spans::Span>) {
    let mut out = Outcome::default();
    let mut all_spans = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let inputs = Inputs::new(workload, seed, scale);
        let cells = 0..inputs.cells.len();
        drop(run_pass(&inputs, cells.clone()));
        let (mut bare_best, mut traced_best) = (Vec::new(), Vec::new());
        let mut bare = Vec::new();
        // Per cell: a traced pass failed or differed from the untraced one.
        let mut diverged = vec![false; inputs.cells.len()];
        for _ in 0..ROUNDS {
            let untraced = run_pass(&inputs, cells.clone());
            fold_best(&mut bare_best, &untraced);
            spans::arm();
            let traced = run_pass(&inputs, cells.clone());
            append(&mut all_spans, spans::disarm());
            fold_best(&mut traced_best, &traced);
            for (d, (a, b)) in diverged.iter_mut().zip(untraced.iter().zip(&traced)) {
                *d |= !matches!((a, b), (Ok(a), Ok(b)) if a.report == b.report);
            }
            bare = untraced;
        }

        spans::arm();
        let verdict = verify(&inputs, &bare, false);
        match workload {
            Workload::RequestPlane => request_plane(&inputs, &bare, &mut out),
            Workload::Lifecycle => lifecycle(&bare, &verdict.reference_wall_s, &mut out),
            Workload::Observed => observation_planes(&inputs, &mut out),
            Workload::Consistency => {}
        }
        append(&mut all_spans, spans::disarm());

        for reason in &verdict.reasons {
            eprintln!("perfbench: {name} check failed: {reason}");
        }
        let failed = diverged.iter().zip(&verdict.failed).filter(|(d, f)| **d || **f).count();
        out.attempted += (2 * ROUNDS * bare.len()) as u64;
        out.failed += (2 * ROUNDS * failed) as u64;

        out.push(format!("simcore.events.{name}"), pass_events(&bare) as f64, "count");
        let overhead_s = traced_best.iter().sum::<f64>() - bare_best.iter().sum::<f64>();
        out.push(format!("trace_overhead_s.{name}"), overhead_s, "s");
        for &key in workload.scheme_keys() {
            let (events, wall) = (0..bare.len())
                .filter(|&i| inputs.cells[i].scheme == key)
                .filter_map(|i| Some((bare[i].as_ref().ok()?.report.events, bare_best[i])))
                .fold((0u64, 0.0), |(e, w), (events, best)| (e + events, w + best));
            out.push(format!("core.ns_per_event.{name}.{key}"), wall * 1e9 / events as f64, "ns");
        }
    }

    spans::arm();
    micro(seed, scale, &mut out);
    append(&mut all_spans, spans::disarm());
    for (layer, secs) in spans::self_seconds(&all_spans) {
        if LAYERS.contains(&layer) {
            out.push(format!("self_s.{layer}"), secs, "s");
        }
    }
    (out, all_spans)
}

/// Appends `more` to `all`, shifting parent indices past the spans
/// already there.
fn append(all: &mut Vec<spans::Span>, more: Vec<spans::Span>) {
    let offset = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Hit, delayed-hit and origin-fetch tallies per regime, from the
/// simulator's own `SimReport::workload` counts.
fn request_plane(inputs: &Inputs, pass: &[Result<SimRun, String>], out: &mut Outcome) {
    for (regime, _, _) in REGIMES {
        let (mut requests, mut hits, mut delayed, mut fetches) = (0u64, 0u64, 0u64, 0u64);
        for (cell, r) in inputs.cells.iter().zip(pass) {
            let (Some(r), true) = (r.as_ref().ok(), cell.regime == regime) else { continue };
            let w = &r.report.workload;
            requests += w.requests;
            hits += w.hits;
            delayed += w.delayed_hits;
            fetches += w.origin_fetches;
        }
        out.push(format!("workload.hit_ratio.{regime}"), hits as f64 / requests as f64, "ratio");
        out.push(
            format!("workload.delayed_ratio.{regime}"),
            delayed as f64 / requests as f64,
            "ratio",
        );
        out.push(format!("workload.origin_fetches.{regime}"), fetches as f64, "count");
    }
}

/// Checkpoint size and overhead, and the survival protocol's counts.
fn lifecycle(pass: &[Result<SimRun, String>], uninterrupted_s: &[f64], out: &mut Outcome) {
    let runs: Vec<&SimRun> = pass.iter().flatten().collect();
    let bytes: usize = runs.iter().filter_map(|r| r.ckpt_bytes).sum();
    let split_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let whole_s: f64 = uninterrupted_s.iter().sum();
    out.push("simcore.ckpt_bytes", bytes as f64, "bytes");
    out.push("simcore.ckpt_overhead_s", split_s - whole_s, "s");
    let sum = |f: fn(&SimRun) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.push("core.retransmits", sum(|r| r.report.retransmits), "count");
    out.push("core.abandoned", sum(|r| r.report.abandoned_deliveries), "count");
    out.push("core.failovers", sum(|r| r.report.failovers), "count");
    out.push("core.convergence_violations", sum(|r| r.report.convergence_violations), "count");
}

/// Armed-minus-bare host time of the observed cells, adding one plane at
/// a time, plus the spans and samples the fully armed runs record.
fn observation_planes(inputs: &Inputs, out: &mut Outcome) {
    let mut previous_s = 0.0;
    for planes in 0..=PLANES.len() {
        let (mut elapsed, mut span_count, mut samples) = (0.0, 0, 0);
        for cell in &inputs.cells {
            let started = Instant::now();
            let reg = {
                let _span = spans::enter("obs.registry");
                armed_registry(planes)
            };
            {
                let _span = spans::enter("core.run_with_obs");
                black_box(run_with_obs(&cell.cfg, &reg));
            }
            elapsed += started.elapsed().as_secs_f64();
            if planes == PLANES.len() {
                span_count += reg.tracer().store().spans.len();
                samples += reg.series_snapshot().total_points;
            }
        }
        if planes > 0 {
            out.push(format!("obs.plane_s.{}", PLANES[planes - 1]), elapsed - previous_s, "s");
        }
        previous_s = elapsed;
        if planes == PLANES.len() {
            out.push("obs.spans", span_count as f64, "count");
            out.push("obs.samples", samples as f64, "count");
        }
    }
}

/// Mean host nanoseconds per operation of `f`, which performs `ops`.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Mean host milliseconds per call of `f`, repeating it for at least
/// [`MIN_REPEAT_S`] and at least three times.
fn ms_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || started.elapsed().as_secs_f64() < MIN_REPEAT_S {
        black_box(f());
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e3 / f64::from(calls)
}

/// Shortest host time a construction timing repeats for, seconds.
const MIN_REPEAT_S: f64 = 0.2;

/// Pending-event depth of a consistency cell at `servers`: one visit per
/// user plus one timer per server.
fn pending_depth(servers: usize) -> usize {
    servers * 6
}

/// Layer micro-timings.
fn micro(seed: u64, scale: Scale, out: &mut Outcome) {
    let ops = match scale {
        Scale::Full => 400_000,
        Scale::Tiny => 20_000,
    };
    let [small, large] = Workload::Consistency.sizes(scale);
    let mut rng = SimRng::seed_from_u64(seed);
    let delays: Vec<SimDuration> =
        (0..4096).map(|_| SimDuration::from_micros(rng.int_range(1, 10_000_000))).collect();

    // simcore: hold model — pop the earliest event, push it back later.
    for (label, servers) in [("small", small), ("large", large)] {
        let mut queue = EventQueue::with_capacity(pending_depth(servers) + 1);
        for i in 0..pending_depth(servers) {
            queue.push(SimTime::ZERO + delays[i % delays.len()], i as u64);
        }
        let _span = spans::enter("simcore.queue");
        let ns = ns_per_op(ops, || {
            for i in 0..ops {
                let (now, event) = queue.pop().expect("queue never drains");
                queue.push(now + delays[i % delays.len()], black_box(event));
            }
        });
        out.push(format!("simcore.queue_push_pop_ns.{label}"), ns, "ns");
    }
    {
        let mut sched = Scheduler::new();
        for i in 0..pending_depth(large) {
            sched.schedule_at(SimTime::ZERO + delays[i % delays.len()], i as u64);
        }
        let _span = spans::enter("simcore.sched");
        let ns = ns_per_op(ops, || {
            for i in 0..ops {
                let (_, event) = sched.next().expect("scheduler never drains");
                sched.schedule_in(delays[i % delays.len()], black_box(event));
            }
        });
        out.push("simcore.sched_next_ns.large", ns, "ns");
    }

    // geo and net: world and network construction at both sizes.
    let mut large_net = None;
    for (label, servers) in [("small", small), ("large", large)] {
        let builder = WorldBuilder::new(servers).seed(seed);
        let world = {
            let _span = spans::enter("geo.world_build");
            let ms = ms_per_call(|| builder.build());
            out.push(format!("geo.world_build_ms.{label}"), ms, "ms");
            builder.build()
        };
        let _span = spans::enter("net.from_world");
        let ms = ms_per_call(|| Network::from_world(&world, NetworkConfig::default(), seed));
        out.push(format!("net.from_world_ms.{label}"), ms, "ms");
        large_net = Some(Network::from_world(&world, NetworkConfig::default(), seed));
    }
    let mut net = large_net.expect("large network built");

    // core: topology construction at the large size.
    for (label, scheme) in [
        ("unicast", Scheme::Unicast(MethodKind::Push)),
        ("multicast", Scheme::Multicast { method: MethodKind::Push, arity: 2 }),
        ("hybrid", Scheme::hat()),
    ] {
        let _span = spans::enter("core.topology_build");
        let ms = ms_per_call(|| Topology::build(&scheme, &net, &mut SimRng::seed_from_u64(seed)));
        out.push(format!("core.topology_build_ms.{label}"), ms, "ms");
    }

    // net: one send per packet kind between random node pairs.
    let nodes = net.len() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            let src = rng.index(nodes as usize) as u32;
            let dst = (src + 1 + rng.index(nodes as usize - 1) as u32) % nodes;
            (NodeId(src), NodeId(dst))
        })
        .collect();
    for kind in [
        PacketKind::Update,
        PacketKind::Poll,
        PacketKind::PollUnchanged,
        PacketKind::Invalidation,
        PacketKind::Ack,
        PacketKind::OriginFetch,
    ] {
        let size_kb = if kind == PacketKind::OriginFetch { 20.0 } else { 1.0 };
        let packets: Vec<Packet> =
            pairs.iter().map(|&(s, d)| Packet::new(kind, size_kb, s, d)).collect();
        let _span = spans::enter("net.send");
        let ns = ns_per_op(ops, || {
            for i in 0..ops {
                let now = SimTime::from_micros(i as u64 * 1_000);
                black_box(net.send(now, &packets[i % packets.len()]));
            }
        });
        out.push(format!("net.send_ns.{}", kind.metric_suffix()), ns, "ns");
    }

    workload_layer(seed, ops, out);

    // obs: digest fold and span enter/exit on armed registries.
    {
        let reg = Registry::enabled();
        reg.enable_digest(DigestConfig::default());
        let digest = reg.digest();
        let _span = spans::enter("obs.fold");
        let ns = ns_per_op(ops, || {
            for i in 0..ops {
                digest.fold("sched_pop", (i % 1024) as u32, i as u64, &[black_box(i as u64)]);
            }
        });
        out.push("obs.fold_ns", ns, "ns");
    }
    {
        let reg = Registry::enabled();
        let _span = spans::enter("obs.span");
        let ns = ns_per_op(ops, || {
            for _ in 0..ops {
                drop(black_box(reg.span("perfbench")));
            }
        });
        out.push("obs.span_ns", ns, "ns");
    }
}

/// Host nanoseconds of one empty `Instant` read pair, subtracted from
/// per-call timings.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 100_000;
    let mut total = std::time::Duration::ZERO;
    for _ in 0..N {
        let t = Instant::now();
        total += black_box(t).elapsed();
    }
    total.as_nanos() as f64 / f64::from(N)
}

/// Replays each regime's Zipf request stream through a 64-object
/// `LruCache` and its `Catalog`, timing each request by outcome and each
/// fill. An origin fetch lands a fixed number of requests after its miss,
/// which is what turns concurrent requests into delayed hits.
fn workload_layer(seed: u64, ops: usize, out: &mut Outcome) {
    const FETCH_REQUESTS: usize = 32;
    const CHURN_EVERY: usize = 200;
    let overhead = timer_overhead_ns();
    // (total ns, calls) for hit, delayed, miss, fill.
    let mut tally = [(0.0f64, 0u64); 4];
    let mut sample_ns = 0.0;
    let mut churn_ns = 0.0;
    let now = SimTime::ZERO;
    for (i, (_, size, zipf_s)) in REGIMES.into_iter().enumerate() {
        let mut rng = SimRng::seed_from_u64(seed ^ i as u64);
        let mut catalog = Catalog::new(size, zipf_s, size / 4);
        let mut cache = LruCache::new(64, false);
        let mut inflight = VecDeque::new();
        let _span = spans::enter("workload.lru");
        for n in 0..ops {
            while inflight.front().is_some_and(|&(due, _)| due <= n) {
                let (_, id) = inflight.pop_front().expect("front checked");
                let t = Instant::now();
                let released = cache.fill(id, 0, now);
                tally[3].0 += t.elapsed().as_nanos() as f64 - overhead;
                tally[3].1 += 1;
                black_box(released);
            }
            if n % CHURN_EVERY == 0 {
                catalog.churn(&mut rng, now);
            }
            let id = catalog.sample(&mut rng);
            let t = Instant::now();
            let lookup = cache.request(id, n as u32, now);
            let ns = t.elapsed().as_nanos() as f64 - overhead;
            let slot = match lookup {
                Lookup::Hit { .. } => 0,
                Lookup::Delayed => 1,
                Lookup::Miss => {
                    inflight.push_back((n + FETCH_REQUESTS, id));
                    2
                }
            };
            tally[slot].0 += ns;
            tally[slot].1 += 1;
        }
        drop(_span);
        let _span = spans::enter("workload.catalog");
        sample_ns += ns_per_op(ops, || {
            for _ in 0..ops {
                black_box(catalog.sample(&mut rng));
            }
        });
        churn_ns += ns_per_op(ops, || {
            for _ in 0..ops {
                black_box(catalog.churn(&mut rng, now));
            }
        });
    }
    for (label, (ns, calls)) in
        ["request_ns.hit", "request_ns.delayed", "request_ns.miss", "fill_ns"]
            .into_iter()
            .zip(tally)
    {
        out.push(format!("workload.{label}"), ns / calls as f64, "ns");
    }
    out.push("workload.sample_ns", sample_ns / REGIMES.len() as f64, "ns");
    out.push("workload.churn_ns", churn_ns / REGIMES.len() as f64, "ns");
}
