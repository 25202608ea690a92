//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <consistency|request_plane|observed|lifecycle>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with every
//! observer off; `--trace 1` runs the per-layer suite with spans recorded
//! around each call into a layer. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate for the workloads and every metric.

mod alloc;
mod layers;
mod measure;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Scale, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's metrics and how many simulations it attempted and failed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// The result object printed as the last line of standard output. A
    /// metric that is not a finite number is printed as 0 and makes the
    /// result incorrect.
    pub fn to_json(&self) -> String {
        let correct = self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite());
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("bad seconds {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Writes the traced run's spans under `out/` beside this crate.
fn write_spans(workload: Workload, seed: u64, spans: &[spans::Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    std::fs::write(path, spans::to_json_lines(spans))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <consistency|request_plane|observed|lifecycle> \
                 [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let (outcome, spans) = layers::per_layer(args.seed, Scale::Full);
        if let Err(e) = write_spans(args.workload, args.seed, &spans) {
            eprintln!("perfbench: could not write spans: {e}");
            return ExitCode::FAILURE;
        }
        outcome
    } else {
        measure::end_to_end(
            args.workload,
            args.seed,
            args.seconds,
            Scale::Full,
            process_start,
            false,
        )
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let rest = &text[start..];
        let end = rest[1..].find("\n  \"").map_or(rest.len(), |e| e + 1);
        rest[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start().trim_start_matches('"').split('"').next().unwrap_or("").to_owned()
            })
            .collect()
    }

    fn names(outcome: &Outcome) -> Vec<String> {
        let mut names: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_end_to_end_metric_is_emitted_for_every_workload() {
        let expected = sorted(declared("end_to_end"));
        assert!(expected.contains(&"setup_s".to_owned()));
        for workload in Workload::ALL {
            let outcome = measure::end_to_end(
                workload,
                DEFAULT_SEED,
                0.0,
                Scale::Tiny,
                Instant::now(),
                false,
            );
            assert_eq!(names(&outcome), expected, "{}", workload.name());
            assert_eq!(outcome.failed, 0, "{} failed a check", workload.name());
            assert!(outcome.attempted > 0);
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
                "{outcome:?}"
            );
        }
    }

    #[test]
    fn every_per_layer_metric_is_emitted_by_the_traced_run() {
        let (outcome, spans) = layers::per_layer(DEFAULT_SEED, Scale::Tiny);
        assert_eq!(names(&outcome), sorted(declared("per_layer")));
        assert_eq!(outcome.failed, 0);
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()), "{outcome:?}");
        assert!(!spans.is_empty());
    }

    #[test]
    fn traced_event_counts_match_the_untraced_run() {
        let (traced, _) = layers::per_layer(DEFAULT_SEED, Scale::Tiny);
        for workload in Workload::ALL {
            let inputs = workloads::Inputs::new(workload, DEFAULT_SEED, Scale::Tiny);
            let pass = workloads::run_pass(&inputs, 0..inputs.cells.len());
            let name = format!("simcore.events.{}", workload.name());
            let count = traced.metrics.iter().find(|m| m.name == name).expect("count emitted");
            assert_eq!(count.value, workloads::pass_events(&pass) as f64, "{name}");
        }
    }

    #[test]
    fn an_injected_failing_check_raises_failed_share() {
        for workload in Workload::ALL {
            let outcome =
                measure::end_to_end(workload, DEFAULT_SEED, 0.0, Scale::Tiny, Instant::now(), true);
            assert!(outcome.failed > 0, "{}: injected failure went unnoticed", workload.name());
            assert!(outcome.to_json().starts_with("{\"correct\": false"));
        }
    }

    #[test]
    fn metric_names_use_only_allowed_characters() {
        for name in declared("end_to_end").into_iter().chain(declared("per_layer")) {
            assert!(valid_name(&name), "bad metric name {name}");
        }
        assert!(!valid_name("core.ns_per_event.Push/Multicast"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload observed --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Observed, 7, 3.0, true)
        );
        assert_eq!(parse_args(&args("--workload lifecycle")).unwrap().seed, DEFAULT_SEED);
        for bad in [
            "",
            "--workload nope",
            "--workload observed --trace 2",
            "--seed 1",
            "--workload observed --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn median_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut out = Outcome { attempted: 2, ..Outcome::default() };
        out.push("run_s", 1.5, "s");
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        out.push("bad", f64::NAN, "s");
        assert!(out.to_json().starts_with("{\"correct\": false"));
    }
}
