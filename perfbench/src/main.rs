//! The repository benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-warm|serve-cold|study --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes the separate traced run and reports per-layer
//! metrics. Every run checks the program's outputs and the workload's
//! premise; the last line of standard output is the result object. See
//! `perfbench/README.md` for the workloads and the metric definitions.

mod calib;
mod check;
mod gen;
mod report;
mod serve;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use agemul_conformance::Json;

use crate::check::Tally;
use crate::report::{median, Metric};
use crate::serve::Serve;

/// Set-ups per untraced serve run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The seed whose study outputs are pinned (see `study::PINNED`).
pub const DEFAULT_SEED: u64 = 0;

/// Span names and the per-layer metric each one reports, in microseconds
/// of self time per call (median).
const SPAN_LAYERS: [(&str, &str); 21] = [
    ("proto.read_frame", "proto.read_frame_us"),
    ("proto.decode", "proto.decode_us"),
    ("proto.encode", "proto.encode_us"),
    ("harness.supervise", "harness.supervise_us"),
    ("state.lookup", "state.lookup_us"),
    ("cache.quantize", "cache.quantize_us"),
    ("design.delay_assignment", "design.delay_assignment_us"),
    ("netlist.fingerprint", "netlist.fingerprint_us"),
    ("cache.lookup", "cache.lookup_us"),
    ("design.workload_stats", "design.workload_stats_us"),
    ("aging.factors", "aging.factors_us"),
    ("design.verify", "design.verify_us"),
    ("design.profile", "design.profile_us"),
    ("cache.insert", "cache.insert_us"),
    ("circuits.generate", "circuits.generate_us"),
    ("montecarlo.profiler", "montecarlo.profiler_us"),
    ("montecarlo.retime", "montecarlo.retime_us"),
    ("montecarlo.corner", "montecarlo.corner_us"),
    ("engine.replay", "engine.replay_us"),
    ("aging_sweep.year", "aging_sweep.year_us"),
    ("fleet.epoch", "fleet.epoch_us"),
];

/// Every per-layer metric with its unit, in report order. A layer that a
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("proto.read_frame_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("harness.supervise_us", "us"),
    ("state.lookup_us", "us"),
    ("cache.quantize_us", "us"),
    ("design.delay_assignment_us", "us"),
    ("netlist.fingerprint_us", "us"),
    ("cache.lookup_us", "us"),
    ("transport_us", "us"),
    ("serve.unattributed_us", "us"),
    ("design.workload_stats_us", "us"),
    ("aging.factors_us", "us"),
    ("design.verify_us", "us"),
    ("design.profile_us", "us"),
    ("cache.insert_us", "us"),
    ("circuits.generate_us", "us"),
    ("montecarlo.profiler_us", "us"),
    ("montecarlo.retime_us", "us"),
    ("montecarlo.corner_us", "us"),
    ("engine.replay_us", "us"),
    ("aging_sweep.year_us", "us"),
    ("fleet.epoch_us", "us"),
    ("study.mc_s", "s"),
    ("study.aging_sweep_s", "s"),
    ("study.fleet_s", "s"),
    ("trace.overhead_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("flight.led", "count"),
    ("flight.coalesced", "count"),
    ("server.shed", "count"),
    ("supervisor.retries", "count"),
    ("supervisor.degraded", "count"),
    ("aging_sweep.patterns_resimulated", "count"),
    ("fleet.cache_hit_ratio", "ratio"),
];

/// What one run measured and checked.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or measured per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Operation counts.
    pub tally: Tally,
    /// Every wrong output or failed operation, described.
    pub problems: Vec<String>,
    /// The workload premise, checked on the timed phase's counters.
    pub premise: Result<(), String>,
    /// Counters of the timed phase.
    pub counts: Vec<(&'static str, f64)>,
    /// Sample counts behind the reported statistics.
    pub samples: Vec<(&'static str, usize)>,
    /// Free-form facts for the run record.
    pub notes: Vec<(&'static str, String)>,
}

/// Median self time per call of every span layer, microseconds.
pub fn layer_metrics(by_layer: &BTreeMap<&'static str, Vec<f64>>) -> Vec<Metric> {
    SPAN_LAYERS
        .iter()
        .filter_map(|(span, metric)| {
            by_layer
                .get(span)
                .map(|v| Metric::new(metric, median(v), "us"))
        })
        .collect()
}

/// The full per-layer list: measured values, then counters, then 0 for
/// every layer the workload does not exercise.
fn per_layer(outcome: &Outcome) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .or_else(|| {
                    outcome
                        .counts
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| *v)
                })
                .unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let trace_path = PathBuf::from(".perfbench").join(format!("trace-{}.jsonl", args.workload));
    let serve = match args.workload.as_str() {
        "serve-warm" => Some(Serve::Warm),
        "serve-cold" => Some(Serve::Cold),
        "study" => None,
        other => {
            return Err(format!(
                "unknown workload {other:?} (want serve-warm, serve-cold or study)"
            ))
        }
    };
    match (serve, args.trace) {
        (Some(w), false) => serve::run(w, args.seed, args.seconds),
        (Some(w), true) => serve::trace(w, args.seed, args.seconds, &trace_path),
        (None, false) => study::run(args.seed, args.seconds),
        (None, true) => study::trace(args.seed, args.seconds, &trace_path),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for p in outcome.problems.iter().take(20) {
        eprintln!("perfbench: {p}");
    }
    if let Err(e) = &outcome.premise {
        eprintln!("perfbench: run invalid, no numbers reported: {e}");
        return ExitCode::FAILURE;
    }

    let metrics = if args.trace {
        per_layer(&outcome)
    } else {
        outcome.metrics.clone()
    };
    let t = &outcome.tally;
    for m in &metrics {
        println!("{:<36} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!("{:<36} {:>16.6} ratio", "failed_frac", t.failed_frac());
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::UInt(report::nproc() as u64)),
        ("git_revision".into(), Json::Str(report::git_revision())),
        (
            "build_profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("features".into(), Json::Str("default".into())),
        ("attempted".into(), Json::UInt(t.attempted)),
        ("errors".into(), Json::UInt(t.errors)),
        ("shed".into(), Json::UInt(t.shed)),
        ("wrong".into(), Json::UInt(t.wrong)),
        ("failed_frac".into(), Json::Num(t.failed_frac())),
        (
            "samples".into(),
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::UInt(*n as u64)))
                    .collect(),
            ),
        ),
        (
            "counts".into(),
            Json::Obj(
                outcome
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "notes".into(),
            Json::Obj(
                outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]);
    println!("run_record {record}");
    let correct = t.wrong == 0;
    println!(
        "{}",
        report::result_line(correct, t.attempted, t.failed(), &metrics)
    );
    if correct && t.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
