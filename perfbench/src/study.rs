//! The `study` workload: repeated fixed-size rounds of the batch studies
//! the `repro` experiments spend their time in — a Monte Carlo yield
//! campaign, an incremental aging sweep and a fleet simulation — driven
//! through the public library APIs, with no socket, cache key or protocol
//! on the path.
//!
//! Each round draws fresh inputs from the run seed: a round's cost depends
//! on its inputs (a fleet that loses quorum early simulates fewer epochs),
//! so a run reads its figures over many inputs rather than the cost of
//! one.

use std::sync::Arc;
use std::time::Instant;

use agemul::{
    quantize_factors, run_engine, AgingSweep, CornerOutcome, EngineConfig, McConfig, McReport,
    MonteCarloCampaign, MultiplierDesign, PatternProfile, PatternSet, SimEngine,
};
use agemul_aging::{aging_factors, BtiModel};
use agemul_circuits::MultiplierKind;
use agemul_fleet::{fnv1a64, FleetCampaign, FleetConfig, FleetSim};

use crate::calib;
use crate::check::{self, Tally};
use crate::gen::StudyInputs;
use crate::report::{median, peak_rss_mb, windowed, Metric, Window};
use crate::trace::{self, timed, Tracer, MEASURE};
use crate::{Outcome, DEFAULT_SEED};

/// Monte Carlo phase: CB16 dies × lifetime points 0..=7 years.
const MC_CORNERS: usize = 3;
const MC_PATTERNS: usize = 48;
const MC_SIGMA: f64 = 0.05;
/// Aging sweep phase: CB32, years 0..=7, each year replayed at five clock
/// periods (fractions of the fresh critical path) with Skip-15.
const SWEEP_PATTERNS: usize = 32;
const SWEEP_YEARS: usize = 7;
const SWEEP_PERIOD_FRACTIONS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
const SWEEP_SKIP: u32 = 15;
/// Rounds per window of the timed phase (see [`windowed`]): about a
/// second. A window's p50 is its faster round and its p95 and p99 its
/// slower one; the host-speed calibration runs between windows.
const WINDOW: usize = 2;
/// Set-ups per run. A study set-up takes about a millisecond, so it is
/// repeated more often than a serve set-up for a steady median.
const SETUPS: usize = 25;
/// Fleet phase: a CB16 fleet. The clock guardband is wide enough that no
/// fleet loses quorum within the horizon, so every round simulates all
/// epochs on all nodes and its cost does not hinge on one early death.
const FLEET_NODES: usize = 4;
const FLEET_EPOCHS: usize = 6;
const FLEET_OPS: usize = 64;
const FLEET_GUARDBAND: f64 = 1.3;

/// The digests of one round's outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digests {
    /// FNV-1a of the Monte Carlo yield curves and per-cell outcomes.
    pub mc: u64,
    /// FNV-1a of the sweep table (average latency per year × period).
    pub sweep: u64,
    /// The fleet event log's FNV-1a replay witness.
    pub fleet: u64,
}

/// Digests of round 0 of [`DEFAULT_SEED`], recorded when the benchmark was
/// defined.
pub const PINNED: Digests = Digests {
    mc: 18_363_588_115_733_397_949,
    sweep: 10_668_614_999_860_319_788,
    fleet: 11_678_816_466_304_741_054,
};

/// What every round shares, built by set-up: the two designs and the
/// sweep's clock periods.
struct Setup {
    bti: BtiModel,
    cb16: MultiplierDesign,
    cb32: MultiplierDesign,
    periods: Vec<f64>,
}

impl Setup {
    fn new(t: &Tracer) -> Result<Setup, String> {
        let generate = |width| {
            t.span("circuits.generate", || {
                MultiplierDesign::new(MultiplierKind::ColumnBypass, width)
            })
            .map_err(|e| e.to_string())
        };
        let cb16 = generate(16)?;
        let cb32 = generate(32)?;
        let critical = cb32.critical_delay_ns(None).map_err(|e| e.to_string())?;
        Ok(Setup {
            bti: check::bti(),
            cb16,
            cb32,
            periods: SWEEP_PERIOD_FRACTIONS.map(|f| f * critical).to_vec(),
        })
    }

    fn campaign<'a>(
        &'a self,
        inputs: &StudyInputs,
        workload: &PatternSet,
    ) -> Result<MonteCarloCampaign<'a>, String> {
        MonteCarloCampaign::new(
            &self.cb16,
            workload.pairs(),
            &self.bti,
            McConfig::new(MC_CORNERS, MC_SIGMA, inputs.mc_seed),
        )
        .map_err(|e| e.to_string())
    }

    /// The sweep's per-year BTI factors under its workload (`None` is
    /// year 0).
    fn sweep_factors(&self, workload: &PatternSet) -> Result<Vec<Option<Vec<f64>>>, String> {
        let stats = self
            .cb32
            .workload_stats(workload.pairs())
            .map_err(|e| e.to_string())?;
        Ok((0..=SWEEP_YEARS)
            .map(|y| {
                (y > 0).then(|| {
                    aging_factors(self.cb32.circuit().netlist(), &stats, &self.bti, y as f64)
                })
            })
            .collect())
    }
}

/// What one round produced.
struct Round {
    total_s: f64,
    mc_s: f64,
    sweep_s: f64,
    fleet_s: f64,
    /// Wall time of the benchmark's own stand-alone measurements.
    measure_s: f64,
    digests: Digests,
    report: McReport,
    year7: Arc<PatternProfile>,
    resimulated: u64,
    fleet_hit_ratio: f64,
}

fn mc_digest(report: &McReport) -> u64 {
    let mut text = format!(
        "{:?}{:?}",
        report.yield_curve(true),
        report.yield_curve(false)
    );
    for c in &report.corners {
        for y in &c.outcomes {
            text.push_str(&format!(
                "{:x}/{:x}/{}",
                y.max_delay_ns.to_bits(),
                y.errors_per_10k.to_bits(),
                y.undetected
            ));
        }
    }
    fnv1a64(text.as_bytes())
}

fn mc_workload(inputs: &StudyInputs) -> PatternSet {
    PatternSet::uniform(16, MC_PATTERNS, inputs.mc_workload)
}

fn sweep_workload(inputs: &StudyInputs) -> PatternSet {
    PatternSet::uniform(32, SWEEP_PATTERNS, inputs.sweep_workload)
}

/// The Monte Carlo phase: campaign preparation and run. Untraced the run
/// is `MonteCarloCampaign::run`; traced it runs the same corners one
/// `run_corner` call at a time, with each corner's retimes and engine
/// replays timed alone on the same inputs.
fn mc_phase(
    s: &Setup,
    inputs: &StudyInputs,
    t: &Tracer,
    measure_ns: &mut u64,
) -> Result<McReport, String> {
    let workload = mc_workload(inputs);
    let campaign = s.campaign(inputs, &workload)?;
    if !t.enabled() {
        return campaign.run(None).map_err(|e| e.to_string());
    }
    let config = campaign.config();
    let mut profiler = t
        .span("montecarlo.profiler", || campaign.profiler())
        .map_err(|e| e.to_string())?;
    let mut probe = campaign.profiler().map_err(|e| e.to_string())?;
    let mut corners: Vec<CornerOutcome> = Vec::with_capacity(config.corners);
    for c in 0..config.corners {
        let (outcome, idx) = t.span_idx("montecarlo.corner", || {
            campaign.run_corner(&mut profiler, c, None)
        });
        corners.push(outcome.map_err(|e| e.to_string())?);
        let (inner, ns) = timed(|| {
            t.span(MEASURE, || -> Result<Vec<(u64, u64)>, String> {
                (0..config.years.len())
                    .map(|y| {
                        let delays = campaign
                            .design()
                            .delay_assignment(Some(&campaign.cell_factors(c, y)))
                            .map_err(|e| e.to_string())?;
                        let ((), retime) = timed(|| probe.retime(&delays));
                        let profile = probe
                            .profile(campaign.pairs(), None)
                            .map_err(|e| e.to_string())?;
                        let engine = EngineConfig::adaptive(config.cycle_ns, config.skip);
                        let (_, replay) =
                            timed(|| std::hint::black_box(run_engine(&profile, &engine)));
                        Ok((retime, replay))
                    })
                    .collect()
            })
        });
        *measure_ns += ns;
        for (retime, replay) in inner? {
            t.attach(idx, "montecarlo.retime", retime);
            t.attach(idx, "engine.replay", replay);
        }
    }
    Ok(McReport {
        years: config.years.clone(),
        cycle_ns: config.cycle_ns,
        corners,
    })
}

/// The aging-sweep phase: BTI factors for years 0..=7, then one
/// incremental sweep, each year's profile replayed at every period.
fn sweep_phase(
    s: &Setup,
    inputs: &StudyInputs,
    t: &Tracer,
) -> Result<(u64, Arc<PatternProfile>, u64), String> {
    let workload = sweep_workload(inputs);
    let factors = s.sweep_factors(&workload)?;
    let mut sweep = AgingSweep::new(&s.cb32, workload.pairs()).map_err(|e| e.to_string())?;
    let mut table = Vec::new();
    let mut last = None;
    for f in &factors {
        let profile = t
            .span("aging_sweep.year", || sweep.profile_year(f.as_deref()))
            .map_err(|e| e.to_string())?;
        for &period in &s.periods {
            let metrics = t.span("engine.replay", || {
                run_engine(&profile, &EngineConfig::adaptive(period, SWEEP_SKIP))
            });
            table.push(metrics.avg_latency_ns().to_bits());
        }
        last = Some(profile);
    }
    let bytes: Vec<u8> = table.iter().flat_map(|w| w.to_le_bytes()).collect();
    Ok((
        fnv1a64(&bytes),
        last.ok_or("empty sweep")?,
        sweep.counters().patterns_resimulated(),
    ))
}

/// The fleet phase: a fresh campaign (its profile cache starts empty) and
/// one full run. Traced, the epochs run one `run_epoch` at a time.
fn fleet_phase(s: &Setup, inputs: &StudyInputs, t: &Tracer) -> Result<(u64, f64), String> {
    let config = FleetConfig {
        guardband: FLEET_GUARDBAND,
        ..FleetConfig::new(FLEET_NODES, FLEET_EPOCHS, FLEET_OPS, inputs.fleet_seed)
    };
    let campaign = FleetCampaign::new(&s.cb16, &s.bti, config).map_err(|e| e.to_string())?;
    let mut sim = FleetSim::new(&campaign);
    if t.enabled() {
        for _ in 0..FLEET_EPOCHS {
            t.span("fleet.epoch", || sim.run_epoch(SimEngine::Level, None))
                .map_err(|e| e.to_string())?;
        }
    } else {
        sim.run(SimEngine::Level, None).map_err(|e| e.to_string())?;
    }
    let cache = campaign.cache();
    let ratio = cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64;
    Ok((sim.log().hash(), ratio))
}

fn round(s: &Setup, inputs: &StudyInputs, t: &Tracer) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut measure_ns = 0;
    let (report, mc_ns) = timed(|| t.span("study.mc", || mc_phase(s, inputs, t, &mut measure_ns)));
    let report = report?;
    let (sweep, sweep_ns) = timed(|| t.span("study.aging_sweep", || sweep_phase(s, inputs, t)));
    let (sweep_digest, year7, resimulated) = sweep?;
    let (fleet, fleet_ns) = timed(|| t.span("study.fleet", || fleet_phase(s, inputs, t)));
    let (fleet_hash, fleet_hit_ratio) = fleet?;
    Ok(Round {
        total_s: t0.elapsed().as_secs_f64(),
        mc_s: mc_ns as f64 / 1e9,
        sweep_s: sweep_ns as f64 / 1e9,
        fleet_s: fleet_ns as f64 / 1e9,
        measure_s: measure_ns as f64 / 1e9,
        digests: Digests {
            mc: mc_digest(&report),
            sweep: sweep_digest,
            fleet: fleet_hash,
        },
        report,
        year7,
        resimulated,
        fleet_hit_ratio,
    })
}

/// Checks round 0 of a run. A second, untraced run of its inputs must
/// reproduce its digests; for [`DEFAULT_SEED`] they must equal the pinned
/// ones, and for any other seed one sampled corner and the last sweep year
/// must equal their from-scratch references.
fn verify(seed: u64, s: &Setup, first: &Round) -> Result<Vec<String>, String> {
    let inputs = StudyInputs::for_round(seed, 0);
    let again = round(s, &inputs, &Tracer::new(false))?;
    let mut problems = Vec::new();
    if again.digests != first.digests || again.resimulated != first.resimulated {
        problems.push(format!(
            "round 0 replayed to {:?}, first run gave {:?}",
            again.digests, first.digests
        ));
    }
    if seed == DEFAULT_SEED {
        if first.digests != PINNED {
            problems.push(format!(
                "round 0 digests {:?} differ from the pinned {PINNED:?}",
                first.digests
            ));
        }
        return Ok(problems);
    }
    let workload = mc_workload(&inputs);
    let campaign = s.campaign(&inputs, &workload)?;
    let corner = (seed % MC_CORNERS as u64) as usize;
    let scratch = campaign
        .run_corner_from_scratch(corner, SimEngine::Level, None)
        .map_err(|e| e.to_string())?;
    if first.report.corners.get(corner) != Some(&scratch) {
        problems.push(format!(
            "MC corner {corner} differs from run_corner_from_scratch"
        ));
    }
    let workload = sweep_workload(&inputs);
    let factors = s.sweep_factors(&workload)?;
    let last = factors
        .last()
        .and_then(Option::as_deref)
        .map(quantize_factors);
    let scratch = s
        .cb32
        .profile(workload.pairs(), last.as_deref())
        .map_err(|e| e.to_string())?;
    if scratch.records() != first.year7.records() {
        problems.push("sweep year 7 differs from a from-scratch profile".into());
    }
    Ok(problems)
}

/// One timed set-up.
fn timed_setup(t: &Tracer) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let s = Setup::new(t)?;
    Ok((s, t0.elapsed().as_secs_f64()))
}

fn tally(rounds: usize, problems: &[String]) -> Tally {
    Tally {
        attempted: rounds as u64,
        wrong: problems.len().min(rounds.max(1)) as u64,
        ..Tally::default()
    }
}

fn medians(rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let of = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    vec![
        ("study.mc_s", of(|r| r.mc_s)),
        ("study.aging_sweep_s", of(|r| r.sweep_s)),
        ("study.fleet_s", of(|r| r.fleet_s)),
    ]
}

/// The untraced run: set up `SETUPS` times, run round 0 untimed (its
/// outputs are the ones checked), then time rounds 1, 2, … for `seconds`,
/// in windows of [`WINDOW`] rounds with the host-speed calibration between
/// them.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let quiet = Tracer::new(false);
    let mut s = None;
    let (mut times, mut hosts) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let (setup, secs) = timed_setup(&quiet)?;
        let host = calib::host_factor();
        times.push(secs / host);
        hosts.push(host);
        s = Some(setup);
    }
    let s = s.ok_or("no set-up ran")?;
    let first = round(&s, &StudyInputs::for_round(seed, 0), &quiet)?;
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut windows = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let began = Instant::now();
        let mut window = Window::default();
        for _ in 0..WINDOW {
            let inputs = StudyInputs::for_round(seed, rounds.len() as u64 + 1);
            let r = round(&s, &inputs, &quiet)?;
            window.latencies_us.push(r.total_s * 1e6);
            rounds.push(r);
        }
        window.seconds = began.elapsed().as_secs_f64();
        window.host = calib::host_factor();
        windows.push(window);
    }
    let rss = peak_rss_mb();
    let problems = verify(seed, &s, &first)?;
    let stats = windowed(&windows);
    let mut counts = medians(&rounds);
    counts.push(("aging_sweep.patterns_resimulated", first.resimulated as f64));
    counts.push(("fleet.cache_hit_ratio", first.fleet_hit_ratio));
    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", median(&times), "s"),
            Metric::new("latency_p50_us", stats.p50_us, "us"),
            Metric::new("latency_p95_us", stats.p95_us, "us"),
            Metric::new("latency_p99_us", stats.p99_us, "us"),
            Metric::new("throughput_ops_s", stats.throughput, "1/s"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ],
        tally: tally(rounds.len() + 1, &problems),
        problems,
        premise: Ok(()),
        counts,
        samples: vec![
            ("setup", times.len()),
            ("latency", rounds.len()),
            ("windows", stats.windows),
        ],
        notes: vec![
            ("round0_digests", format!("{:?}", first.digests)),
            ("host_factor", format!("{:.4}", stats.host)),
            ("setup_host_factor", format!("{:.4}", median(&hosts))),
            ("raw_latency_p50_us", format!("{:.3}", stats.raw_p50_us)),
            (
                "raw_throughput_ops_s",
                format!("{:.3}", stats.raw_throughput),
            ),
        ],
    })
}

/// The traced run: after round 0, rounds alternate untraced and traced for
/// `seconds`; phase times come from the untraced rounds.
pub fn trace(seed: u64, seconds: f64, trace_path: &std::path::Path) -> Result<Outcome, String> {
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let mut s = None;
    for _ in 0..SETUPS {
        s = Some(timed_setup(&tracer)?.0);
    }
    let s = s.ok_or("no set-up ran")?;
    let first = round(&s, &StudyInputs::for_round(seed, 0), &quiet)?;
    let start = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut id = 0u64;
    while start.elapsed().as_secs_f64() < seconds || traced.is_empty() {
        id += 1;
        let t = if id.is_multiple_of(2) {
            &tracer
        } else {
            &quiet
        };
        t.set_request(id);
        let r = round(&s, &StudyInputs::for_round(seed, id), t)?;
        if t.enabled() {
            traced.push(r);
        } else {
            untraced.push(r);
        }
    }
    tracer
        .write_jsonl(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let problems = verify(seed, &s, &first)?;
    let overhead = median(
        &traced
            .iter()
            .map(|r| r.total_s - r.measure_s)
            .collect::<Vec<_>>(),
    ) - median(&untraced.iter().map(|r| r.total_s).collect::<Vec<_>>());

    let by_layer = trace::self_times_by_layer(&tracer.spans());
    let mut metrics = crate::layer_metrics(&by_layer);
    metrics.push(Metric::new("trace.overhead_us", overhead * 1e6, "us"));
    let mut counts = medians(&untraced);
    counts.push(("aging_sweep.patterns_resimulated", first.resimulated as f64));
    counts.push(("fleet.cache_hit_ratio", first.fleet_hit_ratio));
    Ok(Outcome {
        metrics,
        tally: tally(traced.len() + untraced.len() + 1, &problems),
        problems,
        premise: Ok(()),
        counts,
        samples: vec![("traced", traced.len()), ("untraced", untraced.len())],
        notes: vec![("round0_digests", format!("{:?}", first.digests))],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_catches_a_perturbed_round() {
        let quiet = Tracer::new(false);
        let s = Setup::new(&quiet).unwrap();
        let seed = 5;
        let first = || round(&s, &StudyInputs::for_round(seed, 0), &quiet).unwrap();
        assert!(verify(seed, &s, &first()).unwrap().is_empty());

        let mut bad = first();
        bad.digests.fleet ^= 1;
        assert_eq!(verify(seed, &s, &bad).unwrap().len(), 1);

        let mut bad = first();
        let corner = (seed % MC_CORNERS as u64) as usize;
        let cell = bad.report.corners[corner].outcomes.last_mut().unwrap();
        cell.undetected += 1;
        assert_eq!(verify(seed, &s, &bad).unwrap().len(), 1);
    }
}
