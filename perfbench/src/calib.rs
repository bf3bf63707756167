//! Host-speed calibration: a fixed kernel of the benchmark's own, timed
//! between the windows of a timed phase.
//!
//! The kernel runs no code of the program under test, so a change to the
//! program cannot move it; only the host's speed can. It has two parts,
//! after the two kinds of work that fill the program's hot paths: a
//! dependent floating-point chain (delay arithmetic) and a churn of heap
//! allocations that are filled and freed (profiles, tables and frames).
//!
//! Four other parts were tried: a dependent integer chain, a dependent
//! random walk over 512 KiB, a streaming pass over the same buffer and a
//! ping-pong between two threads. Over two busy spells of the host (10
//! and 4 to 5 seeds per workload), this pair left the smallest spread of
//! any combination of up to three parts: at most 10.5% of the median,
//! where the uncorrected figures spread by up to 34%. That leaves aside
//! the `serve-warm` tail in one spell, where the host's preemptions
//! stretched single requests to milliseconds and no correction helped.
//! The random walk made the correction worse than none in one spell, and
//! the ping-pong varied threefold between windows of one run.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::SplitMix64;

/// Steps of the floating-point chain.
const CHAIN_STEPS: u32 = 200_000;
/// Allocations of the churn, each of 8 to 2007 words, with at most 32
/// live at once.
const ALLOCATIONS: usize = 5_000;
const LIVE: usize = 32;
/// Each part's time on an undisturbed host, ns: the fastest samples seen
/// on a 2-vCPU Sapphire Rapids VM. Only ratios to them matter; on other
/// hardware every factor is off by the same constant.
const REFERENCE_NS: [f64; 2] = [609_000.0, 1_642_000.0];

/// Times the floating-point chain, ns.
fn chain_ns() -> f64 {
    let t = Instant::now();
    let mut x = black_box(1.0f64);
    for _ in 0..CHAIN_STEPS {
        x = x.mul_add(0.999_999, 1e-9);
    }
    black_box(x);
    t.elapsed().as_nanos() as f64
}

/// Times the allocation churn, ns.
fn churn_ns() -> f64 {
    let t = Instant::now();
    let mut rng = SplitMix64::new(3);
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE + 1);
    for _ in 0..ALLOCATIONS {
        let words = 8 + rng.below(2000) as usize;
        live.push(vec![rng.next_u64(); words]);
        if live.len() > LIVE {
            live.swap_remove(rng.below(LIVE as u64) as usize);
        }
    }
    black_box(&live);
    drop(live);
    t.elapsed().as_nanos() as f64
}

/// The host-speed factor now: the mean over the kernel's two parts of the
/// time each took over its [`REFERENCE_NS`]. About 1 on an idle host; 1.4
/// when the host runs the kernel 1.4 times slower. Each part runs once:
/// the program meets the host's interference as it comes, so the kernel
/// does too.
pub fn host_factor() -> f64 {
    (chain_ns() / REFERENCE_NS[0] + churn_ns() / REFERENCE_NS[1]) / 2.0
}
