//! Seeded workload flows: the operand streams a fleet serves.
//!
//! Every generator is a *pure function* of `(seed, epoch, config)` — no
//! RNG state survives between epochs, so a run resumed from a checkpoint
//! regenerates exactly the trace the uninterrupted run saw. Per-epoch
//! streams are decorrelated with the same SplitMix64 finalizer the Monte
//! Carlo campaign uses for corner seeds.

use agemul_codec::{mix_seed, SplitMix64};

/// The flavours of traffic a fleet can be driven with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Uniform operands, one arrival per nominal cycle — the steady
    /// baseline matching the workspace's uniform `PatternSet` workloads.
    Uniform,
    /// Bursts of eight simultaneous arrivals separated by idle gaps —
    /// exercises queueing (and the event queue's simultaneous-timestamp
    /// tie-break) without changing the operand distribution.
    Bursty,
    /// Three quarters of the operands drawn from a low-zero-count "hot"
    /// band of the multiplicand space: mostly two-cycle, high-switching
    /// traffic that stresses whichever nodes the scheduler favours.
    HotSpot,
    /// The adversarial stress trace (after the aging-attack line of
    /// Heidary & Joardar): near-zero-free operands arriving at twice the
    /// nominal rate — maximum utilization, maximum BTI stress.
    Adversarial,
}

impl TraceKind {
    /// Every kind, in wire-tag order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::Uniform,
        TraceKind::Bursty,
        TraceKind::HotSpot,
        TraceKind::Adversarial,
    ];

    /// A stable lowercase label (wire format, CSV cells, CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Uniform => "uniform",
            TraceKind::Bursty => "bursty",
            TraceKind::HotSpot => "hotspot",
            TraceKind::Adversarial => "adversarial",
        }
    }

    /// Parses a [`label`](Self::label).
    ///
    /// # Errors
    ///
    /// Names the unknown label and lists the valid ones.
    pub fn parse(label: &str) -> Result<TraceKind, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| {
                let valid: Vec<&str> = Self::ALL.iter().map(|k| k.label()).collect();
                format!("unknown trace {label:?} (want one of {})", valid.join(", "))
            })
    }

    /// A stable numeric tag (run-key fingerprints).
    pub fn tag(self) -> u64 {
        match self {
            TraceKind::Uniform => 0,
            TraceKind::Bursty => 1,
            TraceKind::HotSpot => 2,
            TraceKind::Adversarial => 3,
        }
    }
}

/// One traced operation: when it arrives and what it multiplies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Arrival offset from the epoch start, femtoseconds.
    pub at_fs: u64,
    /// Multiplicand.
    pub a: u64,
    /// Multiplicator.
    pub b: u64,
}

/// Derives the decorrelated seed of one epoch's stream from the base seed
/// (the same mixer `agemul`'s Monte Carlo campaign applies to corner
/// indices).
pub fn epoch_seed(base: u64, epoch: usize) -> u64 {
    mix_seed(base, epoch as u64)
}

/// Generates epoch `epoch` of a trace: `ops` operations over `width`-bit
/// operands, with arrival spacing derived from the fleet's nominal cycle
/// `cycle_fs`.
///
/// Pure in `(kind, seed, epoch, ops, width, cycle_fs)`; two calls with
/// equal arguments return identical traces.
///
/// # Panics
///
/// Panics if `width` is zero or exceeds 63, or if `cycle_fs` is zero.
pub fn epoch_trace(
    kind: TraceKind,
    seed: u64,
    epoch: usize,
    ops: usize,
    width: usize,
    cycle_fs: u64,
) -> Vec<TraceOp> {
    assert!(
        width > 0 && width < 64,
        "operand width must be in 1..=63, got {width}"
    );
    assert!(cycle_fs > 0, "nominal cycle must be positive");
    let mask: u64 = (1 << width) - 1;
    let mut rng = SplitMix64::new(epoch_seed(seed, epoch));
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        let i = i as u64;
        let (at_fs, a, b) = match kind {
            TraceKind::Uniform => (i * cycle_fs, rng.next_u64() & mask, rng.next_u64() & mask),
            TraceKind::Bursty => {
                // Bursts of 8 back-to-back arrivals, then a gap long
                // enough for the queue to drain (12 nominal cycles per
                // burst slot).
                let burst = i / 8;
                (
                    burst * 12 * cycle_fs,
                    rng.next_u64() & mask,
                    rng.next_u64() & mask,
                )
            }
            TraceKind::HotSpot => {
                let roll = rng.next_u64();
                let b = rng.next_u64() & mask;
                // 3/4 of arrivals take the multiplicand from a hot band:
                // all bits set except two pseudorandom positions — a
                // near-zero-free judged operand.
                let a = if !roll.is_multiple_of(4) {
                    let z0 = (roll >> 8) % width as u64;
                    let z1 = (roll >> 24) % width as u64;
                    mask & !(1 << z0) & !(1 << z1)
                } else {
                    rng.next_u64() & mask
                };
                (i * cycle_fs, a, b)
            }
            TraceKind::Adversarial => {
                // Twice the nominal arrival rate, operands with at most
                // one zero bit each: the judged zero count pins the AHL
                // to its stressed region while switching activity (and
                // therefore BTI stress) is maximal.
                let roll = rng.next_u64();
                let a = mask & !(1 << (roll % width as u64));
                let b = mask & !(1 << ((roll >> 16) % width as u64));
                (i * (cycle_fs / 2).max(1), a, b)
            }
        };
        out.push(TraceOp { at_fs, a, b });
    }
    out
}

/// The operand pairs of a trace, in arrival order — what the node
/// profiling step feeds the timing kernels.
pub fn trace_pairs(trace: &[TraceOp]) -> Vec<(u64, u64)> {
    trace.iter().map(|op| (op.a, op.b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_pure_functions_of_their_arguments() {
        for kind in TraceKind::ALL {
            let a = epoch_trace(kind, 42, 3, 200, 16, 1_000_000);
            let b = epoch_trace(kind, 42, 3, 200, 16, 1_000_000);
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn epochs_are_decorrelated() {
        let a = epoch_trace(TraceKind::Uniform, 42, 0, 64, 16, 1_000_000);
        let b = epoch_trace(TraceKind::Uniform, 42, 1, 64, 16, 1_000_000);
        assert_ne!(trace_pairs(&a), trace_pairs(&b));
    }

    #[test]
    fn operands_respect_width() {
        for kind in TraceKind::ALL {
            for op in epoch_trace(kind, 7, 2, 500, 8, 1_000_000) {
                assert!(op.a < 256 && op.b < 256, "{kind:?}: {op:?}");
            }
        }
    }

    #[test]
    fn adversarial_operands_have_at_most_one_zero() {
        for op in epoch_trace(TraceKind::Adversarial, 9, 0, 300, 16, 1_000_000) {
            assert!((op.a.count_ones()) >= 15, "{op:?}");
            assert!((op.b.count_ones()) >= 15, "{op:?}");
        }
    }

    #[test]
    fn bursty_arrivals_share_timestamps() {
        let trace = epoch_trace(TraceKind::Bursty, 11, 0, 16, 16, 1_000_000);
        assert_eq!(trace[0].at_fs, trace[7].at_fs);
        assert!(trace[8].at_fs > trace[7].at_fs);
    }

    #[test]
    fn labels_round_trip() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::parse(kind.label()).unwrap(), kind);
        }
        assert!(TraceKind::parse("nope").is_err());
    }
}
