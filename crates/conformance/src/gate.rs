//! The seeded conformance gate: generate → check → shrink → report.

use agemul_netlist::NetlistError;

use crate::case::Case;
use crate::oracle::{check_case, Divergence};
use crate::shrink::{repro_artifact, shrink_case};

/// Per-case seed spreading (golden-ratio stride, same trick as
/// `SplitMix64`) so consecutive case indices land far apart in seed space.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed case `index` uses under `base_seed`.
#[inline]
fn case_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ (index as u64).wrapping_mul(SEED_STRIDE)
}

/// One case that diverged, with its minimized repro.
#[derive(Clone, Debug)]
pub struct DivergentCase {
    /// The seed of the originally divergent case.
    pub seed: u64,
    /// Divergences observed on the *minimized* case.
    pub divergences: Vec<Divergence>,
    /// The ddmin-reduced case that still diverges.
    pub minimized: Case,
    /// Replayable JSON artifact (see [`repro_artifact`]).
    pub artifact: String,
}

/// The result of a conformance gate run.
#[derive(Clone, Debug)]
pub struct GateOutcome {
    /// Number of seeded cases executed.
    pub cases: usize,
    /// Every divergent case, minimized; empty means full conformance.
    pub divergent: Vec<DivergentCase>,
}

impl GateOutcome {
    /// `true` when every case passed every axis.
    pub fn is_clean(&self) -> bool {
        self.divergent.is_empty()
    }
}

/// Runs `cases` seeded cases through [`check_case`], shrinking every
/// divergent one to a minimal repro.
///
/// Case `i` uses seed `base_seed ^ (i · φ64)`, so a fixed `base_seed`
/// (the verify gate pins one) replays the exact same coverage while
/// different base seeds explore disjoint regions.
///
/// # Errors
///
/// Propagates [`NetlistError`] from a malformed case — generated cases
/// are well-formed by construction, so this indicates a generator bug.
pub fn run_gate(base_seed: u64, cases: usize) -> Result<GateOutcome, NetlistError> {
    let mut divergent = Vec::new();
    for i in 0..cases {
        let seed = case_seed(base_seed, i);
        let case = Case::generate(seed);
        let divs = check_case(&case)?;
        if !divs.is_empty() {
            let mut still_fails = |c: &Case| check_case(c).map(|d| !d.is_empty()).unwrap_or(false);
            let minimized = shrink_case(&case, &mut still_fails);
            let divergences = check_case(&minimized)?;
            let artifact = repro_artifact(&minimized, &divergences);
            divergent.push(DivergentCase {
                seed,
                divergences,
                minimized,
                artifact,
            });
        }
    }
    Ok(GateOutcome { cases, divergent })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_spread_and_replay() {
        let a = run_gate(1, 4).unwrap();
        let b = run_gate(1, 4).unwrap();
        assert_eq!(a.cases, b.cases);
        assert!(a.is_clean() && b.is_clean());
    }
}
