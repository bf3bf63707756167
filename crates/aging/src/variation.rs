//! Process-variation delay factors (extension).
//!
//! The paper's related work ([19], Mohapatra et al.) builds
//! variation-tolerant arithmetic on the same elastic-clocking idea the AHL
//! uses for aging. This module supplies the missing ingredient: per-gate
//! *time-zero* delay variation, modeled as independent lognormal factors
//! `exp(N(0, σ))` — the standard first-order treatment of random Vth and
//! channel-length variation. The factors compose multiplicatively with the
//! BTI and electromigration factors.

use agemul_codec::SplitMix64;
use agemul_netlist::Netlist;

/// A lognormal per-gate delay variation model.
///
/// Deterministic: the same `(netlist, seed)` pair always produces the same
/// factors (SplitMix64 + Box–Muller, no external RNG dependency).
///
/// # Example
///
/// ```
/// use agemul_aging::VariationModel;
/// use agemul_circuits::{MultiplierCircuit, MultiplierKind};
///
/// let m = MultiplierCircuit::generate(MultiplierKind::Array, 8)?;
/// let var = VariationModel::new(0.05); // σ = 5 %
/// let f = var.factors(m.netlist(), 42);
/// assert_eq!(f.len(), m.netlist().gate_count());
/// assert!(f.iter().all(|&x| x > 0.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VariationModel {
    sigma: f64,
}

impl VariationModel {
    /// Creates a model with lognormal σ (0 = no variation).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and non-negative, got {sigma}"
        );
        VariationModel { sigma }
    }

    /// The configured σ.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Samples one delay factor per gate instance.
    pub fn factors(&self, netlist: &Netlist, seed: u64) -> Vec<f64> {
        let mut rng = Gaussian::new(seed);
        (0..netlist.gate_count())
            .map(|_| (self.sigma * rng.standard_normal()).exp())
            .collect()
    }
}

/// A SplitMix64 stream with a Box–Muller Gaussian tap.
struct Gaussian {
    rng: SplitMix64,
    cached: Option<f64>,
}

impl Gaussian {
    fn new(seed: u64) -> Self {
        Gaussian {
            rng: SplitMix64::new(seed),
            cached: None,
        }
    }

    /// Uniform in (0, 1].
    fn uniform(&mut self) -> f64 {
        ((self.rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    fn standard_normal(&mut self) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        let u1 = self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::GateKind;
    use agemul_netlist::Netlist;

    use super::*;

    fn chain(len: usize) -> Netlist {
        let mut n = Netlist::new();
        let mut x = n.add_input("a");
        for _ in 0..len {
            x = n.add_gate(GateKind::Not, &[x]).unwrap();
        }
        n.mark_output(x, "y");
        n
    }

    #[test]
    fn zero_sigma_is_identity() {
        let n = chain(50);
        let f = VariationModel::new(0.0).factors(&n, 1);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn deterministic_per_seed() {
        let n = chain(100);
        let m = VariationModel::new(0.1);
        assert_eq!(m.factors(&n, 7), m.factors(&n, 7));
        assert_ne!(m.factors(&n, 7), m.factors(&n, 8));
    }

    /// The Monte Carlo contract: same seed ⇒ bit-identical factors (the
    /// retimed and from-scratch campaign paths both rely on this), and
    /// every distinct seed ⇒ a distinct stream — including consecutive
    /// seeds, which sit one SplitMix64 gamma apart and would overlap if a
    /// caller walked the raw state instead of reseeding.
    #[test]
    fn seed_streams_are_bit_stable_and_pairwise_distinct() {
        let n = chain(200);
        let m = VariationModel::new(0.08);
        let seeds = [0u64, 1, 2, 7, u64::MAX, 0x9E37_79B9_7F4A_7C15];
        let streams: Vec<Vec<u64>> = seeds
            .iter()
            .map(|&s| m.factors(&n, s).iter().map(|f| f.to_bits()).collect())
            .collect();
        for (i, &seed) in seeds.iter().enumerate() {
            let replay: Vec<u64> = m.factors(&n, seed).iter().map(|f| f.to_bits()).collect();
            assert_eq!(streams[i], replay, "seed {seed} not bit-stable");
            for j in 0..i {
                assert_ne!(
                    streams[i], streams[j],
                    "seeds {seed} and {} collide",
                    seeds[j]
                );
            }
        }
    }

    #[test]
    fn distribution_moments_are_plausible() {
        let n = chain(4000);
        let f = VariationModel::new(0.1).factors(&n, 3);
        let mean = f.iter().sum::<f64>() / f.len() as f64;
        // Lognormal mean = exp(σ²/2) ≈ 1.005 for σ = 0.1.
        assert!((mean - 1.005).abs() < 0.01, "mean {mean}");
        let var = f.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / f.len() as f64;
        assert!((var.sqrt() - 0.1).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn larger_sigma_spreads_more() {
        let n = chain(2000);
        let spread = |sigma: f64| {
            let f = VariationModel::new(sigma).factors(&n, 5);
            let lo = f.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = f.iter().copied().fold(0.0f64, f64::max);
            hi - lo
        };
        assert!(spread(0.15) > spread(0.05));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_sigma() {
        let _ = VariationModel::new(-0.1);
    }
}
