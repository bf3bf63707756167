//! Seeded input generation. Everything a run sends to the program is
//! derived here from the `--seed` argument; the program under test sees
//! only the generated requests and study inputs.

use std::collections::HashSet;

use agemul_circuits::MultiplierKind;
use agemul_conformance::Json;
use agemul_serve::{DesignQuery, Request, RequestBody};

/// Operand width of the `serve-warm` keys (the paper's largest size).
pub const WARM_WIDTH: usize = 32;
/// Patterns per `serve-warm` key.
pub const WARM_PATTERNS: usize = 256;
/// Aging epochs of the `serve-warm` keys, in years.
pub const WARM_YEARS: [f64; 3] = [0.0, 3.0, 7.0];
/// Operand width of the `serve-cold` keys.
pub const COLD_WIDTH: usize = 16;
/// Patterns per `serve-cold` key: small enough that a closed loop of two
/// clients completes about a thousand misses in ten seconds, large enough
/// that the kernel dominates the cache-key derivation.
pub const COLD_PATTERNS: usize = 64;
/// Every serve request carries this deadline: generous, so the supervised
/// deadline path is the one measured without ever firing.
pub const DEADLINE_MS: u64 = 30_000;

/// Stream salts: each consumer of the run seed draws from its own stream.
const SALT_WARM: u64 = 0x5741_524D;
const SALT_COLD: u64 = 0x434F_4C44;
/// Salt of the study inputs (see [`StudyInputs`]).
const SALT_STUDY: u64 = 0x5354_5544;

/// The SplitMix64 generator (Steele, Lea and Flood), used for every seeded
/// stream of the benchmark.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seed of sub-stream `salt` of run seed `seed`.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.rotate_left(32)).next_u64()
}

/// One `profile` request's coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Key {
    /// Multiplier architecture.
    pub kind: MultiplierKind,
    /// Operand width.
    pub width: usize,
    /// Aging epoch, years.
    pub years: f64,
    /// Uniform operand pairs in the workload.
    pub patterns: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Key {
    /// The wire query of this key.
    pub fn query(&self) -> DesignQuery {
        DesignQuery {
            kind: self.kind,
            width: self.width,
            years: self.years,
            patterns: self.patterns,
            seed: self.seed,
        }
    }

    /// The `profile` request frame for this key.
    pub fn request(&self, id: u64) -> Json {
        Request {
            id,
            deadline_ms: Some(DEADLINE_MS),
            body: RequestBody::Profile(self.query()),
        }
        .to_json()
    }
}

/// The nine `serve-warm` keys: {AM, CB, RB} × years {0, 3, 7} at 32 bits,
/// sharing one seed-derived workload.
pub fn warm_keys(seed: u64) -> Vec<Key> {
    let workload_seed = derive(seed, SALT_WARM);
    MultiplierKind::PAPER
        .into_iter()
        .flat_map(|kind| {
            WARM_YEARS.into_iter().map(move |years| Key {
                kind,
                width: WARM_WIDTH,
                years,
                patterns: WARM_PATTERNS,
                seed: workload_seed,
            })
        })
        .collect()
}

/// A workload's request stream: request ids count up from 1, and each
/// request's key is drawn from the seeded generator.
#[derive(Clone, Debug)]
pub struct RequestStream {
    rng: SplitMix64,
    next_id: u64,
    mode: Mode,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Uniform choice over a fixed key set.
    Warm(Vec<Key>),
    /// A fresh key per request; `seen` holds every workload seed issued,
    /// so no key ever repeats within the stream.
    Cold(HashSet<u64>),
}

impl RequestStream {
    /// The `serve-warm` stream: keys drawn uniformly from [`warm_keys`].
    pub fn warm(seed: u64) -> Self {
        RequestStream {
            rng: SplitMix64::new(derive(seed, SALT_WARM ^ 1)),
            next_id: 1,
            mode: Mode::Warm(warm_keys(seed)),
        }
    }

    /// The `serve-cold` stream: 16-bit keys cycling through all five
    /// architectures in turn, so every stretch of the stream holds the same
    /// mix of their costs, with years in [1, 7] on a 0.01-year grid and a
    /// fresh workload seed each.
    pub fn cold(seed: u64) -> Self {
        RequestStream {
            rng: SplitMix64::new(derive(seed, SALT_COLD)),
            next_id: 1,
            mode: Mode::Cold(HashSet::new()),
        }
    }

    /// The key set of a warm stream (empty for a cold one).
    pub fn warm_set(&self) -> &[Key] {
        match &self.mode {
            Mode::Warm(keys) => keys,
            Mode::Cold(_) => &[],
        }
    }

    /// The next request: its id and key.
    pub fn next_request(&mut self) -> (u64, Key) {
        let id = self.next_id;
        self.next_id += 1;
        let key = match &mut self.mode {
            Mode::Warm(keys) => keys[self.rng.below(keys.len() as u64) as usize],
            Mode::Cold(_) => {
                let kinds = MultiplierKind::ALL;
                self.fresh_cold_key(kinds[((id - 1) % kinds.len() as u64) as usize])
            }
        };
        (id, key)
    }

    /// A fresh cold key of the given architecture (used by set-up to touch
    /// every design once without repeating any timed key).
    ///
    /// # Panics
    ///
    /// On a warm stream.
    pub fn fresh_cold_key(&mut self, kind: MultiplierKind) -> Key {
        let years = 1.0 + self.rng.below(601) as f64 / 100.0;
        let Mode::Cold(seen) = &mut self.mode else {
            panic!("fresh_cold_key on a warm stream");
        };
        let seed = loop {
            let s = self.rng.next_u64();
            if seen.insert(s) {
                break s;
            }
        };
        Key {
            kind,
            width: COLD_WIDTH,
            years,
            patterns: COLD_PATTERNS,
            seed,
        }
    }
}

/// The inputs of one `study` round, all derived from the run seed and the
/// round index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StudyInputs {
    /// Workload seed of the Monte Carlo campaign.
    pub mc_workload: u64,
    /// Corner-stream base seed of the Monte Carlo campaign.
    pub mc_seed: u64,
    /// Workload seed of the aging sweep.
    pub sweep_workload: u64,
    /// Base seed of the fleet campaign.
    pub fleet_seed: u64,
}

impl StudyInputs {
    /// The inputs of round `round` of run seed `seed`.
    pub fn for_round(seed: u64, round: u64) -> Self {
        let mut rng = SplitMix64::new(derive(derive(seed, SALT_STUDY), round));
        StudyInputs {
            mc_workload: rng.next_u64(),
            mc_seed: rng.next_u64(),
            sweep_workload: rng.next_u64(),
            fleet_seed: rng.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mut s: RequestStream, n: usize) -> Vec<(u64, Key)> {
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for make in [RequestStream::warm, RequestStream::cold] {
            assert_eq!(take(make(7), 200), take(make(7), 200));
            assert_ne!(take(make(7), 200), take(make(8), 200));
        }
        assert_eq!(StudyInputs::for_round(3, 1), StudyInputs::for_round(3, 1));
        assert_ne!(StudyInputs::for_round(3, 1), StudyInputs::for_round(4, 1));
        assert_ne!(StudyInputs::for_round(3, 1), StudyInputs::for_round(3, 2));
    }

    #[test]
    fn cold_keys_never_repeat_and_cover_every_kind() {
        let mut s = RequestStream::cold(1);
        let setup: Vec<Key> = MultiplierKind::ALL
            .into_iter()
            .map(|k| s.fresh_cold_key(k))
            .collect();
        let timed = take(s, 5000);
        let mut seeds: HashSet<u64> = setup.iter().map(|k| k.seed).collect();
        for (_, key) in &timed {
            assert!(seeds.insert(key.seed), "repeated workload seed");
            assert!((1.0..=7.0).contains(&key.years));
            assert_eq!((key.width, key.patterns), (COLD_WIDTH, COLD_PATTERNS));
        }
        for kind in MultiplierKind::ALL {
            assert!(timed.iter().any(|(_, k)| k.kind == kind));
        }
    }

    #[test]
    fn warm_stream_stays_on_its_nine_keys() {
        let s = RequestStream::warm(5);
        let keys = s.warm_set().to_vec();
        assert_eq!(keys.len(), 9);
        let ids: Vec<u64> = take(s, 1000)
            .into_iter()
            .map(|(id, key)| {
                assert!(keys.contains(&key));
                id
            })
            .collect();
        assert_eq!(ids, (1..=1000).collect::<Vec<u64>>());
    }
}
