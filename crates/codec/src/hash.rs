//! FNV-1a fingerprints and the SplitMix64 seed mixer.

/// FNV-1a 64-bit offset basis: the hash of the empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64's golden-ratio increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// First SplitMix64 finalizer multiplier; [`mix_seed`] also uses it to
/// spread the index.
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
/// Second SplitMix64 finalizer multiplier.
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// FNV-1a over a byte string.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over more bytes:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
#[inline]
#[must_use]
pub fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over a stream of `u64` words, each fed as its eight
/// little-endian bytes.
#[inline]
#[must_use]
pub fn fnv1a64_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv1a64_extend(h, &w.to_le_bytes()))
}

/// The SplitMix64 finalizer: adds the golden-ratio increment to `z`, then
/// mixes. It is the `n`-th output of a [`SplitMix64`] stream seeded at
/// `z - n·γ`, and turns any structured word into a well-spread one.
#[inline]
#[must_use]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    z ^ (z >> 31)
}

/// Derives the seed of stream `index` from a base seed.
///
/// A [`SplitMix64`] stream advances its state by the golden-ratio
/// increment, so two seeds that differ by a multiple of it produce
/// overlapping streams. Spreading the index by a finalizer multiplier and
/// mixing makes every index an effectively independent stream while
/// keeping the whole family a pure function of `base`.
#[inline]
#[must_use]
pub fn mix_seed(base: u64, index: u64) -> u64 {
    splitmix64(base.wrapping_add(index.wrapping_mul(MIX1)))
}

/// The SplitMix64 generator: a 64-bit state advanced by the golden-ratio
/// increment, each output the finalizer of the new state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64 test vectors.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn continuation_and_word_forms_agree_with_the_byte_form() {
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
        let words = [3u64, u64::MAX, 0x0102_0304_0506_0708];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a64_words(words), fnv1a64(&bytes));
    }

    /// Reference outputs of SplitMix64 seeded at 0 (Vigna's `splitmix64.c`).
    #[test]
    fn splitmix_stream_matches_reference() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn mixed_seeds_are_distinct_per_index() {
        let seeds: Vec<u64> = (0..64).map(|i| mix_seed(7, i)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(seeds[i + 1..].iter().all(|b| b != a));
        }
        assert_eq!(mix_seed(7, 0), splitmix64(7));
    }
}
