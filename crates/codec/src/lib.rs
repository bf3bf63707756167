//! The workspace's one JSON codec, one hash and one seed mixer.
//!
//! Every reproduced result is a pure function of seeds and hashes:
//! checkpoint run keys and profile-cache keys are FNV-1a fingerprints,
//! and Monte Carlo corners, fleet traces, process-variation streams and
//! chaos schedules are SplitMix64 streams. Those decisions fix what the
//! system computes, so each has exactly one definition, here, in a crate
//! with no dependencies that every layer can reach:
//!
//! * [`Json`] — a lossless JSON value model (distinct `u64` variant,
//!   insertion-ordered objects) with a writer, a parser and typed field
//!   getters, used by checkpoints, the serve wire protocol and repro
//!   artifacts;
//! * [`fnv1a64`], [`fnv1a64_extend`] and [`fnv1a64_words`] — FNV-1a over
//!   bytes, continued from an earlier hash, and over little-endian `u64`
//!   words;
//! * [`splitmix64`], [`SplitMix64`] and [`mix_seed`] — the SplitMix64
//!   finalizer, its stream, and the `(base, index)` seed mixer that
//!   decorrelates per-corner and per-epoch streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod json;

pub use hash::{fnv1a64, fnv1a64_extend, fnv1a64_words, mix_seed, splitmix64, SplitMix64};
pub use json::Json;
