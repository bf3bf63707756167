//! Deterministic, seeded fault injection for the agemul stack.
//!
//! The crate is a process-global *failpoint registry*. Production code
//! declares named sites (`ckpt/rename`, `serve/write`, `flight/publish`, …)
//! by calling [`hit`] at the instant a fault could strike; test harnesses
//! and the chaos-soak runner [`arm`] the registry with a [`ChaosPlan`] —
//! a seed plus per-site rules — and every decision is a pure function of
//! `(seed, site, invocation-index)` via a SplitMix64 finalizer, so any
//! observed failure sequence replays exactly from its seed.
//!
//! Design constraints:
//!
//! - **Zero cost disarmed.** [`armed`] is a single relaxed atomic load;
//!   production binaries never pay more than that branch.
//! - **Scoped blast radius.** Each rule carries a `scope` substring matched
//!   against the caller-supplied context (a checkpoint path, a server
//!   address, a design label), so concurrently running tests cannot trip
//!   each other's schedules.
//! - **Exclusive arming.** [`arm`] holds a process-wide lock for the life
//!   of the returned [`ChaosGuard`]; chaos sections serialize instead of
//!   interleaving, which keeps per-site invocation counters deterministic.
//!
//! [`ChaosStream`] wraps any `Read + Write` transport and expresses the
//! byte-level fault shapes (bit flips, torn writes, stalls, resets) the
//! serve transport seam needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Duration;

use agemul_codec::{fnv1a64, splitmix64};

/// Denominator for [`SiteRule::rate_ppm`]: rules fire `rate_ppm` times per
/// million invocations (deterministically, not statistically).
pub const PPM: u32 = 1_000_000;

/// The shape of an injected fault. Each seam interprets the kinds it lists
/// in its rules; kinds a seam cannot express are simply never scheduled for
/// it (plans name kinds per site).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright with a typed IO error (ENOSPC-like).
    IoError,
    /// A prefix of the operation's effect lands, then it fails (torn temp
    /// write, truncated read-back, partial frame write then broken pipe).
    Torn,
    /// One bit of the payload is flipped (on-disk corruption, a flaky NIC).
    BitFlip,
    /// The operation is delayed by a bounded, seed-derived interval.
    Stall,
    /// The connection is reset abruptly (peer vanished mid-frame).
    Disconnect,
    /// The executing thread panics (leader death inside single-flight).
    Panic,
}

/// One scheduled fault decision: which kind struck, plus 64 bits of
/// seed-derived entropy the seam uses to pick offsets (which bit to flip,
/// where to tear a write, how long to stall).
#[derive(Clone, Copy, Debug)]
pub struct Shot {
    /// The fault shape to express.
    pub kind: FaultKind,
    /// Deterministic entropy for fault parameters.
    pub entropy: u64,
}

/// A per-site injection rule inside a [`ChaosPlan`].
#[derive(Clone, Debug)]
pub struct SiteRule {
    /// Exact failpoint name, e.g. `"ckpt/write_tmp"` or `"serve/read"`.
    pub site: String,
    /// Substring that must appear in the call's context argument for the
    /// rule to apply (empty = any context). Scoping by a unique temp-dir
    /// path or server address keeps concurrent tests isolated.
    pub scope: String,
    /// Fire rate in parts per million of matching invocations
    /// ([`PPM`] = every invocation).
    pub rate_ppm: u32,
    /// Fault kinds to rotate through; the scheduled kind for a firing
    /// invocation is itself seed-derived.
    pub kinds: Vec<FaultKind>,
}

/// A seeded fault schedule: the seed plus the site rules it drives.
///
/// Built with the fluent [`ChaosPlan::rule`] helper:
///
/// ```
/// use agemul_chaos::{ChaosPlan, FaultKind};
/// let plan = ChaosPlan::new(0xC0FFEE)
///     .rule("ckpt/rename", "/tmp/run-7", 250_000, &[FaultKind::IoError]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Root seed; every decision is a pure function of this, the site name,
    /// and the per-site invocation index.
    pub seed: u64,
    /// The site rules in effect while the plan is armed.
    pub rules: Vec<SiteRule>,
}

impl ChaosPlan {
    /// Create an empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule (builder style). `scope` is matched as a substring of
    /// the per-call context; pass `""` to match everything.
    #[must_use]
    pub fn rule(mut self, site: &str, scope: &str, rate_ppm: u32, kinds: &[FaultKind]) -> Self {
        self.rules.push(SiteRule {
            site: site.to_string(),
            scope: scope.to_string(),
            rate_ppm,
            kinds: kinds.to_vec(),
        });
        self
    }
}

/// The decision word for one invocation: the site name is folded into the
/// seed with FNV-1a, then SplitMix64 mixes in the invocation index.
fn decision(seed: u64, site: &str, invocation: u64) -> u64 {
    splitmix64(splitmix64(seed ^ fnv1a64(site.as_bytes())).wrapping_add(invocation))
}

struct Armed {
    seed: u64,
    rules: Vec<SiteRule>,
    /// Invocation counter per rule (monotonic while armed).
    counters: Vec<AtomicU64>,
    /// Faults actually injected per rule.
    injected: Vec<AtomicU64>,
}

static ARMED_FLAG: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static RwLock<Option<Armed>> {
    static REG: OnceLock<RwLock<Option<Armed>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(None))
}

fn exclusive() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Keeps a [`ChaosPlan`] armed; dropping it disarms the registry and
/// releases the process-wide chaos lock.
pub struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
}

impl ChaosGuard {
    /// Faults injected so far per site rule, in plan order, as
    /// `(site, injected)` pairs. Reading does not reset the counters.
    #[must_use]
    pub fn injected_by_site(&self) -> Vec<(String, u64)> {
        let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
        match reg.as_ref() {
            Some(armed) => armed
                .rules
                .iter()
                .zip(armed.injected.iter())
                .map(|(r, n)| (r.site.clone(), n.load(Ordering::Relaxed)))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Total faults injected across all rules since arming.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected_by_site().iter().map(|(_, n)| n).sum()
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ARMED_FLAG.store(false, Ordering::SeqCst);
        let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
        *reg = None;
    }
}

/// Arm the registry with `plan`. Blocks until any other armed section ends
/// (chaos sections serialize process-wide), then returns a guard that
/// disarms on drop.
#[must_use]
pub fn arm(plan: ChaosPlan) -> ChaosGuard {
    // A panic while armed is an expected outcome (injected leader death on a
    // test thread), so recover the lock rather than poisoning forever.
    let lock = exclusive().lock().unwrap_or_else(PoisonError::into_inner);
    let counters = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
    let injected = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
    {
        let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
        *reg = Some(Armed {
            seed: plan.seed,
            rules: plan.rules,
            counters,
            injected,
        });
    }
    ARMED_FLAG.store(true, Ordering::SeqCst);
    ChaosGuard { _lock: lock }
}

/// Fast disarmed check: a single relaxed load. Production seams gate any
/// per-call work (context formatting, etc.) behind this.
#[inline]
#[must_use]
pub fn armed() -> bool {
    ARMED_FLAG.load(Ordering::Relaxed)
}

/// Consult the registry at failpoint `site` with call context `ctx`.
///
/// Returns `Some(Shot)` when the armed plan schedules a fault for this
/// invocation, `None` otherwise (including when disarmed). The first rule
/// whose site matches exactly and whose scope substring appears in `ctx`
/// claims the invocation; its counter advances whether or not it fires, so
/// schedules are stable under interleaving of *non-matching* calls.
#[must_use]
pub fn hit(site: &str, ctx: &str) -> Option<Shot> {
    if !armed() {
        return None;
    }
    let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
    let armed = reg.as_ref()?;
    for (i, rule) in armed.rules.iter().enumerate() {
        if rule.site != site {
            continue;
        }
        if !rule.scope.is_empty() && !ctx.contains(&rule.scope) {
            continue;
        }
        let n = armed.counters[i].fetch_add(1, Ordering::Relaxed);
        let word = decision(armed.seed, site, n);
        if rule.kinds.is_empty() || (word % u64::from(PPM)) as u32 >= rule.rate_ppm {
            return None;
        }
        let kind = rule.kinds[((word >> 32) as usize) % rule.kinds.len()];
        armed.injected[i].fetch_add(1, Ordering::Relaxed);
        return Some(Shot {
            kind,
            entropy: splitmix64(word),
        });
    }
    None
}

/// Panic-only failpoint helper: panics (with a `chaos:`-prefixed payload)
/// when the armed plan schedules [`FaultKind::Panic`] here; any other
/// scheduled kind at a panic-only site is ignored.
pub fn maybe_panic(site: &str, ctx: &str) {
    if !armed() {
        return;
    }
    if let Some(shot) = hit(site, ctx) {
        if shot.kind == FaultKind::Panic {
            panic!("chaos: injected panic at {site}");
        }
    }
}

/// Upper bound on an injected [`FaultKind::Stall`] in the stream adapter;
/// long enough to exercise timeout paths, short enough that thousand-
/// schedule soaks stay fast.
pub const MAX_STALL: Duration = Duration::from_millis(40);

/// A fault-wrapping transport: forwards to the inner `Read`/`Write` but
/// consults the failpoints `{prefix}/read` and `{prefix}/write` on every
/// call, expressing byte corruption, torn writes, stalls, and resets.
///
/// The wrapper is transparent when the registry is disarmed (one relaxed
/// atomic load per call).
pub struct ChaosStream<S> {
    inner: S,
    read_site: String,
    write_site: String,
    ctx: String,
}

impl<S> ChaosStream<S> {
    /// Wrap `inner`; failpoint sites are `{prefix}/read` and
    /// `{prefix}/write`, and `ctx` is the scope-matching context (e.g. the
    /// server's bound address).
    pub fn new(inner: S, prefix: &str, ctx: impl Into<String>) -> Self {
        Self {
            inner,
            read_site: format!("{prefix}/read"),
            write_site: format!("{prefix}/write"),
            ctx: ctx.into(),
        }
    }

    /// Shared access to the wrapped transport.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped transport.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap, returning the inner transport.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

fn stall_for(entropy: u64) -> Duration {
    let cap = MAX_STALL.as_millis() as u64;
    Duration::from_millis(1 + entropy % cap)
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if armed() {
            if let Some(shot) = hit(&self.read_site, &self.ctx) {
                match shot.kind {
                    FaultKind::Disconnect => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionReset,
                            "chaos: injected reset on read",
                        ));
                    }
                    FaultKind::IoError => {
                        return Err(io::Error::other("chaos: injected read failure"));
                    }
                    FaultKind::Stall => std::thread::sleep(stall_for(shot.entropy)),
                    FaultKind::BitFlip => {
                        let n = self.inner.read(buf)?;
                        if n > 0 {
                            let i = (shot.entropy as usize) % n;
                            buf[i] ^= 1 << ((shot.entropy >> 32) % 8);
                        }
                        return Ok(n);
                    }
                    FaultKind::Torn => {
                        // A short read is legal for any stream; express
                        // "torn" as delivering a single byte so framing
                        // code must handle maximal fragmentation.
                        if buf.is_empty() {
                            return self.inner.read(buf);
                        }
                        return self.inner.read(&mut buf[..1]);
                    }
                    FaultKind::Panic => panic!("chaos: injected panic on read"),
                }
            }
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if armed() {
            if let Some(shot) = hit(&self.write_site, &self.ctx) {
                match shot.kind {
                    FaultKind::Disconnect => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionReset,
                            "chaos: injected reset on write",
                        ));
                    }
                    FaultKind::IoError => {
                        return Err(io::Error::other("chaos: injected write failure"));
                    }
                    FaultKind::Stall => std::thread::sleep(stall_for(shot.entropy)),
                    FaultKind::BitFlip => {
                        if buf.is_empty() {
                            return self.inner.write(buf);
                        }
                        let mut corrupt = buf.to_vec();
                        let i = (shot.entropy as usize) % corrupt.len();
                        corrupt[i] ^= 1 << ((shot.entropy >> 32) % 8);
                        return self.inner.write(&corrupt);
                    }
                    FaultKind::Torn => {
                        // Deliver a strict prefix, then report the pipe
                        // broken: the peer sees a half-written frame.
                        if buf.is_empty() {
                            return self.inner.write(buf);
                        }
                        let cut = 1 + (shot.entropy as usize) % buf.len().max(1);
                        let cut = cut.min(buf.len().saturating_sub(1)).max(1);
                        let _ = self.inner.write(&buf[..cut]);
                        let _ = self.inner.flush();
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            "chaos: injected torn write",
                        ));
                    }
                    FaultKind::Panic => panic!("chaos: injected panic on write"),
                }
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(site: &str, ctx: &str, n: usize) -> Vec<Option<FaultKind>> {
        (0..n).map(|_| hit(site, ctx).map(|s| s.kind)).collect()
    }

    #[test]
    fn same_seed_replays_identical_schedule() {
        let plan = ChaosPlan::new(42).rule(
            "t/site",
            "",
            300_000,
            &[FaultKind::IoError, FaultKind::BitFlip, FaultKind::Torn],
        );
        let first = {
            let _g = arm(plan.clone());
            drain("t/site", "anything", 64)
        };
        let second = {
            let _g = arm(plan);
            drain("t/site", "anything", 64)
        };
        assert_eq!(first, second);
        assert!(
            first.iter().any(Option::is_some),
            "rate 30% over 64 draws must fire"
        );
        assert!(first.iter().any(Option::is_none), "rate 30% must also skip");
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let _g = arm(ChaosPlan::new(seed).rule("t/seed", "", 500_000, &[FaultKind::IoError]));
            drain("t/seed", "", 64)
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn rate_bounds_are_exact() {
        let _g = arm(ChaosPlan::new(7)
            .rule("t/never", "", 0, &[FaultKind::IoError])
            .rule("t/always", "", PPM, &[FaultKind::Torn]));
        assert!(drain("t/never", "", 32).iter().all(Option::is_none));
        assert!(drain("t/always", "", 32)
            .iter()
            .all(|k| *k == Some(FaultKind::Torn)));
    }

    #[test]
    fn scope_filters_by_ctx_substring() {
        let _g = arm(ChaosPlan::new(9).rule("t/scoped", "run-A", PPM, &[FaultKind::IoError]));
        assert!(hit("t/scoped", "/tmp/run-B/ckpt.json").is_none());
        assert!(hit("t/scoped", "/tmp/run-A/ckpt.json").is_some());
        assert!(hit("t/other", "/tmp/run-A/ckpt.json").is_none());
    }

    #[test]
    fn disarmed_is_silent_and_guard_disarms() {
        assert!(hit("t/any", "").is_none());
        let g = arm(ChaosPlan::new(3).rule("t/any", "", PPM, &[FaultKind::IoError]));
        assert!(armed());
        assert!(hit("t/any", "").is_some());
        assert_eq!(g.injected_total(), 1);
        drop(g);
        // Another test may re-arm immediately (tests run in parallel), but
        // no other plan names this site, so the hit must stay silent.
        assert!(hit("t/any", "").is_none());
    }

    #[test]
    fn maybe_panic_fires_only_for_panic_kind() {
        let _g = arm(ChaosPlan::new(11)
            .rule("t/quiet", "", PPM, &[FaultKind::IoError])
            .rule("t/boom", "", PPM, &[FaultKind::Panic]));
        maybe_panic("t/quiet", ""); // scheduled kind is not Panic: no-op
        let err = std::panic::catch_unwind(|| maybe_panic("t/boom", ""));
        assert!(err.is_err());
    }

    #[test]
    fn stream_bitflip_corrupts_exactly_one_bit() {
        let _g = arm(ChaosPlan::new(5).rule("s/write", "", PPM, &[FaultKind::BitFlip]));
        let mut out = Vec::new();
        let mut s = ChaosStream::new(&mut out, "s", "ctx");
        let payload = vec![0u8; 16];
        let n = s.write(&payload).unwrap();
        assert_eq!(n, 16);
        let flipped: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
    }

    #[test]
    fn stream_torn_write_delivers_strict_prefix_then_fails() {
        let _g = arm(ChaosPlan::new(6).rule("s/write", "", PPM, &[FaultKind::Torn]));
        let mut out = Vec::new();
        let mut s = ChaosStream::new(&mut out, "s", "ctx");
        let err = s.write(&[7u8; 32]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(
            !out.is_empty() && out.len() < 32,
            "torn write is a strict prefix"
        );
    }

    #[test]
    fn stream_disconnect_and_passthrough_when_disarmed() {
        {
            let _g = arm(ChaosPlan::new(8).rule("s/read", "", PPM, &[FaultKind::Disconnect]));
            let data = [1u8, 2, 3];
            let mut s = ChaosStream::new(&data[..], "s", "ctx");
            let mut buf = [0u8; 3];
            let err = s.read(&mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }
        let data = [1u8, 2, 3];
        let mut s = ChaosStream::new(&data[..], "s", "ctx");
        let mut buf = [0u8; 3];
        assert_eq!(s.read(&mut buf).unwrap(), 3);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn counters_are_per_rule_and_reported() {
        let g = arm(ChaosPlan::new(13)
            .rule("t/a", "", PPM, &[FaultKind::IoError])
            .rule("t/b", "", 0, &[FaultKind::IoError]));
        for _ in 0..5 {
            let _ = hit("t/a", "");
            let _ = hit("t/b", "");
        }
        let by_site = g.injected_by_site();
        assert_eq!(by_site[0], ("t/a".to_string(), 5));
        assert_eq!(by_site[1], ("t/b".to_string(), 0));
    }
}
