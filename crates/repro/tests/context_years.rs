//! The repro `Context` caches aging artifacts per aging epoch. An epoch is
//! part of the question at full `f64` precision, so the artifacts for one
//! `years` value never depend on which nearby value was asked first.

use agemul_aging::aging_factors;
use agemul_circuits::MultiplierKind;
use agemul_repro::{Context, Scale};

const KIND: MultiplierKind = MultiplierKind::ColumnBypass;
const WIDTH: usize = 8;
const PATTERNS: usize = 64;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bit-equality of two factor vectors, reporting how many gates differ
/// instead of dumping hundreds of values.
fn assert_same_factors(got: &[u64], want: &[u64], what: &str) {
    let differ = got.iter().zip(want).filter(|(g, w)| g != w).count();
    assert!(
        got.len() == want.len() && differ == 0,
        "{what}: {differ} of {} gate factors differ",
        want.len()
    );
}

/// Factors for `years` computed from scratch: the context's (epoch-free)
/// workload statistics through the BTI model, with no cache in between.
fn scratch_factors(years: f64) -> Vec<u64> {
    let mut ctx = Context::new(Scale::Quick);
    let design = ctx.design(KIND, WIDTH).expect("design");
    let stats = ctx.stats(KIND, WIDTH).expect("stats");
    bits(&aging_factors(
        design.circuit().netlist(),
        &stats,
        ctx.bti(),
        years,
    ))
}

/// Bit patterns of a profile's (avg, max) delay summary.
fn summary(ctx: &mut Context, years: f64) -> (u64, u64) {
    let p = ctx.profile(KIND, WIDTH, years, PATTERNS).expect("profile");
    (p.avg_delay_ns().to_bits(), p.max_delay_ns().to_bits())
}

/// `0.001` and `0.004` round to the same hundredth of a year but are two
/// epochs: asking for `0.001` first must not change the factors served
/// for `0.004`.
#[test]
fn nearby_years_get_their_own_factors() {
    let mut ctx = Context::new(Scale::Quick);
    let first = bits(&ctx.factors(KIND, WIDTH, 0.001).expect("factors"));
    let second = bits(&ctx.factors(KIND, WIDTH, 0.004).expect("factors"));
    assert_same_factors(&first, &scratch_factors(0.001), "years 0.001");
    assert_same_factors(
        &second,
        &scratch_factors(0.004),
        "years 0.004 asked after 0.001",
    );
}

/// The same holds for the profile and critical-path caches built from
/// those factors: each matches what a fresh context computes.
#[test]
fn nearby_years_get_their_own_profile_and_critical() {
    let mut fresh = Context::new(Scale::Quick);
    let want_profile = summary(&mut fresh, 0.004);
    let want_critical = fresh.critical(KIND, WIDTH, 0.004).expect("critical");

    let mut ctx = Context::new(Scale::Quick);
    summary(&mut ctx, 0.001);
    ctx.critical(KIND, WIDTH, 0.001).expect("critical");
    assert_eq!(summary(&mut ctx, 0.004), want_profile);
    assert_eq!(
        ctx.critical(KIND, WIDTH, 0.004)
            .expect("critical")
            .to_bits(),
        want_critical.to_bits()
    );
}

/// `-0.0` and `0.0` are one epoch: the fresh design.
#[test]
fn negative_zero_is_the_fresh_epoch() {
    let mut ctx = Context::new(Scale::Quick);
    let fresh = ctx.profile(KIND, WIDTH, 0.0, PATTERNS).expect("profile");
    let again = ctx.profile(KIND, WIDTH, -0.0, PATTERNS).expect("profile");
    assert!(std::rc::Rc::ptr_eq(&fresh, &again));
    assert_eq!(
        ctx.critical(KIND, WIDTH, -0.0).expect("critical").to_bits(),
        ctx.critical(KIND, WIDTH, 0.0).expect("critical").to_bits()
    );
}
