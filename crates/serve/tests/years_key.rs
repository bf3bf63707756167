//! A served profile is a function of the request alone: the aging epoch is
//! part of the question at full `f64` precision, so the answer for one
//! `years` value never depends on which nearby value arrived first.

use agemul::SimEngine;
use agemul_circuits::MultiplierKind;
use agemul_serve::{CacheOutcome, DesignQuery, ServerState};

fn query(years: f64) -> DesignQuery {
    DesignQuery {
        kind: MultiplierKind::ColumnBypass,
        width: 8,
        years,
        patterns: 64,
        seed: 3,
    }
}

/// Bit patterns of a profile's (avg, max) delay summary.
fn summary(state: &ServerState, years: f64) -> (u64, u64) {
    let (profile, _) = state
        .profile(&query(years), SimEngine::Level, None)
        .expect("profile");
    (
        profile.avg_delay_ns().to_bits(),
        profile.max_delay_ns().to_bits(),
    )
}

/// Two epochs that round to the same hundredth of a year are still two
/// questions: serving `0.001` first must not change the answer for
/// `0.004`, which must match what a fresh state serves.
#[test]
fn nearby_years_do_not_share_an_answer() {
    let fresh = summary(&ServerState::new(None), 0.004);

    let state = ServerState::new(None);
    summary(&state, 0.001);
    assert_eq!(
        summary(&state, 0.004),
        fresh,
        "the answer for years 0.004 depends on arrival order"
    );
    assert_eq!(
        state.cache().misses(),
        2,
        "each epoch builds its own profile"
    );
}

/// A small but nonzero epoch is an aged question, never the fresh one.
#[test]
fn small_epoch_is_not_the_fresh_design() {
    let state = ServerState::new(None);
    let fresh = summary(&state, 0.0);
    let aged = summary(&state, 0.004);
    assert_ne!(aged, fresh, "0.004 years of aging moved no delay");
    assert_eq!(state.cache().misses(), 2);
}

/// `-0.0` and `0.0` are one question (both are the fresh design).
#[test]
fn negative_zero_is_the_fresh_question() {
    let state = ServerState::new(None);
    let (first, how) = state
        .profile(&query(0.0), SimEngine::Level, None)
        .expect("profile");
    assert_eq!(how, CacheOutcome::Miss);
    let (again, how) = state
        .profile(&query(-0.0), SimEngine::Level, None)
        .expect("profile");
    assert_eq!(how, CacheOutcome::Hit);
    assert!(std::sync::Arc::ptr_eq(&first, &again));
}
