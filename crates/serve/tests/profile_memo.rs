//! The served `profile` hit path keys the cache by the request: each
//! question's `ProfileKey` is derived once and memoized. These tests pin
//! that the memo is coherent with deriving the key from scratch, with the
//! uncached profiling path, and with a warm start from a shutdown snapshot.

use std::sync::Arc;

use agemul::{
    quantize_factors, MultiplierDesign, PatternProfile, PatternSet, ProfileCache, ProfileKey,
    SimEngine,
};
use agemul_aging::aging_factors;
use agemul_circuits::MultiplierKind;
use agemul_serve::{spawn, CacheOutcome, DesignQuery, Endpoint, ServeConfig, ServerState};

const PATTERNS: usize = 32;

fn questions() -> Vec<DesignQuery> {
    let mut out = Vec::new();
    for kind in MultiplierKind::ALL {
        for width in [4, 8] {
            for years in [0.0, 0.5, 3.0, 7.0] {
                for seed in [5, 0x9E37] {
                    out.push(DesignQuery {
                        kind,
                        width,
                        years,
                        patterns: PATTERNS,
                        seed,
                    });
                }
            }
        }
    }
    out
}

/// The question's design, workload and quantized aging factors, built
/// without any of the server's maps.
fn from_scratch(
    state: &ServerState,
    q: &DesignQuery,
) -> (MultiplierDesign, PatternSet, Option<Vec<f64>>) {
    let design = MultiplierDesign::new(q.kind, q.width).expect("design");
    let workload = PatternSet::uniform(q.width, q.patterns, q.seed);
    let quantized = (q.years > 0.0).then(|| {
        let stats = design.workload_stats(workload.pairs()).expect("stats");
        quantize_factors(&aging_factors(
            design.circuit().netlist(),
            &stats,
            state.bti(),
            q.years,
        ))
    });
    (design, workload, quantized)
}

fn assert_same_bits(served: &PatternProfile, expected: &PatternProfile, q: &DesignQuery) {
    assert_eq!(served.records(), expected.records(), "{q:?}");
    assert_eq!(
        served.avg_delay_ns().to_bits(),
        expected.avg_delay_ns().to_bits(),
        "{q:?}"
    );
    assert_eq!(
        served.max_delay_ns().to_bits(),
        expected.max_delay_ns().to_bits(),
        "{q:?}"
    );
}

fn spawn_with_snapshot(path: &std::path::Path) -> agemul_serve::ServerHandle {
    spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: 1,
        shard_capacity: None,
        snapshot: Some(path.to_path_buf()),
        max_retries: 0,
        ..ServeConfig::default()
    })
    .expect("spawn")
}

/// For every question: the first request misses and memoizes exactly the
/// key derived from scratch; the second hits with the same `Arc`; both
/// carry the bits of the uncached profiling path. A server warm-started
/// from the first server's shutdown snapshot answers every question's
/// first request as a hit with identical bits.
#[test]
fn memoized_keys_are_coherent() {
    let dir = std::env::temp_dir().join(format!("agemul-serve-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cache.snap.json");

    let first = spawn_with_snapshot(&snap);
    let state = first.state();
    let mut served = Vec::new();
    for q in questions() {
        assert_eq!(state.memoized_key(&q), None, "{q:?}");
        let (miss, how) = state.profile(&q, SimEngine::Level, None).expect("miss");
        assert_eq!(how, CacheOutcome::Miss, "{q:?}");

        let (design, workload, quantized) = from_scratch(state, &q);
        let delays = design
            .delay_assignment(quantized.as_deref())
            .expect("delays");
        assert_eq!(
            state.memoized_key(&q),
            Some(ProfileKey::new(&design, &delays, workload.pairs())),
            "{q:?}"
        );

        let hits = state.cache().hits();
        let (hit, how) = state.profile(&q, SimEngine::Level, None).expect("hit");
        assert_eq!(how, CacheOutcome::Hit, "{q:?}");
        assert!(Arc::ptr_eq(&miss, &hit), "{q:?}");
        assert_eq!(state.cache().hits(), hits + 1, "one shard hit per request");

        let direct = ProfileCache::new()
            .profile(&design, workload.pairs(), quantized.as_deref())
            .expect("uncached profile");
        assert_same_bits(&hit, &direct, &q);
        served.push((q, hit));
    }
    assert_eq!(state.cache().misses(), served.len() as u64);
    first.shutdown().expect("shutdown saves the snapshot");

    let second = spawn_with_snapshot(&snap);
    for (q, original) in &served {
        let (warm, how) = second
            .state()
            .profile(q, SimEngine::Level, None)
            .expect("warm");
        assert_eq!(how, CacheOutcome::Hit, "{q:?}");
        assert_same_bits(&warm, original, q);
    }
    assert_eq!(second.state().cache().misses(), 0);
    second.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
