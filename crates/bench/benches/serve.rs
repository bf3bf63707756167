//! Resident-server hit path at the paper's largest size.
//!
//! `serve/CB32_7y_hit` times `ServerState::profile` on a question the state
//! has already answered: a 32-bit column-bypass multiplier aged seven years
//! under its own 256-pair workload. Compare it with `profile/CB32_cached`
//! (the `profile` bench), which times a `ProfileCache::profile` hit: that
//! call derives the cache key from the per-gate delays on every lookup.
//!
//! Run with `cargo bench -p agemul-bench --bench serve`; set
//! `CRITERION_JSON=<file>` to append machine-readable results (see
//! `BENCH_sim.json` at the workspace root).

use criterion::{criterion_group, criterion_main, Criterion};

use agemul::SimEngine;
use agemul_circuits::MultiplierKind;
use agemul_serve::{CacheOutcome, DesignQuery, ServerState};

fn bench_serve_hit(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    let state = ServerState::new(None);
    let query = DesignQuery {
        kind: MultiplierKind::ColumnBypass,
        width: 32,
        years: 7.0,
        patterns: 256,
        seed: 7,
    };
    state.profile(&query, SimEngine::Level, None).unwrap();
    g.bench_function("CB32_7y_hit", |b| {
        b.iter(|| {
            let (profile, how) = state
                .profile(std::hint::black_box(&query), SimEngine::Level, None)
                .unwrap();
            assert_eq!(how, CacheOutcome::Hit);
            profile
        })
    });
    g.finish();
}

criterion_group!(benches, bench_serve_hit);
criterion_main!(benches);
