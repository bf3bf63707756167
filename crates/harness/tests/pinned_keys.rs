//! Literal pins on every value the workspace derives from its shared
//! hashes and seed mixers.
//!
//! Checkpoint run keys, profile-cache keys, Monte Carlo corner seeds,
//! process-variation streams, fleet trace seeds and chaos schedules are
//! all pure functions of FNV-1a and SplitMix64. A checkpoint written by
//! one build must resume under the next, and a seeded study must replay
//! the same dies, so these values may never move. Each expectation below
//! is a literal recorded from the implementation; a refactor of the hash
//! or seed helpers that changes any of them breaks replay.

use agemul::{
    quantize_factors, McConfig, MonteCarloCampaign, MultiplierDesign, PatternProfile, ProfileCache,
};
use agemul_aging::{BtiModel, VariationModel};
use agemul_chaos::{ChaosPlan, FaultKind};
use agemul_circuits::MultiplierKind;
use agemul_faults::FaultSpec;
use agemul_fleet::{
    epoch_seed, fnv1a64, node_corner_seed, FleetConfig, FleetPolicy, RoutingPolicy,
};
use agemul_harness::{campaign_run_key, fleet_run_key, mc_run_key, FleetScenario};
use agemul_logic::Technology;

/// A fixed 8-bit workload, spelled out so the pins do not depend on any
/// pattern generator.
const PAIRS: [(u64, u64); 6] = [(0, 0), (1, 255), (17, 200), (128, 3), (255, 255), (90, 41)];

fn cb8() -> MultiplierDesign {
    MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap()
}

fn bti() -> BtiModel {
    BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.132)
}

fn mc_campaign<'a>(design: &'a MultiplierDesign, bti: &BtiModel) -> MonteCarloCampaign<'a> {
    let mut config = McConfig::new(4, 0.08, 404);
    config.years = vec![0.0, 7.0];
    MonteCarloCampaign::new(design, &PAIRS, bti, config).unwrap()
}

#[test]
fn campaign_run_key_is_pinned() {
    let design = cb8();
    let faults = FaultSpec::sample(&design, PAIRS.len(), 3, 7);
    assert_eq!(
        campaign_run_key(&design, &PAIRS, &faults),
        "campaign/CB8x8/4cases/ba284a7227d6463f"
    );
}

#[test]
fn mc_run_key_is_pinned() {
    let design = cb8();
    let bti = bti();
    assert_eq!(
        mc_run_key(&mc_campaign(&design, &bti)),
        "mc/CB8x8/4corners/8a97a153c561bf4b"
    );
}

#[test]
fn fleet_run_key_is_pinned() {
    let scenarios: Vec<FleetScenario> = [RoutingPolicy::RoundRobin, RoutingPolicy::AgingAware]
        .into_iter()
        .map(|routing| {
            let mut config = FleetConfig::new(3, 2, 48, 0x0A6E_0005);
            config.policy = FleetPolicy::baseline(routing);
            FleetScenario::new(config.policy.label(), config)
        })
        .collect();
    assert_eq!(
        fleet_run_key(&cb8(), &scenarios),
        "fleet/CB8x8/2scenarios/50e58199aa2be504"
    );
}

#[test]
fn delay_fingerprints_are_pinned() {
    let design = cb8();
    let gates = design.circuit().netlist().gate_count();
    let aged: Vec<f64> = (0..gates).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
    let aged = quantize_factors(&aged);
    let fresh = design.delay_assignment(None).unwrap().fingerprint();
    let aged = design.delay_assignment(Some(&aged)).unwrap().fingerprint();
    assert_eq!([fresh, aged], [16492970149861067815, 17346990529053168589]);
}

#[test]
fn profile_cache_keys_and_shard_are_pinned() {
    let design = cb8();
    let delays = design.delay_assignment(None).unwrap();
    let cache = ProfileCache::new();
    cache
        .get_or_insert_with(&design, &delays, &PAIRS, || {
            Ok::<_, ()>(PatternProfile::from_records(design.kind(), 8, Vec::new()))
        })
        .unwrap();
    let entry = &cache.entries()[0];
    let shard = cache
        .shard_stats()
        .iter()
        .find(|s| s.misses == 1)
        .map(|s| s.index);
    assert_eq!(
        (entry.delay_fingerprint, entry.workload_fingerprint, shard),
        (16492970149861067815, 6373285495890459348, Some(15))
    );
}

#[test]
fn variation_stream_is_pinned() {
    let circuit = agemul_circuits::MultiplierCircuit::generate(MultiplierKind::Array, 4).unwrap();
    let words: Vec<u64> = VariationModel::new(0.08)
        .factors(circuit.netlist(), 42)
        .iter()
        .take(6)
        .map(|f| f.to_bits())
        .collect();
    assert_eq!(
        words,
        [
            4607334343650839322,
            4607423819456951828,
            4606562138943858896,
            4607686754296599613,
            4607850741491506625,
            4605922569407730536,
        ]
    );
}

#[test]
fn monte_carlo_corner_seeds_are_pinned() {
    let design = cb8();
    let bti = bti();
    let campaign = mc_campaign(&design, &bti);
    let report = campaign.run(None).unwrap();
    let seeds: Vec<u64> = report.corners.iter().map(|c| c.seed).collect();
    assert_eq!(
        seeds,
        [
            1372310170910265505,
            16020437754349894563,
            8296724661579195160,
            2736012589406948006,
        ]
    );
    let seed_of: Vec<u64> = (0..4).map(|c| campaign.seed_of(c)).collect();
    assert_eq!(seed_of, seeds);
}

#[test]
fn fleet_seeds_and_hash_are_pinned() {
    assert_eq!(
        [
            epoch_seed(0x0A6E_0005, 0),
            epoch_seed(0x0A6E_0005, 3),
            node_corner_seed(0x0A6E_0005, 2),
            fnv1a64(b"agemul"),
        ],
        [
            14905984821480032088,
            11957482951099713828,
            3994166320126597081,
            12607831515731664554,
        ]
    );
}

#[test]
fn chaos_decisions_are_pinned() {
    let scope = "pinned-keys-chaos-scope";
    let _guard = agemul_chaos::arm(ChaosPlan::new(0xC0FFEE).rule(
        "pin/site",
        scope,
        500_000,
        &[FaultKind::IoError, FaultKind::Torn, FaultKind::BitFlip],
    ));
    let shots: Vec<Option<(FaultKind, u64)>> = (0..8)
        .map(|_| agemul_chaos::hit("pin/site", scope).map(|s| (s.kind, s.entropy)))
        .collect();
    assert_eq!(
        shots,
        [
            None,
            None,
            None,
            None,
            Some((FaultKind::Torn, 14548015147657192443)),
            Some((FaultKind::BitFlip, 16203845800733357865)),
            None,
            None,
        ]
    );
}
