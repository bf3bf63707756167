//! Shared, thread-safe server state: designs, workloads, aging factors,
//! the sharded profile cache, and the single-flight coalescer.
//!
//! This is the resident-process counterpart of the repro crate's
//! single-threaded `Context`: the same lazily built artifacts (designs,
//! workload statistics, BTI aging factors, timing profiles), but behind
//! poison-recovering locks and `Arc`s so hundreds of concurrent requests
//! share one copy of everything. Profiles go through the sharded
//! [`ProfileCache`] *behind* a [`SingleFlight`] coalescer, so N identical
//! cold requests cost one simulation, not N racing ones. Each question's
//! cache key is derived once and memoized, so a warm hit costs a few map
//! probes whatever the design size.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use agemul::{
    quantize_factors, CacheEntry, CancelToken, MultiplierDesign, PatternProfile, PatternSet,
    ProfileCache, ProfileKey, SimEngine,
};
use agemul_aging::{aging_factors, BtiModel};
use agemul_circuits::MultiplierKind;
use agemul_codec::Json;
use agemul_harness::{
    is_cancellation, profile_from_json, profile_to_json, CaseRecord, CaseStatus, Checkpoint,
};
use agemul_logic::Technology;
use agemul_netlist::WorkloadStats;

use crate::flight::{FlightError, FlightRole, SingleFlight};
use crate::proto::DesignQuery;

/// Per-gate seven-year delay-factor target for the calibrated BTI model —
/// the same anchor the repro `Context` uses, so a served profile matches
/// the batch experiments bit for bit (see the derivation note in
/// `crates/repro/src/context.rs`).
const REFERENCE_GATE_7Y_FACTOR: f64 = 1.132;

/// Run key recorded in warm-start snapshot documents; a snapshot written
/// by an incompatible layout is refused on load instead of silently
/// seeding garbage.
pub const SNAPSHOT_KEY: &str = "agemul-serve-cache/1";

/// How a profile lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Simulated by this request.
    Miss,
    /// Waited on another request's in-flight simulation of the same key.
    Coalesced,
}

impl CacheOutcome {
    /// Wire label (`hit` / `miss` / `coalesced`).
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keyed store of workload statistics: (kind, width, patterns, seed).
type StatsMap = HashMap<(MultiplierKind, usize, usize, u64), Arc<WorkloadStats>>;

/// The exact question a `profile` request asks: design, aging epoch and
/// workload. `years` is kept at full `f64` precision (its bit pattern,
/// with `-0.0` folded onto `0.0`), because the aging factors are computed
/// from the unrounded value.
///
/// Within one [`ServerState`] the question determines the answer's
/// [`ProfileKey`]: the BTI model is fixed, and the design, workload,
/// workload statistics and aging factors are deterministic functions of
/// these coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct QueryKey {
    kind: MultiplierKind,
    width: usize,
    years_bits: u64,
    patterns: usize,
    seed: u64,
}

impl QueryKey {
    fn new(query: &DesignQuery) -> Self {
        QueryKey {
            kind: query.kind,
            width: query.width,
            years_bits: (query.years + 0.0).to_bits(),
            patterns: query.patterns,
            seed: query.seed,
        }
    }
}

/// Single-flight key: one in-flight simulation per question × engine.
type FlightKey = (QueryKey, SimEngine);

/// The server's shared artifact store. Cheap lookups (designs, workloads,
/// stats, factors) live in plain poison-recovering maps; profiles — the
/// expensive artifact — go through the sharded bounded [`ProfileCache`]
/// behind the [`SingleFlight`] coalescer.
pub struct ServerState {
    bti: BtiModel,
    cache: ProfileCache,
    flight: SingleFlight<FlightKey, Arc<PatternProfile>>,
    designs: Mutex<HashMap<(MultiplierKind, usize), Arc<MultiplierDesign>>>,
    workloads: Mutex<HashMap<(usize, usize, u64), Arc<PatternSet>>>,
    stats: Mutex<StatsMap>,
    factors: Mutex<HashMap<QueryKey, Arc<Vec<f64>>>>,
    /// Each question's cache key, derived on its first `profile` request.
    keys: Mutex<HashMap<QueryKey, ProfileKey>>,
    /// Connections shed by the acceptor with a typed `overloaded`
    /// response (surfaced in the `stats` op).
    shed: std::sync::atomic::AtomicU64,
    /// Context for this state's `serve/build` chaos failpoint; chaos plans
    /// scope on it so one test's injected leader deaths cannot strike
    /// another state in the same process.
    chaos_scope: String,
}

impl ServerState {
    /// Fresh state with the workspace-calibrated BTI model and a profile
    /// cache bounded to `shard_capacity` entries per shard (`None` =
    /// unbounded, for short-lived test servers).
    pub fn new(shard_capacity: Option<usize>) -> Self {
        Self::with_chaos_scope(shard_capacity, String::new())
    }

    /// Like [`new`](Self::new), but the `serve/build`, `flight/lead`, and
    /// `flight/publish` chaos failpoints carry `scope` as their context,
    /// so seeded fault plans can target exactly this state.
    pub fn with_chaos_scope(shard_capacity: Option<usize>, scope: impl Into<String>) -> Self {
        let scope = scope.into();
        ServerState {
            bti: BtiModel::calibrated(Technology::ptm_32nm_hk(), REFERENCE_GATE_7Y_FACTOR),
            cache: match shard_capacity {
                Some(per_shard) => ProfileCache::with_capacity(per_shard),
                None => ProfileCache::new(),
            },
            flight: SingleFlight::with_scope(scope.clone()),
            designs: Mutex::new(HashMap::new()),
            workloads: Mutex::new(HashMap::new()),
            stats: Mutex::new(HashMap::new()),
            factors: Mutex::new(HashMap::new()),
            keys: Mutex::new(HashMap::new()),
            shed: std::sync::atomic::AtomicU64::new(0),
            chaos_scope: scope,
        }
    }

    /// Records one connection shed by the acceptor.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Connections shed with a typed `overloaded` response so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Profile builds currently in flight in the coalescer (0 when the
    /// server is quiescent — a stranded slot would wedge every future
    /// request for its key, so soaks assert this drains).
    pub fn in_flight(&self) -> usize {
        self.flight.in_flight()
    }

    /// The profile cache (shared with campaign preparation).
    pub fn cache(&self) -> &ProfileCache {
        &self.cache
    }

    /// The workspace-calibrated BTI model (shared with the Monte Carlo
    /// op, so served yield curves match the batch `mc` experiment).
    pub fn bti(&self) -> &BtiModel {
        &self.bti
    }

    /// Number of profile lookups coalesced onto another request's
    /// in-flight simulation.
    pub fn coalesced(&self) -> u64 {
        self.flight.coalesced()
    }

    /// The design for `kind` × `width` (cached; built outside the map
    /// lock so concurrent first requests don't serialize on construction).
    ///
    /// # Errors
    ///
    /// Rendered construction errors (unsupported width, etc.).
    pub fn design(
        &self,
        kind: MultiplierKind,
        width: usize,
    ) -> Result<Arc<MultiplierDesign>, String> {
        if let Some(d) = lock(&self.designs).get(&(kind, width)) {
            return Ok(Arc::clone(d));
        }
        let built = Arc::new(MultiplierDesign::new(kind, width).map_err(|e| e.to_string())?);
        let mut designs = lock(&self.designs);
        let d = designs
            .entry((kind, width))
            .or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(d))
    }

    /// The seed-derived uniform workload (cached).
    pub fn workload(&self, width: usize, patterns: usize, seed: u64) -> Arc<PatternSet> {
        if let Some(w) = lock(&self.workloads).get(&(width, patterns, seed)) {
            return Arc::clone(w);
        }
        let built = Arc::new(PatternSet::uniform(width, patterns, seed));
        let mut workloads = lock(&self.workloads);
        let w = workloads
            .entry((width, patterns, seed))
            .or_insert_with(|| Arc::clone(&built));
        Arc::clone(w)
    }

    /// Per-gate BTI aging factors for the query's design under its own
    /// workload's duty cycles (cached). Fresh designs (`years == 0`) have
    /// no factors.
    ///
    /// # Errors
    ///
    /// Rendered design/statistics errors.
    pub fn factors(&self, query: &DesignQuery) -> Result<Option<Arc<Vec<f64>>>, String> {
        if query.years <= 0.0 {
            return Ok(None);
        }
        let key = QueryKey::new(query);
        if let Some(f) = lock(&self.factors).get(&key) {
            return Ok(Some(Arc::clone(f)));
        }
        let design = self.design(query.kind, query.width)?;
        let stats = self.workload_stats(query)?;
        let built = Arc::new(aging_factors(
            design.circuit().netlist(),
            &stats,
            &self.bti,
            query.years,
        ));
        let mut factors = lock(&self.factors);
        let f = factors.entry(key).or_insert_with(|| Arc::clone(&built));
        Ok(Some(Arc::clone(f)))
    }

    /// Workload statistics for the query's design under its own workload
    /// (cached) — the stress input to the aging model.
    fn workload_stats(&self, query: &DesignQuery) -> Result<Arc<WorkloadStats>, String> {
        let key = (query.kind, query.width, query.patterns, query.seed);
        if let Some(s) = lock(&self.stats).get(&key) {
            return Ok(Arc::clone(s));
        }
        let design = self.design(query.kind, query.width)?;
        let workload = self.workload(query.width, query.patterns, query.seed);
        let built = Arc::new(
            design
                .workload_stats(workload.pairs())
                .map_err(|e| e.to_string())?,
        );
        let mut stats = lock(&self.stats);
        let s = stats.entry(key).or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(s))
    }

    /// The query's aging factors snapped onto the cache's quantization
    /// grid (`None` for a fresh design).
    fn quantized_factors(&self, query: &DesignQuery) -> Result<Option<Vec<f64>>, String> {
        Ok(self.factors(query)?.map(|f| quantize_factors(&f)))
    }

    /// Derives the query's cache key from scratch: factors, quantization,
    /// delay assignment and both fingerprints. The quantized factors are
    /// returned too, so a miss builds from them instead of recomputing.
    fn derive_key(&self, query: &DesignQuery) -> Result<(ProfileKey, Option<Vec<f64>>), String> {
        let design = self.design(query.kind, query.width)?;
        let quantized = self.quantized_factors(query)?;
        let delays = design
            .delay_assignment(quantized.as_deref())
            .map_err(|e| e.to_string())?;
        let workload = self.workload(query.width, query.patterns, query.seed);
        Ok((
            ProfileKey::new(&design, &delays, workload.pairs()),
            quantized,
        ))
    }

    /// The cache key memoized for `query`, once a `profile` request has
    /// asked it.
    pub fn memoized_key(&self, query: &DesignQuery) -> Option<ProfileKey> {
        lock(&self.keys).get(&QueryKey::new(query)).copied()
    }

    /// The query's timing profile: through the single-flight coalescer,
    /// then the sharded cache, simulating (on `engine`, under `cancel`)
    /// only on a true miss. Returns the profile and how it was obtained.
    ///
    /// The cache key is derived once per question and memoized, so a hit
    /// on a question asked before does no work proportional to the design
    /// or workload size: no aging factors, delay assignment or
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// [`FlightError::Cancelled`] when the deadline fired inside the
    /// simulation, [`FlightError::Build`] for real failures (never
    /// cached), [`FlightError::LeaderPanicked`] when a concurrent leader
    /// died mid-build.
    pub fn profile(
        &self,
        query: &DesignQuery,
        engine: SimEngine,
        cancel: Option<&CancelToken>,
    ) -> Result<(Arc<PatternProfile>, CacheOutcome), FlightError> {
        let question = QueryKey::new(query);
        let memoized = lock(&self.keys).get(&question).copied();
        let (key, derived) = match memoized {
            Some(key) => (key, None),
            None => {
                let (key, quantized) = self.derive_key(query).map_err(FlightError::Build)?;
                lock(&self.keys).insert(question, key);
                (key, Some(quantized))
            }
        };

        let simulated = std::cell::Cell::new(false);
        let (outcome, role) = self.flight.run((question, engine), || {
            // Chaos failpoint `serve/build`: the leader dies *inside* the
            // build closure — between the flight's own lead/publish sites —
            // exercising the cache's exception safety under the coalescer.
            if agemul_chaos::armed() {
                agemul_chaos::maybe_panic(
                    "serve/build",
                    &format!(
                        "{} {}x{}",
                        self.chaos_scope,
                        query.kind.label(),
                        query.width
                    ),
                );
            }
            self.cache.get_or_insert_keyed(key, || {
                simulated.set(true);
                let quantized = match derived {
                    Some(quantized) => quantized,
                    None => self.quantized_factors(query).map_err(FlightError::Build)?,
                };
                let design = self
                    .design(query.kind, query.width)
                    .map_err(FlightError::Build)?;
                let workload = self.workload(query.width, query.patterns, query.seed);
                design
                    .profile_supervised(workload.pairs(), quantized.as_deref(), engine, cancel)
                    .map_err(|e| {
                        if is_cancellation(&e) {
                            FlightError::Cancelled
                        } else {
                            FlightError::Build(e.to_string())
                        }
                    })
            })
        });
        let profile = outcome?;
        let how = match role {
            FlightRole::Coalesced => CacheOutcome::Coalesced,
            FlightRole::Leader if simulated.get() => CacheOutcome::Miss,
            FlightRole::Leader => CacheOutcome::Hit,
        };
        Ok((profile, how))
    }

    /// Cache/coalescer statistics as the `stats` op's result payload.
    ///
    /// The global totals are followed by a `shards` array — one row per
    /// cache shard with its resident entries and hit/miss/eviction tallies
    /// (shards are keyed by (kind, width), so a hot row is a hot design) —
    /// and a `flight` object with the single-flight coalescer's
    /// led/coalesced counts.
    pub fn stats_json(&self) -> Json {
        let shards = self
            .cache
            .shard_stats()
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("index".into(), Json::UInt(s.index as u64)),
                    ("entries".into(), Json::UInt(s.entries as u64)),
                    ("hits".into(), Json::UInt(s.hits)),
                    ("misses".into(), Json::UInt(s.misses)),
                    ("evictions".into(), Json::UInt(s.evictions)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("entries".into(), Json::UInt(self.cache.len() as u64)),
            ("hits".into(), Json::UInt(self.cache.hits())),
            ("misses".into(), Json::UInt(self.cache.misses())),
            ("evictions".into(), Json::UInt(self.cache.evictions())),
            ("coalesced".into(), Json::UInt(self.coalesced())),
            (
                "shard_capacity".into(),
                self.cache
                    .shard_capacity()
                    .map_or(Json::Null, |c| Json::UInt(c as u64)),
            ),
            ("shed".into(), Json::UInt(self.shed())),
            ("shards".into(), Json::Arr(shards)),
            (
                "flight".into(),
                Json::Obj(vec![
                    ("led".into(), Json::UInt(self.flight.led())),
                    ("coalesced".into(), Json::UInt(self.flight.coalesced())),
                    ("in_flight".into(), Json::UInt(self.in_flight() as u64)),
                ]),
            ),
        ])
    }

    /// Saves the cache as a warm-start snapshot (atomic temp + rename,
    /// CRC-checked — the harness checkpoint codec). Returns the number of
    /// entries written.
    ///
    /// # Errors
    ///
    /// Rendered checkpoint I/O errors.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, String> {
        let entries: Vec<CaseRecord> = self
            .cache
            .entries()
            .into_iter()
            .enumerate()
            .map(|(index, e)| CaseRecord {
                index,
                label: format!(
                    "{}{}@{:016x}/{:016x}",
                    e.kind.label(),
                    e.width,
                    e.delay_fingerprint,
                    e.workload_fingerprint
                ),
                engine: "level".into(),
                retries: 0,
                degraded: false,
                status: CaseStatus::Done {
                    value: Json::Obj(vec![
                        ("kind".into(), Json::Str(e.kind.label().into())),
                        ("width".into(), Json::UInt(e.width as u64)),
                        ("delay_fp".into(), Json::UInt(e.delay_fingerprint)),
                        ("workload_fp".into(), Json::UInt(e.workload_fingerprint)),
                        ("profile".into(), profile_to_json(&e.profile)),
                    ]),
                },
            })
            .collect();
        let count = entries.len();
        Checkpoint {
            run_key: SNAPSHOT_KEY.into(),
            total: count,
            entries,
        }
        .save_atomic(path)
        .map_err(|e| e.to_string())?;
        Ok(count)
    }

    /// Seeds the cache from a warm-start snapshot written by
    /// [`save_snapshot`](Self::save_snapshot). Returns the number of
    /// entries seeded.
    ///
    /// # Errors
    ///
    /// Rendered load errors: I/O, CRC/schema mismatch, a snapshot written
    /// under a different [`SNAPSHOT_KEY`], or malformed entries.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize, String> {
        let ck = Checkpoint::load(path, Some(SNAPSHOT_KEY)).map_err(|e| e.to_string())?;
        let mut seeded = 0;
        for record in &ck.entries {
            let CaseStatus::Done { value } = &record.status else {
                continue;
            };
            let entry = entry_from_json(value)
                .map_err(|e| format!("snapshot entry {}: {e}", record.index))?;
            self.cache.seed_entry(&entry);
            seeded += 1;
        }
        Ok(seeded)
    }
}

/// Decodes one warm-start snapshot entry written by
/// [`ServerState::save_snapshot`].
fn entry_from_json(value: &Json) -> Result<CacheEntry, String> {
    Ok(CacheEntry {
        kind: MultiplierKind::from_label(value.field_str("kind")?)?,
        width: value.field_u64("width")? as usize,
        delay_fingerprint: value.field_u64("delay_fp")?,
        workload_fingerprint: value.field_u64("workload_fp")?,
        profile: Arc::new(profile_from_json(
            value.get("profile").ok_or("missing profile")?,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> DesignQuery {
        DesignQuery {
            kind: MultiplierKind::ColumnBypass,
            width: 8,
            years: 0.0,
            patterns: 24,
            seed: 11,
        }
    }

    #[test]
    fn repeat_profile_hits() {
        let state = ServerState::new(Some(8));
        let (first, how) = state.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(how, CacheOutcome::Miss);
        let (again, how) = state.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(how, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((state.cache().hits(), state.cache().misses()), (1, 1));
    }

    #[test]
    fn aged_profile_is_slower_and_separately_cached() {
        let state = ServerState::new(None);
        let fresh = query();
        let aged = DesignQuery {
            years: 7.0,
            ..fresh
        };
        let (f, _) = state.profile(&fresh, SimEngine::Level, None).unwrap();
        let (a, _) = state.profile(&aged, SimEngine::Level, None).unwrap();
        assert!(a.avg_delay_ns() > f.avg_delay_ns());
        assert_eq!(state.cache().misses(), 2);
    }

    #[test]
    fn snapshot_round_trips_into_a_cold_state() {
        let dir = std::env::temp_dir().join(format!("agemul-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap.json");

        let warm = ServerState::new(Some(8));
        let (original, _) = warm.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(warm.save_snapshot(&path).unwrap(), 1);

        let cold = ServerState::new(Some(8));
        assert_eq!(cold.load_snapshot(&path).unwrap(), 1);
        let (served, how) = cold.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(how, CacheOutcome::Hit, "warm start must hit");
        assert_eq!(served.records(), original.records());

        // A foreign document is refused, not silently seeded.
        std::fs::write(&path, "{}").unwrap();
        assert!(cold.load_snapshot(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
