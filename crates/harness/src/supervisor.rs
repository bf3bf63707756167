//! The supervised case loop: catch panics, enforce deadlines, retry with
//! backoff, degrade, checkpoint.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

use agemul::{CancelToken, SimEngine};
use agemul_codec::{splitmix64, Json};

use crate::checkpoint::{CaseRecord, CaseStatus, Checkpoint, CheckpointError};
use crate::snapshot::is_cancellation;
use crate::HarnessError;

/// Supervision policy for one run.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Per-attempt wall-clock budget, enforced cooperatively through the
    /// attempt's [`CancelToken`]. `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt (on the primary engine) before the
    /// degradation attempt. 0 means one try.
    pub max_retries: u32,
    /// Base backoff before retry `r` (sleeps `backoff << (r-1)`, capped at
    /// 1024×). Keep small; this exists to let transient load pass, not to
    /// pace a scheduler.
    pub retry_backoff: Duration,
    /// Whether to make one final attempt on the event-driven reference
    /// engine after the primary-engine budget is exhausted.
    pub degrade: bool,
    /// Cases to complete between checkpoint writes (min 1).
    pub checkpoint_every: usize,
    /// Artificial pause before every attempt — a soak-test knob that
    /// widens the kill window of `just soak-smoke`. Leave `None` outside
    /// tests.
    pub stall_per_case: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            degrade: true,
            checkpoint_every: 8,
            stall_per_case: None,
        }
    }
}

/// How to treat an existing checkpoint at run start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resume {
    /// Ignore any checkpoint on disk and recompute every case (the
    /// checkpoint file, if configured, is overwritten as the run
    /// progresses).
    Fresh,
    /// Resume from the checkpoint if it loads cleanly and matches this
    /// run; otherwise silently restart from scratch. The default for
    /// unattended runs: a corrupt snapshot costs recomputation, never
    /// corrupt merged results.
    Attempt,
    /// Resume or fail: any load error (missing file included) aborts the
    /// run. For workflows where recomputation must be impossible.
    Require,
}

/// One attempt at one case, handed to the worker.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// 0-based case index.
    pub index: usize,
    /// Which retry this is (0 = first attempt).
    pub retry: u32,
    /// Deterministic seed perturbation for this attempt: 0 on the first
    /// attempt, a SplitMix64-mixed value of `(index, retry)` afterwards.
    /// Workers with stochastic elements may fold it into their seed so a
    /// retry explores a perturbed trajectory; deterministic workers ignore
    /// it.
    pub seed_bump: u64,
    /// The timing kernel this attempt should use. The supervisor hands out
    /// the fast levelized kernel until the retry budget is exhausted, then
    /// (if degradation is enabled) the event-driven reference engine.
    pub engine: SimEngine,
    /// Deadline token for this attempt, if the policy sets one. Workers
    /// thread it into the simulation layers ([`agemul::MultiplierDesign::
    /// profile_supervised`] and friends poll it cooperatively).
    pub cancel: Option<CancelToken>,
}

/// Why a worker gave up on an attempt (panics are caught separately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseError {
    /// The attempt's deadline fired (the worker observed
    /// [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)).
    Cancelled,
    /// Any other failure, rendered.
    Failed(String),
}

impl CaseError {
    /// Classifies a worker's error: [`CaseError::Cancelled`] when its
    /// source chain ends in a fired deadline (see [`is_cancellation`]),
    /// otherwise [`CaseError::Failed`] with the rendered error.
    pub fn from_error(err: &(dyn std::error::Error + 'static)) -> CaseError {
        if is_cancellation(err) {
            CaseError::Cancelled
        } else {
            CaseError::Failed(err.to_string())
        }
    }
}

/// `(index, value)` of every decoded completed case, then the indices of
/// the quarantined cases (see [`RunLedger::decode`]).
type Decoded<T> = (Vec<(usize, T)>, Vec<usize>);

/// The completed ledger of a supervised run: every case accounted for, in
/// index order.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLedger {
    /// The run fingerprint the ledger belongs to.
    pub run_key: String,
    /// One record per case, index order, no gaps.
    pub records: Vec<CaseRecord>,
}

impl RunLedger {
    /// Indices of quarantined cases, in order.
    pub fn quarantined(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter(|r| matches!(r.status, CaseStatus::Quarantined { .. }))
            .map(|r| r.index)
            .collect()
    }

    /// Decodes the value of every completed case from index `first` on.
    ///
    /// Returns `(index, value)` for each completed case and the indices of
    /// the quarantined ones, both in index order. A value that fails to
    /// decode is a [`HarnessError::Decode`] naming `what(index)`.
    ///
    /// # Errors
    ///
    /// The first decode failure, in index order.
    pub fn decode<T>(
        &self,
        first: usize,
        what: impl Fn(usize) -> String,
        decode: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<Decoded<T>, HarnessError> {
        let mut done = Vec::with_capacity(self.records.len().saturating_sub(first));
        let mut quarantined = Vec::new();
        for record in self.records.iter().skip(first) {
            match &record.status {
                CaseStatus::Done { value } => {
                    let value = decode(value).map_err(|reason| HarnessError::Decode {
                        what: what(record.index),
                        reason,
                    })?;
                    done.push((record.index, value));
                }
                CaseStatus::Quarantined { .. } => quarantined.push(record.index),
            }
        }
        Ok((done, quarantined))
    }

    /// Indices of cases that fell back to the reference engine, in order.
    pub fn degraded(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter(|r| r.degraded)
            .map(|r| r.index)
            .collect()
    }
}

/// Runs an indexed list of cases under the crate's four protections.
/// See the crate docs for the model; construct with [`Supervisor::new`]
/// and execute with [`Supervisor::run`].
pub struct Supervisor {
    run_key: String,
    labels: Vec<String>,
    config: SupervisorConfig,
}

const LEVEL: &str = "level";
const EVENT: &str = "event";

fn engine_name(engine: SimEngine) -> &'static str {
    match engine {
        SimEngine::Level => LEVEL,
        SimEngine::Event => EVENT,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Supervisor {
    /// A supervisor for `labels.len()` cases identified by `run_key`.
    ///
    /// The key should fingerprint everything that determines the cases'
    /// results (design, workload, case list); resuming checks it against
    /// the checkpoint's recorded key.
    pub fn new(run_key: impl Into<String>, labels: Vec<String>, config: SupervisorConfig) -> Self {
        Supervisor {
            run_key: run_key.into(),
            labels,
            config,
        }
    }

    /// Executes every case not already recorded in the checkpoint.
    ///
    /// `worker` evaluates one [`Attempt`] to its serialized evidence. It
    /// runs under `catch_unwind`; a panic quarantines the case. Returning
    /// [`CaseError::Cancelled`] (deadline) or [`CaseError::Failed`]
    /// consumes a retry; once the budget — and, if enabled, the
    /// degradation attempt on the reference engine — is exhausted, the
    /// case is quarantined with the last failure reason.
    ///
    /// With the `parallel` feature, the pending cases of each checkpoint
    /// batch fan out across threads with dynamic work stealing (case
    /// costs are uneven — retries, degradation, Monte Carlo corners of
    /// different depth — so a static split would leave cores idle behind
    /// the slowest chunk); records are merged back by case index, so the
    /// checkpoint sequence and the final ledger are identical to a serial
    /// run's.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures, and any load failure under
    /// [`Resume::Require`].
    pub fn run<W>(
        &self,
        worker: &W,
        checkpoint: Option<&Path>,
        resume: Resume,
    ) -> Result<RunLedger, HarnessError>
    where
        W: Fn(&Attempt) -> Result<Json, CaseError> + Sync,
    {
        let total = self.labels.len();
        let mut slots: Vec<Option<CaseRecord>> = vec![None; total];

        if resume != Resume::Fresh {
            if let Some(path) = checkpoint {
                match Checkpoint::load(path, Some(&self.run_key)) {
                    Ok(ck) if ck.total == total => {
                        for rec in ck.entries {
                            let i = rec.index;
                            if i < total {
                                slots[i] = Some(rec);
                            }
                        }
                    }
                    Ok(ck) => {
                        if resume == Resume::Require {
                            return Err(CheckpointError::RunMismatch {
                                expected: format!("{} ({total} cases)", self.run_key),
                                found: format!("{} ({} cases)", ck.run_key, ck.total),
                            }
                            .into());
                        }
                    }
                    Err(e) => {
                        if resume == Resume::Require {
                            return Err(e.into());
                        }
                        // Resume::Attempt: a missing or untrustworthy
                        // snapshot restarts from scratch — never merge
                        // suspect results.
                    }
                }
            }
        }

        let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
        let batch_size = self.config.checkpoint_every.max(1);
        for batch in pending.chunks(batch_size) {
            let eval = |&index: &usize| self.run_case(index, worker);
            // Claim granularity 1: one supervised case (attempts, retries,
            // possibly a degradation pass) is plenty to amortize a claim.
            #[cfg(feature = "parallel")]
            let records = agemul_par::par_map_stealing(batch, 1, eval);
            #[cfg(not(feature = "parallel"))]
            let records: Vec<CaseRecord> = batch.iter().map(eval).collect();
            for rec in records {
                let i = rec.index;
                slots[i] = Some(rec);
            }
            if let Some(path) = checkpoint {
                self.snapshot(&slots).save_atomic(path)?;
            }
        }

        let mut records = Vec::with_capacity(total);
        for (index, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(rec) => records.push(rec),
                // Unreachable by construction (every pending index was
                // evaluated), but never panic inside the supervisor.
                None => {
                    return Err(HarnessError::Decode {
                        what: format!("case {index}"),
                        reason: "ledger slot left empty".into(),
                    })
                }
            }
        }
        Ok(RunLedger {
            run_key: self.run_key.clone(),
            records,
        })
    }

    fn snapshot(&self, slots: &[Option<CaseRecord>]) -> Checkpoint {
        Checkpoint {
            run_key: self.run_key.clone(),
            total: self.labels.len(),
            entries: slots.iter().flatten().cloned().collect(),
        }
    }

    fn run_case<W>(&self, index: usize, worker: &W) -> CaseRecord
    where
        W: Fn(&Attempt) -> Result<Json, CaseError> + Sync,
    {
        let cfg = &self.config;
        let mut plan: Vec<(u32, SimEngine, bool)> = (0..=cfg.max_retries)
            .map(|r| (r, SimEngine::Level, false))
            .collect();
        if cfg.degrade {
            plan.push((cfg.max_retries.saturating_add(1), SimEngine::Event, true));
        }

        let mut last_reason = String::from("no attempt ran");
        for (retry, engine, is_degraded) in plan {
            if retry > 0 {
                let shift = retry.saturating_sub(1).min(10);
                let backoff = cfg.retry_backoff.saturating_mul(1 << shift);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            if let Some(stall) = cfg.stall_per_case {
                if !stall.is_zero() {
                    std::thread::sleep(stall);
                }
            }
            let attempt = Attempt {
                index,
                retry,
                seed_bump: if retry == 0 {
                    0
                } else {
                    splitmix64((index as u64) ^ (u64::from(retry) << 32))
                },
                engine,
                cancel: cfg.deadline.map(CancelToken::with_deadline),
            };
            match catch_unwind(AssertUnwindSafe(|| worker(&attempt))) {
                Ok(Ok(value)) => {
                    return CaseRecord {
                        index,
                        label: self.labels[index].clone(),
                        engine: engine_name(engine).into(),
                        retries: retry,
                        degraded: is_degraded,
                        status: CaseStatus::Done { value },
                    }
                }
                Ok(Err(CaseError::Cancelled)) => {
                    last_reason = format!(
                        "deadline exceeded on {} engine (attempt {})",
                        engine_name(engine),
                        retry + 1
                    );
                }
                Ok(Err(CaseError::Failed(msg))) => {
                    last_reason = format!(
                        "failed on {} engine (attempt {}): {msg}",
                        engine_name(engine),
                        retry + 1
                    );
                }
                Err(payload) => {
                    // A panic is deterministic poison: no retry, no
                    // degradation — quarantine immediately with the
                    // message.
                    return CaseRecord {
                        index,
                        label: self.labels[index].clone(),
                        engine: engine_name(engine).into(),
                        retries: retry,
                        degraded: is_degraded,
                        status: CaseStatus::Quarantined {
                            reason: format!("panic: {}", panic_message(payload)),
                        },
                    };
                }
            }
        }
        CaseRecord {
            index,
            label: self.labels[index].clone(),
            engine: if cfg.degrade { EVENT } else { LEVEL }.into(),
            retries: cfg.max_retries,
            degraded: cfg.degrade,
            status: CaseStatus::Quarantined {
                reason: last_reason,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            retry_backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("case{i}")).collect()
    }

    #[test]
    fn all_cases_complete_in_index_order() {
        let sup = Supervisor::new("k", labels(5), cfg());
        let ledger = sup
            .run(
                &|a: &Attempt| Ok(Json::UInt(a.index as u64 * 10)),
                None,
                Resume::Fresh,
            )
            .unwrap();
        assert_eq!(ledger.records.len(), 5);
        for (i, r) in ledger.records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.retries, 0);
            assert!(!r.degraded);
            assert_eq!(
                r.status,
                CaseStatus::Done {
                    value: Json::UInt(i as u64 * 10)
                }
            );
        }
        assert!(ledger.quarantined().is_empty());
    }

    #[test]
    fn panicking_case_is_quarantined_without_retry() {
        let sup = Supervisor::new("k", labels(3), cfg());
        let ledger = sup
            .run(
                &|a: &Attempt| {
                    if a.index == 1 {
                        panic!("deliberate poison");
                    }
                    Ok(Json::Null)
                },
                None,
                Resume::Fresh,
            )
            .unwrap();
        assert_eq!(ledger.quarantined(), vec![1]);
        let r = &ledger.records[1];
        assert_eq!(r.retries, 0, "panic must not consume retries");
        assert!(
            matches!(&r.status, CaseStatus::Quarantined { reason } if reason.contains("deliberate poison"))
        );
        // Neighbours completed.
        assert!(matches!(ledger.records[0].status, CaseStatus::Done { .. }));
        assert!(matches!(ledger.records[2].status, CaseStatus::Done { .. }));
    }

    #[test]
    fn failed_case_retries_then_degrades_to_event_engine() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let sup = Supervisor::new("k", labels(1), cfg());
        let ledger = sup
            .run(
                &|a: &Attempt| {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    match a.engine {
                        SimEngine::Level => {
                            Err(CaseError::Failed("levelized kernel suspect".into()))
                        }
                        SimEngine::Event => Ok(Json::Str("via reference engine".into())),
                    }
                },
                None,
                Resume::Fresh,
            )
            .unwrap();
        // max_retries = 2 → three Level attempts, then the Event fallback.
        assert_eq!(attempts.load(Ordering::Relaxed), 4);
        let r = &ledger.records[0];
        assert!(r.degraded);
        assert_eq!(r.engine, "event");
        assert_eq!(ledger.degraded(), vec![0]);
        assert!(matches!(r.status, CaseStatus::Done { .. }));
    }

    #[test]
    fn exhausted_budget_quarantines_with_last_reason() {
        let sup = Supervisor::new(
            "k",
            labels(1),
            SupervisorConfig {
                max_retries: 1,
                degrade: false,
                ..cfg()
            },
        );
        let ledger = sup
            .run(
                &|_: &Attempt| Err(CaseError::Cancelled),
                None,
                Resume::Fresh,
            )
            .unwrap();
        let r = &ledger.records[0];
        assert!(
            matches!(&r.status, CaseStatus::Quarantined { reason } if reason.contains("deadline exceeded")),
            "{r:?}"
        );
        assert!(!r.degraded);
    }

    #[test]
    fn seed_bump_is_zero_first_then_deterministic() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let sup = Supervisor::new(
            "k",
            labels(1),
            SupervisorConfig {
                max_retries: 2,
                degrade: false,
                ..cfg()
            },
        );
        let _ = sup.run(
            &|a: &Attempt| {
                seen.lock().unwrap().push(a.seed_bump);
                Err(CaseError::Failed("again".into()))
            },
            None,
            Resume::Fresh,
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], 0);
        assert_ne!(seen[1], 0);
        assert_ne!(seen[1], seen[2]);
        // Re-running reproduces the same perturbations.
        // Case index 0, retry 1 → mix input is (0 ^ (1 << 32)).
        assert_eq!(seen[1], splitmix64(1u64 << 32));
    }

    #[test]
    fn resume_skips_recorded_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let dir = std::env::temp_dir().join(format!("agemul-sup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.json");

        let sup = Supervisor::new("k", labels(4), cfg());
        let first = sup
            .run(
                &|a: &Attempt| Ok(Json::UInt(a.index as u64)),
                Some(&path),
                Resume::Fresh,
            )
            .unwrap();

        // Truncate the checkpoint to two completed cases.
        let mut ck = Checkpoint::load(&path, Some("k")).unwrap();
        ck.entries.truncate(2);
        ck.save_atomic(&path).unwrap();

        let evaluated = AtomicU32::new(0);
        let resumed = sup
            .run(
                &|a: &Attempt| {
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    Ok(Json::UInt(a.index as u64))
                },
                Some(&path),
                Resume::Require,
            )
            .unwrap();
        assert_eq!(
            evaluated.load(Ordering::Relaxed),
            2,
            "only missing cases run"
        );
        assert_eq!(resumed, first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn require_fails_on_missing_or_foreign_checkpoint() {
        let dir = std::env::temp_dir().join(format!("agemul-supreq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.json");
        let ok = |a: &Attempt| Ok(Json::UInt(a.index as u64));

        let sup = Supervisor::new("k", labels(2), cfg());
        assert!(sup.run(&ok, Some(&path), Resume::Require).is_err());

        // A checkpoint from a different run key is refused under Require
        // but silently recomputed under Attempt.
        Supervisor::new("other", labels(2), cfg())
            .run(&ok, Some(&path), Resume::Fresh)
            .unwrap();
        assert!(matches!(
            sup.run(&ok, Some(&path), Resume::Require),
            Err(HarnessError::Checkpoint(
                CheckpointError::RunMismatch { .. }
            ))
        ));
        let ledger = sup.run(&ok, Some(&path), Resume::Attempt).unwrap();
        assert_eq!(ledger.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
