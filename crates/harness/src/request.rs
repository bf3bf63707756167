//! Supervised execution of a single service request.
//!
//! A resident server (`agemul-serve`) runs each incoming request under the
//! same protections as a batch case: panic isolation, a cooperative
//! deadline via [`CancelToken`](agemul::CancelToken), bounded retry, and a
//! final Level→Event degradation attempt. [`run_request_supervised`] is
//! the one-case specialization of [`Supervisor::run`] — no checkpoint (a
//! request is retried by its client, not resumed from disk), and the
//! outcome is the single [`CaseRecord`] instead of a ledger.

use agemul_codec::Json;

use crate::checkpoint::CaseRecord;
use crate::supervisor::{Attempt, CaseError, Resume, Supervisor, SupervisorConfig};
use crate::HarnessError;

/// Runs one request under full supervision and returns its record.
///
/// `worker` is invoked with each [`Attempt`] (engine + deadline token
/// installed per `config`, exactly as in a batch run); a panicking or
/// budget-exhausted request comes back as
/// [`CaseStatus::Quarantined`](crate::CaseStatus) rather than as an `Err`,
/// so the caller can render a structured failure response instead of
/// dying. `label` names the request in quarantine reasons and run keys.
///
/// # Errors
///
/// Only internal supervisor failures (never produced by the request
/// itself); quarantines are reported inside the returned record.
///
/// # Example
///
/// ```
/// use agemul_codec::Json;
/// use agemul_harness::{run_request_supervised, CaseStatus, SupervisorConfig};
///
/// let record = run_request_supervised(
///     "profile/CB16",
///     &SupervisorConfig::default(),
///     &|attempt| Ok(Json::Str(format!("{:?}", attempt.engine))),
/// )?;
/// assert!(matches!(record.status, CaseStatus::Done { .. }));
/// # Ok::<(), agemul_harness::HarnessError>(())
/// ```
pub fn run_request_supervised<W>(
    label: &str,
    config: &SupervisorConfig,
    worker: &W,
) -> Result<CaseRecord, HarnessError>
where
    W: Fn(&Attempt) -> Result<Json, CaseError> + Sync,
{
    let supervisor = Supervisor::new(
        format!("request/{label}"),
        vec![label.to_string()],
        config.clone(),
    );
    let ledger = supervisor.run(worker, None, Resume::Fresh)?;
    ledger
        .records
        .into_iter()
        .next()
        .ok_or(HarnessError::NoUsableCases)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    use agemul::SimEngine;

    use super::*;
    use crate::CaseStatus;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            retry_backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn successful_request_returns_done_record() {
        let record =
            run_request_supervised("ok", &cfg(), &|a: &Attempt| Ok(Json::UInt(a.index as u64)))
                .unwrap();
        assert_eq!(record.label, "ok");
        assert!(!record.degraded);
        assert_eq!(
            record.status,
            CaseStatus::Done {
                value: Json::UInt(0)
            }
        );
    }

    #[test]
    fn panicking_request_is_quarantined_not_propagated() {
        let record = run_request_supervised(
            "poison",
            &cfg(),
            &|_: &Attempt| -> Result<Json, CaseError> { panic!("request poison") },
        )
        .unwrap();
        assert!(
            matches!(&record.status, CaseStatus::Quarantined { reason } if reason.contains("request poison"))
        );
    }

    #[test]
    fn deadline_overrun_degrades_to_event_engine() {
        let attempts = AtomicU32::new(0);
        let record = run_request_supervised(
            "slow",
            &SupervisorConfig {
                max_retries: 1,
                ..cfg()
            },
            &|a: &Attempt| {
                attempts.fetch_add(1, Ordering::Relaxed);
                match a.engine {
                    SimEngine::Level => Err(CaseError::Cancelled),
                    SimEngine::Event => Ok(Json::Str("degraded".into())),
                }
            },
        )
        .unwrap();
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        assert!(record.degraded);
        assert_eq!(record.engine, "event");
        assert!(matches!(record.status, CaseStatus::Done { .. }));
    }
}
