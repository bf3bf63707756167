//! Output checks: served values against in-process library references,
//! and the tallies every workload reports.

use agemul::{quantize_factors, MultiplierDesign, PatternSet};
use agemul_aging::{aging_factors, BtiModel};
use agemul_conformance::Json;
use agemul_logic::Technology;

use crate::gen::Key;

/// Seven-year per-gate delay factor the workspace calibrates its BTI model
/// to (the anchor the `repro` context and the server both use).
pub const GATE_7Y_FACTOR: f64 = 1.132;

/// The workspace-calibrated BTI model.
pub fn bti() -> BtiModel {
    BtiModel::calibrated(Technology::ptm_32nm_hk(), GATE_7Y_FACTOR)
}

/// The two values a `profile` response carries about the profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delays {
    /// Mean sensitized delay, ns.
    pub avg_ns: f64,
    /// Longest sensitized delay, ns.
    pub max_ns: f64,
}

impl Delays {
    /// Bit-exact equality (the JSON codec round-trips `f64` exactly).
    pub fn same_bits(&self, other: &Delays) -> bool {
        self.avg_ns.to_bits() == other.avg_ns.to_bits()
            && self.max_ns.to_bits() == other.max_ns.to_bits()
    }
}

/// What one `profile` response said, once decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `ok: true` with a profile summary.
    Served {
        /// The summary.
        delays: Delays,
        /// Cache outcome label (`hit`, `miss`, `coalesced`).
        cache: String,
        /// Supervisor retries.
        retries: u64,
        /// Whether the request degraded to the event engine.
        degraded: bool,
    },
    /// `ok: false` with `overloaded: true`: shed by admission control.
    Shed,
    /// Any other failure: an error response, a malformed response, or a
    /// response to another request.
    Error(String),
}

/// Decodes the response to request `id`.
pub fn decode_reply(id: u64, response: &Json) -> Reply {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        if response.get("overloaded").and_then(Json::as_bool) == Some(true) {
            return Reply::Shed;
        }
        let error = response.get("error").and_then(Json::as_str).unwrap_or("?");
        return Reply::Error(format!("request {id}: {error}"));
    }
    if response.get("id").and_then(Json::as_u64) != Some(id) {
        return Reply::Error(format!("request {id}: response carries another id"));
    }
    let result = response.get("result");
    let num = |k: &str| result.and_then(|r| r.get(k)).and_then(Json::as_f64);
    let (Some(avg_ns), Some(max_ns)) = (num("avg_delay_ns"), num("max_delay_ns")) else {
        return Reply::Error(format!("request {id}: response has no delay summary"));
    };
    Reply::Served {
        delays: Delays { avg_ns, max_ns },
        cache: result
            .and_then(|r| r.get("cache"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        retries: response.get("retries").and_then(Json::as_u64).unwrap_or(0),
        degraded: response.get("degraded").and_then(Json::as_bool) == Some(true),
    }
}

/// The reference summary of `key`, computed from scratch through the
/// library: the key's uniform workload, its BTI factors snapped onto the
/// cache grid, and a fresh profile of the design under them.
///
/// # Errors
///
/// Rendered library errors.
pub fn reference(design: &MultiplierDesign, key: &Key, bti: &BtiModel) -> Result<Delays, String> {
    let workload = PatternSet::uniform(key.width, key.patterns, key.seed);
    let pairs = workload.pairs();
    let factors = if key.years > 0.0 {
        let stats = design.workload_stats(pairs).map_err(|e| e.to_string())?;
        Some(quantize_factors(&aging_factors(
            design.circuit().netlist(),
            &stats,
            bti,
            key.years,
        )))
    } else {
        None
    };
    let profile = design
        .profile(pairs, factors.as_deref())
        .map_err(|e| e.to_string())?;
    Ok(Delays {
        avg_ns: profile.avg_delay_ns(),
        max_ns: profile.max_delay_ns(),
    })
}

/// Counts over one run's operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error (transport or response).
    pub errors: u64,
    /// Operations shed by admission control.
    pub shed: u64,
    /// Operations whose output differs from the reference.
    pub wrong: u64,
    /// Supervisor retries reported by responses.
    pub retries: u64,
    /// Responses that degraded to the event engine.
    pub degraded: u64,
}

impl Tally {
    /// Operations that count as failed: errors, sheds and wrong outputs.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.wrong
    }

    /// Failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Folds in another tally.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.shed += other.shed;
        self.wrong += other.wrong;
        self.retries += other.retries;
        self.degraded += other.degraded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agemul_circuits::MultiplierKind;
    use agemul_serve::{response_error, response_ok, response_overloaded};

    fn served(id: u64, d: Delays) -> Json {
        response_ok(
            id,
            "level",
            0,
            false,
            Json::Obj(vec![
                ("ops".into(), Json::UInt(8)),
                ("avg_delay_ns".into(), Json::Num(d.avg_ns)),
                ("max_delay_ns".into(), Json::Num(d.max_ns)),
                ("cache".into(), Json::Str("hit".into())),
            ]),
        )
    }

    #[test]
    fn checker_catches_a_perturbed_value() {
        let key = Key {
            kind: MultiplierKind::ColumnBypass,
            width: 8,
            years: 7.0,
            patterns: 16,
            seed: 3,
        };
        let design = MultiplierDesign::new(key.kind, key.width).unwrap();
        let truth = reference(&design, &key, &bti()).unwrap();
        // The served value survives the wire encoding bit for bit...
        let wire = Json::parse(&served(4, truth).to_string()).unwrap();
        let Reply::Served { delays, .. } = decode_reply(4, &wire) else {
            panic!("not served");
        };
        assert!(delays.same_bits(&truth));
        // ...and one ulp of difference in either value is caught.
        for bumped in [
            Delays {
                avg_ns: f64::from_bits(truth.avg_ns.to_bits() + 1),
                ..truth
            },
            Delays {
                max_ns: f64::from_bits(truth.max_ns.to_bits() - 1),
                ..truth
            },
        ] {
            let Reply::Served { delays, .. } = decode_reply(4, &served(4, bumped)) else {
                panic!("not served");
            };
            assert!(!delays.same_bits(&truth));
        }
        // A reference for other aging differs too.
        let fresh = reference(&design, &Key { years: 0.0, ..key }, &bti()).unwrap();
        assert!(!fresh.same_bits(&truth));
    }

    #[test]
    fn failures_are_classified() {
        let d = Delays {
            avg_ns: 1.0,
            max_ns: 2.0,
        };
        assert!(matches!(decode_reply(5, &served(6, d)), Reply::Error(_)));
        assert!(matches!(
            decode_reply(5, &response_error(5, "boom")),
            Reply::Error(_)
        ));
        assert_eq!(decode_reply(0, &response_overloaded()), Reply::Shed);
        let mut t = Tally {
            attempted: 10,
            errors: 1,
            shed: 1,
            wrong: 1,
            ..Tally::default()
        };
        assert_eq!(t.failed(), 3);
        t.add(&t.clone());
        assert_eq!((t.attempted, t.failed()), (20, 6));
    }
}
