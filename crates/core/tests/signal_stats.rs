//! `signal_stats` is the probability half of `workload_stats`.
//!
//! Aging reads only signal probabilities, so every BTI caller takes the
//! statistics from `MultiplierDesign::signal_stats`, which skips the timed
//! toggle pass. These tests pin that the split changes no number the aging
//! model sees: per-net probabilities and pattern counts, stress
//! probabilities and aging factors are bit-equal to the full
//! `workload_stats`, for every architecture, width, seed and pattern
//! count here. One count is not a multiple of the 64-lane batch; the
//! other is large enough that the `parallel` feature fans the sweep out
//! over two chunks.

use agemul::{MultiplierDesign, PatternSet};
use agemul_aging::{aging_factors, stress_probabilities, BtiModel};
use agemul_circuits::MultiplierKind;
use agemul_logic::Technology;
use agemul_netlist::{GateId, NetId};

const WIDTHS: [usize; 3] = [4, 8, 16];
const SEEDS: [u64; 2] = [1, 0x5EED];
const PATTERN_COUNTS: [usize; 2] = [64, 520];
const YEARS: [f64; 3] = [0.5, 3.0, 7.0];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn signal_stats_match_workload_stats_for_aging() {
    let bti = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.132);
    for kind in MultiplierKind::ALL {
        for width in WIDTHS {
            let design = MultiplierDesign::new(kind, width).expect("design");
            let netlist = design.circuit().netlist();
            for seed in SEEDS {
                for count in PATTERN_COUNTS {
                    let case = format!("{kind:?} {width}-bit seed {seed} × {count}");
                    let workload = PatternSet::uniform(width, count, seed);
                    let full = design.workload_stats(workload.pairs()).expect("full");
                    let signal = design.signal_stats(workload.pairs()).expect("signal");

                    assert_eq!(signal.pattern_count(), full.pattern_count(), "{case}");
                    assert_eq!(signal.pattern_count(), count as u64, "{case}");
                    for net in (0..netlist.net_count()).map(NetId::from_index) {
                        assert_eq!(
                            signal.net_high_probability(net).to_bits(),
                            full.net_high_probability(net).to_bits(),
                            "{case}: net {net:?}"
                        );
                    }
                    assert_eq!(
                        bits(&stress_probabilities(netlist, &signal)),
                        bits(&stress_probabilities(netlist, &full)),
                        "{case}: stress probabilities"
                    );
                    for years in YEARS {
                        assert_eq!(
                            bits(&aging_factors(netlist, &signal, &bti, years)),
                            bits(&aging_factors(netlist, &full, &bti, years)),
                            "{case}: aging factors at {years} years"
                        );
                    }

                    assert_eq!(signal.toggle_pattern_count(), 0, "{case}");
                    assert_eq!(signal.total_toggles(), 0, "{case}");
                    assert!(
                        (0..netlist.gate_count())
                            .map(GateId::from_index)
                            .all(|g| signal.gate_activity(g) == 0.0),
                        "{case}: signal_stats recorded switching activity"
                    );
                    assert_eq!(full.toggle_pattern_count(), count as u64, "{case}");
                }
            }
        }
    }
}
