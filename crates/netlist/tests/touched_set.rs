//! `LevelSim`'s touched set against an independent oracle, and the kernel's
//! behaviour around it (state resets, cancellation).
//!
//! The touched set ([`LevelSim::for_each_touched_gate`]) is what the
//! incremental aging sweep keys pattern reuse on, so it must be exact: a
//! gate is touched by a step iff one of its input nets changed value at
//! least once during that step. The oracle derives that set from
//! `EventSim`'s waveform trace — every net with at least one trace event
//! in the step, mapped through the topology's fanout — so it shares no
//! bookkeeping with the levelized kernel's dirty bitset.

use std::collections::BTreeSet;
use std::time::Duration;

use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_conformance::gen::{arb_gate, build_netlist, input_vector, GEN_INPUTS};
use agemul_logic::{DelayModel, Logic};
use agemul_netlist::{
    CancelToken, DelayAssignment, EventSim, FaultKind, FaultOverlay, GateId, LevelSim, NetId,
    Netlist, NetlistError, Topology,
};
use proptest::prelude::*;

/// The kernel's touched set, checked against its bitset form.
fn touched(sim: &LevelSim) -> Vec<usize> {
    let mut gates = Vec::new();
    sim.for_each_touched_gate(|g| gates.push(g));
    assert!(gates.windows(2).all(|w| w[0] < w[1]), "not ascending");
    let words = sim.touched_words();
    let from_words: Vec<usize> = (0..words.len() * 64)
        .filter(|&g| words[g / 64] >> (g % 64) & 1 == 1)
        .collect();
    assert_eq!(gates, from_words);
    gates
}

/// The oracle: the gates reading a net that carries at least one of the
/// step's trace events.
fn oracle(topology: &Topology, events: &[agemul_netlist::TraceEvent]) -> Vec<usize> {
    let nets: BTreeSet<NetId> = events.iter().map(|e| e.net).collect();
    let gates: BTreeSet<usize> = nets
        .iter()
        .flat_map(|&n| topology.fanout(n).iter().map(|g| g.index()))
        .collect();
    gates.into_iter().collect()
}

/// Aged factors cycled over the gates plus one inflation hot spot.
fn assignment(n: &Netlist, factors: &[f64], hot_gate: u16, hot_factor: f64) -> DelayAssignment {
    let per_gate: Vec<f64> = (0..n.gate_count())
        .map(|g| factors[g % factors.len()])
        .collect();
    let mut d = DelayAssignment::with_factors(n, &DelayModel::nominal(), &per_gate).unwrap();
    if n.gate_count() > 0 {
        d.inflate(
            GateId::from_index(hot_gate as usize % n.gate_count()),
            hot_factor,
        );
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over random DAGs (tri-state buffers included), inflated delays and
    /// an optional fault overlay, the touched set after every step equals
    /// the trace oracle.
    #[test]
    fn touched_set_matches_event_trace_oracle(
        recipes in proptest::collection::vec(arb_gate(), 1..60),
        seqs in proptest::collection::vec(any::<u64>(), 2..10),
        factors in proptest::collection::vec(0.5f64..4.0, 1..20),
        hot_gate in any::<u16>(),
        hot_factor in 1.0f64..8.0,
        faulty in any::<bool>(),
        fault_net in any::<u16>(),
        fault_kind in prop_oneof![
            Just(FaultKind::StuckAt0),
            Just(FaultKind::StuckAt1),
            Just(FaultKind::Flip),
        ],
    ) {
        let n = build_netlist(&recipes, GEN_INPUTS);
        let topo = n.topology().unwrap();
        let delays = assignment(&n, &factors, hot_gate, hot_factor);
        let mut level = LevelSim::new(&n, &topo, delays.clone());
        let mut event = EventSim::new(&n, &topo, delays);
        if faulty {
            let mut o = FaultOverlay::new(&n);
            let net = NetId::from_index(fault_net as usize % n.net_count());
            o.add(net, fault_kind, 1).unwrap();
            level.set_fault_overlay(o.clone());
            event.set_fault_overlay(o);
        }
        event.enable_tracing(0);
        for (i, &bits) in seqs.iter().enumerate() {
            let v = input_vector(bits, GEN_INPUTS);
            event.clear_trace();
            let tl = if i == 0 {
                level.settle(&v).unwrap();
                event.settle(&v).unwrap();
                None
            } else {
                Some((level.step(&v).unwrap(), event.step(&v).unwrap()))
            };
            if let Some((tl, te)) = tl {
                prop_assert_eq!(tl, te);
            }
            prop_assert_eq!(
                touched(&level),
                oracle(&topo, event.trace()),
                "step {} on bits {:#x}",
                i,
                bits
            );
        }
    }

    /// `reset`, `restore_values` and `retime` each empty the touched set,
    /// and the next step reports exactly what the same step reports
    /// without the earlier step in between. (The references replay the
    /// same history: tri-state holds make settled values depend on it.)
    #[test]
    fn no_stale_gate_survives_reset_restore_or_retime(
        recipes in proptest::collection::vec(arb_gate(), 1..60),
        bits in proptest::collection::vec(any::<u64>(), 3),
        factors in proptest::collection::vec(0.5f64..4.0, 1..20),
        hot_gate in any::<u16>(),
    ) {
        let n = build_netlist(&recipes, GEN_INPUTS);
        let topo = n.topology().unwrap();
        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let aged = assignment(&n, &factors, hot_gate, 3.0);
        let [v0, v1, v2] = [0, 1, 2].map(|i| input_vector(bits[i], GEN_INPUTS));

        // Reset and retime: the reference is a fresh kernel settled on v0
        // and stepped to v2.
        let fresh = |delays: &DelayAssignment| {
            let mut fresh = LevelSim::new(&n, &topo, delays.clone());
            fresh.settle(&v0).unwrap();
            let t = fresh.step(&v2).unwrap();
            (t, touched(&fresh))
        };

        let mut sim = LevelSim::new(&n, &topo, nominal.clone());
        sim.settle(&v0).unwrap();
        sim.step(&v1).unwrap();
        sim.reset();
        prop_assert!(touched(&sim).is_empty());
        sim.settle(&v0).unwrap();
        let t = sim.step(&v2).unwrap();
        prop_assert_eq!((t, touched(&sim)), fresh(&nominal));

        sim.step(&v1).unwrap();
        sim.retime(&aged);
        prop_assert!(touched(&sim).is_empty());
        sim.settle(&v0).unwrap();
        let t = sim.step(&v2).unwrap();
        prop_assert_eq!((t, touched(&sim)), fresh(&aged));

        // Restore: the reference is the step to v2 straight from the
        // snapshotted state.
        let snap = sim.snapshot_values();
        let t = sim.step(&v0).unwrap();
        let reference = (t, touched(&sim));
        sim.restore_values(&snap);
        sim.step(&v1).unwrap();
        sim.restore_values(&snap);
        prop_assert!(touched(&sim).is_empty());
        let t = sim.step(&v0).unwrap();
        prop_assert_eq!((t, touched(&sim)), reference);
    }
}

/// Every net's settled value.
fn values(n: &Netlist, sim: &LevelSim) -> Vec<Logic> {
    (0..n.net_count())
        .map(|i| sim.value(NetId::from_index(i)))
        .collect()
}

/// A deadline that fires during a step of a 16-bit column-bypass
/// multiplier returns `Cancelled` and rolls the settled values back to
/// the pre-step state; the kernel then settles and steps exactly like a
/// fresh one. The budgets grow from zero (cancelled at the first poll,
/// after the changed inputs were published) until a step outruns its
/// deadline, so most attempts land inside the gate sweep.
#[test]
fn cancel_mid_step_on_cb16_rolls_back_and_recovers() {
    let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 16).unwrap();
    let n = m.netlist();
    let topo = n.topology().unwrap();
    let delays = DelayAssignment::uniform(n, &DelayModel::nominal());
    let before = m.encode_inputs(0x1234, 0x0f0f).unwrap();
    let after = m.encode_inputs(0xfedc, 0xa5a5).unwrap();

    let mut fresh = LevelSim::new(n, &topo, delays.clone());
    fresh.settle(&before).unwrap();
    let expect = fresh.step(&after).unwrap();
    let expect_touched = touched(&fresh);
    let expect_values = values(n, &fresh);

    let mut sim = LevelSim::new(n, &topo, delays);
    let mut cancelled = 0;
    let mut mid_sweep = 0;
    for budget_us in (0..400).step_by(2) {
        // Tri-state holds make the settled state history-dependent, so
        // every attempt starts from the fresh kernel's state.
        sim.set_cancel_token(None);
        sim.reset();
        sim.settle(&before).unwrap();
        let pre = values(n, &sim);
        sim.set_cancel_token(Some(CancelToken::with_deadline(Duration::from_micros(
            budget_us,
        ))));
        match sim.step(&after) {
            Err(err) => {
                assert_eq!(err, NetlistError::Cancelled);
                assert_eq!(values(n, &sim), pre, "budget {budget_us} µs: no roll-back");
                cancelled += 1;
                if sim.gate_toggle_counts().iter().any(|&c| c > 0) {
                    mid_sweep += 1;
                }
            }
            Ok(t) => {
                assert_eq!(t, expect);
                break;
            }
        }
        sim.set_cancel_token(None);
        sim.settle(&before).unwrap();
        let t = sim.step(&after).unwrap();
        assert_eq!(t, expect, "budget {budget_us} µs");
        assert_eq!(touched(&sim), expect_touched);
        assert_eq!(values(n, &sim), expect_values);
    }
    assert!(cancelled > 0, "the zero budget must cancel");
    eprintln!("{cancelled} cancelled steps, {mid_sweep} inside the gate sweep");
}
