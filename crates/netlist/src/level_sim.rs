//! Levelized timed simulation kernel.
//!
//! [`LevelSim`] computes the same femtosecond-exact two-vector timing as
//! [`EventSim`](crate::EventSim) without a priority queue: the netlist is
//! compiled once into a [`TimedPlan`](crate::plan::TimedPlan) (flat gate
//! arrays + per-gate integer-femtosecond delays + CSR fanout), and each
//! pattern is simulated as one ascending sweep over the gates that are
//! actually *dirty*.
//!
//! # Why builder order is exact
//!
//! In a combinational DAG every gate's output waveform for a step is a pure
//! function of its input nets' complete waveforms. Builder order is
//! topological — [`Netlist::add_gate`] only accepts nets that already
//! exist, so every gate driving one of gate `g`'s inputs has a smaller
//! index than `g`. Sweeping the dirty gates in ascending index order
//! therefore reaches `g` only after each of its input waveforms is final,
//! and `g`'s output waveform can be produced in one sequential merge that
//! replays `EventSim`'s exact rules:
//!
//! * **delta-cycle atomicity** — all input events at a timestamp are applied
//!   before the gate re-evaluates, and a pending output transition due at or
//!   before that timestamp commits first;
//! * **inertial filtering** — at most one pending output transition; a
//!   re-evaluation that disagrees retracts it, and a pulse that collapses
//!   back to the committed value schedules nothing;
//! * **tri-state hold** — a disabled `TBUF` evaluates to "no event", leaving
//!   both the committed value and any pending transition untouched;
//! * **fault coercion** — every candidate output value passes through the
//!   attached [`FaultOverlay`](crate::FaultOverlay)'s scalar coercion before
//!   scheduling, exactly where `EventSim` applies it.
//!
//! One `EventSim` behaviour is load-bearing for the proof: with strictly
//! positive gate delays every timestamp runs exactly one delta cycle
//! (commits at `t` only produce events later than `t`), so a net's step
//! waveform has strictly increasing times — at most one event per input
//! per merge timestamp — and the per-gate merge order is well defined.
//! [`LevelSim::new`] therefore rejects zero-delay assignments, which the
//! delay models never produce (`EventSim` tolerates them but the two
//! kernels could then disagree on glitch counts).
//!
//! # The schedule: one dirty bit per gate
//!
//! Between consecutive patterns only the fan-out cones of *changed* input
//! bits are touched: a changed input (or a gate that publishes a non-empty
//! waveform) sets its readers' bits in a per-gate bitset, and the sweep
//! scans that bitset word by word in ascending order. A reader always has
//! a larger index than the gate that dirtied it, so a bit set during the
//! sweep is never behind the scan position and each gate is merged at most
//! once. Gates outside every cone are never visited and their nets keep
//! their settled values. On bypass multipliers, where a typical workload
//! pattern flips a fraction of the operand bits, this skips most of the
//! array per pattern. The bitset is cleared at the start of every step,
//! so after the step it is exactly the pattern's *touched set*
//! ([`LevelSim::for_each_touched_gate`]).
//!
//! The cancel token, when one is attached, is polled once per non-empty
//! bitset word.
//!
//! # Waveforms and commit-on-publish
//!
//! Waveforms live in one flat arena reset per step. Every published wave —
//! including a changed input's single event at `t = 0` — is terminated by
//! a `u64::MAX` sentinel (arena word 0 is a permanent empty wave), so the
//! merge advances its cursors by compare-and-select and never bounds-checks
//! a wave's length. A gate's merge writes its output straight into the
//! arena past the published prefix; publishing it is a length bump.
//!
//! When a wave is published the net's new settled value is written into
//! the value array at once, and its previous value moves into the net's
//! [`WaveMeta`]. A later merge reads an active input's pre-step value
//! from that record and an inactive input's from the value array, which a
//! step only changes for nets that carried events. Per-net epoch stamps
//! make "no events this step" a constant-time check instead of a clear.

use agemul_logic::{GateKind, Logic};

use crate::event_sim::FS_PER_NS;
use crate::plan::TimedPlan;
use crate::{DelayAssignment, NetId, Netlist, NetlistError, PatternTiming, Topology};

/// Levelized timing simulator: femtosecond-identical to
/// [`EventSim`](crate::EventSim), built for profiling throughput.
///
/// The public surface mirrors `EventSim` (`settle` / `step` /
/// [`PatternTiming`] / toggle counters / fault overlays) so the profiling
/// call sites can switch kernels without changing semantics; waveform
/// tracing stays `EventSim`-only. See the module docs for the exactness
/// argument, the dirty-bit schedule, and commit-on-publish.
///
/// # Example
///
/// ```
/// use agemul_logic::{DelayModel, GateKind, Logic};
/// use agemul_netlist::{DelayAssignment, EventSim, LevelSim, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let x = n.add_gate(GateKind::Not, &[a])?;
/// let y = n.add_gate(GateKind::Not, &[x])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
/// let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());
///
/// let mut level = LevelSim::new(&n, &topo, delays.clone());
/// let mut event = EventSim::new(&n, &topo, delays);
/// level.settle(&[Logic::Zero])?;
/// event.settle(&[Logic::Zero])?;
/// assert_eq!(level.step(&[Logic::One])?, event.step(&[Logic::One])?);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct LevelSim<'a> {
    netlist: &'a Netlist,
    topology: &'a Topology,
    plan: TimedPlan,
    /// Settled value of every net. During a step a net's entry is replaced
    /// the moment its waveform is published (its pre-step value moves into
    /// the net's [`WaveMeta`]).
    values: Vec<Logic>,
    /// The re-initialized settled state (constants + one functional sweep,
    /// through the overlay if attached), captured by [`reinit_values`]
    /// (Self::reinit_values). [`retime`](Self::retime) restores it with one
    /// memcpy instead of re-running the functional sweep, so a retimed
    /// kernel starts from byte-for-byte the state a freshly constructed
    /// one would — including tri-state hold history, which makes settled
    /// values history-dependent wherever a disabled `TBUF` sits.
    init_values: Vec<Logic>,
    /// Flat per-step waveform storage. Each event is packed as
    /// `time_fs << 2 | logic` ([`pack`]) and every wave ends in a
    /// [`SENTINEL`]; word 0 is a permanent empty wave. The first `top`
    /// words of a step are published; a merge writes its output past
    /// them, after growing the arena to the merge's output bound.
    arena: Vec<u64>,
    /// Per-net wave bookkeeping, one 16-byte record per net so a waveform
    /// lookup touches a single cache line.
    waves: Vec<WaveMeta>,
    /// The current step's stamp; never 0, which marks "no wave" (see
    /// [`invalidate_step`](Self::invalidate_step)).
    epoch: u32,
    /// One bit per gate (`g / 64`, bit `g % 64`): dirty during a step and
    /// the step's touched set after it.
    touched: Vec<u64>,
    toggles_per_gate: Vec<u64>,
    overlay: Option<crate::FaultOverlay>,
    /// Per-arity, per-kind truth tables over packed [`Logic`]
    /// discriminants (2 bits per input, input 0 most significant),
    /// tabulated once by [`eval_code`] — [`GateKind::eval`] plus the
    /// tri-state [`HOLD`] — so the merge evaluates a gate with one load.
    /// `luts[k - 1][kind]` serves arity `k`.
    luts: [[[u8; 64]; GateKind::ALL.len()]; 3],
    /// Cooperative cancellation (None = never cancelled): polled once per
    /// non-empty dirty-bitset word during a step.
    cancel: Option<crate::CancelToken>,
}

/// All four [`Logic`] levels, indexed by enum discriminant.
const LEVELS: [Logic; 4] = [Logic::Zero, Logic::One, Logic::Z, Logic::X];

/// Wave terminator, and the "no pending transition" marker in the merge.
/// Its time field (`u64::MAX >> 2`) exceeds every real timestamp (see
/// [`assert_delay_contract`]), so it never compares due and never matches
/// an input event's time.
const SENTINEL: u64 = u64::MAX;

/// The evaluation code for "disabled tri-state: hold", next to the four
/// [`Logic`] discriminants.
const HOLD: u8 = 4;

/// Per-net wave bookkeeping: net `n`'s `len` events this step are
/// `arena[start..][..len]`, followed by a [`SENTINEL`], and `prev` is the
/// value it settled at before this step — valid iff `epoch` matches the
/// simulator's.
#[derive(Clone, Copy, Debug)]
struct WaveMeta {
    epoch: u32,
    start: u32,
    len: u32,
    prev: Logic,
}

/// Packs an event into one arena word: femtosecond time in the upper 62
/// bits, [`Logic`] discriminant in the lower 2.
#[inline(always)]
fn pack(t: u64, v: Logic) -> u64 {
    (t << 2) | v as u64
}

/// Splits the arena into its published prefix `arena[..top]` and the
/// space a merge writes its output to, first growing the arena so that
/// space holds the largest possible output: one event per input event (a
/// merge commits at most one transition per distinct input timestamp), a
/// final flush, and the sentinel. `Vec::resize` grows the capacity
/// geometrically but only initializes what is asked for.
#[inline]
fn merge_space(arena: &mut Vec<u64>, top: usize, input_events: usize) -> (&[u64], &mut [u64]) {
    let need = top + input_events + 2;
    if arena.len() < need {
        arena.resize(need, SENTINEL);
    }
    let (published, out) = arena.split_at_mut(top);
    (published, out)
}

/// `EventSim`'s gate evaluation as a code: a [`Logic`] discriminant, or
/// [`HOLD`] for a `TBUF` whose enable reads low (no event: the committed
/// value and any pending transition survive).
fn eval_code(kind: GateKind, inputs: &[Logic]) -> u8 {
    if kind == GateKind::Tbuf {
        return match inputs[1].read().to_bool() {
            Some(true) => inputs[0].read() as u8,
            Some(false) => HOLD,
            None => Logic::X as u8,
        };
    }
    kind.eval(inputs) as u8
}

/// Asserts the two delay invariants every `LevelSim` schedule must satisfy:
/// strictly positive per-gate delays (exactness; see the module docs) and
/// enough packed-timestamp headroom for the deepest path. Shared by
/// [`LevelSim::new`] and [`LevelSim::retime`] so a retimed kernel can never
/// hold delays a freshly built one would reject.
fn assert_delay_contract(max_level: u32, delays_fs: impl Iterator<Item = u64>) {
    let mut max_delay_fs = 0u64;
    for (g, fs) in delays_fs.enumerate() {
        assert!(
            fs > 0,
            "LevelSim requires strictly positive gate delays; gate {g} has 0 fs"
        );
        max_delay_fs = max_delay_fs.max(fs);
    }
    // Packed-event capacity: the latest possible event time in one step
    // is bounded by depth × max gate delay (every waveform time is some
    // path's delay sum). 62 bits of femtoseconds ≈ 77 simulated
    // minutes — unreachable for any physical delay model.
    assert!(
        (u64::from(max_level) + 1).saturating_mul(max_delay_fs) < (1 << 62),
        "gate delays too large for packed femtosecond timestamps"
    );
}

impl<'a> LevelSim<'a> {
    /// Compiles the netlist + `delays` into a timing schedule and settles
    /// the initial (constants-only) state, like
    /// [`EventSim::new`](crate::EventSim::new).
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover exactly the netlist's gates, or if
    /// any gate delay rounds to zero femtoseconds (the exactness contract
    /// needs strictly positive delays; see the module docs).
    pub fn new(netlist: &'a Netlist, topology: &'a Topology, delays: DelayAssignment) -> Self {
        let plan = TimedPlan::new(netlist, topology, &delays);
        assert_delay_contract(
            plan.max_level(),
            (0..plan.gate_count()).map(|g| plan.delay_fs(g)),
        );

        let mut luts = [[[Logic::X as u8; 64]; GateKind::ALL.len()]; 3];
        for (ki, kind) in GateKind::ALL.into_iter().enumerate() {
            for (k, lut) in luts.iter_mut().enumerate() {
                let arity = k + 1;
                if !kind.accepts_arity(arity) {
                    continue;
                }
                for (idx, slot) in lut[ki].iter_mut().enumerate().take(1 << (2 * arity)) {
                    let mut ins = [Logic::X; 3];
                    for (i, v) in ins[..arity].iter_mut().enumerate() {
                        *v = LEVELS[(idx >> (2 * (arity - 1 - i))) & 3];
                    }
                    *slot = eval_code(kind, &ins[..arity]);
                }
            }
        }

        let meta = WaveMeta {
            epoch: 0,
            start: 0,
            len: 0,
            prev: Logic::X,
        };
        let mut sim = LevelSim {
            netlist,
            topology,
            plan,
            values: vec![Logic::X; netlist.net_count()],
            init_values: Vec::new(),
            arena: vec![SENTINEL],
            waves: vec![meta; netlist.net_count()],
            epoch: 0,
            touched: vec![0; netlist.gate_count().div_ceil(64)],
            toggles_per_gate: vec![0; netlist.gate_count()],
            overlay: None,
            luts,
            cancel: None,
        };
        sim.reinit_values();
        sim
    }

    /// Swaps in a new per-gate delay assignment **without rebuilding** the
    /// compiled schedule: the flat gate arrays, CSR fanout, truth-table
    /// LUTs, waveform arena, and dirty bitset are all topology-invariant
    /// and are reused as-is. Only the delay-dependent slice of the
    /// [`TimedPlan`](crate::plan::TimedPlan) is rewritten, in place, with
    /// zero allocation — this is what makes per-corner Monte Carlo
    /// profiling an order of magnitude cheaper than constructing a fresh
    /// kernel per corner.
    ///
    /// After the swap the kernel is in byte-for-byte the state a freshly
    /// constructed `LevelSim::new(netlist, topology, delays)` (plus the
    /// same overlay, if one is attached) would be in: the settled values
    /// are restored from the cached re-initialization snapshot with one
    /// memcpy — tri-state holds make settled values history-dependent, so
    /// carrying the previous corner's state over would not be equivalent —
    /// and the cumulative toggle counters and touched set are cleared. A
    /// retimed kernel settled on the same vector as a fresh kernel
    /// therefore produces femtosecond-identical [`step`](Self::step)
    /// results (property-pinned in the `retime_equiv` suite). Any attached
    /// [`FaultOverlay`](crate::FaultOverlay) and cancel token survive.
    ///
    /// # Panics
    ///
    /// Panics under exactly [`new`](Self::new)'s delay contract: `delays`
    /// must cover the netlist's gates, every delay must be strictly
    /// positive, and the packed-timestamp capacity bound must hold. The
    /// checks run *before* the swap, so a rejected assignment leaves the
    /// kernel's previous delays intact.
    pub fn retime(&mut self, delays: &DelayAssignment) {
        assert_eq!(
            delays.len(),
            self.netlist.gate_count(),
            "delay assignment covers {} gates, netlist has {}",
            delays.len(),
            self.netlist.gate_count()
        );
        assert_delay_contract(
            self.plan.max_level(),
            (0..delays.len()).map(|g| delays.delay_fs(crate::GateId::from_index(g))),
        );
        self.plan.set_delays(delays);
        self.reset();
    }

    /// Restores the kernel to its post-construction state under the
    /// *current* delays: settled values come back from the cached
    /// re-initialization snapshot with one memcpy, cumulative toggle
    /// counters and the touched set clear, and stale waveforms are
    /// invalidated. Tri-state holds make settled values history-dependent,
    /// so this is the only way to make a reused kernel behave exactly like
    /// a fresh one — it is the state-restore half of
    /// [`retime`](Self::retime), exposed for callers that replay workloads
    /// without changing delays. Any attached
    /// [`FaultOverlay`](crate::FaultOverlay) and cancel token survive.
    pub fn reset(&mut self) {
        self.values.copy_from_slice(&self.init_values);
        self.toggles_per_gate.iter_mut().for_each(|c| *c = 0);
        self.invalidate_step();
    }

    /// Forgets the last step: its waveforms can no longer leak into the
    /// next step's merges, and its touched set is cleared.
    fn invalidate_step(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear every stamp so none aliases a later epoch.
            self.waves.iter_mut().for_each(|m| m.epoch = 0);
            self.epoch = 1;
        }
        self.touched.fill(0);
    }

    /// Installs a [`CancelToken`](crate::CancelToken): subsequent
    /// [`step`](Self::step)/[`settle`](Self::settle) calls poll it once per
    /// non-empty dirty-bitset word and abort with
    /// [`NetlistError::Cancelled`] once it fires. A cancelled step rolls
    /// the settled values back to their pre-step state; its toggle counts
    /// are unspecified, so [`settle`](Self::settle) before measuring
    /// again. Pass `None` to detach.
    pub fn set_cancel_token(&mut self, token: Option<crate::CancelToken>) {
        self.cancel = token;
    }

    /// Attaches a [`FaultOverlay`](crate::FaultOverlay); every net value is
    /// passed through its scalar (lane-0) coercion from now on, exactly as
    /// in [`EventSim::set_fault_overlay`](crate::EventSim::set_fault_overlay).
    /// The simulator state is re-initialized; call [`settle`](Self::settle)
    /// before measuring transitions.
    pub fn set_fault_overlay(&mut self, overlay: crate::FaultOverlay) {
        self.overlay = Some(overlay);
        self.reinit_values();
    }

    /// Removes the fault overlay and re-initializes the simulator state.
    pub fn clear_fault_overlay(&mut self) {
        self.overlay = None;
        self.reinit_values();
    }

    /// Re-derives the initial settled values (constants + one functional
    /// sweep, both through the overlay's coercion if one is attached) —
    /// byte-for-byte the `EventSim` re-initialization.
    fn reinit_values(&mut self) {
        self.values.fill(Logic::X);
        for (idx, info) in self.netlist.nets.iter().enumerate() {
            if let Some(crate::netlist::Driver::Const(v)) = info.driver {
                self.values[idx] = v;
            }
        }
        if let Some(o) = &self.overlay {
            for (idx, v) in self.values.iter_mut().enumerate() {
                *v = o.apply_scalar(idx, *v);
            }
        }
        let netlist = self.netlist;
        let mut scratch = Vec::with_capacity(self.plan.max_arity());
        for gate in netlist.gates() {
            scratch.clear();
            scratch.extend(gate.inputs().iter().map(|i| self.values[i.index()]));
            let out = gate.output().index();
            let v = gate.kind().eval(&scratch);
            self.values[out] = match &self.overlay {
                Some(o) => o.apply_scalar(out, v),
                None => v,
            };
        }
        self.init_values.clear();
        self.init_values.extend_from_slice(&self.values);
    }

    /// Applies the overlay's scalar coercion to a candidate value of `net`.
    #[inline]
    fn coerce(&self, net: usize, v: Logic) -> Logic {
        match &self.overlay {
            Some(o) => o.apply_scalar(net, v),
            None => v,
        }
    }

    /// The overlay's coercion of `net` as a table over evaluation codes
    /// (identity without an overlay; [`HOLD`] always maps to itself).
    #[inline]
    fn coercion(&self, net: usize) -> [u8; 5] {
        let mut co = [0, 1, 2, 3, HOLD];
        if let Some(o) = &self.overlay {
            for (c, &l) in co.iter_mut().zip(&LEVELS) {
                *c = o.apply_scalar(net, l) as u8;
            }
        }
        co
    }

    /// Applies `inputs` and runs to quiescence, discarding timing and
    /// clearing the per-gate toggle counters (the "previous vector" setup).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input count.
    pub fn settle(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        self.step(inputs)?;
        self.reset_toggle_counts();
        Ok(())
    }

    /// Applies `inputs` on top of the current state and reports the
    /// transition's timing, bit-identical to
    /// [`EventSim::step`](crate::EventSim::step).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input count, or
    /// [`NetlistError::Cancelled`] once an attached cancel token fires (the
    /// settled values are then rolled back to their pre-step state).
    pub fn step(&mut self, inputs: &[Logic]) -> Result<PatternTiming, NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::WidthMismatch {
                expected: self.netlist.input_count(),
                got: inputs.len(),
            });
        }
        self.invalidate_step();
        let epoch = self.epoch;

        let mut timing = PatternTiming::default();
        let mut last_out_fs: u64 = 0;
        // Published arena prefix; word 0 is the shared empty wave.
        let mut top = 1usize;

        // Seed: changed inputs become single-event waveforms at t = 0 and
        // mark their fanout cones dirty. Unchanged inputs touch nothing —
        // this is where incremental re-simulation starts.
        for (&net, &v) in self.netlist.inputs().iter().zip(inputs) {
            let idx = net.index();
            let v = self.coerce(idx, v);
            let prev = self.values[idx];
            if v == prev {
                continue;
            }
            if self.arena.len() < top + 2 {
                self.arena.resize(top + 2, SENTINEL);
            }
            self.waves[idx] = WaveMeta {
                epoch,
                start: top as u32,
                len: 1,
                prev,
            };
            self.arena[top] = pack(0, v);
            self.arena[top + 1] = SENTINEL;
            top += 2;
            self.values[idx] = v;
            timing.events += 1;
            if self.topology.is_output(net) {
                timing.output_toggles += 1;
            }
            self.mark_fanout(idx);
        }

        // Sweep the dirty bitset in ascending gate order. A merge only sets
        // bits of gates after the current one, so the lowest unvisited bit
        // of the current word is always the next gate.
        for w in 0..self.touched.len() {
            if self.touched[w] == 0 {
                continue;
            }
            if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                self.roll_back();
                return Err(NetlistError::Cancelled);
            }
            let mut visited = 0u64;
            loop {
                let rest = self.touched[w] & !visited;
                if rest == 0 {
                    break;
                }
                let bit = rest & rest.wrapping_neg();
                visited |= bit;
                let g = w * 64 + bit.trailing_zeros() as usize;
                let len = self.compute_wave(g, top);
                if len > 0 {
                    self.publish(g, top, len, &mut timing, &mut last_out_fs);
                    top += len + 1;
                }
            }
        }

        timing.delay_ns = last_out_fs as f64 / FS_PER_NS;
        Ok(timing)
    }

    /// Undoes a cancelled step's commit-on-publish: every net published in
    /// the current epoch gets its pre-step value back, so the kernel is
    /// left in the consistent state the step started from.
    #[cold]
    fn roll_back(&mut self) {
        for (v, m) in self.values.iter_mut().zip(&self.waves) {
            if m.epoch == self.epoch {
                *v = m.prev;
            }
        }
        self.invalidate_step();
    }

    /// Merges gate `g`'s input waveforms into its output waveform, written
    /// sentinel-terminated at `arena[top..]`, and returns its event count.
    ///
    /// Dispatches on arity so the hot 1–3-input shapes run with fixed-size
    /// cursor state in registers and a truth-table evaluation (the
    /// interior of the profiling hot loop); wider gates take the
    /// heap-backed generic path.
    #[inline]
    fn compute_wave(&mut self, g: usize, top: usize) -> usize {
        match self.plan.inputs_of(g).len() {
            1 => self.merge_wave::<1>(g, top),
            2 => self.merge_wave::<2>(g, top),
            3 => self.merge_wave::<3>(g, top),
            _ => self.merge_wave_dyn(g, top),
        }
    }

    /// The arity-`K` merge, replaying `EventSim`'s commit/evaluate/schedule
    /// rules (see the module docs) with selects instead of branches. `K`
    /// must equal gate `g`'s input count.
    fn merge_wave<const K: usize>(&mut self, g: usize, top: usize) -> usize {
        let inputs = self.plan.inputs_of(g);
        debug_assert_eq!(inputs.len(), K);
        let out_net = self.plan.output(g);
        let delay = self.plan.delay_fs(g);
        let co = self.coercion(out_net);

        // Per input: arena cursor (word 0 = the empty wave for an input
        // without events). `idx` packs every input's current value, input 0
        // most significant — the LUT index.
        let mut cursor = [0usize; K];
        let mut idx = 0usize;
        let mut input_events = 0usize;
        for i in 0..K {
            let n = inputs[i] as usize;
            let m = self.waves[n];
            let active = m.epoch == self.epoch;
            cursor[i] = if active { m.start as usize } else { 0 };
            input_events += if active { m.len as usize } else { 0 };
            let v = if active { m.prev } else { self.values[n] };
            idx = (idx << 2) | v as usize;
        }
        let (published, out) = merge_space(&mut self.arena, top, input_events);
        let lut = &self.luts[K - 1][self.plan.kind(g) as usize];
        // Each input's head event, cached in registers.
        let mut next = cursor.map(|c| published[c]);
        // `values[out_net]` is still pre-step: only this merge's publish
        // writes it.
        let mut committed = self.values[out_net] as u64;
        // The pending output transition, packed like an arena event;
        // SENTINEL means none.
        let mut pending = SENTINEL;
        let mut len = 0usize;

        loop {
            // Next input-event timestamp across all cursors; packed events
            // order by time when compared whole.
            let mut m = SENTINEL;
            for &e in &next {
                m = m.min(e);
            }
            if m == SENTINEL {
                break;
            }
            let t_now = m >> 2;
            // Delta-cycle order at `t_now`: the pending output transition
            // commits first if due (written unconditionally, kept only if
            // due), then every input event at `t_now` applies (at most one
            // per input), then the gate evaluates once.
            let due = pending >> 2 <= t_now;
            out[len] = pending;
            len += due as usize;
            committed = if due { pending & 3 } else { committed };
            pending = if due { SENTINEL } else { pending };
            for i in 0..K {
                let e = next[i];
                let hit = e >> 2 == t_now;
                let shift = 2 * (K - 1 - i);
                let applied = (idx & !(3 << shift)) | ((e & 3) as usize) << shift;
                idx = if hit { applied } else { idx };
                cursor[i] += hit as usize;
                next[i] = published[cursor[i]];
            }
            let v = co[lut[idx] as usize];
            // EventSim::schedule, minus the queue: at most one pending
            // transition, same-value keeps the earlier arrival, a
            // disagreement retracts, a collapse back to `committed` cancels,
            // and a tri-state hold leaves everything as it was.
            let v = u64::from(v);
            let cand = ((t_now + delay) << 2) | (v & 3);
            let same = pending != SENTINEL && pending & 3 == v;
            let fresh = if v == committed { SENTINEL } else { cand };
            let scheduled = if same { pending.min(cand) } else { fresh };
            pending = if v == u64::from(HOLD) {
                pending
            } else {
                scheduled
            };
        }
        // Inputs exhausted: a surviving pending transition commits when the
        // event queue would have drained to it.
        out[len] = pending;
        len += (pending != SENTINEL) as usize;
        out[len] = SENTINEL;
        len
    }

    /// The rare wide-gate merge (arity > 3): identical rules, heap-backed
    /// per-call state and [`eval_code`] instead of a truth table.
    fn merge_wave_dyn(&mut self, g: usize, top: usize) -> usize {
        let inputs = self.plan.inputs_of(g);
        let out_net = self.plan.output(g);
        let delay = self.plan.delay_fs(g);
        let kind = self.plan.kind(g);
        let co = self.coercion(out_net);

        let mut cursor = Vec::with_capacity(inputs.len());
        let mut cur = Vec::with_capacity(inputs.len());
        let mut input_events = 0usize;
        for &n in inputs {
            let m = self.waves[n as usize];
            let active = m.epoch == self.epoch;
            cursor.push(if active { m.start as usize } else { 0 });
            input_events += if active { m.len as usize } else { 0 };
            cur.push(if active {
                m.prev
            } else {
                self.values[n as usize]
            });
        }
        let (published, out) = merge_space(&mut self.arena, top, input_events);
        let mut committed = self.values[out_net] as u64;
        let mut pending = SENTINEL;
        let mut len = 0usize;

        loop {
            let m = cursor
                .iter()
                .map(|&c| published[c])
                .min()
                .unwrap_or(SENTINEL);
            if m == SENTINEL {
                break;
            }
            let t_now = m >> 2;
            if pending >> 2 <= t_now {
                out[len] = pending;
                len += 1;
                committed = pending & 3;
                pending = SENTINEL;
            }
            for (c, v) in cursor.iter_mut().zip(cur.iter_mut()) {
                let e = published[*c];
                if e >> 2 == t_now {
                    *v = LEVELS[(e & 3) as usize];
                    *c += 1;
                }
            }
            let v = co[eval_code(kind, &cur) as usize];
            if v == HOLD {
                continue;
            }
            let v = u64::from(v);
            let cand = ((t_now + delay) << 2) | v;
            if pending != SENTINEL && pending & 3 == v {
                pending = pending.min(cand);
            } else if v == committed {
                pending = SENTINEL;
            } else {
                pending = cand;
            }
        }
        if pending != SENTINEL {
            out[len] = pending;
            len += 1;
        }
        out[len] = SENTINEL;
        len
    }

    /// Publishes gate `g`'s `len`-event output waveform at `arena[top..]`:
    /// wave bookkeeping, commit of the new settled value, toggle and event
    /// counters, output-delay tracking, and fanout dirtying.
    fn publish(
        &mut self,
        g: usize,
        top: usize,
        len: usize,
        timing: &mut PatternTiming,
        last_out_fs: &mut u64,
    ) {
        debug_assert!(len > 0);
        let out_net = self.plan.output(g);
        self.waves[out_net] = WaveMeta {
            epoch: self.epoch,
            start: top as u32,
            len: len as u32,
            prev: self.values[out_net],
        };
        let last = self.arena[top + len - 1];
        self.values[out_net] = LEVELS[(last & 3) as usize];

        let n = len as u64;
        self.toggles_per_gate[g] += n;
        timing.gate_toggles += n;
        timing.events += n;
        if self.topology.is_output(NetId::from_index(out_net)) {
            timing.output_toggles += n;
            *last_out_fs = (*last_out_fs).max(last >> 2);
        }
        self.mark_fanout(out_net);
    }

    /// Sets the dirty bit of every gate reading `net`.
    #[inline]
    fn mark_fanout(&mut self, net: usize) {
        for &g in self.plan.fanout_of(net) {
            self.touched[g as usize / 64] |= 1 << (g % 64);
        }
    }

    /// The current settled value of `net`.
    #[inline]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Packs every net's settled value into 2 bits (the [`Logic`]
    /// discriminant), 32 nets per `u64` — the compact state record the
    /// incremental aging sweep stores per pattern so it can
    /// [`restore_values`](Self::restore_values) across skipped patterns.
    pub fn snapshot_values(&self) -> Vec<u64> {
        let mut packed = vec![0u64; self.values.len().div_ceil(32)];
        for (idx, &v) in self.values.iter().enumerate() {
            packed[idx / 32] |= (v as u64) << ((idx % 32) * 2);
        }
        packed
    }

    /// Restores every net's settled value from a
    /// [`snapshot_values`](Self::snapshot_values) record taken on a
    /// simulator over the same netlist. Pending per-step scratch and the
    /// touched set are invalidated; the next [`step`](Self::step) treats
    /// the restored values as the previous vector.
    ///
    /// # Panics
    ///
    /// Panics if `packed` was taken from a different-sized netlist.
    pub fn restore_values(&mut self, packed: &[u64]) {
        assert_eq!(
            packed.len(),
            self.values.len().div_ceil(32),
            "snapshot size mismatch"
        );
        for (idx, v) in self.values.iter_mut().enumerate() {
            *v = LEVELS[((packed[idx / 32] >> ((idx % 32) * 2)) & 3) as usize];
        }
        self.invalidate_step();
    }

    /// Calls `f` with the index of every gate whose output waveform was
    /// (re)computed during the most recent [`step`](Self::step) — the
    /// pattern's *touched set* — in ascending order. A gate outside this
    /// set saw no input event, so its contribution to timing and toggles is
    /// independent of its own delay; the incremental aging sweep uses this
    /// to prove a pattern's profile is unchanged when no touched gate's
    /// delay changed. Empty after [`reset`](Self::reset),
    /// [`retime`](Self::retime), and [`restore_values`](Self::restore_values).
    pub fn for_each_touched_gate(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.touched.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                f(w * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }

    /// The touched set of [`for_each_touched_gate`](Self::for_each_touched_gate)
    /// as a bitset: gate `g` is bit `g % 64` of word `g / 64`, one word per
    /// 64 gates.
    #[inline]
    pub fn touched_words(&self) -> &[u64] {
        &self.touched
    }

    /// Settled primary output values in declaration order.
    pub fn output_values(&self) -> Vec<Logic> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// Cumulative output-toggle count per gate since the last reset,
    /// indexable by [`GateId::index`](crate::GateId::index); glitches
    /// included, same as
    /// [`EventSim::gate_toggle_counts`](crate::EventSim::gate_toggle_counts).
    #[inline]
    pub fn gate_toggle_counts(&self) -> &[u64] {
        &self.toggles_per_gate
    }

    /// Clears the cumulative per-gate toggle counters.
    pub fn reset_toggle_counts(&mut self) {
        self.toggles_per_gate.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::DelayModel;

    use super::*;
    use crate::{EventSim, GateId};

    fn inverter_chain() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let x = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Not, &[x]).unwrap();
        n.mark_output(y, "y");
        n
    }

    #[test]
    fn chain_delay_is_sum_of_gate_delays() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let model = DelayModel::nominal();
        let d = DelayAssignment::uniform(&n, &model);
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        let expect = 2.0 * model.delay_ns(GateKind::Not);
        assert!((timing.delay_ns - expect).abs() < 1e-9, "{timing:?}");
        assert_eq!(sim.value(n.outputs()[0]), Logic::One);
    }

    #[test]
    fn unchanged_input_touches_nothing() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::One]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(timing.events, 0);
        assert_eq!(timing.delay_ns, 0.0);
    }

    #[test]
    fn short_hazard_pulses_are_inertially_filtered() {
        // Same circuit as the EventSim test: a 1-inverter skew (8 ps) into
        // an XOR (24 ps) never develops the pulse.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let inv = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Xor, &[a, inv]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(timing.output_toggles, 0, "{timing:?}");
        assert_eq!(timing.delay_ns, 0.0, "{timing:?}");
    }

    #[test]
    fn wide_hazard_pulses_propagate() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut x = a;
        for _ in 0..5 {
            x = n.add_gate(GateKind::Not, &[x]).unwrap();
        }
        let y = n.add_gate(GateKind::Xor, &[a, x]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(timing.output_toggles, 2, "{timing:?}");
        assert!(timing.delay_ns > 0.0);
    }

    #[test]
    fn disabled_tbuf_holds_through_pending() {
        let mut n = Netlist::new();
        let dta = n.add_input("d");
        let en = n.add_input("en");
        let g = n.add_gate(GateKind::Tbuf, &[dta, en]).unwrap();
        n.mark_output(g, "g");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);

        sim.settle(&[Logic::Zero, Logic::One]).unwrap();
        assert_eq!(sim.value(g), Logic::Zero);
        let timing = sim.step(&[Logic::One, Logic::Zero]).unwrap();
        assert_eq!(sim.value(g), Logic::Zero, "tri-state must hold");
        assert_eq!(timing.output_toggles, 0);
        sim.step(&[Logic::One, Logic::One]).unwrap();
        assert_eq!(sim.value(g), Logic::One);
    }

    #[test]
    fn stuck_net_produces_no_events() {
        use crate::{FaultKind, FaultOverlay};
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        let a = n.inputs()[0];
        let y = n.outputs()[0];

        let mut o = FaultOverlay::new(&n);
        o.add(a, FaultKind::StuckAt0, 1).unwrap();
        sim.set_fault_overlay(o);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(timing.events, 0, "{timing:?}");
        assert_eq!(sim.value(y), Logic::Zero);

        sim.clear_fault_overlay();
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert!(timing.events > 0);
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn flip_overlay_inverts_with_normal_delay() {
        use crate::{FaultKind, FaultOverlay};
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let model = DelayModel::nominal();
        let d = DelayAssignment::uniform(&n, &model);
        let mut sim = LevelSim::new(&n, &t, d);
        let x = n.gates()[0].output();
        let y = n.outputs()[0];

        let mut o = FaultOverlay::new(&n);
        o.add(x, FaultKind::Flip, 1).unwrap();
        sim.set_fault_overlay(o);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        let expect = 2.0 * model.delay_ns(GateKind::Not);
        assert!((timing.delay_ns - expect).abs() < 1e-9, "{timing:?}");
    }

    #[test]
    fn toggle_counters_match_event_sim() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut level = LevelSim::new(&n, &t, d.clone());
        let mut event = EventSim::new(&n, &t, d);
        for sim_step in [
            &[Logic::Zero][..],
            &[Logic::One][..],
            &[Logic::Zero][..],
            &[Logic::One][..],
        ] {
            let tl = level.step(sim_step).unwrap();
            let te = event.step(sim_step).unwrap();
            assert_eq!(tl, te);
        }
        assert_eq!(level.gate_toggle_counts(), event.gate_toggle_counts());
        level.reset_toggle_counts();
        assert_eq!(level.gate_toggle_counts(), &[0, 0]);
    }

    #[test]
    fn inflated_gate_matches_event_sim() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let mut d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        d.inflate(GateId::from_index(0), 2.5);
        let mut level = LevelSim::new(&n, &t, d.clone());
        let mut event = EventSim::new(&n, &t, d);
        level.settle(&[Logic::Zero]).unwrap();
        event.settle(&[Logic::Zero]).unwrap();
        let tl = level.step(&[Logic::One]).unwrap();
        let te = event.step(&[Logic::One]).unwrap();
        assert_eq!(tl, te);
    }

    #[test]
    fn wide_gates_match_event_sim() {
        // 4- and 5-input gates take the generic merge; skewed inverter
        // chains on their inputs make them glitch.
        use crate::{FaultKind, FaultOverlay};
        let mut n = Netlist::new();
        let ins: Vec<NetId> = (0..5).map(|i| n.add_input(format!("i{i}"))).collect();
        let mut skewed = Vec::new();
        for (i, &net) in ins.iter().enumerate() {
            let mut x = net;
            for _ in 0..i {
                x = n.add_gate(GateKind::Not, &[x]).unwrap();
            }
            skewed.push(x);
        }
        let x5 = n.add_gate(GateKind::Xor, &skewed).unwrap();
        let n4 = n.add_gate(GateKind::Nand, &skewed[1..]).unwrap();
        let o4 = n
            .add_gate(GateKind::Or, &[x5, n4, skewed[0], ins[4]])
            .unwrap();
        n.mark_output(x5, "x5");
        n.mark_output(n4, "n4");
        n.mark_output(o4, "o4");
        let t = n.topology().unwrap();
        let mut d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        d.inflate(GateId::from_index(n.gate_count() - 3), 0.2);
        d.inflate(GateId::from_index(n.gate_count() - 2), 3.0);

        let mut overlay = FaultOverlay::new(&n);
        overlay.add(n4, FaultKind::Flip, 1).unwrap();
        for faulty in [false, true] {
            let mut level = LevelSim::new(&n, &t, d.clone());
            let mut event = EventSim::new(&n, &t, d.clone());
            if faulty {
                level.set_fault_overlay(overlay.clone());
                event.set_fault_overlay(overlay.clone());
            }
            for k in 0..64u32 {
                let bits = k.wrapping_mul(0x9e37) >> 3;
                let v: Vec<Logic> = (0..5).map(|i| Logic::from(bits >> i & 1 == 1)).collect();
                assert_eq!(level.step(&v).unwrap(), event.step(&v).unwrap(), "{k}");
                for idx in 0..n.net_count() {
                    let net = NetId::from_index(idx);
                    assert_eq!(level.value(net), event.value(net));
                }
            }
            assert_eq!(level.gate_toggle_counts(), event.gate_toggle_counts());
        }
    }

    #[test]
    fn cancelled_token_aborts_step_and_sim_recovers() {
        use crate::CancelToken;
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();

        let token = CancelToken::new();
        token.cancel();
        sim.set_cancel_token(Some(token));
        let err = sim.step(&[Logic::One]).unwrap_err();
        assert_eq!(err, NetlistError::Cancelled);

        sim.set_cancel_token(None);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert!(timing.delay_ns > 0.0);
        assert_eq!(sim.value(n.outputs()[0]), Logic::One);
    }

    #[test]
    fn snapshot_restore_round_trips_settled_state() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        let snap = sim.snapshot_values();
        let before: Vec<Logic> = (0..n.net_count())
            .map(|i| sim.value(NetId::from_index(i)))
            .collect();

        // Perturb the state, then restore: the next step must behave as if
        // the perturbation never happened.
        sim.step(&[Logic::One]).unwrap();
        sim.restore_values(&snap);
        for (i, &v) in before.iter().enumerate() {
            assert_eq!(sim.value(NetId::from_index(i)), v);
        }
        let t_restored = sim.step(&[Logic::One]).unwrap();

        let mut fresh = LevelSim::new(&n, &t, DelayAssignment::uniform(&n, &DelayModel::nominal()));
        fresh.settle(&[Logic::Zero]).unwrap();
        let t_fresh = fresh.step(&[Logic::One]).unwrap();
        assert_eq!(t_restored, t_fresh);
    }

    #[test]
    fn touched_gates_cover_exactly_the_resimulated_cone() {
        // Two independent inverter chains; toggling only the first input
        // must touch only the first chain's gates.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Not, &[b]).unwrap();
        n.mark_output(x, "x");
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero, Logic::Zero]).unwrap();
        sim.step(&[Logic::One, Logic::Zero]).unwrap();
        let mut touched = Vec::new();
        sim.for_each_touched_gate(|g| touched.push(g));
        assert_eq!(touched, vec![0]);
    }

    #[test]
    fn retime_matches_fresh_kernel() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut inflated = nominal.clone();
        inflated.inflate(GateId::from_index(0), 3.0);
        inflated.inflate(GateId::from_index(1), 1.5);

        // One kernel retimed across assignments vs a fresh kernel per
        // assignment: identical timings both directions (nominal →
        // inflated → nominal).
        let mut retimed = LevelSim::new(&n, &t, nominal.clone());
        for delays in [&inflated, &nominal, &inflated] {
            retimed.retime(delays);
            retimed.settle(&[Logic::Zero]).unwrap();
            let tr = retimed.step(&[Logic::One]).unwrap();

            let mut fresh = LevelSim::new(&n, &t, (*delays).clone());
            fresh.settle(&[Logic::Zero]).unwrap();
            let tf = fresh.step(&[Logic::One]).unwrap();
            assert_eq!(tr, tf);
            assert_eq!(retimed.value(n.outputs()[0]), fresh.value(n.outputs()[0]));
        }
    }

    #[test]
    fn retime_preserves_fault_overlay() {
        use crate::{FaultKind, FaultOverlay};
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut slow = nominal.clone();
        slow.inflate(GateId::from_index(1), 2.0);

        let mut o = FaultOverlay::new(&n);
        o.add(n.gates()[0].output(), FaultKind::Flip, 1).unwrap();

        let mut retimed = LevelSim::new(&n, &t, nominal);
        retimed.set_fault_overlay(o.clone());
        retimed.retime(&slow);
        retimed.settle(&[Logic::Zero]).unwrap();
        let tr = retimed.step(&[Logic::One]).unwrap();

        let mut fresh = LevelSim::new(&n, &t, slow);
        fresh.set_fault_overlay(o);
        fresh.settle(&[Logic::Zero]).unwrap();
        let tf = fresh.step(&[Logic::One]).unwrap();
        assert_eq!(tr, tf);
        assert_eq!(retimed.value(n.outputs()[0]), fresh.value(n.outputs()[0]));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn retime_rejects_zero_delay() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let good = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let bad = DelayAssignment::with_factors(&n, &DelayModel::nominal(), &[1e-12, 1.0]).unwrap();
        let mut sim = LevelSim::new(&n, &t, good);
        sim.retime(&bad);
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn retime_rejects_wrong_gate_count() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let mut other = Netlist::new();
        let a = other.add_input("a");
        let x = other.add_gate(GateKind::Not, &[a]).unwrap();
        other.mark_output(x, "y");
        let foreign = DelayAssignment::uniform(&other, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, DelayAssignment::uniform(&n, &DelayModel::nominal()));
        sim.retime(&foreign);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_delay_rejected() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        // A sub-femtosecond per-kind delay rounds to 0 fs.
        let d = DelayAssignment::with_factors(&n, &DelayModel::nominal(), &[1e-12, 1.0]).unwrap();
        LevelSim::new(&n, &t, d);
    }
}
