//! The interface the bound-search driver ([`crate::optimize`]) walks, and
//! the incremental machinery the flat and TB models share.
//!
//! Both models are step encodings over a window: per-gate time variables
//! (a time step for the flat model, a block for TB), a mapping per step,
//! and SWAP literals in layers (flat: the SWAPs finishing at a step; TB:
//! the SWAPs on the transition after a block). Every bound is an
//! activation literal, so every probe is a set of assumptions on one warm
//! solver, and a window grows in place under a new generation guard.

use crate::config::{MappingEncoding, SynthesisConfig};
use crate::model::ModelError;
use crate::vars::{FdVar, TimeVars};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, DependencyGraph};
use olsq2_encode::{CardEncoding, CardinalityNetwork, ConstraintFamily, FamilyTally};
use olsq2_layout::LayoutResult;
use olsq2_sat::{Lit, SolveResult, Solver};
use std::collections::BTreeMap;
use std::ops::Range;

/// The trace names of one model's walks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Vocabulary {
    /// The time walk's span: `optimize_depth` or `tb_optimize_blocks`.
    pub time_walk: &'static str,
    /// The SWAP walk's span: `optimize_swaps` or `tb_optimize_swaps`.
    pub swap_walk: &'static str,
    /// The single feasibility solve's span.
    pub feasible: &'static str,
    /// The time probes' `objective`: `depth` or `blocks`.
    pub objective: &'static str,
    /// The time walk span's field for the time floor.
    pub floor: &'static str,
    /// The probes' field for the time bound: `t_bound` or `block_bound`.
    pub time_bound: &'static str,
    /// The encode and extend spans' field for the window: `t_ub` or
    /// `blocks`.
    pub window: &'static str,
}

/// A step encoding the bound-search driver walks. The associated
/// functions hold the search rules, the only thing the driver learns
/// about which model it runs (README "Bound search" tabulates them); the
/// methods build, bound, grow and decode the model.
pub(crate) trait BoundedModel: Sized {
    /// Span and field names.
    const NAMES: Vocabulary;

    /// The lowest time bound any layout meets.
    fn time_floor(circuit: &Circuit, config: &SynthesisConfig) -> usize;
    /// The time bound the time walk probes after refuting `t`.
    fn relax(t: usize) -> usize;
    /// The window the first model is built for.
    fn first_window(floor: usize, config: &SynthesisConfig) -> usize;
    /// The window `window` widens to for a time bound `t` beyond it;
    /// still short of `t` when no window may hold `t`.
    fn widened_window(window: usize, t: usize, circuit: &Circuit) -> usize;
    /// The fewest SWAPs a layout within time bound `b` uses.
    fn swap_floor(b: usize) -> usize;
    /// The SWAP bound to probe next in the open bracket `[lo, hi)`.
    fn next_swap_bound(lo: usize, hi: usize) -> usize;
    /// The window `window` grows to before the SWAP walk probes the
    /// relaxed time bound `t`; still short of `t` ends the walk, proven.
    fn relaxed_window(window: usize, t: usize, config: &SynthesisConfig) -> usize;

    /// Encodes the model over `window`.
    fn build(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        window: usize,
    ) -> Result<Self, ModelError>;
    /// The shared bound machinery.
    fn core(&self) -> &ModelCore;
    /// Mutable access to the shared bound machinery.
    fn core_mut(&mut self) -> &mut ModelCore;
    /// The activation literal of time bound `t`: depth ≤ `t`, or exactly
    /// `t` blocks.
    fn time_bound(&mut self, t: usize) -> Lit;
    /// Grows the window to `window` in place; `false` (the driver
    /// rebuilds) where the model refuses.
    fn extend(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        window: usize,
    ) -> bool;
    /// The layout of the last SAT solve, and the time value it reaches
    /// (its depth, or the blocks it uses).
    fn decode(&self, circuit: &Circuit, config: &SynthesisConfig) -> (LayoutResult, usize);
}

/// What both models keep for incremental bound search: the solver, the
/// per-gate time variables, the SWAP literals, the family tally, the
/// cached time-bound activators, the lazy SWAP cardinality network and
/// the window guard.
#[derive(Debug)]
pub(crate) struct ModelCore {
    pub(crate) solver: Solver,
    pub(crate) time: TimeVars,
    /// `swap_lits[e][l]`: one row per device edge, one column per SWAP
    /// layer.
    pub(crate) swap_lits: Vec<Vec<Lit>>,
    pub(crate) tally: FamilyTally,
    /// The SWAP layers of a range of steps: the same range for the flat
    /// model, the transitions into it for TB.
    layers: fn(Range<usize>) -> Range<usize>,
    cardinality: CardEncoding,
    /// Time-bound activators by bound, in bound order.
    time_bounds: BTreeMap<usize, Lit>,
    swap_card: Option<CardinalityNetwork>,
    /// The current window generation's guard: the time variables' domain
    /// constraints are conditional on it, and every solve assumes it.
    window_guard: Lit,
    extensions: usize,
}

/// The dependency graph the models order gates by: commutation-aware
/// under [`SynthesisConfig::commutation_aware`].
pub(crate) fn dependency_graph(circuit: &Circuit, config: &SynthesisConfig) -> DependencyGraph {
    if config.commutation_aware {
        DependencyGraph::new_with_commutation(circuit)
    } else {
        DependencyGraph::new(circuit)
    }
}

/// Checks that `circuit` can be laid out on `graph` at all.
pub(crate) fn check_instance(circuit: &Circuit, graph: &CouplingGraph) -> Result<(), ModelError> {
    let (nq, np) = (circuit.num_qubits(), graph.num_qubits());
    if circuit.num_gates() == 0 {
        return Err(ModelError::EmptyCircuit);
    }
    if nq > np {
        return Err(ModelError::TooManyQubits {
            program: nq,
            physical: np,
        });
    }
    if !graph.is_connected() && nq > 1 {
        return Err(ModelError::DisconnectedDevice);
    }
    Ok(())
}

impl ModelCore {
    /// A core over `solver`, whose time variables `time` have opened their
    /// window under `window_guard`, with empty SWAP rows for `num_edges`
    /// edges.
    pub(crate) fn new(
        solver: Solver,
        time: TimeVars,
        window_guard: Lit,
        tally: FamilyTally,
        num_edges: usize,
        layers: fn(Range<usize>) -> Range<usize>,
        cardinality: CardEncoding,
    ) -> ModelCore {
        ModelCore {
            solver,
            time,
            swap_lits: vec![Vec::new(); num_edges],
            tally,
            layers,
            cardinality,
            time_bounds: BTreeMap::new(),
            swap_card: None,
            window_guard,
            extensions: 0,
        }
    }

    /// The window: time steps (flat) or blocks (TB).
    pub(crate) fn window(&self) -> usize {
        self.time.t_ub()
    }

    /// Number of in-place window extensions performed.
    pub(crate) fn extensions(&self) -> usize {
        self.extensions
    }

    /// `(variables, clauses)` of the formula.
    pub(crate) fn formula_size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    /// Structure-aware seeding, after a build: in an exactly-one group
    /// all but one selector end up false, and optimal layouts use few
    /// SWAPs, so the all-false polarity starts the search inside the
    /// layout structure instead of fighting the at-most-one constraints.
    /// The step-0 activity bump nudges the first decisions toward the
    /// initial placement. It must stay a *nudge*: at full VSIDS weight
    /// (1.0) it fixates routing-heavy searches on placement long after
    /// the conflict analysis has better candidates (qaoa-8: 3.3× slower,
    /// tof-3: 1.3× slower), while 0.25 keeps the placement-first ordering
    /// on instances it helps (qaoa-10, qft-4/5) without the fixation.
    ///
    /// Everything past the build is bound machinery: activation literals,
    /// cardinality counters, window-growth variables. Clauses over them
    /// encode cross-solve contracts, so inprocessing must leave them
    /// exactly as written.
    pub(crate) fn seed(&mut self, mapping: &[Vec<FdVar>], encoding: MappingEncoding) {
        let solver = &mut self.solver;
        if matches!(
            encoding,
            MappingEncoding::OneHot | MappingEncoding::InverseOneHot
        ) {
            for per_step in mapping {
                for fd in per_step {
                    for l in fd.raw_lits() {
                        solver.set_saved_phase(l.var(), false);
                    }
                }
                for l in per_step[0].raw_lits() {
                    solver.boost_activity(l.var(), 0.25);
                }
            }
        }
        for row in &self.swap_lits {
            for &l in row {
                solver.set_saved_phase(l.var(), false);
            }
        }
        solver.set_inprocess_floor(solver.num_vars());
    }

    /// Solves under `assumptions` plus the window guard (without it the
    /// guarded at-least-one constraints would let every time variable go
    /// unassigned). A SAT answer is the new incumbent layout: the next,
    /// tighter solve is steered toward it by target phases.
    pub(crate) fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let mut with_guard = Vec::with_capacity(assumptions.len() + 1);
        with_guard.extend_from_slice(assumptions);
        with_guard.push(self.window_guard);
        let result = self.solver.solve(&with_guard);
        if result == SolveResult::Sat {
            self.solver.adopt_model_targets();
        }
        result
    }

    /// The cached activation literal of time bound `t`, or a new one:
    /// no gate at a step from `t` on and no SWAP in those steps' layers,
    /// plus whatever `extra` adds under it. Credited to
    /// [`ConstraintFamily::Cardinality`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is 0 or beyond the window.
    pub(crate) fn time_bound(&mut self, t: usize, extra: impl FnOnce(&mut Self, Lit)) -> Lit {
        assert!(t >= 1 && t <= self.window(), "time bound out of window");
        if let Some(&act) = self.time_bounds.get(&t) {
            return act;
        }
        let mark = self.tally.mark(&self.solver);
        let act = Lit::positive(self.solver.new_var());
        self.bound_steps(act, t, 0..self.window());
        extra(self, act);
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        self.time_bounds.insert(t, act);
        act
    }

    /// Time bound `t` under `act` over `steps`: no gate at a step from
    /// `t` on, and no SWAP in the layers of those steps.
    fn bound_steps(&mut self, act: Lit, t: usize, steps: Range<usize>) {
        self.time.bound_if(&mut self.solver, t, act, steps.clone());
        let layers = (self.layers)(t.max(steps.start)..steps.end);
        for row in &self.swap_lits {
            for &l in &row[layers.clone()] {
                self.solver.add_clause([!act, !l]);
            }
        }
    }

    /// Activation literal enforcing `Σ σ ≤ k` (Eq. 5). The cardinality
    /// network is built lazily on first use with capacity `capacity`
    /// (later calls may use any `k ≤ capacity` of the *first* call).
    pub(crate) fn swap_bound(&mut self, k: usize, capacity: usize) -> Lit {
        let mark = self.tally.mark(&self.solver);
        if self.swap_card.is_none() {
            let inputs: Vec<Lit> = self.swap_lits.iter().flatten().copied().collect();
            self.swap_card = Some(CardinalityNetwork::new(
                &mut self.solver,
                &inputs,
                capacity,
                self.cardinality,
            ));
        }
        let act = self
            .swap_card
            .as_mut()
            .expect("just built")
            .at_most(&mut self.solver, k);
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        act
    }

    /// Ends a window growth over `steps`, once the model's families cover
    /// them under the new generation `guard`: every cached time bound
    /// covers the new steps under its own activator, in bound order, and
    /// the SWAP network takes their layers as inputs (credited to
    /// [`ConstraintFamily::Cardinality`]). Then the superseded guard is
    /// permanently falsified at the root, which [`Solver::simplify`]
    /// exploits to retire the dead constraints.
    pub(crate) fn finish_growth(&mut self, steps: Range<usize>, guard: Lit) {
        let mark = self.tally.mark(&self.solver);
        let bounds: Vec<(usize, Lit)> = self.time_bounds.iter().map(|(&t, &a)| (t, a)).collect();
        for (t, act) in bounds {
            self.bound_steps(act, t, steps.clone());
        }
        if let Some(card) = &mut self.swap_card {
            let first = (self.layers)(steps).start;
            let new_inputs: Vec<Lit> = self
                .swap_lits
                .iter()
                .flat_map(|row| row[first..].iter().copied())
                .collect();
            // Invalidated bound activators (adder-network rebuilds) are
            // permanently retired; callers re-request their bounds.
            for l in card.extend(&mut self.solver, &new_inputs) {
                self.solver.add_clause([!l]);
            }
        }
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        self.solver.add_clause([!self.window_guard]);
        self.solver.simplify();
        self.window_guard = guard;
        self.extensions += 1;
    }
}
