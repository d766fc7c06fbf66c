//! The OLSQ2 flat (time-resolved) model — the paper's §III formulation.
//!
//! Variables (§III-A-1):
//! * mapping `π_q^t` — finite-domain over physical qubits, per program
//!   qubit and time step;
//! * time `t_g` — finite-domain over `0..T_UB`, per gate;
//! * SWAP `σ_e^t` — Boolean, true iff a SWAP on edge `e` *finishes* at `t`.
//!
//! There are **no space variables**: gate positions are implied by mapping
//! and time variables (Improvement 1). Constraints follow §II-A/§III-A-2:
//! injectivity, dependencies, two-qubit adjacency (Eq. 1), SWAP/gate
//! overlap (Eq. 2–3), SWAP/SWAP exclusion, and mapping transformation.
//! Objective bounds are attached through activation literals so the
//! optimization loops of §III-B stay incremental.

// Indexed `for` loops are deliberate here: time-step/edge index loops mirror the paper's formulation.
#![allow(clippy::needless_range_loop)]
use crate::bounded::{check_instance, dependency_graph, BoundedModel, ModelCore, Vocabulary};
use crate::config::{MappingEncoding, SynthesisConfig, TimeEncoding};
use crate::vars::{
    adjacency_steps, mapping_steps, transition_step, transitions_into, FdVar, TimeVars,
};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, Operands};
use olsq2_encode::{gates, BatchSink, CnfSink, ConstraintFamily, FamilyTally};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_sat::{Lit, SolveResult, Solver};
use std::ops::Range;

/// Errors raised while constructing a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// More program qubits than physical qubits.
    TooManyQubits {
        /// Program qubit count.
        program: usize,
        /// Physical qubit count.
        physical: usize,
    },
    /// The circuit has no gates (nothing to synthesize).
    EmptyCircuit,
    /// The coupling graph cannot route the circuit (disconnected).
    DisconnectedDevice,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::TooManyQubits { program, physical } => write!(
                f,
                "circuit uses {program} program qubits but the device has only {physical}"
            ),
            ModelError::EmptyCircuit => write!(f, "circuit has no gates"),
            ModelError::DisconnectedDevice => {
                write!(
                    f,
                    "coupling graph is disconnected; routing may be impossible"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Which formulation to build: the paper's succinct OLSQ2 model or the
/// original OLSQ baseline with per-gate *space variables* (used for the
/// speedup comparisons of Fig. 1 and Tables I–II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelStyle {
    /// OLSQ2 (Improvement 1): no space variables; gate positions inferred
    /// from mapping and time variables.
    #[default]
    Olsq2,
    /// OLSQ (Tan & Cong, ICCAD'20): each gate carries a space variable
    /// `x_g` (over edges for two-qubit gates, over qubits for single-qubit
    /// gates) plus consistency constraints tying `x_g` to the mapping —
    /// the redundancy the paper eliminates.
    OlsqBaseline,
}

/// The built model plus handles for incremental bounding and extraction.
#[derive(Debug)]
pub struct FlatModel {
    /// Solver, time variables, `swap_lits[e][t]` (entries below `S_D - 1`
    /// frozen false) and the bound machinery.
    core: ModelCore,
    /// `mapping[q][t]`.
    mapping: Vec<Vec<FdVar>>,
    sd: usize,
    style: ModelStyle,
    config: SynthesisConfig,
    num_gates: usize,
}

impl FlatModel {
    /// Builds the OLSQ2 model for `circuit` on `graph` with the given
    /// depth window `t_ub`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the instance is structurally infeasible.
    pub fn build(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
    ) -> Result<FlatModel, ModelError> {
        Self::build_with_style(circuit, graph, config, t_ub, ModelStyle::Olsq2)
    }

    /// Builds either formulation (see [`ModelStyle`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the instance is structurally infeasible.
    pub fn build_with_style(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
        style: ModelStyle,
    ) -> Result<FlatModel, ModelError> {
        check_instance(circuit, graph)?;
        let (nq, np) = (circuit.num_qubits(), graph.num_qubits());
        let t_ub = t_ub.max(1);
        let steps = 0..t_ub;
        let mut solver = Solver::new();
        if config.proof_log {
            // Before any clause: the log must contain every original.
            solver.enable_proof();
        }
        let enc = config.encoding;
        let mut tally = FamilyTally::new();

        // --- Mapping variables + injectivity -------------------------------
        let mark = tally.mark(&solver);
        let mut mapping = vec![Vec::new(); nq];
        mapping_steps(
            &mut BatchSink::new(&mut solver),
            &mut mapping,
            np,
            enc,
            steps.clone(),
        );
        let mark = tally.credit_since(ConstraintFamily::Mapping, &solver, mark);

        // --- Time variables + dependencies ---------------------------------
        let dag = dependency_graph(circuit, config);
        let mut time = TimeVars::new(circuit.num_gates(), enc.time, enc.amo);
        let window_guard = time.grow(&mut solver, t_ub).expect("an empty window grows");
        for &(g, g2) in dag.dependencies() {
            time.assert_before(&mut solver, g, g2);
        }
        // Commutation relaxes *order*, not exclusivity: gates sharing a
        // program qubit must still occupy distinct time steps.
        if config.commutation_aware {
            let dep_set: std::collections::HashSet<(usize, usize)> =
                dag.dependencies().iter().copied().collect();
            let mut per_qubit: Vec<Vec<usize>> = vec![Vec::new(); nq];
            for (g, gate) in circuit.gates().iter().enumerate() {
                for q in gate.operands.qubits() {
                    per_qubit[q as usize].push(g);
                }
            }
            let mut seen_pairs = std::collections::HashSet::new();
            for gates_on_q in &per_qubit {
                for (i, &a) in gates_on_q.iter().enumerate() {
                    for &b in &gates_on_q[i + 1..] {
                        if dep_set.contains(&(a, b))
                            || dep_set.contains(&(b, a))
                            || !seen_pairs.insert((a, b))
                        {
                            continue;
                        }
                        time.assert_not_equal(&mut solver, a, b);
                    }
                }
            }
        }
        tally.credit_since(ConstraintFamily::Dependency, &solver, mark);

        let core = ModelCore::new(
            solver,
            time,
            window_guard,
            tally,
            graph.num_edges(),
            |steps| steps,
            enc.cardinality,
        );
        let mut model = FlatModel {
            core,
            mapping,
            sd: config.swap_duration.max(1),
            style,
            config: config.clone(),
            num_gates: circuit.num_gates(),
        };
        model.emit_steps(circuit, graph, steps);

        // Structure-aware seeding (see [`ModelCore::seed`]); one-hot time
        // variables are exactly-one groups too.
        if enc.time == TimeEncoding::OneHot {
            for g in 0..model.num_gates {
                for l in model.core.time.var(g).raw_lits() {
                    model.core.solver.set_saved_phase(l.var(), false);
                }
            }
        }
        model.core.seed(&model.mapping, enc.mapping);
        Ok(model)
    }

    /// Runs one family emitter and credits what it adds to `family`.
    fn credit<R>(&mut self, family: ConstraintFamily, emit: impl FnOnce(&mut Self) -> R) -> R {
        let mark = self.core.tally.mark(&self.core.solver);
        let out = emit(self);
        self.core
            .tally
            .credit_since(family, &self.core.solver, mark);
        out
    }

    /// The families that follow the mapping and time variables, over
    /// `steps`, in build order: SWAP variables, scheduling, transition.
    fn emit_steps(&mut self, circuit: &Circuit, graph: &CouplingGraph, steps: Range<usize>) {
        self.credit(ConstraintFamily::Swap, |m| {
            m.swap_steps(graph, steps.clone())
        });
        self.credit(ConstraintFamily::Scheduling, |m| match m.style {
            ModelStyle::Olsq2 => m.scheduling_steps(circuit, graph, steps.clone()),
            ModelStyle::OlsqBaseline => m.baseline_scheduling(circuit, graph),
        });
        self.credit(ConstraintFamily::Transition, |m| {
            m.transition_steps(graph, steps)
        });
    }

    /// The SWAP family over `steps`: one variable per edge and step, frozen
    /// false below `S_D - 1` (a SWAP cannot finish earlier), and SWAP/SWAP
    /// exclusion between overlapping windows on edges sharing a qubit.
    fn swap_steps(&mut self, graph: &CouplingGraph, steps: Range<usize>) {
        let (sd, to) = (self.sd, steps.end);
        for row in &mut self.core.swap_lits {
            row.extend(
                steps
                    .clone()
                    .map(|_| Lit::positive(self.core.solver.new_var())),
            );
        }
        for row in &self.core.swap_lits {
            for &l in &row[steps.start.min(sd - 1)..to.min(sd - 1)] {
                self.core.solver.add_clause([!l]);
            }
        }
        let ne = graph.num_edges();
        for e1 in 0..ne {
            let (a1, b1) = graph.edge(e1);
            for e2 in e1..ne {
                let (a2, b2) = graph.edge(e2);
                let shares = e1 == e2 || a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2;
                if !shares {
                    continue;
                }
                for t1 in (sd - 1)..to {
                    let upper = (t1 + sd).min(to);
                    // Windows (t-S_D, t] intersect iff |t1 - t2| < S_D; for
                    // the same edge only emit each unordered pair once.
                    let lower = if e1 == e2 {
                        t1 + 1
                    } else {
                        (t1 + 1).saturating_sub(sd).max(sd - 1)
                    };
                    for t2 in lower..upper {
                        // Pairs of earlier steps were emitted with them.
                        if t1 < steps.start && t2 < steps.start {
                            continue;
                        }
                        self.core.solver.add_clause([
                            !self.core.swap_lits[e1][t1],
                            !self.core.swap_lits[e2][t2],
                        ]);
                    }
                }
            }
        }
    }

    /// The scheduling family over `steps` (the scheduling families
    /// dominate the formula; staged in bulk):
    ///
    /// * valid two-qubit gates (Eq. 1), shared with TB;
    /// * valid SWAP insertion (Eq. 2–3): a SWAP finishing at t occupies
    ///   its endpoints during the window (t - S_D, t], so no gate touching
    ///   those physical qubits may be scheduled in that window. Every pair
    ///   has its SWAP finish time in `steps`: a finish time pairs only
    ///   with gate times at or before it.
    fn scheduling_steps(&mut self, circuit: &Circuit, graph: &CouplingGraph, steps: Range<usize>) {
        let sd = self.sd;
        let mut batch = BatchSink::new(&mut self.core.solver);
        adjacency_steps(
            &mut batch,
            circuit,
            graph,
            &mut self.mapping,
            &self.core.time,
            steps.clone(),
        );
        let mut clause = Vec::new();
        for (g, gate) in circuit.gates().iter().enumerate() {
            let qubits: Vec<u16> = gate.operands.qubits().collect();
            for e in 0..graph.num_edges() {
                let (pa, pb) = graph.edge(e);
                for t in (sd - 1).max(steps.start)..steps.end {
                    for t_prime in (t + 1 - sd)..=t {
                        for &q in &qubits {
                            for p in [pa, pb] {
                                // (t_g == t') ∧ (π_q^t == p) → ¬σ_e^t
                                clause.clear();
                                self.core.time.var(g).push_neq(t_prime, &mut clause);
                                self.mapping[q as usize][t].push_neq(p as usize, &mut clause);
                                clause.push(!self.core.swap_lits[e][t]);
                                batch.add_clause(&clause);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The scheduling family of the original OLSQ over the whole window:
    /// per-gate space variables with consistency constraints, and overlap
    /// constraints expressed through them (the redundancy Improvement 1
    /// removes). This style never grows its window.
    fn baseline_scheduling(&mut self, circuit: &Circuit, graph: &CouplingGraph) {
        let (np, ne, sd, t_ub) = (graph.num_qubits(), graph.num_edges(), self.sd, self.t_ub());
        let enc = self.config.encoding;
        let (mapping, time, swap_lits) = (&mut self.mapping, &self.core.time, &self.core.swap_lits);
        let mut batch = BatchSink::new(&mut self.core.solver);
        let mut space: Vec<FdVar> = Vec::with_capacity(circuit.num_gates());
        for gate in circuit.gates() {
            let domain = match gate.operands {
                Operands::One(_) => np,
                Operands::Two(..) => ne,
            };
            let var = match enc.mapping {
                MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                    FdVar::new_onehot(&mut batch, domain, enc.amo)
                }
                MappingEncoding::Binary => FdVar::new_binary(&mut batch, domain),
            };
            space.push(var);
        }
        // Consistency between space, time, and mapping variables.
        let (mut clause, mut conj) = (Vec::new(), Vec::new());
        for (g, gate) in circuit.gates().iter().enumerate() {
            match gate.operands {
                Operands::One(q) => {
                    // (t_g == t ∧ x_g == p) → π_q^t == p.
                    for t in 0..t_ub {
                        for p in 0..np {
                            conj.clear();
                            mapping[q as usize][t].push_eq(p, &mut conj);
                            for &bit in &conj {
                                clause.clear();
                                time.var(g).push_neq(t, &mut clause);
                                space[g].push_neq(p, &mut clause);
                                clause.push(bit);
                                batch.add_clause(&clause);
                            }
                        }
                    }
                }
                Operands::Two(q1, q2) => {
                    // (t_g == t ∧ x_g == e) → endpoints match in
                    // either orientation.
                    for t in 0..t_ub {
                        for e in 0..ne {
                            let (pa, pb) = graph.edge(e);
                            let mut orient = Vec::with_capacity(2);
                            for (x, y) in [(pa, pb), (pb, pa)] {
                                let la = mapping[q1 as usize][t].eq_lit(&mut batch, x as usize);
                                let lb = mapping[q2 as usize][t].eq_lit(&mut batch, y as usize);
                                orient.push(gates::and_lit(&mut batch, la, lb));
                            }
                            let both = gates::or_all(&mut batch, &orient);
                            clause.clear();
                            time.var(g).push_neq(t, &mut clause);
                            space[g].push_neq(e, &mut clause);
                            clause.push(both);
                            batch.add_clause(&clause);
                        }
                    }
                }
            }
        }
        // Overlap via space variables (OLSQ Eq. 7–8 analogue).
        for (g, gate) in circuit.gates().iter().enumerate() {
            for e in 0..ne {
                let (pa, pb) = graph.edge(e);
                for t in (sd - 1)..t_ub {
                    for t_prime in (t + 1 - sd)..=t {
                        match gate.operands {
                            Operands::One(_) => {
                                for p in [pa, pb] {
                                    clause.clear();
                                    time.var(g).push_neq(t_prime, &mut clause);
                                    space[g].push_neq(p as usize, &mut clause);
                                    clause.push(!swap_lits[e][t]);
                                    batch.add_clause(&clause);
                                }
                            }
                            Operands::Two(..) => {
                                // Any edge sharing a qubit with e
                                // (including e itself).
                                for e2 in 0..ne {
                                    let (qa, qb) = graph.edge(e2);
                                    let shares =
                                        e2 == e || qa == pa || qa == pb || qb == pa || qb == pb;
                                    if !shares {
                                        continue;
                                    }
                                    clause.clear();
                                    time.var(g).push_neq(t_prime, &mut clause);
                                    space[g].push_neq(e2, &mut clause);
                                    clause.push(!swap_lits[e][t]);
                                    batch.add_clause(&clause);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The mapping transformation over the transitions that end in
    /// `steps` (staged in bulk).
    fn transition_steps(&mut self, graph: &CouplingGraph, steps: Range<usize>) {
        let (mapping, swap_lits) = (&self.mapping, &self.core.swap_lits);
        let mut batch = BatchSink::new(&mut self.core.solver);
        for t in transitions_into(steps) {
            let qubits = mapping.iter().map(|m| (&m[t], &m[t + 1]));
            transition_step(&mut batch, graph, qubits, |e| swap_lits[e][t]);
        }
    }

    /// Forks this model without re-encoding: the underlying solver state
    /// is snapshotted via [`Solver::fork`] (O(memcpy) — clause arena,
    /// watch lists, root trail, phases, activities, proof prefix), the
    /// encoding handles (variable maps, bound activators, cardinality
    /// network, window guard) are cloned, and the fork runs under
    /// `config` from then on.
    ///
    /// `config` must agree with the base model on everything that shapes
    /// the formula (encoding, swap duration, style, proof logging);
    /// callers that cannot guarantee that should fall back to a fresh
    /// build.
    pub fn fork(&mut self, config: &SynthesisConfig) -> FlatModel {
        debug_assert_eq!(config.encoding, self.config.encoding);
        debug_assert_eq!(
            config.swap_duration.max(1),
            self.sd,
            "fork must keep the base swap duration"
        );
        debug_assert_eq!(
            config.proof_log, self.config.proof_log,
            "proof logging is decided at encode time"
        );
        FlatModel {
            core: self.core.fork(),
            mapping: self.mapping.clone(),
            sd: self.sd,
            style: self.style,
            config: config.clone(),
            num_gates: self.num_gates,
        }
    }

    /// Grows the depth window to `new_t_ub` **in place**: appends the new
    /// time steps' variables and constraint families onto the live solver,
    /// through the same per-family emitters the build runs over `0..T_UB`,
    /// keeping every learned clause, VSIDS activity, and saved phase. The
    /// encoding is time-resolved, so all clauses over steps `0..old_t_ub`
    /// remain valid verbatim; only the window-scoped domain constraints
    /// move to a new guard generation, and the superseded guard is
    /// permanently falsified at the root (which [`Solver::simplify`] then
    /// exploits to physically retire the dead constraints).
    ///
    /// Returns `false` without extending when the model cannot extend —
    /// the baseline style, or a binary time encoding that would need a
    /// wider bit-vector. The caller falls back to a rebuild then.
    ///
    /// `circuit` and `graph` must be the ones the model was built from.
    ///
    /// # Panics
    ///
    /// Panics if `new_t_ub` is below the current window.
    pub fn extend_window(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        new_t_ub: usize,
    ) -> bool {
        if self.style != ModelStyle::Olsq2 {
            return false;
        }
        let new_t_ub = new_t_ub.max(1);
        assert!(new_t_ub >= self.t_ub(), "windows only grow");
        if new_t_ub == self.t_ub() {
            return true;
        }
        let steps = self.t_ub()..new_t_ub;
        let enc = self.config.encoding;
        let grown = self.credit(ConstraintFamily::Dependency, |m| {
            m.core.time.grow(&mut m.core.solver, new_t_ub)
        });
        let Some(new_guard) = grown else {
            return false; // binary width grew: caller rebuilds
        };
        self.credit(ConstraintFamily::Mapping, |m| {
            let mut batch = BatchSink::new(&mut m.core.solver);
            let np = graph.num_qubits();
            mapping_steps(&mut batch, &mut m.mapping, np, enc, steps.clone());
        });
        self.emit_steps(circuit, graph, steps.clone());
        self.core.finish_growth(steps, new_guard);
        true
    }

    /// The depth window `T_UB` the model was built for.
    pub fn t_ub(&self) -> usize {
        self.core.window()
    }

    /// Formula-size statistics `(variables, clauses)` of the built model.
    pub fn formula_size(&self) -> (usize, usize) {
        self.core.formula_size()
    }

    /// Per-constraint-family formula-size breakdown. Bound machinery added
    /// after the build ([`FlatModel::depth_bound`], [`FlatModel::swap_bound`])
    /// is credited to [`ConstraintFamily::Cardinality`].
    pub fn breakdown(&self) -> &FamilyTally {
        &self.core.tally
    }

    /// Mutable access to the underlying solver (budgets, statistics).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.core.solver
    }

    /// Activation literal enforcing depth ≤ `depth` (all `t_g ≤ depth-1`,
    /// Eq. 4, and no SWAP finishing at or after `depth`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds `T_UB`.
    pub fn depth_bound(&mut self, depth: usize) -> Lit {
        self.core.time_bound(depth, |_, _| {})
    }

    /// Activation literal enforcing `Σ σ ≤ k` (Eq. 5). The cardinality
    /// network is built lazily on first use with capacity `max_bound`
    /// (later calls may use any `k ≤ max_bound` of the *first* call).
    pub fn swap_bound(&mut self, k: usize, max_bound: usize) -> Lit {
        self.core.swap_bound(k, max_bound)
    }

    /// Number of in-place window extensions performed on this model.
    pub fn extensions(&self) -> usize {
        self.core.extensions()
    }

    /// Solves under the given assumptions plus the active window guard
    /// (without it the guarded at-least-one constraints would let every
    /// time variable go unassigned).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.core.solve(assumptions)
    }

    /// Extracts the layout result from the solver's current model.
    ///
    /// # Panics
    ///
    /// Panics if the last `solve` was not SAT.
    pub fn extract(&self) -> LayoutResult {
        let solver = &self.core.solver;
        let initial_mapping: Vec<u16> = self
            .mapping
            .iter()
            .map(|per_t| per_t[0].value_in(solver) as u16)
            .collect();
        let schedule: Vec<usize> = (0..self.num_gates)
            .map(|g| self.core.time.value_in(solver, g))
            .collect();
        let mut swaps = Vec::new();
        for (e, row) in self.core.swap_lits.iter().enumerate() {
            for (t, &l) in row.iter().enumerate() {
                if solver.model_value(l) == Some(true) {
                    swaps.push(SwapOp {
                        edge: e,
                        finish_time: t,
                    });
                }
            }
        }
        let depth = schedule
            .iter()
            .copied()
            .chain(swaps.iter().map(|s| s.finish_time))
            .max()
            .unwrap_or(0)
            + 1;
        LayoutResult {
            initial_mapping,
            schedule,
            swaps,
            depth,
            swap_duration: self.sd,
        }
    }
}

/// Hard cap on the flat depth window, to catch unroutable instances.
const MAX_T_UB: usize = 4096;

/// The flat model's search rules (§III-B): the time bound is the depth,
/// from the DAG's longest chain `T_LB` up, relaxed geometrically
/// (`r = 1.3` below 100, else 1.1); the window starts at
/// `max(⌈T_LB·tub_factor⌉, T_LB + S_D)` and grows by half, or by `S_D`
/// for a relaxed SWAP-walk depth; the SWAP bound descends one by one
/// from the incumbent.
impl BoundedModel for FlatModel {
    const NAMES: Vocabulary = Vocabulary {
        time_walk: "optimize_depth",
        swap_walk: "optimize_swaps",
        feasible: "solve_feasible",
        objective: "depth",
        floor: "t_lb",
        time_bound: "t_bound",
        window: "t_ub",
    };

    fn time_floor(circuit: &Circuit, config: &SynthesisConfig) -> usize {
        dependency_graph(circuit, config).longest_chain().max(1)
    }

    fn relax(t: usize) -> usize {
        let r = if t < 100 { 1.3 } else { 1.1 };
        ((t as f64 * r).ceil() as usize).max(t + 1)
    }

    fn first_window(t_lb: usize, config: &SynthesisConfig) -> usize {
        let factor = (t_lb as f64 * config.tub_factor).ceil() as usize;
        factor.max(t_lb + config.swap_duration).max(1)
    }

    fn widened_window(t_ub: usize, t: usize, _circuit: &Circuit) -> usize {
        t.max((t_ub as f64 * 1.5).ceil() as usize).min(MAX_T_UB)
    }

    fn swap_floor(_depth: usize) -> usize {
        0
    }

    fn next_swap_bound(_lo: usize, hi: usize) -> usize {
        hi - 1
    }

    fn relaxed_window(t_ub: usize, _t: usize, config: &SynthesisConfig) -> usize {
        (t_ub + config.swap_duration.max(1)).min(MAX_T_UB)
    }

    fn build(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
    ) -> Result<FlatModel, ModelError> {
        FlatModel::build(circuit, graph, config, t_ub)
    }

    /// Forks the configured [`ModelSeed`] when it encodes this exact
    /// instance.
    fn seeded(
        config: &SynthesisConfig,
        circuit: &Circuit,
        graph: &CouplingGraph,
        t_ub: usize,
    ) -> Option<FlatModel> {
        let seed = config.model_seed.as_ref()?;
        let instance = ModelSeed::instance_fingerprint(circuit, graph, config);
        seed.fork_for(config, circuit, graph, instance, t_ub)
    }

    fn core(&self) -> &ModelCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut ModelCore {
        &mut self.core
    }

    fn time_bound(&mut self, depth: usize) -> Lit {
        self.depth_bound(depth)
    }

    fn extend(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        _config: &SynthesisConfig,
        t_ub: usize,
    ) -> bool {
        self.extend_window(circuit, graph, t_ub)
    }

    fn decode(&self, _circuit: &Circuit, _config: &SynthesisConfig) -> (LayoutResult, usize) {
        let result = self.extract();
        let depth = result.depth;
        (result, depth)
    }

    /// Snapshot-on-preempt: when a snapshot slot is configured, fork the
    /// model onto a neutral configuration (no budgets, no stop flag, no
    /// telemetry — those are per-run) and publish it, so a resubmission
    /// can resume from the encoded state — clause arena, learned clauses,
    /// phases, bound activators — instead of from scratch.
    fn preempted(&mut self, config: &SynthesisConfig, circuit: &Circuit, graph: &CouplingGraph) {
        let Some(slot) = &config.snapshot_slot else {
            return;
        };
        let mut neutral = config.clone();
        neutral.time_budget = None;
        neutral.conflict_budget = None;
        neutral.stop_flag = None;
        neutral.incumbent = None;
        neutral.model_seed = None;
        neutral.snapshot_slot = None;
        neutral.recorder = olsq2_obs::Recorder::disabled();
        neutral.probe = olsq2_obs::Probe::disabled();
        let template = self.fork(&neutral);
        let instance = ModelSeed::instance_fingerprint(circuit, graph, &neutral);
        slot.publish(ModelSeed::capture(template, instance));
    }
}

/// A shareable encoded-model template for O(memcpy) resumes.
///
/// Wraps one built [`FlatModel`] behind a mutex so a later run (the
/// service's snapshot-on-preempt resume) can fork it instead of
/// encoding again. The seed remembers the exact instance it
/// encodes — a structural fingerprint of the circuit, the device, and
/// every formula-shaping config field — and [`ModelSeed::fork_for`]
/// refuses to fork for anything else, so a stale or mismatched seed
/// degrades to a fresh build instead of an unsound fork.
#[derive(Debug, Clone)]
pub struct ModelSeed {
    inner: std::sync::Arc<std::sync::Mutex<FlatModel>>,
    instance: u64,
}

impl ModelSeed {
    /// Wraps a built model as a seed for the given instance fingerprint
    /// (from [`ModelSeed::instance_fingerprint`] on the same inputs).
    pub fn capture(model: FlatModel, instance: u64) -> ModelSeed {
        ModelSeed {
            inner: std::sync::Arc::new(std::sync::Mutex::new(model)),
            instance,
        }
    }

    /// The instance fingerprint this seed was captured for.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Structural fingerprint of one synthesis instance: the exact gate
    /// list (kinds, parameters, operands — **not** relabeling-invariant:
    /// a fork replays the base's variable numbering, so only the
    /// bit-identical instance may consume it), the device edge list, and
    /// every config field that shapes the formula or the solver's
    /// pre-search state. Run-scoped handles (budgets, telemetry) are
    /// deliberately excluded — they are re-applied per fork.
    pub fn instance_fingerprint(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
    ) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        "olsq2.instance".hash(&mut h);
        circuit.num_qubits().hash(&mut h);
        for gate in circuit.gates() {
            gate.kind.name().hash(&mut h);
            for p in gate.kind.params() {
                p.to_bits().hash(&mut h);
            }
            match gate.operands {
                Operands::One(q) => (1u8, q, 0u16).hash(&mut h),
                Operands::Two(a, b) => (2u8, a, b).hash(&mut h),
            }
        }
        graph.num_qubits().hash(&mut h);
        for &(a, b) in graph.edges() {
            (a, b).hash(&mut h);
        }
        config.encoding.hash(&mut h);
        config.swap_duration.hash(&mut h);
        config.commutation_aware.hash(&mut h);
        config.proof_log.hash(&mut h);
        h.finish()
    }

    /// Forks a model for `config` at depth window `t_ub`, or `None` when
    /// the seed cannot serve it (different instance, smaller window than
    /// the template's, or a window growth [`FlatModel::extend_window`]
    /// refuses) — the caller then falls back to a fresh encode.
    ///
    /// A larger window is served by forking and growing the *fork* via
    /// [`FlatModel::extend_window`].
    pub fn fork_for(
        &self,
        config: &SynthesisConfig,
        circuit: &Circuit,
        graph: &CouplingGraph,
        instance: u64,
        t_ub: usize,
    ) -> Option<FlatModel> {
        if instance != self.instance {
            return None;
        }
        let mut base = self.inner.lock().ok()?;
        let base_t_ub = base.t_ub();
        if t_ub == base_t_ub {
            return Some(base.fork(config));
        }
        if t_ub > base_t_ub {
            let mut fork = base.fork(config);
            drop(base);
            if fork.extend_window(circuit, graph, t_ub) {
                return Some(fork);
            }
        }
        None
    }
}

/// A handle a preemptible run publishes its encoded state into when the
/// budget expires mid-descent (see `snapshot_slot` on
/// [`SynthesisConfig`]): the service's snapshot-on-preempt hook reads it
/// back and reattaches it as the `model_seed` of the resume run, which
/// then forks instead of re-encoding.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSlot {
    inner: std::sync::Arc<std::sync::Mutex<Option<ModelSeed>>>,
}

impl SnapshotSlot {
    /// Creates an empty slot.
    pub fn new() -> SnapshotSlot {
        SnapshotSlot::default()
    }

    /// Publishes a snapshot (replacing any previous one).
    pub fn publish(&self, seed: ModelSeed) {
        *self.inner.lock().expect("snapshot lock") = Some(seed);
    }

    /// A handle to the current snapshot, if one was published.
    pub fn peek(&self) -> Option<ModelSeed> {
        self.inner.lock().expect("snapshot lock").clone()
    }

    /// Removes and returns the current snapshot.
    pub fn take(&self) -> Option<ModelSeed> {
        self.inner.lock().expect("snapshot lock").take()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("snapshot lock").is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncodingConfig;
    use olsq2_arch::line;
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_layout::verify;

    fn cx_pair_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c
    }

    #[test]
    fn trivial_instance_solves_and_verifies() {
        let circuit = cx_pair_circuit();
        let graph = line(2);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 2).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
    }

    #[test]
    fn distant_qubits_force_a_swap() {
        // cx(q0,q1) twice on a 3-line: only 2 program qubits, 3 physical.
        // With depth window 1 and swap window too small it is UNSAT; with a
        // wide window it is SAT.
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
        // A triangle on a line needs at least one swap.
        assert!(!result.swaps.is_empty());
    }

    #[test]
    fn depth_bounds_are_monotone() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 4).expect("builds");
        let b2 = model.depth_bound(2);
        let b4 = model.depth_bound(4);
        assert_eq!(model.solve(&[b2]), SolveResult::Sat);
        let r = model.extract();
        assert!(r.depth <= 2);
        assert_eq!(model.solve(&[b4]), SolveResult::Sat);
        // Bound 1 is impossible: two dependent gates.
        let b1 = model.depth_bound(1);
        assert_eq!(model.solve(&[b1]), SolveResult::Unsat);
    }

    #[test]
    fn swap_bound_zero_forbids_swaps() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 8).expect("builds");
        let s0 = model.swap_bound(0, 4);
        assert_eq!(model.solve(&[s0]), SolveResult::Unsat); // triangle needs a swap
        let s1 = model.swap_bound(1, 4);
        let r1 = model.solve(&[s1]);
        assert_eq!(r1, SolveResult::Sat);
        let result = model.extract();
        assert_eq!(result.swap_count(), 1);
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
    }

    #[test]
    fn all_encodings_agree_on_feasibility() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        for enc in [
            EncodingConfig::bv(),
            EncodingConfig::int(),
            EncodingConfig::euf_int(),
            EncodingConfig::euf_bv(),
        ] {
            let config = SynthesisConfig {
                encoding: enc,
                swap_duration: 1,
                ..SynthesisConfig::default()
            };
            let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
            let s0 = model.swap_bound(0, 3);
            assert_eq!(model.solve(&[s0]), SolveResult::Unsat, "{enc:?}");
            let s1 = model.swap_bound(1, 3);
            assert_eq!(model.solve(&[s1]), SolveResult::Sat, "{enc:?}");
            let result = model.extract();
            assert_eq!(verify(&circuit, &graph, &result), Ok(()), "{enc:?}");
        }
    }

    #[test]
    fn baseline_style_agrees_with_olsq2() {
        use crate::model::ModelStyle;
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut baseline =
            FlatModel::build_with_style(&circuit, &graph, &config, 6, ModelStyle::OlsqBaseline)
                .expect("builds");
        let mut succinct = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        // The baseline carries strictly more variables (the space vars).
        assert!(baseline.formula_size().0 > succinct.formula_size().0);
        // Both agree on swap feasibility bounds.
        for k in 0..3usize {
            let ab = baseline.swap_bound(k, 3);
            let sb = succinct.swap_bound(k, 3);
            let rb = baseline.solve(&[ab]);
            let rs = succinct.solve(&[sb]);
            assert_eq!(rb, rs, "k={k}");
            if rb == SolveResult::Sat {
                let res = baseline.extract();
                assert_eq!(verify(&circuit, &graph, &res), Ok(()));
            }
        }
    }

    #[test]
    fn breakdown_accounts_for_the_whole_formula() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        // Every build-time family is populated (clauses may be stored as
        // trail units, so compare vars exactly and clauses as an upper
        // bound: some clauses become root-level units or are simplified).
        for fam in [
            ConstraintFamily::Mapping,
            ConstraintFamily::Dependency,
            ConstraintFamily::Swap,
            ConstraintFamily::Scheduling,
            ConstraintFamily::Transition,
        ] {
            assert!(model.breakdown().get(fam).vars > 0 || model.breakdown().get(fam).clauses > 0);
        }
        assert_eq!(model.breakdown().total().vars, model.formula_size().0);
        assert_eq!(model.breakdown().total().clauses, model.formula_size().1);
        // Bound machinery lands in the cardinality family.
        let before = model.breakdown().get(ConstraintFamily::Cardinality);
        model.swap_bound(1, 3);
        model.depth_bound(4);
        let after = model.breakdown().get(ConstraintFamily::Cardinality);
        assert!(after.vars > before.vars);
        assert_eq!(model.breakdown().total().vars, model.formula_size().0);
    }

    #[test]
    fn rejects_structurally_bad_instances() {
        let graph = line(2);
        let mut big = Circuit::new(3);
        big.push(Gate::two(GateKind::Cx, 0, 2));
        let config = SynthesisConfig::default();
        assert!(matches!(
            FlatModel::build(&big, &graph, &config, 4),
            Err(ModelError::TooManyQubits { .. })
        ));
        assert!(matches!(
            FlatModel::build(&Circuit::new(2), &graph, &config, 4),
            Err(ModelError::EmptyCircuit)
        ));
    }

    #[test]
    fn swap_duration_three_spaces_out_swaps() {
        // One swap needed; with S_D=3 the earliest finish is t=2, so the
        // dependent gate lands at t≥3.
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(3);
        let mut model = FlatModel::build(&circuit, &graph, &config, 10).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
        assert!(result.swaps.iter().all(|s| s.finish_time >= 2));
    }
}
