//! TB-OLSQ2 — the transition-based, coarse-grained model (§III-D).
//!
//! Time is abstracted into *blocks* separated by mapping transitions: a
//! mapping `π_q^b` per block, a block index `t_g` per gate, and SWAP
//! variables `σ_e^b` on the transition after block `b`. Dependent gates may
//! share a block (the dependency becomes `t_g ≤ t_g'`), SWAPs never overlap
//! gates (they live between blocks, so Eq. 2–3 vanish), and each transition
//! is one layer of SWAPs on disjoint edges. The objective is block count or
//! SWAP count; results are lowered back to a time-resolved
//! [`LayoutResult`] by list-scheduling each block.

// Indexed `for` loops are deliberate here: block/edge index loops mirror the paper's formulation.
#![allow(clippy::needless_range_loop)]
use crate::config::{MappingEncoding, SynthesisConfig};
use crate::model::ModelError;
use crate::optimize::{result_str, Olsq2Synthesizer, SynthesisError, SynthesisOutcome};
use crate::vars::{
    adjacency_steps, mapping_steps, transition_step, transitions_into, FdVar, TimeVars,
};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, DependencyGraph};
use olsq2_encode::{CardinalityNetwork, ConstraintFamily, FamilyTally};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_sat::{Lit, SolveResult, Solver};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// The transition-based model over a block window.
#[derive(Debug)]
struct TransitionModel {
    solver: Solver,
    /// `mapping[q][b]`.
    mapping: Vec<Vec<FdVar>>,
    time: TimeVars,
    /// `swap_lits[e][b]` for transitions `b` in `0..blocks-1`.
    swap_lits: Vec<Vec<Lit>>,
    blocks: usize,
    block_bounds: HashMap<usize, Lit>,
    swap_card: Option<CardinalityNetwork>,
    tally: FamilyTally,
    /// Current window-generation guard; every solve assumes it, and
    /// [`TransitionModel::extend_blocks`] retires it.
    window_guard: Lit,
    /// Number of in-place block-window extensions performed.
    extensions: usize,
}

impl TransitionModel {
    fn build(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        blocks: usize,
    ) -> Result<TransitionModel, ModelError> {
        let nq = circuit.num_qubits();
        let np = graph.num_qubits();
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
        let blocks = blocks.max(1);
        let mut solver = Solver::new();
        let enc = config.encoding;
        let mut tally = FamilyTally::new();

        // Mapping variables + injectivity per block.
        let mark = tally.mark(&solver);
        let mut mapping = vec![Vec::new(); nq];
        mapping_steps(&mut solver, &mut mapping, np, enc, 0..blocks);
        let mark = tally.credit_since(ConstraintFamily::Mapping, &solver, mark);

        // Block-index variables on a guarded window that can grow in place
        // (see [`TransitionModel::extend_blocks`]); dependencies are
        // non-strict (gates may share a block).
        let dag = if config.commutation_aware {
            DependencyGraph::new_with_commutation(circuit)
        } else {
            DependencyGraph::new(circuit)
        };
        let mut time = TimeVars::new(circuit.num_gates(), enc.time, enc.amo);
        let window_guard = time
            .grow(&mut solver, blocks)
            .expect("an empty window grows");
        for &(g, g2) in dag.dependencies() {
            time.assert_before_or_equal(&mut solver, g, g2);
        }
        tally.credit_since(ConstraintFamily::Dependency, &solver, mark);

        let mut model = TransitionModel {
            solver,
            mapping,
            time,
            swap_lits: vec![Vec::new(); graph.num_edges()],
            blocks,
            block_bounds: HashMap::new(),
            swap_card: None,
            tally,
            window_guard,
            extensions: 0,
        };
        model.emit_blocks(circuit, graph, 0..blocks);

        // Structure-aware seeding: same rationale as the flat model —
        // prefer the all-false polarity inside one-hot groups and on the
        // transition SWAP layer, and nudge the first decisions at block 0
        // (0.25, not full VSIDS weight — see the flat model's note on
        // bump-induced fixation).
        let solver = &mut model.solver;
        if matches!(
            enc.mapping,
            MappingEncoding::OneHot | MappingEncoding::InverseOneHot
        ) {
            for per_b in &model.mapping {
                for fd in per_b {
                    for l in fd.raw_lits() {
                        solver.set_saved_phase(l.var(), false);
                    }
                }
                for l in per_b[0].raw_lits() {
                    solver.boost_activity(l.var(), 0.25);
                }
            }
        }
        for per_b in &model.swap_lits {
            for &sl in per_b {
                solver.set_saved_phase(sl.var(), false);
            }
        }

        // Everything past the build is bound-machinery: activation
        // literals, cardinality counters, window-growth variables. Clauses
        // over them encode cross-solve contracts, so inprocessing must
        // leave them exactly as written.
        solver.set_inprocess_floor(solver.num_vars());
        Ok(model)
    }

    /// Runs one family emitter and credits what it adds to `family`.
    fn credit<R>(&mut self, family: ConstraintFamily, emit: impl FnOnce(&mut Self) -> R) -> R {
        let mark = self.tally.mark(&self.solver);
        let out = emit(self);
        self.tally.credit_since(family, &self.solver, mark);
        out
    }

    /// The families that follow the mapping and block-index variables,
    /// over `blocks`, in build order: transition SWAP layers, adjacency
    /// inside blocks (Eq. 1 on block mappings), mapping transformation.
    fn emit_blocks(&mut self, circuit: &Circuit, graph: &CouplingGraph, blocks: Range<usize>) {
        self.credit(ConstraintFamily::Swap, |m| {
            m.swap_layers(graph, blocks.clone())
        });
        self.credit(ConstraintFamily::Scheduling, |m| {
            let (mapping, time) = (&mut m.mapping, &m.time);
            adjacency_steps(&mut m.solver, circuit, graph, mapping, time, blocks.clone());
        });
        self.credit(ConstraintFamily::Transition, |m| {
            m.transition_layers(graph, blocks)
        });
    }

    /// The SWAP layers on the transitions that end in `blocks`: one
    /// variable per edge and transition, each layer on disjoint edges.
    fn swap_layers(&mut self, graph: &CouplingGraph, blocks: Range<usize>) {
        let layers = transitions_into(blocks);
        for row in &mut self.swap_lits {
            row.extend(layers.clone().map(|_| Lit::positive(self.solver.new_var())));
        }
        let ne = graph.num_edges();
        for e1 in 0..ne {
            let (a1, b1) = graph.edge(e1);
            for e2 in (e1 + 1)..ne {
                let (a2, b2) = graph.edge(e2);
                let shares = a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2;
                if !shares {
                    continue;
                }
                for b in layers.clone() {
                    self.solver
                        .add_clause([!self.swap_lits[e1][b], !self.swap_lits[e2][b]]);
                }
            }
        }
    }

    /// The mapping transformation across the transitions that end in
    /// `blocks`.
    fn transition_layers(&mut self, graph: &CouplingGraph, blocks: Range<usize>) {
        let (mapping, swap_lits) = (&self.mapping, &self.swap_lits);
        for b in transitions_into(blocks) {
            let qubits = mapping.iter().map(|per_b| (&per_b[b], &per_b[b + 1]));
            transition_step(&mut self.solver, graph, qubits, |e| swap_lits[e][b]);
        }
    }

    /// Grows the block window to `new_blocks` in place — the transition
    /// analogue of `FlatModel::extend_window`, through the same per-family
    /// emitters the build runs. Block-index variables move to a new guard
    /// generation and recorded dependencies are re-emitted for the new
    /// values. Returns `false` (caller rebuilds) for a binary block index
    /// needing a wider bit-vector.
    fn extend_blocks(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        new_blocks: usize,
    ) -> bool {
        let new_blocks = new_blocks.max(1);
        assert!(new_blocks >= self.blocks, "block windows only grow");
        if new_blocks == self.blocks {
            return true;
        }
        let blocks = self.blocks..new_blocks;
        let grown = self.credit(ConstraintFamily::Dependency, |m| {
            m.time.grow(&mut m.solver, new_blocks)
        });
        let Some(new_guard) = grown else {
            return false; // binary width grew: caller rebuilds
        };
        self.credit(ConstraintFamily::Mapping, |m| {
            let np = graph.num_qubits();
            mapping_steps(
                &mut m.solver,
                &mut m.mapping,
                np,
                config.encoding,
                blocks.clone(),
            );
        });
        self.emit_blocks(circuit, graph, blocks.clone());
        self.credit(ConstraintFamily::Cardinality, |m| {
            // Cached bounds cover the new blocks under their own
            // activators, in order of `k` for a deterministic clause order.
            let mut block_acts: Vec<(usize, Lit)> =
                m.block_bounds.iter().map(|(&k, &a)| (k, a)).collect();
            block_acts.sort_unstable_by_key(|&(k, _)| k);
            for (k, act) in block_acts {
                m.block_bound_steps(act, k, blocks.clone());
            }
            if let Some(card) = &mut m.swap_card {
                let first = transitions_into(blocks).start;
                let new_inputs: Vec<Lit> = m
                    .swap_lits
                    .iter()
                    .flat_map(|row| row[first..].iter().copied())
                    .collect();
                for l in card.extend(&mut m.solver, &new_inputs) {
                    m.solver.add_clause([!l]);
                }
            }
        });

        // --- Generation flip ----------------------------------------------
        self.solver.add_clause([!self.window_guard]);
        self.solver.simplify();
        self.window_guard = new_guard;
        self.blocks = new_blocks;
        self.extensions += 1;
        true
    }

    /// Solves under the given assumptions plus the active window guard.
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let mut with_guard = Vec::with_capacity(assumptions.len() + 1);
        with_guard.extend_from_slice(assumptions);
        with_guard.push(self.window_guard);
        let result = self.solver.solve(&with_guard);
        // Steer subsequent (tighter) solves toward the incumbent layout.
        if result == SolveResult::Sat {
            self.solver.adopt_model_targets();
        }
        result
    }

    /// Activation literal for "exactly `k` blocks are used": all gates in
    /// blocks `0..k`, no SWAP on transitions `k-1..`, and — the paper's
    /// symmetry breaking behind its early termination rule — every live
    /// transition carries at least one SWAP (a solution with an empty
    /// transition is identical to one with fewer blocks, which the search
    /// has already covered).
    fn block_bound(&mut self, k: usize) -> Lit {
        assert!(k >= 1 && k <= self.blocks);
        if let Some(&l) = self.block_bounds.get(&k) {
            return l;
        }
        let act = self.credit(ConstraintFamily::Cardinality, |m| {
            let act = Lit::positive(m.solver.new_var());
            m.block_bound_steps(act, k, 0..m.blocks);
            // The symmetry clauses reference only transitions below
            // `k - 1`, which no later growth adds to.
            for b in 0..k.saturating_sub(1) {
                let mut clause = vec![!act];
                clause.extend(m.swap_lits.iter().map(|row| row[b]));
                m.solver.add_clause(clause);
            }
            act
        });
        self.block_bounds.insert(k, act);
        act
    }

    /// The block bound under `act` over `blocks`: no gate in a block
    /// from `k` on and no SWAP on a transition from `k - 1` on.
    fn block_bound_steps(&mut self, act: Lit, k: usize, blocks: Range<usize>) {
        let layers = transitions_into(blocks.clone());
        self.time.bound_if(&mut self.solver, k, act, blocks);
        for row in &self.swap_lits {
            for &l in &row[(k - 1).max(layers.start)..layers.end] {
                self.solver.add_clause([!act, !l]);
            }
        }
    }

    fn swap_bound(&mut self, k: usize, capacity: usize, enc: olsq2_encode::CardEncoding) -> Lit {
        let mark = self.tally.mark(&self.solver);
        if self.swap_card.is_none() {
            let inputs: Vec<Lit> = self
                .swap_lits
                .iter()
                .flat_map(|row| row.iter().copied())
                .collect();
            self.swap_card = Some(CardinalityNetwork::new(
                &mut self.solver,
                &inputs,
                capacity,
                enc,
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

    /// Decodes `(block mapping, per-gate block, transition swaps)`.
    fn decode(&self, circuit: &Circuit) -> TbSolution {
        let blocks = self.blocks;
        let mapping: Vec<Vec<u16>> = (0..blocks)
            .map(|b| {
                self.mapping
                    .iter()
                    .map(|per_b| per_b[b].value_in(&self.solver) as u16)
                    .collect()
            })
            .collect();
        let gate_block: Vec<usize> = (0..circuit.num_gates())
            .map(|g| self.time.value_in(&self.solver, g))
            .collect();
        let swaps: Vec<Vec<usize>> = (0..blocks.saturating_sub(1))
            .map(|b| {
                self.swap_lits
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| self.solver.model_value(row[b]) == Some(true))
                    .map(|(e, _)| e)
                    .collect()
            })
            .collect();
        TbSolution {
            mapping,
            gate_block,
            swaps,
        }
    }
}

/// A decoded transition-based solution before lowering.
#[derive(Debug, Clone)]
struct TbSolution {
    /// `mapping[b][q]` per block.
    mapping: Vec<Vec<u16>>,
    /// Block index per gate.
    gate_block: Vec<usize>,
    /// Edge indices swapped at each transition.
    swaps: Vec<Vec<usize>>,
}

impl TbSolution {
    fn swap_count(&self) -> usize {
        self.swaps.iter().map(Vec::len).sum()
    }

    fn used_blocks(&self) -> usize {
        self.gate_block.iter().copied().max().unwrap_or(0) + 1
    }

    /// Lowers to a time-resolved [`LayoutResult`]: list-schedule each block
    /// ASAP, then place the transition's SWAP layer after it.
    fn lower(&self, circuit: &Circuit, swap_duration: usize) -> LayoutResult {
        let sd = swap_duration.max(1);
        let blocks = self.used_blocks();
        let mut schedule = vec![0usize; circuit.num_gates()];
        let mut swaps = Vec::new();
        let mut cursor = 0usize;
        let mut qubit_ready = vec![0usize; circuit.num_qubits()];
        for b in 0..blocks {
            let mut block_end = cursor;
            for (g, gate) in circuit.gates().iter().enumerate() {
                if self.gate_block[g] != b {
                    continue;
                }
                let start = gate
                    .operands
                    .qubits()
                    .map(|q| qubit_ready[q as usize])
                    .max()
                    .unwrap_or(cursor)
                    .max(cursor);
                schedule[g] = start;
                for q in gate.operands.qubits() {
                    qubit_ready[q as usize] = start + 1;
                }
                block_end = block_end.max(start + 1);
            }
            cursor = block_end;
            if b + 1 < blocks {
                let layer = &self.swaps[b];
                if !layer.is_empty() {
                    let finish = cursor + sd - 1;
                    for &e in layer {
                        swaps.push(SwapOp {
                            edge: e,
                            finish_time: finish,
                        });
                    }
                    cursor = finish + 1;
                }
                for r in &mut qubit_ready {
                    *r = (*r).max(cursor);
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
            initial_mapping: self.mapping[0].clone(),
            schedule,
            swaps,
            depth,
            swap_duration: sd,
        }
    }
}

/// Outcome of a TB-OLSQ2 run.
#[derive(Debug, Clone)]
pub struct TbOutcome {
    /// The lowered, time-resolved result.
    pub outcome: SynthesisOutcome,
    /// Number of blocks in the solution.
    pub block_count: usize,
}

/// Where a TB walk stands: the warm model, its best witness, and whether
/// the walk has proven it optimal. The block walk's end state is what
/// [`TbOlsq2Synthesizer::optimize_blocks`] reports and
/// [`TbOlsq2Synthesizer::optimize_swaps`] carries into its SWAP phase.
struct TbWalk {
    model: TransitionModel,
    best: TbSolution,
    iterations: usize,
    proven: bool,
}

/// The TB-OLSQ2 synthesizer (transition-based, near-optimal SWAP count).
///
/// # Examples
///
/// ```
/// use olsq2::{TbOlsq2Synthesizer, SynthesisConfig};
/// use olsq2_arch::line;
/// use olsq2_circuit::{Circuit, Gate, GateKind};
/// use olsq2_layout::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(3);
/// circuit.push(Gate::two(GateKind::Cx, 0, 1));
/// circuit.push(Gate::two(GateKind::Cx, 1, 2));
/// circuit.push(Gate::two(GateKind::Cx, 0, 2));
/// let graph = line(3);
/// let synth = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
/// let out = synth.optimize_swaps(&circuit, &graph)?;
/// assert_eq!(out.outcome.result.swap_count(), 1);
/// assert_eq!(verify(&circuit, &graph, &out.outcome.result), Ok(()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TbOlsq2Synthesizer {
    config: SynthesisConfig,
}

impl TbOlsq2Synthesizer {
    /// Creates a TB synthesizer.
    pub fn new(config: SynthesisConfig) -> TbOlsq2Synthesizer {
        TbOlsq2Synthesizer { config }
    }

    fn deadline(&self) -> Option<Instant> {
        self.config.time_budget.map(|b| Instant::now() + b)
    }

    fn arm(&self, model: &mut TransitionModel, deadline: Option<Instant>) {
        model.solver.set_deadline(deadline);
        model
            .solver
            .set_conflict_budget(self.config.conflict_budget);
        model.solver.set_stop_flag(self.config.stop_flag.clone());
    }

    /// Builds the transition model under an `encode` span carrying the
    /// per-family formula breakdown, and installs the recorder in the
    /// solver.
    fn build_model(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        blocks: usize,
    ) -> Result<TransitionModel, ModelError> {
        let span = self.config.recorder.span("encode");
        span.set("blocks", blocks);
        let mut model = TransitionModel::build(circuit, graph, &self.config, blocks)?;
        if self.config.recorder.is_enabled() {
            span.set("vars", model.solver.num_vars());
            span.set("clauses", model.solver.num_clauses());
            for (fam, c) in model.tally.iter() {
                span.set(fam.vars_key(), c.vars);
                span.set(fam.clauses_key(), c.clauses);
            }
        }
        model.solver.set_recorder(self.config.recorder.clone());
        model.solver.set_probe(self.config.probe.clone());
        Ok(model)
    }

    /// Grows `model` to `blocks` in place via
    /// [`TransitionModel::extend_blocks`], or by rebuilding from scratch
    /// where the extension refuses (a binary block index that needs a
    /// wider bit-vector).
    fn grow_model(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        model: &mut TransitionModel,
        blocks: usize,
    ) -> Result<(), ModelError> {
        let span = self.config.recorder.span("extend");
        span.set("blocks", blocks);
        let vars_before = model.solver.num_vars();
        let clauses_before = model.solver.num_clauses();
        let extend_start = Instant::now();
        if model.extend_blocks(circuit, graph, &self.config, blocks) {
            span.set("extend_us", extend_start.elapsed().as_micros() as u64);
            span.set("appended_vars", model.solver.num_vars() - vars_before);
            span.set(
                "appended_clauses",
                model.solver.num_clauses().saturating_sub(clauses_before),
            );
            return Ok(());
        }
        span.set("result", "rebuild");
        *model = self.build_model(circuit, graph, blocks)?;
        Ok(())
    }

    /// Opens one `iteration` span tagged with the active bounds.
    fn iteration_span(&self, objective: &str, bounds: &[(&str, usize)]) -> olsq2_obs::SpanGuard {
        let span = self.config.recorder.span("iteration");
        span.set("objective", objective);
        for &(k, v) in bounds {
            span.set(k, v);
        }
        span
    }

    /// Publishes a lowered intermediate solution to the configured
    /// incumbent slot (see [`crate::IncumbentSlot`]).
    fn publish_incumbent(&self, result: &olsq2_layout::LayoutResult) {
        if let Some(slot) = &self.config.incumbent {
            slot.publish(result);
        }
    }

    /// One bound probe on `model`: exactly `blocks` blocks, plus
    /// `swaps ≤ k` (cardinality network of capacity `capacity`) when
    /// `swap_bound` is `Some((k, capacity))`. Arms the activators and the
    /// run's budgets and solves inside one `iteration` span carrying the
    /// bounds, the arm and solve times, the verdict and the solver-stat
    /// deltas.
    fn probe(
        &self,
        model: &mut TransitionModel,
        deadline: Option<Instant>,
        blocks: usize,
        swap_bound: Option<(usize, usize)>,
    ) -> SolveResult {
        let span = match swap_bound {
            None => self.iteration_span("blocks", &[("block_bound", blocks)]),
            Some((k, _)) => {
                self.iteration_span("swaps", &[("block_bound", blocks), ("swap_bound", k)])
            }
        };
        let encode_start = Instant::now();
        let mut acts = vec![model.block_bound(blocks)];
        if let Some((k, capacity)) = swap_bound {
            acts.push(model.swap_bound(k, capacity, self.config.encoding.cardinality));
        }
        span.set("encode_us", encode_start.elapsed().as_micros() as u64);
        self.arm(model, deadline);
        let stats_before = model.solver.stats();
        let solve_start = Instant::now();
        let res = model.solve(&acts);
        span.set("solve_us", solve_start.elapsed().as_micros() as u64);
        span.set("result", result_str(res));
        Olsq2Synthesizer::set_iteration_deltas(&span, stats_before, model.solver.stats());
        res
    }

    /// Decodes the SAT witness on `model` and publishes it as an incumbent.
    fn take_witness(&self, circuit: &Circuit, model: &TransitionModel) -> TbSolution {
        let sol = model.decode(circuit);
        self.publish_incumbent(&sol.lower(circuit, self.config.swap_duration));
        sol
    }

    /// The block walk of §III-D under one `tb_optimize_blocks` span: probe
    /// `k = 1, 2, …` blocks until the first SAT, on a window that starts at
    /// 4 blocks and doubles when `k` outgrows it. Every `k − 1` was refuted
    /// first, so the witness is block-optimal.
    fn block_walk(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        deadline: Option<Instant>,
    ) -> Result<TbWalk, SynthesisError> {
        let outer = self.config.recorder.span("tb_optimize_blocks");
        let mut model = self.build_model(circuit, graph, 4)?;
        let mut iterations = 0usize;
        let mut k = 1usize;
        loop {
            if k > model.blocks {
                let window = (model.blocks * 2).min(circuit.num_gates().max(4));
                if k > window {
                    return Err(SynthesisError::WindowExhausted);
                }
                self.grow_model(circuit, graph, &mut model, window)?;
            }
            iterations += 1;
            match self.probe(&mut model, deadline, k, None) {
                SolveResult::Sat => {
                    let best = self.take_witness(circuit, &model);
                    outer.set("iterations", iterations);
                    return Ok(TbWalk {
                        model,
                        best,
                        iterations,
                        proven: true,
                    });
                }
                SolveResult::Unsat => k += 1,
                SolveResult::Unknown => return Err(SynthesisError::BudgetExhausted),
            }
        }
    }

    /// Reports a walk's end state.
    fn finish(&self, circuit: &Circuit, start: Instant, walk: TbWalk) -> TbOutcome {
        let TbWalk {
            model,
            best,
            iterations,
            proven,
        } = walk;
        TbOutcome {
            outcome: SynthesisOutcome {
                result: best.lower(circuit, self.config.swap_duration),
                proven_optimal: proven,
                iterations,
                elapsed: start.elapsed(),
                formula_size: (model.solver.num_vars(), model.solver.num_clauses()),
                solver_stats: model.solver.stats(),
                extensions: model.extensions,
                refutation: None,
            },
            block_count: best.used_blocks(),
        }
    }

    /// Minimizes the block count: start at 1 block, increase by 1 until
    /// SAT (§III-D).
    ///
    /// # Errors
    ///
    /// Standard [`SynthesisError`] conditions.
    pub fn optimize_blocks(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<TbOutcome, SynthesisError> {
        let start = Instant::now();
        let walk = self.block_walk(circuit, graph, self.deadline())?;
        Ok(self.finish(circuit, start, walk))
    }

    /// SWAP-count optimization over the transition model: block-optimal
    /// first, then iterative descent; relax the block count when the
    /// optimum under the current count is proven; stop early when
    /// `S = blocks - 1` (each transition needs at least one SWAP).
    ///
    /// The SWAP phase runs on the block walk's warm model, under the same
    /// deadline: its learned clauses, saved phases and cached block
    /// activators carry over, and the window grows only when relaxation
    /// needs a block beyond it. One solver runs every probe, so
    /// `solver_stats` covers the whole run.
    ///
    /// # Errors
    ///
    /// Standard [`SynthesisError`] conditions.
    pub fn optimize_swaps(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<TbOutcome, SynthesisError> {
        let start = Instant::now();
        let deadline = self.deadline();
        let outer = self.config.recorder.span("tb_optimize_swaps");
        let mut walk = self.block_walk(circuit, graph, deadline)?;
        let model = &mut walk.model;
        let mut blocks = walk.best.used_blocks();
        let mut best_count = walk.best.swap_count();
        let capacity = best_count.max(1);
        let mut relax_rounds = 0usize;

        'outer: loop {
            // Descend at the current block count: a bracketed binary
            // search instead of the linear walk. Every solution at `b`
            // blocks carries at least `b − 1` SWAPs (one per transition),
            // so the optimum under this count lies in
            // `[blocks − 1, best_count]`; SAT threshold queries are
            // monotone, so halving the bracket preserves the optimum in
            // O(log) probes, and each probe re-uses the cached
            // `swap_bound`/`block_bound` activators — no re-encode per
            // candidate count.
            let mut lo = blocks.saturating_sub(1);
            while best_count > lo {
                let k = lo + (best_count - 1 - lo) / 2;
                walk.iterations += 1;
                match self.probe(model, deadline, blocks, Some((k, capacity))) {
                    SolveResult::Sat => {
                        // The witness may beat the probed bound: jump the
                        // upper end straight to its achieved count.
                        walk.best = self.take_witness(circuit, model);
                        best_count = walk.best.swap_count();
                    }
                    SolveResult::Unsat => lo = k + 1,
                    SolveResult::Unknown => {
                        walk.proven = false;
                        break 'outer;
                    }
                }
            }
            // Bracket closed: everything below `best_count` is refuted or
            // structurally impossible here. Early termination (§III-D):
            // at b+1 blocks every solution has at least b SWAPs (one per
            // transition), so relaxing cannot beat a count of ≤ b.
            if best_count <= blocks {
                break;
            }
            if let Some(limit) = self.config.pareto_relax_limit {
                if relax_rounds >= limit {
                    break;
                }
            }
            relax_rounds += 1;
            // Relax the block count by one and try to do better.
            let new_blocks = blocks + 1;
            if new_blocks > model.blocks {
                self.grow_model(circuit, graph, model, new_blocks)?;
            }
            walk.iterations += 1;
            match self.probe(
                model,
                deadline,
                new_blocks,
                Some((best_count - 1, capacity)),
            ) {
                SolveResult::Sat => {
                    walk.best = self.take_witness(circuit, model);
                    best_count = walk.best.swap_count();
                    blocks = new_blocks;
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => {
                    walk.proven = false;
                    break;
                }
            }
        }

        outer.set("iterations", walk.iterations);
        outer.set("proven_optimal", walk.proven);
        Ok(self.finish(circuit, start, walk))
    }

    /// Builds a model with a fixed block window and solves once under the
    /// given SWAP bound — the Table II measurement for TB-OLSQ2(CNF).
    ///
    /// # Errors
    ///
    /// Propagates model errors; `Ok(None)` if the budget expired.
    pub fn solve_feasible(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        blocks: usize,
        swap_bound: Option<usize>,
    ) -> Result<Option<SynthesisOutcome>, SynthesisError> {
        let start = Instant::now();
        let outer = self.config.recorder.span("tb_solve_feasible");
        outer.set("blocks", blocks);
        let mut model = self.build_model(circuit, graph, blocks)?;
        let mut assumptions = Vec::new();
        if let Some(k) = swap_bound {
            assumptions.push(model.swap_bound(k, k, self.config.encoding.cardinality));
        }
        self.arm(&mut model, self.deadline());
        let span = self.iteration_span("feasible", &[("block_bound", blocks)]);
        let stats_before = model.solver.stats();
        let solve_start = Instant::now();
        let res = model.solve(&assumptions);
        span.set("solve_us", solve_start.elapsed().as_micros() as u64);
        span.set("result", result_str(res));
        Olsq2Synthesizer::set_iteration_deltas(&span, stats_before, model.solver.stats());
        drop(span);
        match res {
            SolveResult::Sat => {
                let sol = model.decode(circuit);
                let result = sol.lower(circuit, self.config.swap_duration);
                self.publish_incumbent(&result);
                Ok(Some(SynthesisOutcome {
                    result,
                    proven_optimal: false,
                    iterations: 1,
                    elapsed: start.elapsed(),
                    formula_size: (model.solver.num_vars(), model.solver.num_clauses()),
                    solver_stats: model.solver.stats(),
                    extensions: model.extensions,
                    refutation: None,
                }))
            }
            SolveResult::Unsat => Err(SynthesisError::WindowExhausted),
            SolveResult::Unknown => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{grid, line};
    use olsq2_circuit::generators::{qaoa_circuit, tof_circuit};
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_encode::CardEncoding;
    use olsq2_layout::verify;
    use olsq2_prng::Rng;

    fn triangle() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c.push(Gate::two(GateKind::Cx, 1, 2));
        c.push(Gate::two(GateKind::Cx, 0, 2));
        c
    }

    #[test]
    fn tb_block_optimal_on_triangle() {
        let synth = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth
            .optimize_blocks(&triangle(), &line(3))
            .expect("solves");
        // The triangle needs two blocks on a line (one transition).
        assert_eq!(out.block_count, 2);
        assert_eq!(verify(&triangle(), &line(3), &out.outcome.result), Ok(()));
    }

    #[test]
    fn tb_swap_optimal_on_triangle() {
        let synth = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth.optimize_swaps(&triangle(), &line(3)).expect("solves");
        assert_eq!(out.outcome.result.swap_count(), 1);
        assert!(out.outcome.proven_optimal);
        assert_eq!(verify(&triangle(), &line(3), &out.outcome.result), Ok(()));
    }

    #[test]
    fn tb_zero_swaps_when_embeddable() {
        let mut circuit = Circuit::new(4);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 2, 3));
        let synth = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3));
        let out = synth.optimize_swaps(&circuit, &grid(2, 2)).expect("solves");
        assert_eq!(out.outcome.result.swap_count(), 0);
        assert_eq!(out.block_count, 1);
        assert_eq!(verify(&circuit, &grid(2, 2), &out.outcome.result), Ok(()));
    }

    #[test]
    fn tb_lowering_respects_dependencies_in_one_block() {
        // Three dependent gates all fit one block (they are chained on the
        // same qubits) — lowering must serialize them.
        let mut circuit = Circuit::new(2);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 0));
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        let synth = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3));
        let out = synth.optimize_swaps(&circuit, &line(2)).expect("solves");
        assert_eq!(out.block_count, 1);
        assert_eq!(out.outcome.result.depth, 3);
        assert_eq!(verify(&circuit, &line(2), &out.outcome.result), Ok(()));
    }

    #[test]
    fn tb_feasibility_probe() {
        let synth = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth
            .solve_feasible(&triangle(), &line(3), 3, Some(2))
            .expect("no model error")
            .expect("in budget");
        assert!(out.result.swap_count() <= 2);
        assert_eq!(verify(&triangle(), &line(3), &out.result), Ok(()));
    }

    #[test]
    fn swap_phase_reuses_the_block_model_and_counts_every_probe() {
        let circuit = olsq2_circuit::generators::qaoa_circuit(6, 42);
        let graph = grid(2, 3);
        let rec = olsq2_obs::Recorder::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.recorder = rec.clone();
        let out = TbOlsq2Synthesizer::new(config)
            .optimize_swaps(&circuit, &graph)
            .expect("solves");
        assert!(out.outcome.proven_optimal);
        assert_eq!(out.outcome.result.swap_count(), 2);
        let snap = rec.snapshot();
        let encodes = snap.spans.iter().filter(|s| s.name == "encode").count();
        assert_eq!(encodes, 1, "the SWAP phase must not encode a second model");
        let field = |s: &olsq2_obs::SpanData, key: &str| {
            s.fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let iters: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "iteration")
            .collect();
        assert_eq!(iters.len(), out.outcome.iterations);
        assert!(
            iters
                .iter()
                .any(|s| field(s, "objective") == Some("swaps".into())),
            "the SWAP phase must probe"
        );
        // One solver ran every probe, so its cumulative stats are the sum
        // of the per-probe deltas.
        let probe_conflicts: u64 = iters
            .iter()
            .map(|s| match field(s, "conflicts") {
                Some(olsq2_obs::FieldValue::U64(c)) => c,
                other => panic!("iteration spans carry their conflicts, got {other:?}"),
            })
            .sum();
        assert_eq!(out.outcome.solver_stats.conflicts, probe_conflicts);
    }

    fn random_circuit(rng: &mut Rng, nq: usize, max_gates: usize) -> Circuit {
        let len = rng.gen_range(1usize..=max_gates);
        let mut c = Circuit::new(nq);
        for _ in 0..len {
            let a = rng.gen_range(0..nq as u16);
            let b = rng.gen_range(0..nq as u16);
            if a != b {
                c.push(Gate::two(GateKind::Cx, a, b));
            }
        }
        if c.is_empty() {
            c.push(Gate::two(GateKind::Cx, 0, 1));
        }
        c
    }

    /// Exactly `k` blocks, plus at most `swaps` SWAPs when given.
    fn probe(model: &mut TransitionModel, k: usize, swaps: Option<usize>) -> SolveResult {
        let mut acts = vec![model.block_bound(k)];
        if let Some(s) = swaps {
            // Room for every SWAP six blocks on these devices can hold.
            acts.push(model.swap_bound(s, 16, CardEncoding::SequentialCounter));
        }
        model.solve(&acts)
    }

    /// Grows a model in place 2→4→6 blocks and compares it after every
    /// step with a fresh build of the same window: every block bound, and
    /// under each satisfiable one every SWAP bound below the larger of the
    /// two witnessed counts (so a grown model weaker or stronger than the
    /// fresh one shows up), with every witness verified. The block bounds
    /// and the SWAP network the grown model built before a growth carry
    /// across it.
    fn assert_growth_matches_fresh_builds(label: &str, circuit: &Circuit, device: &CouplingGraph) {
        let config = SynthesisConfig::with_swap_duration(1);
        let mut grown = TransitionModel::build(circuit, device, &config, 2).expect("builds");
        for blocks in [2usize, 4, 6] {
            if blocks > grown.blocks {
                assert!(
                    grown.extend_blocks(circuit, device, &config, blocks),
                    "{label}: extension to {blocks} blocks refused"
                );
            }
            let mut fresh =
                TransitionModel::build(circuit, device, &config, blocks).expect("builds");
            for k in 1..=blocks {
                let mut witnessed = 0;
                for swaps in std::iter::once(None).chain((0..).map(Some)) {
                    if swaps.is_some_and(|s| s >= witnessed) {
                        break;
                    }
                    let at = format!("{label}, {blocks} blocks, bound ({k}, {swaps:?})");
                    let verdict = probe(&mut grown, k, swaps);
                    assert_eq!(verdict, probe(&mut fresh, k, swaps), "{at}");
                    if verdict != SolveResult::Sat {
                        continue;
                    }
                    for model in [&grown, &fresh] {
                        let witness = model.decode(circuit);
                        witnessed = witnessed.max(witness.swap_count());
                        let layout = witness.lower(circuit, 1);
                        assert_eq!(verify(circuit, device, &layout), Ok(()), "{at}");
                    }
                }
            }
        }
        assert_eq!(grown.extensions, 2, "{label}");
    }

    /// Seeded random circuits, most of which fit in two blocks, plus two
    /// that need blocks only a growth adds: tof-3 on a 5-qubit line and
    /// QAOA-6 on a 2×3 grid.
    #[test]
    fn extended_blocks_match_a_fresh_build_at_every_bound() {
        let mut rng = Rng::seed_from_u64(0x1AC4_0002);
        let devices = [line(4), grid(2, 2), grid(2, 3)];
        for round in 0..5 {
            let circuit = random_circuit(&mut rng, 4, 6);
            let device = &devices[rng.gen_range(0usize..3)];
            assert_growth_matches_fresh_builds(&format!("round {round}"), &circuit, device);
        }
        assert_growth_matches_fresh_builds("tof-3/line5", &tof_circuit(3), &line(5));
        assert_growth_matches_fresh_builds("qaoa-6/grid2x3", &qaoa_circuit(6, 42), &grid(2, 3));
    }
}
