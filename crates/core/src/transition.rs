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
use crate::vars::{transition_step, FdVar, TimeVars};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, DependencyGraph, Operands};
use olsq2_encode::{
    at_most_one, gates, CardinalityNetwork, CnfSink, ConstraintFamily, FamilyTally,
};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_sat::{Lit, SolveResult, Solver};
use std::collections::HashMap;
use std::time::Instant;

/// The transition-based model over a fixed block window.
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
    num_gates: usize,
    tally: FamilyTally,
    /// Current window-generation guard (incremental builds only); every
    /// solve assumes it, and [`TransitionModel::extend_blocks`] retires it.
    window_guard: Option<Lit>,
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
        let ne = graph.num_edges();
        let mut tally = FamilyTally::new();
        let mut mark = tally.mark(&solver);

        let new_mapping_var = |s: &mut Solver| match enc.mapping {
            MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                FdVar::new_onehot(s, np, enc.amo)
            }
            MappingEncoding::Binary => FdVar::new_binary(s, np),
        };
        let mut mapping: Vec<Vec<FdVar>> = (0..nq)
            .map(|_| (0..blocks).map(|_| new_mapping_var(&mut solver)).collect())
            .collect();

        // Injectivity per block.
        match enc.mapping {
            MappingEncoding::OneHot => {
                for b in 0..blocks {
                    for p in 0..np {
                        let sels: Vec<Lit> = (0..nq)
                            .map(|q| mapping[q][b].eq_lit(&mut solver, p))
                            .collect();
                        at_most_one(&mut solver, &sels, enc.amo);
                    }
                }
            }
            MappingEncoding::Binary => {
                for b in 0..blocks {
                    for q1 in 0..nq {
                        for q2 in (q1 + 1)..nq {
                            let diffs: Vec<Lit> = mapping[q1][b]
                                .raw_lits()
                                .iter()
                                .zip(mapping[q2][b].raw_lits())
                                .map(|(&x, y)| gates::xor_lit(&mut solver, x, y))
                                .collect();
                            let diff = gates::or_all(&mut solver, &diffs);
                            solver.add_clause([diff]);
                        }
                    }
                }
            }
            MappingEncoding::InverseOneHot => {
                for b in 0..blocks {
                    let mut inv: Vec<FdVar> = (0..np)
                        .map(|_| FdVar::new_onehot(&mut solver, nq + 1, enc.amo))
                        .collect();
                    for q in 0..nq {
                        for p in 0..np {
                            let m = mapping[q][b].eq_lit(&mut solver, p);
                            let i = inv[p].eq_lit(&mut solver, q);
                            solver.add_clause([!m, i]);
                            solver.add_clause([!i, m]);
                        }
                    }
                }
            }
        }

        mark = tally.credit_since(ConstraintFamily::Mapping, &solver, mark);

        // Block-index variables; dependencies are non-strict (gates may
        // share a block).
        let dag = if config.commutation_aware {
            DependencyGraph::new_with_commutation(circuit)
        } else {
            DependencyGraph::new(circuit)
        };
        // Guarded block-index domains allow the block window to grow in
        // place (see [`TransitionModel::extend_blocks`]).
        let window_guard = config
            .incremental
            .then(|| Lit::positive(CnfSink::new_var(&mut solver)));
        let mut time = TimeVars::new(
            &mut solver,
            circuit.num_gates(),
            blocks,
            enc.time,
            enc.amo,
            window_guard,
        );
        for &(g, g2) in dag.dependencies() {
            time.assert_before_or_equal(&mut solver, g, g2);
        }

        mark = tally.credit_since(ConstraintFamily::Dependency, &solver, mark);

        // Transition SWAPs: one layer per transition, disjoint edges.
        let swap_lits: Vec<Vec<Lit>> = (0..ne)
            .map(|_| {
                (0..blocks.saturating_sub(1))
                    .map(|_| Lit::positive(CnfSink::new_var(&mut solver)))
                    .collect()
            })
            .collect();
        for e1 in 0..ne {
            let (a1, b1) = graph.edge(e1);
            for e2 in (e1 + 1)..ne {
                let (a2, b2) = graph.edge(e2);
                let shares = a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2;
                if !shares {
                    continue;
                }
                for b in 0..blocks.saturating_sub(1) {
                    solver.add_clause([!swap_lits[e1][b], !swap_lits[e2][b]]);
                }
            }
        }

        mark = tally.credit_since(ConstraintFamily::Swap, &solver, mark);

        // Adjacency inside blocks (Eq. 1 on block mappings).
        let mut adj_cache: HashMap<(u16, u16, usize), Lit> = HashMap::new();
        let mut clause = Vec::new();
        for (g, gate) in circuit.gates().iter().enumerate() {
            if let Operands::Two(q1, q2) = gate.operands {
                let (qa, qb) = (q1.min(q2), q1.max(q2));
                for b in 0..blocks {
                    let adj = match adj_cache.get(&(qa, qb, b)) {
                        Some(&l) => l,
                        None => {
                            let mut pair_lits = Vec::with_capacity(2 * ne);
                            for e in 0..ne {
                                let (pa, pb) = graph.edge(e);
                                for (x, y) in [(pa, pb), (pb, pa)] {
                                    let la =
                                        mapping[qa as usize][b].eq_lit(&mut solver, x as usize);
                                    let lb =
                                        mapping[qb as usize][b].eq_lit(&mut solver, y as usize);
                                    pair_lits.push(gates::and_lit(&mut solver, la, lb));
                                }
                            }
                            let l = gates::or_all(&mut solver, &pair_lits);
                            adj_cache.insert((qa, qb, b), l);
                            l
                        }
                    };
                    clause.clear();
                    time.var(g).push_neq(b, &mut clause);
                    clause.push(adj);
                    solver.add_clause(clause.iter().copied());
                }
            }
        }

        mark = tally.credit_since(ConstraintFamily::Scheduling, &solver, mark);

        // Mapping transformation between consecutive blocks.
        for b in 0..blocks.saturating_sub(1) {
            let qubits = mapping.iter().map(|m| (&m[b], &m[b + 1]));
            transition_step(&mut solver, graph, qubits, |e| swap_lits[e][b]);
        }

        tally.credit_since(ConstraintFamily::Transition, &solver, mark);

        // Structure-aware seeding: same rationale as the flat model —
        // prefer the all-false polarity inside one-hot groups and on the
        // transition SWAP layer, and nudge the first decisions at block 0
        // (0.25, not full VSIDS weight — see the flat model's note on
        // bump-induced fixation).
        if matches!(
            enc.mapping,
            MappingEncoding::OneHot | MappingEncoding::InverseOneHot
        ) {
            for per_b in &mapping {
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
        for per_b in &swap_lits {
            for &sl in per_b {
                solver.set_saved_phase(sl.var(), false);
            }
        }

        // Everything past the build is bound-machinery: activation
        // literals, cardinality counters, window-growth variables. Clauses
        // over them encode cross-solve contracts, so inprocessing must
        // leave them exactly as written.
        solver.set_inprocess_floor(solver.num_vars());

        Ok(TransitionModel {
            solver,
            mapping,
            time,
            swap_lits,
            blocks,
            block_bounds: HashMap::new(),
            swap_card: None,
            num_gates: circuit.num_gates(),
            tally,
            window_guard,
            extensions: 0,
        })
    }

    /// Grows the block window to `new_blocks` in place — the transition
    /// analogue of `FlatModel::extend_window`. Appends per-block mapping
    /// variables, transition SWAP layers, adjacency, and mapping
    /// transformation for the new blocks onto the live solver; block-index
    /// variables move to a new guard generation and recorded dependencies
    /// are re-emitted for the new values. Returns `false` (caller rebuilds)
    /// for non-incremental builds or a binary block index needing a wider
    /// bit-vector.
    fn extend_blocks(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        new_blocks: usize,
    ) -> bool {
        let Some(old_guard) = self.window_guard else {
            return false;
        };
        let new_blocks = new_blocks.max(1);
        assert!(new_blocks >= self.blocks, "block windows only grow");
        if new_blocks == self.blocks {
            return true;
        }
        let old_blocks = self.blocks;
        let nq = self.mapping.len();
        let np = graph.num_qubits();
        let ne = graph.num_edges();
        let enc = config.encoding;

        // --- Block-index variables: new guard generation ------------------
        let mut mark = self.tally.mark(&self.solver);
        let new_guard = Lit::positive(CnfSink::new_var(&mut self.solver));
        if !self.time.extend(&mut self.solver, new_blocks, new_guard) {
            return false; // binary width grew: caller rebuilds
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Dependency, &self.solver, mark);

        // --- Mapping variables + injectivity for the new blocks -----------
        for q in 0..nq {
            for _ in old_blocks..new_blocks {
                let var = match enc.mapping {
                    MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                        FdVar::new_onehot(&mut self.solver, np, enc.amo)
                    }
                    MappingEncoding::Binary => FdVar::new_binary(&mut self.solver, np),
                };
                self.mapping[q].push(var);
            }
        }
        match enc.mapping {
            MappingEncoding::OneHot => {
                for b in old_blocks..new_blocks {
                    for p in 0..np {
                        let sels: Vec<Lit> = (0..nq)
                            .map(|q| self.mapping[q][b].eq_lit(&mut self.solver, p))
                            .collect();
                        at_most_one(&mut self.solver, &sels, enc.amo);
                    }
                }
            }
            MappingEncoding::Binary => {
                for b in old_blocks..new_blocks {
                    for q1 in 0..nq {
                        for q2 in (q1 + 1)..nq {
                            let diffs: Vec<Lit> = self.mapping[q1][b]
                                .raw_lits()
                                .iter()
                                .zip(self.mapping[q2][b].raw_lits())
                                .map(|(&x, y)| gates::xor_lit(&mut self.solver, x, y))
                                .collect();
                            let diff = gates::or_all(&mut self.solver, &diffs);
                            self.solver.add_clause([diff]);
                        }
                    }
                }
            }
            MappingEncoding::InverseOneHot => {
                for b in old_blocks..new_blocks {
                    let mut inv: Vec<FdVar> = (0..np)
                        .map(|_| FdVar::new_onehot(&mut self.solver, nq + 1, enc.amo))
                        .collect();
                    for q in 0..nq {
                        for p in 0..np {
                            let m = self.mapping[q][b].eq_lit(&mut self.solver, p);
                            let i = inv[p].eq_lit(&mut self.solver, q);
                            self.solver.add_clause([!m, i]);
                            self.solver.add_clause([!i, m]);
                        }
                    }
                }
            }
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Mapping, &self.solver, mark);

        // --- New transition SWAP layers (indices old_blocks-1..new_blocks-1)
        for e in 0..ne {
            for _ in (old_blocks - 1)..(new_blocks - 1) {
                let l = Lit::positive(CnfSink::new_var(&mut self.solver));
                self.swap_lits[e].push(l);
            }
        }
        for e1 in 0..ne {
            let (a1, b1) = graph.edge(e1);
            for e2 in (e1 + 1)..ne {
                let (a2, b2) = graph.edge(e2);
                let shares = a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2;
                if !shares {
                    continue;
                }
                for b in (old_blocks - 1)..(new_blocks - 1) {
                    self.solver
                        .add_clause([!self.swap_lits[e1][b], !self.swap_lits[e2][b]]);
                }
            }
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Swap, &self.solver, mark);

        // --- Adjacency inside the new blocks (Eq. 1) ----------------------
        let mut adj_cache: HashMap<(u16, u16, usize), Lit> = HashMap::new();
        let mut clause = Vec::new();
        for (g, gate) in circuit.gates().iter().enumerate() {
            if let Operands::Two(q1, q2) = gate.operands {
                let (qa, qb) = (q1.min(q2), q1.max(q2));
                for b in old_blocks..new_blocks {
                    let adj = match adj_cache.get(&(qa, qb, b)) {
                        Some(&l) => l,
                        None => {
                            let mut pair_lits = Vec::with_capacity(2 * ne);
                            for e in 0..ne {
                                let (pa, pb) = graph.edge(e);
                                for (x, y) in [(pa, pb), (pb, pa)] {
                                    let la = self.mapping[qa as usize][b]
                                        .eq_lit(&mut self.solver, x as usize);
                                    let lb = self.mapping[qb as usize][b]
                                        .eq_lit(&mut self.solver, y as usize);
                                    pair_lits.push(gates::and_lit(&mut self.solver, la, lb));
                                }
                            }
                            let l = gates::or_all(&mut self.solver, &pair_lits);
                            adj_cache.insert((qa, qb, b), l);
                            l
                        }
                    };
                    clause.clear();
                    self.time.var(g).push_neq(b, &mut clause);
                    clause.push(adj);
                    self.solver.add_clause(clause.iter().copied());
                }
            }
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Scheduling, &self.solver, mark);

        // --- Mapping transformation across the seam and new blocks --------
        for b in (old_blocks - 1)..(new_blocks - 1) {
            let qubits = self.mapping.iter().map(|m| (&m[b], &m[b + 1]));
            let swap_lits = &self.swap_lits;
            transition_step(&mut self.solver, graph, qubits, |e| swap_lits[e][b]);
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Transition, &self.solver, mark);

        // --- Patch cached block-bound activations -------------------------
        // Every cached bound has k ≤ old window, so all new transition
        // layers lie at or beyond k-1 and must be forbidden under it; new
        // block-index values likewise (one-hot only — binary comparators
        // cover the full width). The symmetry clauses reference only
        // transitions below k-1, which predate the extension.
        let mut block_acts: Vec<(usize, Lit)> =
            self.block_bounds.iter().map(|(&k, &a)| (k, a)).collect();
        block_acts.sort_unstable_by_key(|&(k, _)| k);
        for &(_, act) in &block_acts {
            if enc.time == crate::config::TimeEncoding::OneHot {
                for g in 0..self.num_gates {
                    self.time.var_mut(g).forbid_range_if(
                        &mut self.solver,
                        old_blocks..new_blocks,
                        Some(act),
                    );
                }
            }
            for e in 0..ne {
                for b in (old_blocks - 1)..(new_blocks - 1) {
                    let l = self.swap_lits[e][b];
                    self.solver.add_clause([!act, !l]);
                }
            }
        }
        if let Some(card) = &mut self.swap_card {
            let new_inputs: Vec<Lit> = (0..ne)
                .flat_map(|e| self.swap_lits[e][(old_blocks - 1)..].iter().copied())
                .collect();
            let invalidated = card.extend(&mut self.solver, &new_inputs);
            for l in invalidated {
                self.solver.add_clause([!l]);
            }
        }
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);

        // --- Generation flip ----------------------------------------------
        self.solver.add_clause([!old_guard]);
        self.solver.simplify();
        self.window_guard = Some(new_guard);
        self.blocks = new_blocks;
        self.extensions += 1;
        true
    }

    /// Solves under the given assumptions plus the active window guard.
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let result = match self.window_guard {
            None => self.solver.solve(assumptions),
            Some(g) => {
                let mut with_guard = Vec::with_capacity(assumptions.len() + 1);
                with_guard.extend_from_slice(assumptions);
                with_guard.push(g);
                self.solver.solve(&with_guard)
            }
        };
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
        let mark = self.tally.mark(&self.solver);
        let act = Lit::positive(CnfSink::new_var(&mut self.solver));
        for g in 0..self.num_gates {
            self.time
                .var_mut(g)
                .assert_le_if(&mut self.solver, k - 1, Some(act));
        }
        for row in &self.swap_lits {
            for &l in row.iter().skip(k.saturating_sub(1)) {
                self.solver.add_clause([!act, !l]);
            }
        }
        for b in 0..k.saturating_sub(1) {
            let mut clause = vec![!act];
            clause.extend(self.swap_lits.iter().map(|row| row[b]));
            self.solver.add_clause(clause);
        }
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        self.block_bounds.insert(k, act);
        act
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

    /// Grows `model` to `blocks` — in place via
    /// [`TransitionModel::extend_blocks`] when the incremental path applies,
    /// otherwise by rebuilding from scratch.
    fn grow_model(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        model: &mut TransitionModel,
        blocks: usize,
    ) -> Result<(), ModelError> {
        if self.config.incremental {
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
        }
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
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_layout::verify;

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
}
