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
use crate::bounded::{check_instance, dependency_graph, BoundedModel, ModelCore, Vocabulary};
use crate::config::SynthesisConfig;
use crate::model::ModelError;
use crate::optimize::{Run, SynthesisError, SynthesisOutcome};
use crate::vars::{
    adjacency_steps, mapping_steps, transition_step, transitions_into, FdVar, TimeVars,
};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::Circuit;
use olsq2_encode::{ConstraintFamily, FamilyTally};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_sat::{Lit, Solver};
use std::ops::Range;

/// The transition-based model over a block window.
#[derive(Debug)]
struct TransitionModel {
    /// Solver, block-index variables, `swap_lits[e][b]` for transitions
    /// `b` in `0..blocks-1`, and the bound machinery.
    core: ModelCore,
    /// `mapping[q][b]`.
    mapping: Vec<Vec<FdVar>>,
}

impl TransitionModel {
    /// Runs one family emitter and credits what it adds to `family`.
    fn credit<R>(&mut self, family: ConstraintFamily, emit: impl FnOnce(&mut Self) -> R) -> R {
        let mark = self.core.tally.mark(&self.core.solver);
        let out = emit(self);
        self.core
            .tally
            .credit_since(family, &self.core.solver, mark);
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
            let (mapping, core) = (&mut m.mapping, &mut m.core);
            adjacency_steps(
                &mut core.solver,
                circuit,
                graph,
                mapping,
                &core.time,
                blocks.clone(),
            );
        });
        self.credit(ConstraintFamily::Transition, |m| {
            m.transition_layers(graph, blocks)
        });
    }

    /// The SWAP layers on the transitions that end in `blocks`: one
    /// variable per edge and transition, each layer on disjoint edges.
    fn swap_layers(&mut self, graph: &CouplingGraph, blocks: Range<usize>) {
        let layers = transitions_into(blocks);
        let core = &mut self.core;
        for row in &mut core.swap_lits {
            row.extend(layers.clone().map(|_| Lit::positive(core.solver.new_var())));
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
                    core.solver
                        .add_clause([!core.swap_lits[e1][b], !core.swap_lits[e2][b]]);
                }
            }
        }
    }

    /// The mapping transformation across the transitions that end in
    /// `blocks`.
    fn transition_layers(&mut self, graph: &CouplingGraph, blocks: Range<usize>) {
        let (mapping, core) = (&self.mapping, &mut self.core);
        for b in transitions_into(blocks) {
            let qubits = mapping.iter().map(|per_b| (&per_b[b], &per_b[b + 1]));
            let swap_lits = &core.swap_lits;
            transition_step(&mut core.solver, graph, qubits, |e| swap_lits[e][b]);
        }
    }

    /// Decodes `(block mapping, per-gate block, transition swaps)`.
    fn solution(&self, circuit: &Circuit) -> TbSolution {
        let core = &self.core;
        let blocks = core.window();
        let mapping: Vec<Vec<u16>> = (0..blocks)
            .map(|b| {
                self.mapping
                    .iter()
                    .map(|per_b| per_b[b].value_in(&core.solver) as u16)
                    .collect()
            })
            .collect();
        let gate_block: Vec<usize> = (0..circuit.num_gates())
            .map(|g| core.time.value_in(&core.solver, g))
            .collect();
        let swaps: Vec<Vec<usize>> = (0..blocks.saturating_sub(1))
            .map(|b| {
                core.swap_lits
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| core.solver.model_value(row[b]) == Some(true))
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

/// TB-OLSQ2's search rules (§III-D): the time bound is an exact block
/// count, probed upward from one block on a window that starts at four
/// blocks and doubles (up to the gate count); every solution at `b`
/// blocks carries at least `b − 1` SWAPs, one per transition, so the
/// SWAP bracket at `b` starts there and is halved; a relaxed block count
/// grows the window by exactly one block.
impl BoundedModel for TransitionModel {
    const NAMES: Vocabulary = Vocabulary {
        time_walk: "tb_optimize_blocks",
        swap_walk: "tb_optimize_swaps",
        feasible: "tb_solve_feasible",
        objective: "blocks",
        floor: "block_lb",
        time_bound: "block_bound",
        window: "blocks",
    };

    fn time_floor(_circuit: &Circuit, _config: &SynthesisConfig) -> usize {
        1
    }

    fn relax(k: usize) -> usize {
        k + 1
    }

    fn first_window(_floor: usize, _config: &SynthesisConfig) -> usize {
        4
    }

    fn widened_window(blocks: usize, _k: usize, circuit: &Circuit) -> usize {
        (blocks * 2).min(circuit.num_gates().max(4))
    }

    fn swap_floor(blocks: usize) -> usize {
        blocks.saturating_sub(1)
    }

    fn next_swap_bound(lo: usize, hi: usize) -> usize {
        lo + (hi - 1 - lo) / 2
    }

    fn relaxed_window(_blocks: usize, k: usize, _config: &SynthesisConfig) -> usize {
        k
    }

    fn build(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        blocks: usize,
    ) -> Result<TransitionModel, ModelError> {
        check_instance(circuit, graph)?;
        let (nq, np) = (circuit.num_qubits(), graph.num_qubits());
        let blocks = blocks.max(1);
        let mut solver = Solver::new();
        if config.proof_log {
            // Before any clause: the log must contain every original.
            solver.enable_proof();
        }
        let enc = config.encoding;
        let mut tally = FamilyTally::new();

        // Mapping variables + injectivity per block.
        let mark = tally.mark(&solver);
        let mut mapping = vec![Vec::new(); nq];
        mapping_steps(&mut solver, &mut mapping, np, enc, 0..blocks);
        let mark = tally.credit_since(ConstraintFamily::Mapping, &solver, mark);

        // Block-index variables on a guarded window that can grow in place
        // (see `extend`); dependencies are
        // non-strict (gates may share a block).
        let dag = dependency_graph(circuit, config);
        let mut time = TimeVars::new(circuit.num_gates(), enc.time, enc.amo);
        let window_guard = time
            .grow(&mut solver, blocks)
            .expect("an empty window grows");
        for &(g, g2) in dag.dependencies() {
            time.assert_before_or_equal(&mut solver, g, g2);
        }
        tally.credit_since(ConstraintFamily::Dependency, &solver, mark);

        let core = ModelCore::new(
            solver,
            time,
            window_guard,
            tally,
            graph.num_edges(),
            transitions_into,
            enc.cardinality,
        );
        let mut model = TransitionModel { core, mapping };
        model.emit_blocks(circuit, graph, 0..blocks);
        // Structure-aware seeding, as for the flat model: one-hot mapping
        // groups and the transition SWAP layers.
        model.core.seed(&model.mapping, enc.mapping);
        Ok(model)
    }

    fn core(&self) -> &ModelCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut ModelCore {
        &mut self.core
    }

    /// Activation literal for "exactly `k` blocks are used": all gates in
    /// blocks `0..k`, no SWAP on transitions `k-1..`, and — the paper's
    /// symmetry breaking behind its early termination rule — every live
    /// transition carries at least one SWAP (a solution with an empty
    /// transition is identical to one with fewer blocks, which the search
    /// has already covered).
    fn time_bound(&mut self, k: usize) -> Lit {
        self.core.time_bound(k, |core, act| {
            // The symmetry clauses reference only transitions below
            // `k - 1`, which no later growth adds to.
            for b in 0..k.saturating_sub(1) {
                let mut clause = vec![!act];
                clause.extend(core.swap_lits.iter().map(|row| row[b]));
                core.solver.add_clause(clause);
            }
        })
    }

    /// Grows the block window to `new_blocks` in place — the transition
    /// analogue of `FlatModel::extend_window`, through the same per-family
    /// emitters the build runs. Block-index variables move to a new guard
    /// generation and recorded dependencies are re-emitted for the new
    /// values. Returns `false` (caller rebuilds) for a binary block index
    /// needing a wider bit-vector.
    fn extend(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        new_blocks: usize,
    ) -> bool {
        let new_blocks = new_blocks.max(1);
        let old_blocks = self.core.window();
        assert!(new_blocks >= old_blocks, "block windows only grow");
        if new_blocks == old_blocks {
            return true;
        }
        let blocks = old_blocks..new_blocks;
        let grown = self.credit(ConstraintFamily::Dependency, |m| {
            m.core.time.grow(&mut m.core.solver, new_blocks)
        });
        let Some(new_guard) = grown else {
            return false; // binary width grew: caller rebuilds
        };
        self.credit(ConstraintFamily::Mapping, |m| {
            let np = graph.num_qubits();
            mapping_steps(
                &mut m.core.solver,
                &mut m.mapping,
                np,
                config.encoding,
                blocks.clone(),
            );
        });
        self.emit_blocks(circuit, graph, blocks.clone());
        self.core.finish_growth(blocks, new_guard);
        true
    }

    fn decode(&self, circuit: &Circuit, config: &SynthesisConfig) -> (LayoutResult, usize) {
        let solution = self.solution(circuit);
        let result = solution.lower(circuit, config.swap_duration);
        (result, solution.used_blocks())
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

    /// Minimizes the block count: start at 1 block, increase by 1 until
    /// SAT (§III-D). Under [`SynthesisConfig::proof_log`], an optimum
    /// above one block carries the sealed refutation of one block fewer.
    ///
    /// # Errors
    ///
    /// Standard [`SynthesisError`] conditions.
    pub fn optimize_blocks(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<TbOutcome, SynthesisError> {
        let mut run = Run::new(&self.config, circuit, graph);
        let walk = run.time_walk::<TransitionModel>(None)?;
        let block_count = walk.time();
        Ok(TbOutcome {
            outcome: run.finish(walk),
            block_count,
        })
    }

    /// SWAP-count optimization over the transition model: block-optimal
    /// first, then a bracketed binary search of the SWAP count at each
    /// block count; relax the block count when the optimum under the
    /// current count is proven; stop early when `S ≤ blocks` (at one more
    /// block each transition needs at least one SWAP).
    ///
    /// The SWAP phase runs on the block walk's warm model, under the same
    /// deadline: its learned clauses, saved phases and cached block
    /// activators carry over, and the window grows only when relaxation
    /// needs a block beyond it. One solver runs every probe, so
    /// `solver_stats` covers the whole run. Under
    /// [`SynthesisConfig::proof_log`] the outcome carries the sealed
    /// refutation of the UNSAT probe that closed the final bracket, and
    /// none when that bracket closed on its floor of `blocks − 1` SWAPs.
    ///
    /// # Errors
    ///
    /// Standard [`SynthesisError`] conditions.
    pub fn optimize_swaps(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<TbOutcome, SynthesisError> {
        let mut run = Run::new(&self.config, circuit, graph);
        let (walk, _) = run.swap_walk::<TransitionModel>()?;
        let block_count = walk.time();
        Ok(TbOutcome {
            outcome: run.finish(walk),
            block_count,
        })
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
        Run::new(&self.config, circuit, graph).feasible::<TransitionModel>(blocks, swap_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{grid, line};
    use olsq2_circuit::generators::{qaoa_circuit, tof_circuit};
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_layout::verify;
    use olsq2_prng::Rng;
    use olsq2_sat::SolveResult;

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
        let mut acts = vec![model.time_bound(k)];
        if let Some(s) = swaps {
            // Room for every SWAP six blocks on these devices can hold.
            acts.push(model.core.swap_bound(s, 16));
        }
        model.core.solve(&acts)
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
            if blocks > grown.core.window() {
                assert!(
                    grown.extend(circuit, device, &config, blocks),
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
                        let witness = model.solution(circuit);
                        witnessed = witnessed.max(witness.swaps.iter().map(Vec::len).sum());
                        let layout = witness.lower(circuit, 1);
                        assert_eq!(verify(circuit, device, &layout), Ok(()), "{at}");
                    }
                }
            }
        }
        assert_eq!(grown.core.extensions(), 2, "{label}");
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
