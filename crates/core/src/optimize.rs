//! The optimization strategies of §III-B as one incremental bound search
//! over one solver: depth optimization by geometric relaxation +
//! decrement, then (for the SWAP objective) iterative descent of the SWAP
//! bound along a two-dimensional (depth, swaps) Pareto search on the same
//! warm model — every probe an activation-literal assumption.

use crate::config::SynthesisConfig;
use crate::model::{FlatModel, ModelError, ModelSeed};
use olsq2_arch::{CouplingGraph, SubGraph};
use olsq2_circuit::{Circuit, DependencyGraph};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_obs::SpanGuard;
use olsq2_sat::{Proof, ProofStep, SolveResult, Solver, Stats};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Stable trace-field value for a solve result.
pub(crate) fn result_str(r: SolveResult) -> &'static str {
    match r {
        SolveResult::Sat => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

/// Seals the refutation of the UNSAT probe `solver` just answered: a copy
/// of its (still recording) proof log, closed by the failed-assumption
/// core ([`Solver::final_conflict`]) as units and the empty clause. With
/// core lemmas on, the solver logged the negated core at the UNSAT, so
/// the units propagate to a contradiction and the checker accepts the
/// proof. `None` when the solver records no proof.
fn seal_refutation(solver: &Solver) -> Option<Proof> {
    let mut proof = solver.clone_proof()?;
    for &a in solver.final_conflict() {
        proof.push(ProofStep::Original(vec![a]));
    }
    proof.push(ProofStep::Empty);
    Some(proof)
}

/// The sub-device [`Olsq2Synthesizer::optimize_depth`] probes first: the
/// `2·|Q|` qubits nearest the center of a connected device with more
/// qubits than that. `2·|Q|` leaves the layout room to route: on
/// Sycamore, qft-4 misses its DAG bound on balls of 4 and 6 qubits and
/// reaches it on 8, and qaoa-8 misses on 8 and 10 and reaches it on 12
/// and 16.
fn sub_device(circuit: &Circuit, graph: &CouplingGraph) -> Option<SubGraph> {
    let size = 2 * circuit.num_qubits();
    (size < graph.num_qubits() && graph.is_connected()).then(|| graph.ball(size))
}

/// A layout on `ball`'s subgraph as the same layout on `graph`: qubits
/// through the node map, each SWAP onto the device edge between its
/// endpoints. Schedule and depth stay as they are.
fn lift(result: LayoutResult, ball: &SubGraph, graph: &CouplingGraph) -> LayoutResult {
    let nodes = ball.nodes();
    let initial_mapping = result
        .initial_mapping
        .iter()
        .map(|&p| nodes[p as usize])
        .collect();
    let swaps = result
        .swaps
        .iter()
        .map(|s| {
            let (a, b) = ball.graph().edge(s.edge);
            let edge = graph
                .edge_between(nodes[a as usize], nodes[b as usize])
                .expect("a ball edge is a device edge");
            SwapOp { edge, ..*s }
        })
        .collect();
    LayoutResult {
        initial_mapping,
        swaps,
        ..result
    }
}

/// Errors from the synthesis drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// Model construction failed.
    Model(ModelError),
    /// The time/conflict budget expired before any valid solution was found.
    BudgetExhausted,
    /// The depth window grew past the hard cap without a solution
    /// (indicates an unroutable instance).
    WindowExhausted,
    /// The run panicked; the message is the panic payload. The service
    /// contains a job's panic and reports it as this error.
    Internal(String),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Model(e) => write!(f, "model construction failed: {e}"),
            SynthesisError::BudgetExhausted => {
                write!(f, "budget exhausted before a first solution was found")
            }
            SynthesisError::WindowExhausted => {
                write!(f, "no solution within the maximum depth window")
            }
            SynthesisError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<ModelError> for SynthesisError {
    fn from(e: ModelError) -> Self {
        SynthesisError::Model(e)
    }
}

/// Hard cap on the depth window to catch unroutable instances.
const MAX_T_UB: usize = 4096;

/// Result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The best layout found (verified shape; callers may re-verify).
    pub result: LayoutResult,
    /// Whether optimality was proven (UNSAT at the next tighter bound or
    /// the structural lower bound reached).
    pub proven_optimal: bool,
    /// Number of solver invocations.
    pub iterations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// `(variables, clauses)` of the final model. When
    /// [`Olsq2Synthesizer::optimize_depth`] proved the optimum on its
    /// sub-device, that is the sub-device model.
    pub formula_size: (usize, usize),
    /// Cumulative solver statistics of the run: the sub-device model's
    /// alone after a sub-device proof, the sum of both models' after a
    /// sub-device miss.
    pub solver_stats: Stats,
    /// Number of in-place window extensions performed on the final model.
    /// A depth (or TB block) window that the walk outgrows is extended on
    /// the live model; a growth the extension refuses (a binary index
    /// needing a wider bit-vector, the OLSQ baseline style) rebuilds the
    /// model, and the count restarts at zero with it.
    pub extensions: usize,
    /// With [`SynthesisConfig::proof_log`] and an optimum proven by an
    /// UNSAT probe (rather than by reaching the structural bound): the
    /// sealed, RUP-checkable refutation of that decisive probe. Set by
    /// [`Olsq2Synthesizer`]; [`crate::TbOlsq2Synthesizer`] leaves it `None`.
    pub refutation: Option<Proof>,
}

/// Result of SWAP optimization: the Pareto frontier explored.
#[derive(Debug, Clone)]
pub struct SwapOptimizationOutcome {
    /// The minimum-SWAP solution found (last Pareto point).
    pub best: SynthesisOutcome,
    /// `(depth, swap_count)` Pareto points in exploration order.
    pub pareto: Vec<(usize, usize)>,
}

/// The OLSQ2 synthesizer: builds the succinct model and runs the paper's
/// optimization loops.
///
/// # Examples
///
/// ```
/// use olsq2::{Olsq2Synthesizer, SynthesisConfig};
/// use olsq2_arch::line;
/// use olsq2_circuit::{Circuit, Gate, GateKind};
/// use olsq2_layout::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(3);
/// circuit.push(Gate::two(GateKind::Cx, 0, 1));
/// circuit.push(Gate::two(GateKind::Cx, 1, 2));
/// let graph = line(3);
/// let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
/// let outcome = synth.optimize_depth(&circuit, &graph)?;
/// assert!(outcome.proven_optimal);
/// assert_eq!(outcome.result.depth, 2);
/// assert_eq!(verify(&circuit, &graph, &outcome.result), Ok(()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Olsq2Synthesizer {
    config: SynthesisConfig,
}

/// Where a bound walk stands: the warm model, its best layout, and what
/// the walk has proven. The depth walk's end state is what
/// [`Olsq2Synthesizer::optimize_depth`] reports and
/// [`Olsq2Synthesizer::optimize_swaps`] carries into its SWAP phase.
struct Walk {
    model: FlatModel,
    result: LayoutResult,
    iterations: usize,
    proven: bool,
    /// The sealed refutation of the UNSAT probe that proved `result`
    /// optimal (proof mode only).
    refutation: Option<Proof>,
    /// Statistics of the solvers the walk ran before `model`'s (the
    /// sub-device probe's, after a miss); part of the run's totals.
    retired: Stats,
}

impl Olsq2Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthesisConfig) -> Olsq2Synthesizer {
        Olsq2Synthesizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    fn deadline(&self) -> Option<Instant> {
        self.config.time_budget.map(|b| Instant::now() + b)
    }

    fn initial_t_ub(&self, t_lb: usize) -> usize {
        let factor = (t_lb as f64 * self.config.tub_factor).ceil() as usize;
        factor.max(t_lb + self.config.swap_duration).max(1)
    }

    fn build_model(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        t_ub: usize,
    ) -> Result<FlatModel, SynthesisError> {
        // Fork from an encoded template when one is attached and matches
        // this exact instance; otherwise encode from scratch.
        if let Some(seed) = &self.config.model_seed {
            let instance = ModelSeed::instance_fingerprint(circuit, graph, &self.config);
            if let Some(model) = seed.fork_for(&self.config, circuit, graph, instance, t_ub) {
                let span = self.config.recorder.span("fork");
                span.set("t_ub", t_ub);
                return Ok(self.attach(model));
            }
        }
        let span = self.config.recorder.span("encode");
        self.encode(&span, circuit, graph, t_ub)
    }

    /// Encodes a fresh model inside the `encode` span `span`, tagging it
    /// with the window and the per-family formula sizes.
    fn encode(
        &self,
        span: &SpanGuard,
        circuit: &Circuit,
        graph: &CouplingGraph,
        t_ub: usize,
    ) -> Result<FlatModel, SynthesisError> {
        span.set("t_ub", t_ub);
        let model = FlatModel::build(circuit, graph, &self.config, t_ub)?;
        if self.config.recorder.is_enabled() {
            let (vars, clauses) = model.formula_size();
            span.set("vars", vars);
            span.set("clauses", clauses);
            for (fam, c) in model.breakdown().iter() {
                span.set(fam.vars_key(), c.vars);
                span.set(fam.clauses_key(), c.clauses);
            }
        }
        Ok(self.attach(model))
    }

    /// Wires a built or forked model to this run's telemetry. Under
    /// [`SynthesisConfig::proof_log`] its solver also logs every
    /// assumption core as a lemma, so any UNSAT probe can be sealed
    /// ([`seal_refutation`]).
    fn attach(&self, mut model: FlatModel) -> FlatModel {
        let solver = model.solver_mut();
        solver.set_recorder(self.config.recorder.clone());
        solver.set_probe(self.config.probe.clone());
        if self.config.proof_log {
            solver.set_core_lemmas(true);
        }
        model
    }

    /// Grows `model` to the depth window `t_ub` in place via
    /// [`FlatModel::extend_window`], keeping the solver's learned clauses
    /// alive, or by rebuilding from scratch where the extension refuses
    /// (a binary time index that needs a wider bit-vector, or the OLSQ
    /// baseline style).
    fn grow_model(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        model: &mut FlatModel,
        t_ub: usize,
    ) -> Result<(), SynthesisError> {
        let span = self.config.recorder.span("extend");
        span.set("t_ub", t_ub);
        let (vars_before, clauses_before) = model.formula_size();
        let extend_start = Instant::now();
        if model.extend_window(circuit, graph, t_ub) {
            let (vars, clauses) = model.formula_size();
            span.set("extend_us", extend_start.elapsed().as_micros() as u64);
            span.set("appended_vars", vars - vars_before);
            span.set("appended_clauses", clauses.saturating_sub(clauses_before));
            return Ok(());
        }
        span.set("result", "rebuild");
        *model = self.build_model(circuit, graph, t_ub)?;
        Ok(())
    }

    fn dependency_graph(&self, circuit: &Circuit) -> DependencyGraph {
        if self.config.commutation_aware {
            DependencyGraph::new_with_commutation(circuit)
        } else {
            DependencyGraph::new(circuit)
        }
    }

    fn arm_budgets(&self, model: &mut FlatModel, deadline: Option<Instant>) {
        model.solver_mut().set_deadline(deadline);
        model
            .solver_mut()
            .set_conflict_budget(self.config.conflict_budget);
        model
            .solver_mut()
            .set_stop_flag(self.config.stop_flag.clone());
    }

    /// Publishes an intermediate solution to the configured incumbent
    /// slot, so deadline-bound callers can recover the best-so-far when a
    /// later solve is cut off.
    fn publish_incumbent(&self, result: &LayoutResult) {
        if let Some(slot) = &self.config.incumbent {
            slot.publish(result);
        }
    }

    /// Snapshot-on-preempt: when a budget cut ends a run before
    /// optimality is proven and a snapshot slot is configured, fork the
    /// final model onto a neutral configuration (no budgets, no stop
    /// flag, no telemetry — those are per-run) and publish
    /// it, so a resubmission can resume from the encoded state — clause
    /// arena, learned clauses, phases, bound activators — instead of
    /// from scratch.
    fn capture_snapshot(&self, circuit: &Circuit, graph: &CouplingGraph, model: &mut FlatModel) {
        let Some(slot) = &self.config.snapshot_slot else {
            return;
        };
        let mut neutral = self.config.clone();
        neutral.time_budget = None;
        neutral.conflict_budget = None;
        neutral.stop_flag = None;
        neutral.incumbent = None;
        neutral.model_seed = None;
        neutral.snapshot_slot = None;
        neutral.recorder = olsq2_obs::Recorder::disabled();
        neutral.probe = olsq2_obs::Probe::disabled();
        let template = model.fork(&neutral);
        let instance = ModelSeed::instance_fingerprint(circuit, graph, &neutral);
        slot.publish(ModelSeed::capture(template, instance));
    }

    /// Opens one `iteration` span tagged with the active objective bounds.
    fn iteration_span(&self, objective: &str, bounds: &[(&str, usize)]) -> SpanGuard {
        let span = self.config.recorder.span("iteration");
        span.set("objective", objective);
        for &(k, v) in bounds {
            span.set(k, v);
        }
        span
    }

    /// Tags an `iteration` span with the solver-stat deltas of the solve
    /// it wraps — the search-divergence signals (conflicts, restarts,
    /// decisions per conflict) that `olsq2 trace-diff` uses to attribute
    /// per-iteration time differences between two runs.
    pub(crate) fn set_iteration_deltas(span: &SpanGuard, before: Stats, after: Stats) {
        span.set("conflicts", after.conflicts - before.conflicts);
        span.set("decisions", after.decisions - before.decisions);
        span.set("propagations", after.propagations - before.propagations);
        span.set("restarts", after.restarts - before.restarts);
    }

    /// One bound probe on `model`: `depth ≤ t_bound`, plus `swaps ≤ k`
    /// (cardinality network of capacity `capacity`) when `swap_bound` is
    /// `Some((k, capacity))`. Arms the bound's activators and the run's
    /// budgets and solves, all inside one `iteration` span carrying the
    /// bounds, the arm and solve times, the verdict and the solver-stat
    /// deltas.
    fn probe(
        &self,
        model: &mut FlatModel,
        deadline: Option<Instant>,
        t_bound: usize,
        swap_bound: Option<(usize, usize)>,
    ) -> SolveResult {
        let span = match swap_bound {
            None => self.iteration_span("depth", &[("t_bound", t_bound)]),
            Some((k, _)) => {
                self.iteration_span("swaps", &[("t_bound", t_bound), ("swap_bound", k)])
            }
        };
        self.probe_in(&span, model, deadline, t_bound, swap_bound)
    }

    /// The body of [`Olsq2Synthesizer::probe`], timed into the already
    /// open `iteration` span `span`.
    fn probe_in(
        &self,
        span: &SpanGuard,
        model: &mut FlatModel,
        deadline: Option<Instant>,
        t_bound: usize,
        swap_bound: Option<(usize, usize)>,
    ) -> SolveResult {
        let encode_start = Instant::now();
        let act_d = model.depth_bound(t_bound);
        let acts = match swap_bound {
            None => vec![act_d],
            Some((k, capacity)) => vec![act_d, model.swap_bound(k, capacity)],
        };
        span.set("encode_us", encode_start.elapsed().as_micros() as u64);
        self.arm_budgets(model, deadline);
        let stats_before = model.solver_mut().stats();
        let solve_start = Instant::now();
        let res = model.solve(&acts);
        span.set("solve_us", solve_start.elapsed().as_micros() as u64);
        span.set("result", result_str(res));
        Self::set_iteration_deltas(span, stats_before, model.solver_mut().stats());
        res
    }

    /// Ends a run on its final walk: snapshots the model when the run was
    /// cut before optimality was proven, and reports the walk.
    fn finish(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        start: Instant,
        walk: Walk,
    ) -> SynthesisOutcome {
        let Walk {
            mut model,
            result,
            iterations,
            proven,
            refutation,
            retired,
        } = walk;
        if !proven {
            self.capture_snapshot(circuit, graph, &mut model);
        }
        let mut solver_stats = retired;
        solver_stats += model.solver_mut().stats();
        SynthesisOutcome {
            result,
            proven_optimal: proven,
            iterations,
            elapsed: start.elapsed(),
            formula_size: model.formula_size(),
            solver_stats,
            extensions: model.extensions(),
            refutation: refutation.filter(|_| proven),
        }
    }

    /// Builds the model and solves *once* with the full window and no
    /// objective bound — the Fig. 1 / Table I "solving time" measurement.
    ///
    /// # Errors
    ///
    /// Propagates model errors; `Ok(None)` if the budget expired.
    pub fn solve_feasible(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        t_ub: usize,
    ) -> Result<Option<SynthesisOutcome>, SynthesisError> {
        let start = Instant::now();
        let outer = self.config.recorder.span("solve_feasible");
        outer.set("t_ub", t_ub);
        let mut model = self.build_model(circuit, graph, t_ub)?;
        self.arm_budgets(&mut model, self.deadline());
        let span = self.iteration_span("feasible", &[("t_bound", t_ub)]);
        let stats_before = model.solver_mut().stats();
        let solve_start = Instant::now();
        let res = model.solve(&[]);
        span.set("solve_us", solve_start.elapsed().as_micros() as u64);
        span.set("result", result_str(res));
        Self::set_iteration_deltas(&span, stats_before, model.solver_mut().stats());
        drop(span);
        match res {
            SolveResult::Sat => {
                let result = model.extract();
                self.publish_incumbent(&result);
                Ok(Some(SynthesisOutcome {
                    result,
                    proven_optimal: false,
                    iterations: 1,
                    elapsed: start.elapsed(),
                    formula_size: model.formula_size(),
                    solver_stats: model.solver_mut().stats(),
                    extensions: model.extensions(),
                    refutation: None,
                }))
            }
            SolveResult::Unsat => Err(SynthesisError::WindowExhausted),
            SolveResult::Unknown => Ok(None),
        }
    }

    /// The sub-device first probe of [`Olsq2Synthesizer::optimize_depth`]:
    /// encodes the flat model on `ball` with window `T_UB = T_LB` and
    /// probes `depth ≤ T_LB` once. SAT is the optimum, because `T_LB`
    /// bounds the depth on every device and a layout on an induced
    /// subgraph is a layout on the device: the walk breaks there, with
    /// the layout lifted to device qubits. UNSAT proves nothing about the
    /// device, so the walk continues on it, carrying this probe's solver
    /// statistics. A budget cut ends the run.
    fn sub_device_probe(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        ball: &SubGraph,
        deadline: Option<Instant>,
        t_lb: usize,
    ) -> Result<ControlFlow<Walk, Stats>, SynthesisError> {
        let size = ball.nodes().len();
        let span = self.config.recorder.span("encode");
        span.set("sub_device", size);
        let mut model = self.encode(&span, circuit, ball.graph(), t_lb)?;
        drop(span);
        let span = self.iteration_span("depth", &[("t_bound", t_lb), ("sub_device", size)]);
        let res = self.probe_in(&span, &mut model, deadline, t_lb, None);
        drop(span);
        match res {
            SolveResult::Sat => {
                let result = lift(model.extract(), ball, graph);
                debug_assert_eq!(olsq2_layout::verify(circuit, graph, &result), Ok(()));
                self.publish_incumbent(&result);
                Ok(ControlFlow::Break(Walk {
                    model,
                    result,
                    iterations: 1,
                    proven: true,
                    refutation: None,
                    retired: Stats::default(),
                }))
            }
            SolveResult::Unsat => Ok(ControlFlow::Continue(model.solver_mut().stats())),
            SolveResult::Unknown => Err(SynthesisError::BudgetExhausted),
        }
    }

    /// Whether the run's deadline has passed or its stop flag is raised.
    fn cut(&self, deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() >= d)
            || self
                .config
                .stop_flag
                .as_ref()
                .is_some_and(|stop| stop.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// The depth walk of §III-B-1 under one `optimize_depth` span: start
    /// from `T_B = T_LB` and relax geometrically (`r = 1.3` below 100,
    /// else `1.1`) until the first SAT, then decrement until UNSAT, the
    /// structural lower bound, or the budget. Seals the decisive UNSAT
    /// under [`SynthesisConfig::proof_log`]. With `sub_device_first`, the
    /// walk starts with [`Olsq2Synthesizer::sub_device_probe`] where
    /// [`sub_device`] applies and ends there on SAT; after an UNSAT it
    /// walks the full device as usual, counting that probe too.
    fn depth_phase(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        deadline: Option<Instant>,
        sub_device_first: bool,
    ) -> Result<Walk, SynthesisError> {
        let outer = self.config.recorder.span("optimize_depth");
        let dag = self.dependency_graph(circuit);
        let t_lb = dag.longest_chain().max(1);
        outer.set("t_lb", t_lb);
        let mut iterations = 0usize;
        let mut retired = Stats::default();
        if let Some(ball) = sub_device_first
            .then(|| sub_device(circuit, graph))
            .flatten()
        {
            iterations += 1;
            match self.sub_device_probe(circuit, graph, &ball, deadline, t_lb)? {
                ControlFlow::Break(walk) => {
                    outer.set("iterations", iterations);
                    outer.set("proven_optimal", true);
                    return Ok(walk);
                }
                ControlFlow::Continue(stats) => retired = stats,
            }
            // Never encode the full device once the budget is spent.
            if self.cut(deadline) {
                return Err(SynthesisError::BudgetExhausted);
            }
        }
        let mut t_ub = self.initial_t_ub(t_lb);
        let mut model = self.build_model(circuit, graph, t_ub)?;

        // Phase 1: relax until the first SAT.
        let mut t_b = t_lb;
        let mut current = loop {
            if t_b > t_ub {
                // Regenerate with a larger window (§III-B-1 last sentence).
                t_ub = (t_b.max((t_ub as f64 * 1.5).ceil() as usize)).min(MAX_T_UB);
                if t_b > t_ub {
                    return Err(SynthesisError::WindowExhausted);
                }
                self.grow_model(circuit, graph, &mut model, t_ub)?;
            }
            iterations += 1;
            match self.probe(&mut model, deadline, t_b, None) {
                SolveResult::Sat => {
                    let result = model.extract();
                    self.publish_incumbent(&result);
                    break result;
                }
                SolveResult::Unsat => {
                    let r = if t_b < 100 { 1.3 } else { 1.1 };
                    t_b = ((t_b as f64 * r).ceil() as usize).max(t_b + 1);
                    if t_b > MAX_T_UB {
                        return Err(SynthesisError::WindowExhausted);
                    }
                }
                SolveResult::Unknown => {
                    self.capture_snapshot(circuit, graph, &mut model);
                    return Err(SynthesisError::BudgetExhausted);
                }
            }
        };

        // Phase 2: decrement until UNSAT (or the lower bound is reached).
        let mut proven = false;
        let mut refutation = None;
        loop {
            if current.depth <= t_lb {
                proven = true;
                break;
            }
            iterations += 1;
            match self.probe(&mut model, deadline, current.depth - 1, None) {
                SolveResult::Sat => {
                    current = model.extract();
                    self.publish_incumbent(&current);
                }
                SolveResult::Unsat => {
                    proven = true;
                    refutation = seal_refutation(model.solver_mut());
                    break;
                }
                SolveResult::Unknown => break, // budget: keep best-so-far
            }
        }
        outer.set("iterations", iterations);
        outer.set("proven_optimal", proven);
        Ok(Walk {
            model,
            result: current,
            iterations,
            proven,
            refutation,
            retired,
        })
    }

    /// Depth optimization (§III-B-1): start from `T_B = T_LB`, relax
    /// geometrically (`r = 1.3` below 100, else `1.1`) until SAT, then
    /// decrement until UNSAT.
    ///
    /// When the device has more than `2·|Q|` qubits, the walk first
    /// encodes the model on the connected ball of the `2·|Q|` qubits
    /// nearest the device's center ([`CouplingGraph::ball`]), with
    /// window `T_UB = T_LB`, and probes `depth ≤ T_LB` there once:
    ///
    /// * **SAT** — the answer is optimal: `T_LB` bounds the depth on any
    ///   device, and a layout on an induced subgraph is a layout on the
    ///   device. It comes back lifted to device qubits, proven, after one
    ///   iteration and without a refutation (as for any optimum at
    ///   `T_LB`); the full device is never encoded, and `formula_size`
    ///   and `solver_stats` describe the sub-device model.
    /// * **UNSAT** — proves nothing about the device. The walk runs on
    ///   the full device as if the probe had not happened; `iterations`
    ///   and `solver_stats` also count the probe.
    /// * **Budget cut** — [`SynthesisError::BudgetExhausted`].
    ///
    /// Both probes' `encode` and `iteration` spans nest under the run's
    /// `optimize_depth` span; the sub-device ones carry `sub_device`,
    /// the ball's qubit count.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::BudgetExhausted`] if no solution was found in
    /// budget; [`SynthesisError::WindowExhausted`] for unroutable inputs.
    pub fn optimize_depth(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        let start = Instant::now();
        let walk = self.depth_phase(circuit, graph, self.deadline(), true)?;
        Ok(self.finish(circuit, graph, start, walk))
    }

    /// SWAP-count optimization (§III-B-2): obtain a depth-optimal solution
    /// first, then iteratively descend the SWAP bound; when the optimum
    /// under the current depth is proven, relax depth by one step and
    /// retry. Terminates when relaxing the depth brings no reduction
    /// (Pareto-optimal), the count reaches zero, or the budget expires.
    ///
    /// The SWAP phase runs on the depth phase's warm model — its learned
    /// clauses and cached depth activators carry over, and nothing is
    /// re-encoded — so `solver_stats` covers every probe of the run. That
    /// phase needs the full-device model, so the depth phase here skips
    /// [`Olsq2Synthesizer::optimize_depth`]'s sub-device probe.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Olsq2Synthesizer::optimize_depth`].
    pub fn optimize_swaps(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<SwapOptimizationOutcome, SynthesisError> {
        let start = Instant::now();
        let deadline = self.deadline();
        let outer = self.config.recorder.span("optimize_swaps");
        let Walk {
            mut model,
            result: mut current,
            mut iterations,
            retired,
            ..
        } = self.depth_phase(circuit, graph, deadline, false)?;
        let mut current_depth = current.depth;
        let capacity = current.swap_count().max(1);
        let mut t_ub = model.t_ub();
        let mut pareto = vec![(current.depth, current.swap_count())];
        let mut proven;
        // The seal of the last UNSAT probe; a relaxed SAT supersedes it.
        let mut refutation = None;
        let mut relax_rounds = 0usize;

        'outer: loop {
            // Descend the SWAP bound at the current depth.
            loop {
                let s = current.swap_count();
                if s == 0 {
                    proven = true;
                    break 'outer;
                }
                iterations += 1;
                match self.probe(&mut model, deadline, current_depth, Some((s - 1, capacity))) {
                    SolveResult::Sat => {
                        current = model.extract();
                        self.publish_incumbent(&current);
                        pareto.push((current.depth.max(1), current.swap_count()));
                    }
                    SolveResult::Unsat => {
                        proven = true; // optimal under this depth
                        refutation = seal_refutation(model.solver_mut());
                        break;
                    }
                    SolveResult::Unknown => {
                        proven = false;
                        break 'outer;
                    }
                }
            }

            // Relax the depth bound and see whether fewer SWAPs fit.
            if let Some(limit) = self.config.pareto_relax_limit {
                if relax_rounds >= limit {
                    break;
                }
            }
            relax_rounds += 1;
            let s = current.swap_count();
            let new_depth = current_depth + 1;
            if new_depth > t_ub {
                t_ub = (t_ub + self.config.swap_duration.max(1)).min(MAX_T_UB);
                if new_depth > t_ub {
                    break;
                }
                self.grow_model(circuit, graph, &mut model, t_ub)?;
            }
            iterations += 1;
            match self.probe(&mut model, deadline, new_depth, Some((s - 1, capacity))) {
                SolveResult::Sat => {
                    current = model.extract();
                    self.publish_incumbent(&current);
                    current_depth = new_depth;
                    pareto.push((current.depth, current.swap_count()));
                    refutation = None;
                }
                SolveResult::Unsat => {
                    // No reduction from relaxing: Pareto-optimal (paper's
                    // termination condition 2).
                    proven = true;
                    refutation = seal_refutation(model.solver_mut());
                    break;
                }
                SolveResult::Unknown => {
                    proven = false;
                    break;
                }
            }
        }

        outer.set("iterations", iterations);
        outer.set("proven_optimal", proven);
        let walk = Walk {
            model,
            result: current,
            iterations,
            proven,
            refutation,
            retired,
        };
        Ok(SwapOptimizationOutcome {
            best: self.finish(circuit, graph, start, walk),
            pareto,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{grid, line};
    use olsq2_circuit::{Circuit, Gate, GateKind};
    use olsq2_layout::verify;

    fn triangle() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c.push(Gate::two(GateKind::Cx, 1, 2));
        c.push(Gate::two(GateKind::Cx, 0, 2));
        c
    }

    #[test]
    fn depth_optimal_on_triangle_line() {
        let circuit = triangle();
        let graph = line(3);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth.optimize_depth(&circuit, &graph).expect("solves");
        assert!(out.proven_optimal);
        assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
        // Chain is 3 (all share qubits pairwise? g0-g1 share q1, g1-g2 share
        // q2, g0-g2 share q0: chain g0->g1->g2) and one swap is needed, so
        // optimal depth is 4 with S_D=1: 3 gates + 1 swap on a line.
        assert_eq!(out.result.depth, 4);
    }

    #[test]
    fn swap_optimal_on_triangle_line() {
        let circuit = triangle();
        let graph = line(3);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth.optimize_swaps(&circuit, &graph).expect("solves");
        assert!(out.best.proven_optimal);
        assert_eq!(out.best.result.swap_count(), 1);
        assert_eq!(verify(&circuit, &graph, &out.best.result), Ok(()));
        assert!(!out.pareto.is_empty());
    }

    #[test]
    fn zero_swaps_when_layout_fits() {
        // A 2x2-grid-compatible circuit: square interactions.
        let mut circuit = Circuit::new(4);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 2, 3));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        circuit.push(Gate::two(GateKind::Cx, 1, 3));
        let graph = grid(2, 2);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth.optimize_swaps(&circuit, &graph).expect("solves");
        assert_eq!(out.best.result.swap_count(), 0);
        assert!(out.best.proven_optimal);
        assert_eq!(verify(&circuit, &graph, &out.best.result), Ok(()));
        // Depth-optimal too: two layers.
        let d = synth.optimize_depth(&circuit, &graph).expect("solves");
        assert_eq!(d.result.depth, 2);
    }

    #[test]
    fn single_gate_instant() {
        let mut circuit = Circuit::new(2);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        let graph = line(4);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3));
        let out = synth.optimize_depth(&circuit, &graph).expect("solves");
        assert_eq!(out.result.depth, 1);
        assert!(out.proven_optimal);
        assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let circuit = triangle();
        let graph = grid(3, 3);
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.time_budget = Some(Duration::from_nanos(1));
        let synth = Olsq2Synthesizer::new(config);
        // With an absurd budget the first solve gives Unknown.
        match synth.optimize_depth(&circuit, &graph) {
            Err(SynthesisError::BudgetExhausted) => {}
            Ok(out) => {
                // Fast machines may finish the first solve before the
                // deadline check fires; then the result must be valid.
                assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn incumbent_published_on_every_improvement() {
        let circuit = triangle();
        let graph = line(3);
        let slot = crate::IncumbentSlot::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.incumbent = Some(slot.clone());
        let synth = Olsq2Synthesizer::new(config);
        let out = synth.optimize_depth(&circuit, &graph).expect("solves");
        // The last published incumbent is the returned optimum.
        let published = slot.peek().expect("published");
        assert_eq!(published.depth, out.result.depth);
        assert_eq!(verify(&circuit, &graph, &published), Ok(()));
    }

    #[test]
    fn preset_stop_flag_aborts_before_any_solution() {
        let circuit = triangle();
        let graph = line(3);
        let slot = crate::IncumbentSlot::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.incumbent = Some(slot.clone());
        config.stop_flag = Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
            true,
        )));
        let synth = Olsq2Synthesizer::new(config);
        match synth.optimize_depth(&circuit, &graph) {
            Err(SynthesisError::BudgetExhausted) => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // Nothing was found, so nothing was published.
        assert!(slot.is_empty());
    }

    #[test]
    fn traced_run_records_iteration_spans() {
        let circuit = triangle();
        let graph = line(3);
        let rec = olsq2_obs::Recorder::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.recorder = rec.clone();
        let synth = Olsq2Synthesizer::new(config);
        let out = synth.optimize_swaps(&circuit, &graph).expect("solves");
        let snap = rec.snapshot();

        // One iteration span per solver invocation, each carrying its
        // bound, solve time, and result.
        let iters: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "iteration")
            .collect();
        assert_eq!(iters.len(), out.best.iterations);
        for it in &iters {
            assert!(it.fields.iter().any(|(k, _)| k == "t_bound"));
            assert!(it.fields.iter().any(|(k, _)| k == "solve_us"));
            assert!(it.fields.iter().any(|(k, _)| k == "result"));
            assert!(it.dur_us.is_some());
        }
        // Encode spans report the per-family breakdown.
        let enc = snap
            .spans
            .iter()
            .find(|s| s.name == "encode")
            .expect("encode span");
        assert!(enc.fields.iter().any(|(k, _)| k == "clauses.mapping"));
        assert!(enc.fields.iter().any(|(k, _)| k == "vars.transition"));
        // Hierarchy: iteration spans nest under the optimize spans.
        let outer_ids: Vec<u64> = snap
            .spans
            .iter()
            .filter(|s| s.name == "optimize_depth" || s.name == "optimize_swaps")
            .map(|s| s.id)
            .collect();
        assert!(!outer_ids.is_empty());
        for it in &iters {
            assert!(it.parent.is_some_and(|p| outer_ids.contains(&p)));
        }
        // The solver's telemetry flowed into shared counters.
        assert!(
            snap.counters.get("sat.solves").copied().unwrap_or(0) >= out.best.iterations as u64
        );
    }

    #[test]
    fn swap_phase_reuses_the_depth_model_and_counts_every_probe() {
        let circuit = olsq2_circuit::generators::qaoa_circuit(4, 42);
        let graph = line(4);
        let rec = olsq2_obs::Recorder::new();
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.recorder = rec.clone();
        let out = Olsq2Synthesizer::new(config)
            .optimize_swaps(&circuit, &graph)
            .expect("solves");
        assert!(out.best.proven_optimal);
        let snap = rec.snapshot();
        let encodes = snap.spans.iter().filter(|s| s.name == "encode").count();
        assert_eq!(encodes, 1, "the SWAP phase must not encode a second model");
        // One solver ran every probe, so its cumulative stats are the sum
        // of the per-probe deltas.
        let probe_conflicts: u64 = snap
            .spans
            .iter()
            .filter(|s| s.name == "iteration")
            .map(|s| {
                s.fields
                    .iter()
                    .find_map(|(k, v)| match (k.as_str(), v) {
                        ("conflicts", olsq2_obs::FieldValue::U64(c)) => Some(*c),
                        _ => None,
                    })
                    .expect("iteration spans carry their conflicts")
            })
            .sum();
        assert_eq!(out.best.solver_stats.conflicts, probe_conflicts);
    }

    #[test]
    fn feasibility_solve_reports_formula_size() {
        let circuit = triangle();
        let graph = line(3);
        let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
        let out = synth
            .solve_feasible(&circuit, &graph, 8)
            .expect("no model error")
            .expect("no budget");
        assert!(out.formula_size.0 > 0);
        assert!(out.formula_size.1 > 0);
        assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
    }
}
