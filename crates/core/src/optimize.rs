//! The optimization strategies of §III-B as one incremental bound search,
//! written once for both models through the crate-private `BoundedModel`
//! trait. A time walk (depth for the flat model, blocks for TB) relaxes
//! the time bound until the first SAT and descends to one past its
//! highest refuted bound; for the SWAP objective, a SWAP walk on the same
//! warm model then closes the SWAP bracket at each time bound and relaxes
//! the time bound by one while that pays. Every probe is an
//! activation-literal assumption on one solver.

use crate::bounded::BoundedModel;
use crate::config::SynthesisConfig;
use crate::model::{FlatModel, ModelError};
use olsq2_arch::{CouplingGraph, SubGraph};
use olsq2_circuit::Circuit;
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_obs::SpanGuard;
use olsq2_sat::{Proof, ProofStep, SolveResult, Solver, Stats};
use std::time::{Duration, Instant};

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

/// The sub-device first probe of [`Olsq2Synthesizer::optimize_depth`]:
/// where [`sub_device`] applies, encodes the flat model on the ball with
/// window `T_UB = T_LB` and probes `depth ≤ T_LB` once. SAT is the
/// optimum, because `T_LB` bounds the depth on every device and a layout
/// on an induced subgraph is a layout on the device: the walk ends there,
/// with the layout lifted to device qubits. UNSAT refutes nothing on the
/// device, so the walk continues there as if the probe had not run,
/// carrying its solver statistics, unless the budget is spent. A budget
/// cut ends the run.
fn sub_device_probe(
    run: &mut Run<'_>,
    t_lb: usize,
) -> Result<Option<Walk<FlatModel>>, SynthesisError> {
    let Some(ball) = sub_device(run.circuit, run.graph) else {
        return Ok(None);
    };
    let names = FlatModel::NAMES;
    let size = ball.nodes().len();
    let span = run.config.recorder.span("encode");
    span.set("sub_device", size);
    let mut model: FlatModel = run.encode(&span, ball.graph(), t_lb)?;
    drop(span);
    let span = run.iteration(
        names.objective,
        &[(names.time_bound, t_lb), ("sub_device", size)],
    );
    let res = run.probe(&span, &mut model, Some(t_lb), None);
    drop(span);
    match res {
        SolveResult::Sat => {
            let result = lift(model.extract(), &ball, run.graph);
            debug_assert_eq!(
                olsq2_layout::verify(run.circuit, run.graph, &result),
                Ok(())
            );
            run.publish(&result);
            Ok(Some(Walk {
                model,
                time: result.depth,
                result,
                proven: true,
                refutation: None,
            }))
        }
        SolveResult::Unsat => {
            run.retired += model.solver_mut().stats();
            // Never encode the full device once the budget is spent.
            if run.cut() {
                Err(SynthesisError::BudgetExhausted)
            } else {
                Ok(None)
            }
        }
        SolveResult::Unknown => Err(SynthesisError::BudgetExhausted),
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
    /// UNSAT probe: the sealed, RUP-checkable refutation of that decisive
    /// probe, from either synthesizer. A time walk's is the UNSAT of the
    /// bound one below the optimum; a SWAP walk's is the UNSAT that
    /// closed its final SWAP bracket. `None` when the optimum sits on its
    /// floor, where there is nothing to refute: `T_LB` or one block, zero
    /// SWAPs (flat), or `b − 1` SWAPs at `b` blocks (TB, whose SWAP
    /// optimum there rests on the block walk's refutation).
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

impl Olsq2Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthesisConfig) -> Olsq2Synthesizer {
        Olsq2Synthesizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Depth optimization (§III-B-1): start from `T_B = T_LB`, relax
    /// geometrically (`r = 1.3` below 100, else `1.1`) until SAT, then
    /// decrement until UNSAT or one above the highest bound the
    /// relaxation refuted, so no bound is probed twice.
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
        let mut run = Run::new(&self.config, circuit, graph);
        let walk = run.time_walk::<FlatModel>(Some(sub_device_probe))?;
        Ok(run.finish(walk))
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
        let mut run = Run::new(&self.config, circuit, graph);
        let (walk, pareto) = run.swap_walk::<FlatModel>()?;
        Ok(SwapOptimizationOutcome {
            best: run.finish(walk),
            pareto,
        })
    }
}

/// Where a walk stands: the warm model, its best layout and the time
/// value that layout reaches (depth, or blocks used), whether the walk
/// proved it optimal, and the sealed refutation of the probe that did
/// (proof mode only).
pub(crate) struct Walk<M> {
    model: M,
    result: LayoutResult,
    time: usize,
    proven: bool,
    refutation: Option<Proof>,
}

impl<M> Walk<M> {
    /// The time value the best layout reaches.
    pub(crate) fn time(&self) -> usize {
        self.time
    }
}

/// `(depth, SWAPs)` points of a SWAP walk, in exploration order.
type Pareto = Vec<(usize, usize)>;

/// Runs before a time walk's first full-window probe, inside the walk's
/// span, given the time floor: ends the walk with its own witness, or
/// returns `None` to hand over to the full-window walk.
pub(crate) type FirstProbe<M> = fn(&mut Run<'_>, usize) -> Result<Option<Walk<M>>, SynthesisError>;

/// The bound-search driver: one synthesis run of either model, holding
/// the instance, its configuration and deadline, the probes run so far
/// and the statistics of solvers it retired. It owns every span, budget,
/// incumbent, proof seal and outcome; the model contributes only its
/// search rules ([`BoundedModel`]).
pub(crate) struct Run<'a> {
    config: &'a SynthesisConfig,
    circuit: &'a Circuit,
    graph: &'a CouplingGraph,
    start: Instant,
    deadline: Option<Instant>,
    iterations: usize,
    retired: Stats,
}

impl<'a> Run<'a> {
    /// Starts a run: its clock and, under a time budget, its deadline.
    pub(crate) fn new(
        config: &'a SynthesisConfig,
        circuit: &'a Circuit,
        graph: &'a CouplingGraph,
    ) -> Run<'a> {
        Run {
            config,
            circuit,
            graph,
            start: Instant::now(),
            deadline: config.time_budget.map(|b| Instant::now() + b),
            iterations: 0,
            retired: Stats::default(),
        }
    }

    /// Publishes an intermediate solution to the configured incumbent
    /// slot, so deadline-bound callers can recover the best-so-far when a
    /// later solve is cut off.
    fn publish(&self, result: &LayoutResult) {
        if let Some(slot) = &self.config.incumbent {
            slot.publish(result);
        }
    }

    /// Whether the run's deadline has passed or its stop flag is raised.
    fn cut(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self
                .config
                .stop_flag
                .as_ref()
                .is_some_and(|stop| stop.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Opens one `iteration` span tagged with the probe's objective and
    /// bounds.
    fn iteration(&self, objective: &str, bounds: &[(&str, usize)]) -> SpanGuard {
        let span = self.config.recorder.span("iteration");
        span.set("objective", objective);
        for &(k, v) in bounds {
            span.set(k, v);
        }
        span
    }

    /// Encodes a fresh model on `graph` over `window` inside the `encode`
    /// span `span`, tagging it with the window and the per-family formula
    /// sizes, and wires it to this run's telemetry. Under
    /// [`SynthesisConfig::proof_log`] its solver also logs every
    /// assumption core as a lemma, so any UNSAT probe can be sealed
    /// ([`seal_refutation`]).
    fn encode<M: BoundedModel>(
        &self,
        span: &SpanGuard,
        graph: &CouplingGraph,
        window: usize,
    ) -> Result<M, SynthesisError> {
        span.set(M::NAMES.window, window);
        let mut model = M::build(self.circuit, graph, self.config, window)?;
        if self.config.recorder.is_enabled() {
            let core = model.core();
            let (vars, clauses) = core.formula_size();
            span.set("vars", vars);
            span.set("clauses", clauses);
            for (fam, c) in core.tally.iter() {
                span.set(fam.vars_key(), c.vars);
                span.set(fam.clauses_key(), c.clauses);
            }
        }
        let solver = &mut model.core_mut().solver;
        solver.set_recorder(self.config.recorder.clone());
        solver.set_probe(self.config.probe.clone());
        if self.config.proof_log {
            solver.set_core_lemmas(true);
        }
        Ok(model)
    }

    /// A model of the run's instance over `window`, encoded under an
    /// `encode` span.
    fn build<M: BoundedModel>(&self, window: usize) -> Result<M, SynthesisError> {
        let span = self.config.recorder.span("encode");
        self.encode(&span, self.graph, window)
    }

    /// Grows `model` to `window` in place ([`BoundedModel::extend`]),
    /// keeping the solver's learned clauses alive, or by building anew
    /// where the extension refuses, under one `extend` span.
    fn grow<M: BoundedModel>(&self, model: &mut M, window: usize) -> Result<(), SynthesisError> {
        let span = self.config.recorder.span("extend");
        span.set(M::NAMES.window, window);
        let (vars_before, clauses_before) = model.core().formula_size();
        let extend_start = Instant::now();
        if model.extend(self.circuit, self.graph, self.config, window) {
            let (vars, clauses) = model.core().formula_size();
            span.set("extend_us", extend_start.elapsed().as_micros() as u64);
            span.set("appended_vars", vars - vars_before);
            span.set("appended_clauses", clauses.saturating_sub(clauses_before));
            return Ok(());
        }
        span.set("result", "rebuild");
        *model = self.build(window)?;
        Ok(())
    }

    /// One probe on `model`, timed into the open `iteration` span `span`:
    /// arms the activators of time bound `t` and of SWAP bound
    /// `swaps = (k, network capacity)` where given, in that order, then
    /// the run's budgets, and solves under them and the window guard.
    /// Tags the span with the arming and solve times, the verdict and the
    /// solver-stat deltas — the search-divergence signals (conflicts,
    /// restarts, decisions per conflict) that `olsq2 trace-diff` uses to
    /// attribute per-iteration time differences between two runs.
    fn probe<M: BoundedModel>(
        &mut self,
        span: &SpanGuard,
        model: &mut M,
        t: Option<usize>,
        swaps: Option<(usize, usize)>,
    ) -> SolveResult {
        self.iterations += 1;
        let arm_start = Instant::now();
        let mut acts = Vec::with_capacity(2);
        acts.extend(t.map(|t| model.time_bound(t)));
        acts.extend(swaps.map(|(k, capacity)| model.core_mut().swap_bound(k, capacity)));
        span.set("encode_us", arm_start.elapsed().as_micros() as u64);
        let core = model.core_mut();
        core.solver.set_deadline(self.deadline);
        core.solver.set_conflict_budget(self.config.conflict_budget);
        core.solver.set_stop_flag(self.config.stop_flag.clone());
        let before = core.solver.stats();
        let solve_start = Instant::now();
        let result = core.solve(&acts);
        span.set("solve_us", solve_start.elapsed().as_micros() as u64);
        span.set(
            "result",
            match result {
                SolveResult::Sat => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Unknown => "unknown",
            },
        );
        let after = core.solver.stats();
        span.set("conflicts", after.conflicts - before.conflicts);
        span.set("decisions", after.decisions - before.decisions);
        span.set("propagations", after.propagations - before.propagations);
        span.set("restarts", after.restarts - before.restarts);
        result
    }

    /// A time-walk probe: time bound `t` alone.
    fn time_probe<M: BoundedModel>(&mut self, model: &mut M, t: usize) -> SolveResult {
        let names = M::NAMES;
        let span = self.iteration(names.objective, &[(names.time_bound, t)]);
        self.probe(&span, model, Some(t), None)
    }

    /// A SWAP-walk probe: time bound `t` and at most `k` SWAPs.
    fn swap_probe<M: BoundedModel>(
        &mut self,
        model: &mut M,
        t: usize,
        k: usize,
        capacity: usize,
    ) -> SolveResult {
        let span = self.iteration("swaps", &[(M::NAMES.time_bound, t), ("swap_bound", k)]);
        self.probe(&span, model, Some(t), Some((k, capacity)))
    }

    /// Decodes `model`'s SAT witness, publishes it as the incumbent and
    /// makes it `walk`'s best.
    fn improve<M: BoundedModel>(&self, walk: &mut Walk<M>) {
        (walk.result, walk.time) = walk.model.decode(self.circuit, self.config);
        self.publish(&walk.result);
    }

    /// The time walk under one span: `first` (when given) runs before
    /// the full-window walk and may end it.
    pub(crate) fn time_walk<M: BoundedModel>(
        &mut self,
        first: Option<FirstProbe<M>>,
    ) -> Result<Walk<M>, SynthesisError> {
        let names = M::NAMES;
        let outer = self.config.recorder.span(names.time_walk);
        let floor = M::time_floor(self.circuit, self.config);
        outer.set(names.floor, floor);
        let walk = match first {
            Some(first) => first(self, floor)?,
            None => None,
        };
        let walk = match walk {
            Some(walk) => walk,
            None => self.full_time_walk(floor)?,
        };
        outer.set("iterations", self.iterations);
        outer.set("proven_optimal", walk.proven);
        Ok(walk)
    }

    /// The time walk on a model of the run's device, built at the first
    /// window: relax from `floor` by [`BoundedModel::relax`] until the
    /// first SAT, widening the window when a bound outgrows it, then
    /// descend while the witness's time value is above `lo`, one past the
    /// highest refuted bound. Under proof logging every UNSAT that raises
    /// `lo` is sealed, and the last one is the walk's refutation.
    fn full_time_walk<M: BoundedModel>(&mut self, floor: usize) -> Result<Walk<M>, SynthesisError> {
        let mut model: M = self.build(M::first_window(floor, self.config))?;
        let (mut lo, mut t, mut refutation) = (floor, floor, None);
        loop {
            let window = model.core().window();
            if t > window {
                let widened = M::widened_window(window, t, self.circuit);
                if t > widened {
                    return Err(SynthesisError::WindowExhausted);
                }
                self.grow(&mut model, widened)?;
            }
            match self.time_probe(&mut model, t) {
                SolveResult::Sat => break,
                SolveResult::Unsat => {
                    refutation = seal_refutation(&model.core().solver);
                    lo = t + 1;
                    t = M::relax(t);
                }
                SolveResult::Unknown => return Err(SynthesisError::BudgetExhausted),
            }
        }
        let (result, time) = model.decode(self.circuit, self.config);
        self.publish(&result);
        let mut walk = Walk {
            model,
            result,
            time,
            proven: true,
            refutation,
        };
        while walk.time > lo {
            match self.time_probe(&mut walk.model, walk.time - 1) {
                SolveResult::Sat => self.improve(&mut walk),
                SolveResult::Unsat => {
                    walk.refutation = seal_refutation(&walk.model.core().solver);
                    lo = walk.time;
                }
                SolveResult::Unknown => {
                    walk.proven = false;
                    break;
                }
            }
        }
        Ok(walk)
    }

    /// The SWAP walk of §III-B-2 under one span, on the time walk's warm
    /// model: at time bound `b`, first the time optimum, close the bracket
    /// `[swap_floor(b), best)` by probing [`BoundedModel::next_swap_bound`];
    /// then probe the relaxed bound `b + 1` for one SWAP fewer than the
    /// best, until a probe is UNSAT, the relax limit is reached, or
    /// `best ≤ swap_floor(b + 1)`. The walk's refutation is the UNSAT that
    /// closed its final bracket (a relaxed UNSAT closes the bracket at
    /// `b + 1`). Returns the walk and the `(depth, SWAPs)` of its first
    /// layout and every witness after it.
    pub(crate) fn swap_walk<M: BoundedModel>(
        &mut self,
    ) -> Result<(Walk<M>, Pareto), SynthesisError> {
        let outer = self.config.recorder.span(M::NAMES.swap_walk);
        let mut walk: Walk<M> = self.time_walk(None)?;
        // The time walk's verdict concerns its own bound.
        (walk.proven, walk.refutation) = (true, None);
        let capacity = walk.result.swap_count().max(1);
        let mut pareto = vec![(walk.result.depth, walk.result.swap_count())];
        let mut b = walk.time;
        let mut relax_rounds = 0usize;
        'walk: loop {
            let mut lo = M::swap_floor(b);
            while walk.result.swap_count() > lo {
                let k = M::next_swap_bound(lo, walk.result.swap_count());
                match self.swap_probe(&mut walk.model, b, k, capacity) {
                    SolveResult::Sat => {
                        self.improve(&mut walk);
                        pareto.push((walk.result.depth, walk.result.swap_count()));
                    }
                    SolveResult::Unsat => {
                        walk.refutation = seal_refutation(&walk.model.core().solver);
                        lo = k + 1;
                    }
                    SolveResult::Unknown => {
                        walk.proven = false;
                        break 'walk;
                    }
                }
            }
            let best = walk.result.swap_count();
            let limit = self.config.pareto_relax_limit;
            if best <= M::swap_floor(b + 1) || limit.is_some_and(|l| relax_rounds >= l) {
                break;
            }
            relax_rounds += 1;
            let window = walk.model.core().window();
            if b + 1 > window {
                let relaxed = M::relaxed_window(window, b + 1, self.config);
                if b + 1 > relaxed {
                    break;
                }
                self.grow(&mut walk.model, relaxed)?;
            }
            match self.swap_probe(&mut walk.model, b + 1, best - 1, capacity) {
                SolveResult::Sat => {
                    self.improve(&mut walk);
                    pareto.push((walk.result.depth, walk.result.swap_count()));
                    walk.refutation = None;
                    b += 1;
                }
                SolveResult::Unsat => {
                    walk.refutation = seal_refutation(&walk.model.core().solver);
                    break;
                }
                SolveResult::Unknown => {
                    walk.proven = false;
                    break;
                }
            }
        }
        outer.set("iterations", self.iterations);
        outer.set("proven_optimal", walk.proven);
        Ok((walk, pareto))
    }

    /// Builds a model over `window` and solves it once, with no time
    /// bound and under at most `swaps` SWAPs when given — the
    /// feasibility measurement of Table II.
    ///
    /// # Errors
    ///
    /// Propagates model errors; `Ok(None)` if the budget expired.
    pub(crate) fn feasible<M: BoundedModel>(
        mut self,
        window: usize,
        swaps: Option<usize>,
    ) -> Result<Option<SynthesisOutcome>, SynthesisError> {
        let names = M::NAMES;
        let outer = self.config.recorder.span(names.feasible);
        outer.set(names.window, window);
        let mut model: M = self.build(window)?;
        let span = self.iteration("feasible", &[(names.time_bound, window)]);
        let res = self.probe(&span, &mut model, None, swaps.map(|k| (k, k)));
        drop(span);
        match res {
            SolveResult::Sat => {
                let (result, time) = model.decode(self.circuit, self.config);
                self.publish(&result);
                let walk = Walk {
                    model,
                    result,
                    time,
                    proven: false,
                    refutation: None,
                };
                Ok(Some(self.finish(walk)))
            }
            SolveResult::Unsat => Err(SynthesisError::WindowExhausted),
            SolveResult::Unknown => Ok(None),
        }
    }

    /// Reports a walk's end state as the run's outcome.
    pub(crate) fn finish<M: BoundedModel>(&self, walk: Walk<M>) -> SynthesisOutcome {
        let Walk {
            model,
            result,
            proven,
            refutation,
            ..
        } = walk;
        let core = model.core();
        let mut solver_stats = self.retired;
        solver_stats += core.solver.stats();
        SynthesisOutcome {
            result,
            proven_optimal: proven,
            iterations: self.iterations,
            elapsed: self.start.elapsed(),
            formula_size: core.formula_size(),
            solver_stats,
            extensions: core.extensions(),
            refutation: refutation.filter(|_| proven),
        }
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
}
