//! Cube-and-conquer depth optimization: the decrement phase of §III-B-1
//! driven by the `olsq2-cube` engine instead of a single solver.
//!
//! Phase 1 (geometric relaxation to the first SAT) is shared with
//! [`Olsq2Synthesizer`]. Phase 2 builds a cohort of identical worker
//! models over the *tight* window the first solution proved achievable,
//! then runs every `depth ≤ k` query as a cube-and-conquer race:
//!
//! * the splitter branches on the initial-mapping one-hot groups the
//!   model builders register ([`FlatModel::breakdown`] →
//!   `split_groups`), partitioning the search along the paper's most
//!   symmetric axis — "where does q₀ start?";
//! * workers keep their solvers (and learned clauses) across bounds:
//!   the engine hands every worker back after each run and the
//!   synthesizer re-arms the same models with the next activation
//!   literal;
//! * the workers share learned clauses through the portfolio's cohort
//!   fences ([`CohortEndpoint`]); endpoints retired by early-exiting
//!   workers are [reactivated](CohortEndpoint::reactivate) at the next
//!   bound;
//! * with [`CubeParams::prove`], sharing is disabled and every refuted
//!   bound's per-worker proof logs are stitched into one checkable
//!   refutation — a machine-checkable optimality certificate for the
//!   final `depth ≤ optimum − 1` query.

use crate::config::{SolverDiversification, SynthesisConfig};
use crate::model::FlatModel;
use crate::optimize::{
    result_str, seal_refutation, FirstSat, Olsq2Synthesizer, SynthesisError, SynthesisOutcome,
};
use crate::sharing::{CohortEndpoint, SharedClausePool};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::Circuit;
use olsq2_cube::{solve_cubes, CubeConfig, CubeRun, CubeSolvable, CubeStats, SplitGroup};
use olsq2_sat::{ClauseExchange, Lit, Proof, SolveResult, Solver};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Diversification seed for the cube cohort (worker 0 stays vanilla).
const CUBE_SEED: u64 = 0x00C0_BE5D;

/// Knobs for the cube-and-conquer optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeParams {
    /// Worker threads per bound query (≥ 1; 0 is clamped to 1).
    pub workers: usize,
    /// Initial cube-tree depth (split levels before solving starts).
    pub depth: usize,
    /// Conflicts a cube may consume before it is re-split.
    pub conflict_budget: u64,
    /// Stitch per-worker proof logs into a checkable refutation of the
    /// final UNSAT bound. Forces clause sharing off (imported lemmas
    /// carry no derivation) and proof logging on.
    pub prove: bool,
    /// SAT-likelihood gate: before cube-splitting a bound, probe it
    /// sequentially under this conflict budget. Synthesis descents
    /// decide most bounds SAT in a few thousand conflicts — splitting
    /// those pays the full cube-tree overhead for nothing
    /// (qaoa-4/qft-4 regressed to ~0.5× without the gate) — so only
    /// probes that exhaust the gate escalate to the cohort. The cohort
    /// itself is built lazily on first escalation; until then gate
    /// probes run on the phase-1 model and the walk is bit-for-bit the
    /// sequential one. `None` always cubes.
    pub gate_conflicts: Option<u64>,
}

impl Default for CubeParams {
    fn default() -> Self {
        CubeParams {
            workers: 4,
            depth: 2,
            conflict_budget: 20_000,
            prove: false,
            gate_conflicts: Some(20_000),
        }
    }
}

/// A [`FlatModel`] as a cube-engine worker: the model plus its standing
/// assumptions (window guard + active depth bound) and an optional
/// clause-sharing endpoint.
#[derive(Debug)]
pub struct CubeModel {
    model: FlatModel,
    base: Vec<Lit>,
    hints: Vec<SplitGroup>,
    endpoint: Option<Arc<CohortEndpoint>>,
}

impl CubeModel {
    /// Wraps a built model. Split hints are snapshotted from the model's
    /// registered one-hot groups.
    pub fn new(model: FlatModel, endpoint: Option<Arc<CohortEndpoint>>) -> CubeModel {
        let hints = model.breakdown().split_groups().to_vec();
        CubeModel {
            model,
            base: Vec::new(),
            hints,
            endpoint,
        }
    }

    /// Arms the worker for one `depth ≤ k` query: refreshes the base
    /// assumptions (window guard, depth activation literal) and
    /// reactivates the sharing endpoint the previous run retired.
    pub fn arm_depth(&mut self, k: usize) {
        let act = self.model.depth_bound(k);
        self.base.clear();
        if let Some(g) = self.model.window_guard() {
            self.base.push(g);
        }
        self.base.push(act);
        if let Some(e) = &self.endpoint {
            e.reactivate();
        }
    }

    /// The wrapped model (solution extraction after SAT).
    pub fn model(&self) -> &FlatModel {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut FlatModel {
        &mut self.model
    }
}

impl CubeSolvable for CubeModel {
    fn solver_mut(&mut self) -> &mut Solver {
        self.model.solver_mut()
    }

    fn base_assumptions(&self) -> Vec<Lit> {
        self.base.clone()
    }

    fn split_hints(&self) -> Vec<SplitGroup> {
        self.hints.clone()
    }

    fn retire_sharing(&mut self) {
        if let Some(e) = &self.endpoint {
            e.retire();
        }
    }
}

/// Outcome of a cube-and-conquer optimization.
#[derive(Debug)]
pub struct CubeOutcome {
    /// The usual synthesis outcome (result, optimality, iterations).
    pub outcome: SynthesisOutcome,
    /// Scheduler counters summed over every bound query.
    pub cube_stats: CubeStats,
    /// With [`CubeParams::prove`] and a proven optimum: the stitched
    /// refutation of `depth ≤ optimum − 1`.
    pub proof: Option<Proof>,
}

/// Depth optimizer whose decrement phase races a cube-and-conquer
/// cohort instead of a single solver (see the module docs).
///
/// # Examples
///
/// ```
/// use olsq2::cube::{CubeParams, CubeSynthesizer};
/// use olsq2::SynthesisConfig;
/// use olsq2_arch::ibm_qx2;
/// use olsq2_circuit::generators::toffoli_circuit;
/// use olsq2_layout::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = toffoli_circuit();
/// let device = ibm_qx2();
/// let synth = CubeSynthesizer::new(
///     SynthesisConfig::with_swap_duration(3),
///     CubeParams { workers: 2, ..CubeParams::default() },
/// );
/// let out = synth.optimize_depth(&circuit, &device)?;
/// assert!(out.outcome.proven_optimal);
/// assert_eq!(verify(&circuit, &device, &out.outcome.result), Ok(()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CubeSynthesizer {
    inner: Olsq2Synthesizer,
    params: CubeParams,
    /// Per-shard clause capacity of the cohort pool when sharing.
    pool_capacity: usize,
}

impl CubeSynthesizer {
    /// Creates the optimizer. With [`CubeParams::prove`], the config's
    /// proof logging is forced on and clause exchange off — stitched
    /// proofs must be self-contained.
    pub fn new(mut config: SynthesisConfig, params: CubeParams) -> CubeSynthesizer {
        if params.prove {
            config.proof_log = true;
            config.clause_exchange = None;
        }
        CubeSynthesizer {
            inner: Olsq2Synthesizer::new(config),
            params,
            pool_capacity: 4096,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        self.inner.config()
    }

    /// The cube knobs.
    pub fn params(&self) -> &CubeParams {
        &self.params
    }

    /// Builds the phase-2 worker cohort at the tight window `t_ub`,
    /// diversified per worker and wired to a fresh sharing pool unless
    /// proving. With [`SynthesisConfig::fork_spawn`] on (the default),
    /// only worker 0 pays an encode — its no-op-diversified model doubles
    /// as the cohort template and workers `1..n` are O(memcpy)
    /// [forks](FlatModel::fork) of it, each re-applying its own
    /// diversification knobs and re-binding its own sharing endpoint.
    fn build_cohort(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        t_ub: usize,
        n: usize,
    ) -> Result<Vec<Mutex<Option<CubeModel>>>, SynthesisError> {
        let config = self.inner.config();
        let share = !self.params.prove && n >= 2;
        let endpoints: Vec<Option<Arc<CohortEndpoint>>> = if share {
            let pool = Arc::new(SharedClausePool::new(n, self.pool_capacity));
            (0..n)
                .map(|i| {
                    Some(Arc::new(
                        CohortEndpoint::new(pool.clone(), i, config.recorder.clone())
                            .with_probe(config.probe.clone()),
                    ))
                })
                .collect()
        } else {
            (0..n).map(|_| None).collect()
        };
        let mut models: Vec<FlatModel> = Vec::with_capacity(n);
        for (i, endpoint) in endpoints.iter().enumerate() {
            let mut cfg = config.clone();
            cfg.diversification = SolverDiversification::variant(CUBE_SEED, i);
            cfg.proof_log = self.params.prove;
            cfg.clause_exchange = endpoint.clone().map(|e| e as Arc<dyn ClauseExchange>);
            let mut model = if config.fork_spawn && i > 0 {
                let span = config.recorder.span("fork");
                span.set("t_ub", t_ub);
                span.set("cube_worker", i);
                models[0].fork(&cfg)
            } else {
                let span = config.recorder.span("encode");
                span.set("t_ub", t_ub);
                span.set("cube_worker", i);
                let model = FlatModel::build(circuit, graph, &cfg, t_ub)?;
                if config.recorder.is_enabled() {
                    let (vars, clauses) = model.formula_size();
                    span.set("vars", vars);
                    span.set("clauses", clauses);
                }
                model
            };
            model.solver_mut().set_recorder(config.recorder.clone());
            model.solver_mut().set_probe(config.probe.clone());
            if self.params.prove {
                // Gate probes seal refutations from the failed-assumption
                // core, which must appear in the log as a lemma.
                model.solver_mut().set_core_lemmas(true);
            }
            models.push(model);
        }
        let mut slots = Vec::with_capacity(n);
        for (model, endpoint) in models.into_iter().zip(endpoints) {
            slots.push(Mutex::new(Some(CubeModel::new(model, endpoint))));
        }
        Ok(slots)
    }

    /// Depth optimization with a cube-and-conquer decrement phase.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Olsq2Synthesizer::optimize_depth`].
    pub fn optimize_depth(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<CubeOutcome, SynthesisError> {
        let start = Instant::now();
        let config = self.inner.config();
        let deadline = self.inner.deadline();
        let outer = config.recorder.span("optimize_depth");
        outer.set("strategy", "cube");
        let FirstSat {
            model: mut phase1_model,
            result: first,
            t_lb,
            mut iterations,
        } = self.inner.first_feasible_depth(circuit, graph, deadline)?;
        outer.set("t_lb", t_lb);
        let mut current = first;
        let mut cube_stats = CubeStats::default();
        let mut proof = None;

        if current.depth <= t_lb {
            // Phase 1 landed on the lower bound: optimal without a
            // single decrement query. Still surface the (zero) cube
            // counters so dashboards see the metric family for every
            // cube job, not only those that reached phase 2.
            cube_stats.record(&config.recorder);
            outer.set("iterations", iterations);
            outer.set("proven_optimal", true);
            return Ok(CubeOutcome {
                outcome: SynthesisOutcome {
                    result: current,
                    proven_optimal: true,
                    iterations,
                    elapsed: start.elapsed(),
                    formula_size: phase1_model.formula_size(),
                    solver_stats: phase1_model.solver_mut().stats(),
                    extensions: phase1_model.extensions(),
                    refutation: None,
                },
                cube_stats,
                proof,
            });
        }

        // Phase 2: a fresh cohort over the *tight* window the first
        // solution proved achievable — a smaller formula than phase 1's
        // relaxed window, and every later bound fits inside it. The
        // phase-1 solver is dropped; from here the cohort's retained
        // lemmas carry across bounds instead.
        //
        // With the SAT-likelihood gate on, the cohort (and its
        // fork-and-pool cost) is *deferred*: gate probes run on the
        // phase-1 model — exactly the sequential walk — and the cohort
        // is only built when a probe exhausts the gate and escalates.
        // A gated-all-the-way run then pays sequential cost to the
        // microsecond. Prove mode builds eagerly: sealed gate
        // refutations need a proof-logging model from construction.
        let n = self.params.workers.max(1);
        let defer = self.params.gate_conflicts.is_some() && !self.params.prove;
        let mut gate_host: Option<FlatModel> = defer.then_some(phase1_model);
        let mut slots = if defer {
            Vec::new()
        } else {
            self.build_cohort(circuit, graph, current.depth, n)?
        };
        let mut proven_optimal = false;

        loop {
            if current.depth <= t_lb {
                proven_optimal = true;
                break;
            }
            let k = current.depth - 1;
            let span = self.inner.iteration_span("depth", &[("t_bound", k)]);
            span.set("strategy", "cube");
            let encode_start = Instant::now();
            for slot in &slots {
                slot.lock()
                    .expect("cube slot poisoned")
                    .as_mut()
                    .expect("worker checked in")
                    .arm_depth(k);
            }
            span.set("encode_us", encode_start.elapsed().as_micros() as u64);
            iterations += 1;

            // The SAT-likelihood gate: probe the bound sequentially on
            // worker 0 under a bounded budget before paying the cube-tree
            // overhead. Descents decide most bounds SAT quickly; only a
            // gate timeout (the UNSAT-or-hard case cubing actually wins)
            // escalates to the cohort.
            if let Some(gate) = self.params.gate_conflicts {
                // Probe on the phase-1 model while the cohort is
                // deferred, on (warm) worker 0 of the cohort once built.
                let mut checked_out: Option<CubeModel> = None;
                let host: &mut FlatModel = match gate_host.as_mut() {
                    Some(model) => model,
                    None => {
                        checked_out = Some(
                            slots[0]
                                .lock()
                                .expect("cube slot poisoned")
                                .take()
                                .expect("worker checked in"),
                        );
                        checked_out.as_mut().expect("just checked out").model_mut()
                    }
                };
                let act = host.depth_bound(k);
                {
                    let solver = host.solver_mut();
                    solver.set_deadline(deadline);
                    solver.set_conflict_budget(Some(
                        config.conflict_budget.map_or(gate, |c| c.min(gate)),
                    ));
                    solver.set_stop_flag(config.stop_flag.clone());
                }
                let gate_start = Instant::now();
                let res = host.solve(&[act]);
                span.set("gate_us", gate_start.elapsed().as_micros() as u64);
                match res {
                    SolveResult::Sat => {
                        current = host.extract();
                        self.inner.publish_incumbent(&current);
                    }
                    SolveResult::Unsat if self.params.prove => {
                        // Seal the gate's refutation: the (still
                        // recording) log plus the failed-assumption core
                        // as units closes to the empty clause. (Prove
                        // mode never defers, so the host here is always
                        // a proof-logging cohort member.)
                        if let Some(p) = seal_refutation(host.solver_mut()) {
                            proof = Some(p);
                        }
                    }
                    _ => {}
                }
                if let Some(w0) = checked_out {
                    *slots[0].lock().expect("cube slot poisoned") = Some(w0);
                }
                if res != SolveResult::Unknown {
                    span.set("result", result_str(res));
                    span.set("gated", true);
                    drop(span);
                    match res {
                        SolveResult::Sat => continue,
                        _ => {
                            proven_optimal = true;
                            break;
                        }
                    }
                }
                // Gate exhausted: this bound is the hard case cubing is
                // for. Build the deferred cohort now, over the tight
                // window the incumbent proves achievable, and arm it.
                if gate_host.take().is_some() {
                    slots = self.build_cohort(circuit, graph, current.depth, n)?;
                    for slot in &slots {
                        slot.lock()
                            .expect("cube slot poisoned")
                            .as_mut()
                            .expect("worker checked in")
                            .arm_depth(k);
                    }
                }
            }

            let cube_cfg = CubeConfig {
                workers: n,
                depth: self.params.depth,
                conflict_budget: self.params.conflict_budget,
                prove: self.params.prove,
                deadline,
                external_stop: config.stop_flag.clone(),
                probe: config.probe.clone(),
                ..CubeConfig::default()
            };
            let solve_start = Instant::now();
            let run = solve_cubes(
                |i| {
                    slots[i]
                        .lock()
                        .expect("cube slot poisoned")
                        .take()
                        .expect("worker checked in")
                },
                &cube_cfg,
                &config.recorder,
            );
            span.set("solve_us", solve_start.elapsed().as_micros() as u64);
            span.set("result", result_str(run.result));
            span.set("cubes", run.stats.cubes_split);
            drop(span);
            cube_stats.merge(&run.stats);
            let CubeRun {
                result,
                sat_worker,
                workers,
                proof: run_proof,
                ..
            } = run;
            if result == SolveResult::Sat {
                let w = &workers[sat_worker.expect("SAT run names its worker")];
                current = w.model().extract();
                self.inner.publish_incumbent(&current);
            }
            // Check every worker (and its warmed solver) back in for the
            // next bound.
            for (i, w) in workers.into_iter().enumerate() {
                *slots[i].lock().expect("cube slot poisoned") = Some(w);
            }
            match result {
                SolveResult::Sat => {}
                SolveResult::Unsat => {
                    proven_optimal = true;
                    proof = run_proof;
                    break;
                }
                SolveResult::Unknown => break, // budget: keep best-so-far
            }
        }

        outer.set("iterations", iterations);
        outer.set("proven_optimal", proven_optimal);
        // The run may have finished entirely on the deferred gate host
        // (no cohort ever built); report whichever model did the work.
        let (formula_size, solver_stats, extensions) = match gate_host {
            Some(mut model) => (
                model.formula_size(),
                model.solver_mut().stats(),
                model.extensions(),
            ),
            None => {
                let mut w0 = slots[0]
                    .lock()
                    .expect("cube slot poisoned")
                    .take()
                    .expect("worker checked in");
                (
                    w0.model().formula_size(),
                    w0.model_mut().solver_mut().stats(),
                    w0.model().extensions(),
                )
            }
        };
        Ok(CubeOutcome {
            outcome: SynthesisOutcome {
                result: current,
                proven_optimal,
                iterations,
                elapsed: start.elapsed(),
                formula_size,
                solver_stats,
                extensions,
                refutation: None,
            },
            cube_stats,
            proof,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{ibm_qx2, line};
    use olsq2_circuit::generators::{qaoa_circuit, toffoli_circuit};
    use olsq2_layout::verify;

    fn params(workers: usize) -> CubeParams {
        CubeParams {
            workers,
            ..CubeParams::default()
        }
    }

    #[test]
    fn cube_matches_sequential_optimum_on_toffoli() {
        let circuit = toffoli_circuit();
        let device = ibm_qx2();
        let seq = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3))
            .optimize_depth(&circuit, &device)
            .expect("sequential");
        let cube = CubeSynthesizer::new(SynthesisConfig::with_swap_duration(3), params(2))
            .optimize_depth(&circuit, &device)
            .expect("cube");
        assert!(cube.outcome.proven_optimal);
        assert_eq!(cube.outcome.result.depth, seq.result.depth);
        assert_eq!(verify(&circuit, &device, &cube.outcome.result), Ok(()));
    }

    #[test]
    fn prove_mode_certifies_the_optimum() {
        let circuit = qaoa_circuit(4, 0xA5);
        let device = line(4);
        let synth = CubeSynthesizer::new(
            SynthesisConfig::default(),
            CubeParams {
                workers: 2,
                prove: true,
                ..CubeParams::default()
            },
        );
        let out = synth.optimize_depth(&circuit, &device).expect("cube");
        assert!(out.outcome.proven_optimal);
        let t_lb = olsq2_circuit::DependencyGraph::new(&circuit)
            .longest_chain()
            .max(1);
        if out.outcome.result.depth > t_lb {
            // The decrement loop ended in UNSAT: a certificate is owed.
            let proof = out.proof.expect("stitched optimality certificate");
            assert!(proof.claims_unsat());
            proof
                .check()
                .expect("stitched certificate is RUP-checkable");
        } else {
            assert!(out.proof.is_none(), "nothing was refuted");
        }
        assert_eq!(verify(&circuit, &device, &out.outcome.result), Ok(()));
    }

    #[test]
    fn single_worker_cohort_still_terminates() {
        let circuit = qaoa_circuit(4, 0xA5);
        let device = line(4);
        let out = CubeSynthesizer::new(SynthesisConfig::default(), params(1))
            .optimize_depth(&circuit, &device)
            .expect("cube");
        assert!(out.outcome.proven_optimal);
        assert_eq!(verify(&circuit, &device, &out.outcome.result), Ok(()));
    }

    #[test]
    fn cube_counters_reach_the_recorder() {
        let circuit = toffoli_circuit();
        let device = ibm_qx2();
        let mut config = SynthesisConfig::with_swap_duration(3);
        config.recorder = crate::Recorder::new();
        let rec = config.recorder.clone();
        let out = CubeSynthesizer::new(config, params(2))
            .optimize_depth(&circuit, &device)
            .expect("cube");
        let snap = rec.snapshot();
        if out.cube_stats.cubes_split > 0 {
            assert!(snap.counters.contains_key("cube.cubes_split"));
        }
        assert!(snap.spans.iter().any(|s| s.name == "optimize_depth"));
    }
}
