//! Portfolio synthesis — the parallelization the paper's §V names as
//! future work: "build a portfolio of instances by generating
//! configurations … including different encoding methods, as there does
//! not appear to be a single best-in-class method with respect to solving
//! time".
//!
//! Each portfolio member runs the full optimization loop with its own
//! encoding configuration on its own thread; the first member to finish
//! wins and the rest are cancelled through the solver's cooperative stop
//! flag.
//!
//! Beyond racing encodings, the portfolio supports HordeSat-style
//! cooperation: [`PortfolioConfig::diversify`] expands each encoding
//! into a cohort of seed-diversified members (randomized branching,
//! polarity, decay, restart schedule), and [`PortfolioConfig::with_sharing`]
//! wires each cohort to a [`SharedClausePool`]
//! so members trade learned clauses. Clauses only flow inside a cohort —
//! between solvers over the same variable space — enforced by the
//! fingerprint fence described in the [`crate::sharing`] module docs.

use crate::config::{EncodingConfig, SolverDiversification, SynthesisConfig};
use crate::cube::{CubeParams, CubeSynthesizer};
use crate::model::ModelSeed;
use crate::optimize::{Olsq2Synthesizer, SynthesisError, SynthesisOutcome};
use crate::sharing::{CohortEndpoint, SharedClausePool, SharingStats};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::Circuit;
use olsq2_sat::ClauseExchange;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// Shape of a portfolio: which encodings run, how many seed-diversified
/// members each encoding expands into, and whether cohorts share learned
/// clauses.
///
/// # Examples
///
/// ```
/// use olsq2::PortfolioConfig;
/// // Two encodings × 2 diversified members, trading clauses: 4 threads.
/// let cfg = PortfolioConfig::standard().diversify(2).with_sharing();
/// assert!(cfg.share);
/// assert_eq!(cfg.per_encoding, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioConfig {
    /// The encodings to race (one cohort each).
    pub encodings: Vec<EncodingConfig>,
    /// Members per encoding; members beyond the first in each cohort get
    /// seed-diversified solver knobs ([`SolverDiversification::variant`]).
    pub per_encoding: usize,
    /// Wire same-encoding cohorts to a shared learned-clause pool.
    pub share: bool,
    /// Seed for the diversification stream (reproducible portfolios).
    pub seed: u64,
    /// Clause capacity of each member's pool shard when sharing.
    pub pool_capacity: usize,
    /// When set, one extra member (first encoding, vanilla solver) runs
    /// the cube-and-conquer decrement phase ([`CubeSynthesizer`])
    /// instead of the sequential loop on depth races.
    pub cube: Option<CubeParams>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            encodings: vec![
                EncodingConfig::int(),
                EncodingConfig::bv(),
                EncodingConfig::euf_int(),
            ],
            per_encoding: 1,
            share: false,
            seed: 0x0152_C0DE,
            pool_capacity: 4096,
            cube: None,
        }
    }
}

impl PortfolioConfig {
    /// The standard three-encoding portfolio, one member each, no sharing
    /// (matches [`PortfolioSynthesizer::standard`]).
    pub fn standard() -> Self {
        Self::default()
    }

    /// Expands every encoding into a cohort of `n` seed-diversified
    /// members. The first member of each cohort keeps vanilla solver
    /// settings, so `diversify(1)` is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn diversify(mut self, n: usize) -> Self {
        assert!(n > 0, "each encoding needs at least one member");
        self.per_encoding = n;
        self
    }

    /// Enables learned-clause sharing inside each same-encoding cohort.
    pub fn with_sharing(mut self) -> Self {
        self.share = true;
        self
    }

    /// Sets the diversification seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the encoding list.
    ///
    /// # Panics
    ///
    /// Panics if `encodings` is empty.
    pub fn with_encodings(mut self, encodings: Vec<EncodingConfig>) -> Self {
        assert!(
            !encodings.is_empty(),
            "portfolio needs at least one encoding"
        );
        self.encodings = encodings;
        self
    }

    /// Adds a cube-and-conquer member to depth races (see
    /// [`PortfolioConfig::cube`]).
    pub fn with_cube(mut self, params: CubeParams) -> Self {
        self.cube = Some(params);
        self
    }

    /// Total member count (`encodings × per_encoding`, plus the cube
    /// member when configured).
    pub fn num_members(&self) -> usize {
        self.encodings.len() * self.per_encoding + usize::from(self.cube.is_some())
    }
}

/// How one portfolio member runs the optimization loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberStrategy {
    /// The sequential decrement loop ([`Olsq2Synthesizer`]).
    Sequential,
    /// Cube-and-conquer decrement phase ([`CubeSynthesizer`]) on depth
    /// races; SWAP races fall back to the sequential loop (the cube
    /// engine only races depth bounds). The member's cohort shares
    /// clauses internally — a portfolio-level sharing endpoint assigned
    /// to this member is not used.
    CubeAndConquer(CubeParams),
}

/// The objective a race optimizes.
#[derive(Debug, Clone, Copy)]
enum Objective {
    Depth,
    Swaps,
}

/// A parallel portfolio of OLSQ2 configurations (§V future direction).
///
/// # Examples
///
/// ```
/// use olsq2::{PortfolioSynthesizer, SynthesisConfig};
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
/// let portfolio =
///     PortfolioSynthesizer::standard(SynthesisConfig::with_swap_duration(1));
/// let (outcome, winner) = portfolio.optimize_depth(&circuit, &graph)?;
/// assert!(outcome.proven_optimal);
/// assert_eq!(verify(&circuit, &graph, &outcome.result), Ok(()));
/// assert!(winner < portfolio.num_members());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PortfolioSynthesizer {
    members: Vec<SynthesisConfig>,
    /// Per-member strategy, indexed like `members`.
    strategies: Vec<MemberStrategy>,
    /// Wire same-encoding cohorts to a shared clause pool during races.
    share: bool,
    /// Per-shard clause capacity for the cohort pools.
    pool_capacity: usize,
}

/// What happened to one portfolio member during a race.
#[derive(Debug, Clone)]
pub enum MemberOutcome {
    /// This member produced the first successful outcome.
    Won(SynthesisOutcome),
    /// This member completed a full solve, but after the winner — its
    /// result was discarded.
    Finished(SynthesisOutcome),
    /// This member observed the stop flag after the winner was decided and
    /// aborted without completing a solve.
    Cancelled,
    /// This member failed on its own (model error, genuine budget
    /// exhaustion before any winner, unroutable window).
    Failed(SynthesisError),
}

impl MemberOutcome {
    /// Whether this member was cancelled by the winner's stop flag.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, MemberOutcome::Cancelled)
    }

    /// Whether this member won the race.
    pub fn is_winner(&self) -> bool {
        matches!(self, MemberOutcome::Won(_))
    }
}

/// Full account of a portfolio race: the winning outcome plus the fate of
/// every member, in member order.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// The winning outcome.
    pub outcome: SynthesisOutcome,
    /// Index of the winning member.
    pub winner: usize,
    /// Per-member fates, indexed like the member configurations.
    pub members: Vec<MemberOutcome>,
    /// Aggregate clause-sharing volumes, when sharing was enabled
    /// (`None` for a non-sharing portfolio).
    pub sharing: Option<SharingStats>,
}

impl PortfolioSynthesizer {
    /// Builds a portfolio from explicit member configurations.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<SynthesisConfig>) -> PortfolioSynthesizer {
        assert!(!members.is_empty(), "portfolio needs at least one member");
        let strategies = vec![MemberStrategy::Sequential; members.len()];
        PortfolioSynthesizer {
            members,
            strategies,
            share: false,
            pool_capacity: PortfolioConfig::default().pool_capacity,
        }
    }

    /// The standard portfolio: the base configuration with the one-hot,
    /// bit-vector, and inverse-channeling encodings.
    pub fn standard(base: SynthesisConfig) -> PortfolioSynthesizer {
        Self::with_config(base, &PortfolioConfig::standard())
    }

    /// Builds a portfolio from a base configuration and a
    /// [`PortfolioConfig`] shape: one cohort per encoding, `per_encoding`
    /// seed-diversified members each, optional clause sharing inside
    /// cohorts.
    pub fn with_config(base: SynthesisConfig, cfg: &PortfolioConfig) -> PortfolioSynthesizer {
        assert!(
            !cfg.encodings.is_empty(),
            "portfolio needs at least one member"
        );
        assert!(
            cfg.per_encoding > 0,
            "portfolio needs at least one member per encoding"
        );
        let mut members = Vec::with_capacity(cfg.num_members());
        for (e, &encoding) in cfg.encodings.iter().enumerate() {
            for k in 0..cfg.per_encoding {
                members.push(SynthesisConfig {
                    encoding,
                    // Index 0 in each cohort keeps vanilla settings; the
                    // per-cohort seed twist keeps cohorts from mirroring
                    // each other's variants.
                    diversification: SolverDiversification::variant(
                        cfg.seed ^ (e as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5),
                        k,
                    ),
                    ..base.clone()
                });
            }
        }
        let mut strategies = vec![MemberStrategy::Sequential; members.len()];
        if let Some(params) = &cfg.cube {
            members.push(SynthesisConfig {
                encoding: cfg.encodings[0],
                ..base.clone()
            });
            strategies.push(MemberStrategy::CubeAndConquer(params.clone()));
        }
        PortfolioSynthesizer {
            members,
            strategies,
            share: cfg.share,
            pool_capacity: cfg.pool_capacity,
        }
    }

    /// Appends a cube-and-conquer member (cloning the first member's
    /// configuration) to an explicitly constructed portfolio.
    pub fn with_cube_member(mut self, params: CubeParams) -> PortfolioSynthesizer {
        self.members.push(self.members[0].clone());
        self.strategies.push(MemberStrategy::CubeAndConquer(params));
        self
    }

    /// The per-member strategies, indexed like the member configurations.
    pub fn strategies(&self) -> &[MemberStrategy] {
        &self.strategies
    }

    /// Enables learned-clause sharing inside same-encoding cohorts for an
    /// explicitly constructed portfolio (see [`PortfolioConfig::with_sharing`]).
    pub fn enable_sharing(mut self) -> PortfolioSynthesizer {
        self.share = true;
        self
    }

    /// Number of member configurations.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Runs depth optimization on every member in parallel; returns the
    /// first successful outcome and the index of the winning member.
    ///
    /// # Errors
    ///
    /// Returns the first member's error if *all* members fail.
    pub fn optimize_depth(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<(SynthesisOutcome, usize), SynthesisError> {
        self.optimize_depth_report(circuit, graph)
            .map(|r| (r.outcome, r.winner))
    }

    /// Runs SWAP optimization on every member in parallel; returns the
    /// first successful outcome and the index of the winning member.
    ///
    /// # Errors
    ///
    /// Returns the first member's error if *all* members fail.
    pub fn optimize_swaps(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<(SynthesisOutcome, usize), SynthesisError> {
        self.optimize_swaps_report(circuit, graph)
            .map(|r| (r.outcome, r.winner))
    }

    /// Like [`PortfolioSynthesizer::optimize_depth`], but also reports the
    /// fate of every member ([`MemberOutcome`]) — whether losers were
    /// cancelled through the stop flag or completed anyway.
    ///
    /// # Errors
    ///
    /// Returns the first member's error if *all* members fail.
    pub fn optimize_depth_report(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<PortfolioReport, SynthesisError> {
        self.race(circuit, graph, Objective::Depth)
    }

    /// Like [`PortfolioSynthesizer::optimize_swaps`], but also reports the
    /// fate of every member ([`MemberOutcome`]).
    ///
    /// # Errors
    ///
    /// Returns the first member's error if *all* members fail.
    pub fn optimize_swaps_report(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<PortfolioReport, SynthesisError> {
        self.race(circuit, graph, Objective::Swaps)
    }

    fn race(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        objective: Objective,
    ) -> Result<PortfolioReport, SynthesisError> {
        let stop = Arc::new(AtomicBool::new(false));
        let endpoints = self.make_endpoints();
        let seeds = self.make_seeds(circuit, graph);
        let (tx, rx) = mpsc::channel::<(usize, Result<SynthesisOutcome, SynthesisError>)>();
        std::thread::scope(|scope| {
            for (idx, member) in self.members.iter().enumerate() {
                let mut config = member.clone();
                config.stop_flag = Some(stop.clone());
                config.clause_exchange =
                    endpoints[idx].clone().map(|e| e as Arc<dyn ClauseExchange>);
                config.model_seed = seeds[idx].clone();
                let tx = tx.clone();
                let strategy = &self.strategies[idx];
                scope.spawn(move || {
                    let result = match (strategy, objective) {
                        (MemberStrategy::CubeAndConquer(p), Objective::Depth) => {
                            // The cube member wires its own internal
                            // cohort sharing; a portfolio endpoint would
                            // go unused.
                            config.clause_exchange = None;
                            CubeSynthesizer::new(config, p.clone())
                                .optimize_depth(circuit, graph)
                                .map(|c| c.outcome)
                        }
                        (_, Objective::Depth) => {
                            Olsq2Synthesizer::new(config).optimize_depth(circuit, graph)
                        }
                        (_, Objective::Swaps) => Olsq2Synthesizer::new(config)
                            .optimize_swaps(circuit, graph)
                            .map(|o| o.best),
                    };
                    let _ = tx.send((idx, result));
                });
            }
            drop(tx);
            // The scope joins every thread before returning, so collecting
            // all member fates costs nothing beyond the stop-flag latency:
            // once the winner sets the flag, losers abort at their next
            // conflict boundary and report `BudgetExhausted`.
            let mut fates: Vec<Option<MemberOutcome>> =
                (0..self.members.len()).map(|_| None).collect();
            let mut winner: Option<usize> = None;
            let mut first_error: Option<SynthesisError> = None;
            for (idx, result) in rx {
                fates[idx] = Some(match result {
                    Ok(outcome) => {
                        if winner.is_none() {
                            winner = Some(idx);
                            stop.store(true, Ordering::Relaxed);
                            MemberOutcome::Won(outcome)
                        } else {
                            MemberOutcome::Finished(outcome)
                        }
                    }
                    Err(SynthesisError::BudgetExhausted) if winner.is_some() => {
                        // The stop flag surfaces as a budget result; after a
                        // winner is decided, that means "cancelled".
                        MemberOutcome::Cancelled
                    }
                    Err(e) => {
                        first_error.get_or_insert(e.clone());
                        MemberOutcome::Failed(e)
                    }
                });
            }
            // Per-member win-fate counters (obs: `portfolio.*`).
            for (idx, fate) in fates.iter().enumerate() {
                let recorder = &self.members[idx].recorder;
                if !recorder.is_enabled() {
                    continue;
                }
                if let Some(fate) = fate {
                    recorder.add(
                        match fate {
                            MemberOutcome::Won(_) => "portfolio.won",
                            MemberOutcome::Finished(_) => "portfolio.finished",
                            MemberOutcome::Cancelled => "portfolio.cancelled",
                            MemberOutcome::Failed(_) => "portfolio.failed",
                        },
                        1,
                    );
                }
            }
            match winner {
                Some(w) => {
                    let members: Vec<MemberOutcome> = fates
                        .into_iter()
                        .map(|f| f.expect("every member reports exactly once"))
                        .collect();
                    let outcome = match &members[w] {
                        MemberOutcome::Won(o) => o.clone(),
                        _ => unreachable!("winner slot holds the winning outcome"),
                    };
                    Ok(PortfolioReport {
                        outcome,
                        winner: w,
                        members,
                        sharing: self.share.then(|| {
                            endpoints
                                .iter()
                                .flatten()
                                .fold(SharingStats::default(), |acc, e| {
                                    let s = e.stats();
                                    SharingStats {
                                        exported: acc.exported + s.exported,
                                        imported: acc.imported + s.imported,
                                        filtered: acc.filtered + s.filtered,
                                    }
                                })
                        }),
                    })
                }
                None => Err(first_error.unwrap_or(SynthesisError::BudgetExhausted)),
            }
        })
    }

    /// Encode-once cohort spawning: one [`ModelSeed`] per same-encoding
    /// cohort of sequential members of size ≥ 2 (when fork spawning is
    /// on); `None` elsewhere. The cohort's formula is encoded a single
    /// time on a neutral configuration — member knobs (diversification,
    /// stop flag, sharing endpoint, budgets) are re-applied per fork —
    /// and every member forks the template in O(memcpy) instead of
    /// paying its own encode. Cohort templates build in parallel, so a
    /// multi-cohort portfolio's spawn wall clock stays one encode.
    ///
    /// A template that fails to build yields no seed; its members then
    /// hit (and report) the same error through their own fresh builds,
    /// keeping failure behavior identical to the per-member path.
    fn make_seeds(&self, circuit: &Circuit, graph: &CouplingGraph) -> Vec<Option<ModelSeed>> {
        let mut seeds: Vec<Option<ModelSeed>> = vec![None; self.members.len()];
        let mut cohorts: HashMap<EncodingConfig, Vec<usize>> = HashMap::new();
        for (idx, member) in self.members.iter().enumerate() {
            // The cube member forks its own worker pool internally.
            if member.fork_spawn && matches!(self.strategies[idx], MemberStrategy::Sequential) {
                cohorts.entry(member.encoding).or_default().push(idx);
            }
        }
        let cohort_list: Vec<Vec<usize>> = cohorts
            .into_values()
            .filter(|indices| indices.len() >= 2)
            .collect();
        if cohort_list.is_empty() {
            return seeds;
        }
        let built: Vec<(Vec<usize>, Option<ModelSeed>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = cohort_list
                .into_iter()
                .map(|indices| {
                    scope.spawn(move || {
                        let mut template_cfg = self.members[indices[0]].clone();
                        template_cfg.diversification = SolverDiversification::default();
                        template_cfg.stop_flag = None;
                        template_cfg.clause_exchange = None;
                        template_cfg.model_seed = None;
                        template_cfg.snapshot_slot = None;
                        template_cfg.incumbent = None;
                        let synth = Olsq2Synthesizer::new(template_cfg.clone());
                        let dag = synth.dependency_graph(circuit);
                        let t_ub = synth.initial_t_ub(dag.longest_chain().max(1));
                        let seed = synth.build_model(circuit, graph, t_ub).ok().map(|model| {
                            ModelSeed::capture(
                                model,
                                ModelSeed::instance_fingerprint(circuit, graph, &template_cfg),
                            )
                        });
                        (indices, seed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("template build thread"))
                .collect()
        });
        for (indices, seed) in built {
            if let Some(seed) = seed {
                for idx in indices {
                    seeds[idx] = Some(seed.clone());
                }
            }
        }
        seeds
    }

    /// One [`CohortEndpoint`] per member of every same-encoding cohort of
    /// size ≥ 2 (when sharing is on); `None` elsewhere. Singleton cohorts
    /// get no endpoint — they would have nobody to trade with.
    fn make_endpoints(&self) -> Vec<Option<Arc<CohortEndpoint>>> {
        let mut endpoints: Vec<Option<Arc<CohortEndpoint>>> = vec![None; self.members.len()];
        if !self.share {
            return endpoints;
        }
        let mut cohorts: HashMap<EncodingConfig, Vec<usize>> = HashMap::new();
        for (idx, member) in self.members.iter().enumerate() {
            cohorts.entry(member.encoding).or_default().push(idx);
        }
        for indices in cohorts.into_values() {
            if indices.len() < 2 {
                continue;
            }
            let pool = Arc::new(SharedClausePool::new(indices.len(), self.pool_capacity));
            for (slot, &idx) in indices.iter().enumerate() {
                endpoints[idx] = Some(Arc::new(
                    CohortEndpoint::new(pool.clone(), slot, self.members[idx].recorder.clone())
                        .with_probe(self.members[idx].probe.clone()),
                ));
            }
        }
        endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{grid, line};
    use olsq2_circuit::generators::qaoa_circuit;
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_layout::verify;
    use std::time::Duration;

    fn triangle() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c.push(Gate::two(GateKind::Cx, 1, 2));
        c.push(Gate::two(GateKind::Cx, 0, 2));
        c
    }

    #[test]
    fn portfolio_depth_matches_single_config() {
        let circuit = triangle();
        let graph = line(3);
        let base = SynthesisConfig::with_swap_duration(1);
        let single = Olsq2Synthesizer::new(base.clone())
            .optimize_depth(&circuit, &graph)
            .expect("solves");
        let portfolio = PortfolioSynthesizer::standard(base);
        let (outcome, winner) = portfolio.optimize_depth(&circuit, &graph).expect("solves");
        assert_eq!(outcome.result.depth, single.result.depth);
        assert!(winner < 3);
        assert_eq!(verify(&circuit, &graph, &outcome.result), Ok(()));
    }

    #[test]
    fn portfolio_swaps_on_qaoa() {
        let circuit = qaoa_circuit(6, 3);
        let graph = grid(3, 3);
        let mut base = SynthesisConfig::with_swap_duration(1);
        base.pareto_relax_limit = Some(0);
        base.time_budget = Some(Duration::from_secs(120));
        let portfolio = PortfolioSynthesizer::standard(base);
        let (outcome, _) = portfolio.optimize_swaps(&circuit, &graph).expect("solves");
        assert_eq!(verify(&circuit, &graph, &outcome.result), Ok(()));
    }

    #[test]
    fn diversified_sharing_race_matches_single_and_reports_stats() {
        let circuit = triangle();
        let graph = line(3);
        let base = SynthesisConfig::with_swap_duration(1);
        let single = Olsq2Synthesizer::new(base.clone())
            .optimize_depth(&circuit, &graph)
            .expect("solves");
        let cfg = PortfolioConfig::standard()
            .with_encodings(vec![EncodingConfig::int()])
            .diversify(3)
            .with_sharing()
            .with_seed(11);
        let portfolio = PortfolioSynthesizer::with_config(base, &cfg);
        assert_eq!(portfolio.num_members(), 3);
        let report = portfolio
            .optimize_depth_report(&circuit, &graph)
            .expect("solves");
        assert_eq!(report.outcome.result.depth, single.result.depth);
        assert_eq!(verify(&circuit, &graph, &report.outcome.result), Ok(()));
        // Sharing was on: stats must be present (volumes may be zero on
        // an instance this tiny, but the wiring must be there).
        assert!(report.sharing.is_some());
        assert_eq!(report.members.len(), 3);
    }

    #[test]
    fn cube_member_races_and_agrees_on_the_optimum() {
        let circuit = qaoa_circuit(4, 0xA5);
        let graph = line(4);
        let base = SynthesisConfig::default();
        let single = Olsq2Synthesizer::new(base.clone())
            .optimize_depth(&circuit, &graph)
            .expect("solves");
        let cfg = PortfolioConfig::standard()
            .with_encodings(vec![EncodingConfig::int()])
            .with_cube(CubeParams {
                workers: 2,
                ..CubeParams::default()
            });
        let portfolio = PortfolioSynthesizer::with_config(base, &cfg);
        assert_eq!(portfolio.num_members(), 2);
        assert!(matches!(
            portfolio.strategies()[1],
            MemberStrategy::CubeAndConquer(_)
        ));
        let report = portfolio
            .optimize_depth_report(&circuit, &graph)
            .expect("solves");
        assert_eq!(report.outcome.result.depth, single.result.depth);
        assert_eq!(verify(&circuit, &graph, &report.outcome.result), Ok(()));
        // On a SWAP race the cube member falls back to sequential and
        // the race still terminates.
        let swap_base = SynthesisConfig {
            pareto_relax_limit: Some(0),
            ..SynthesisConfig::default()
        };
        let portfolio = PortfolioSynthesizer::with_config(swap_base, &cfg);
        let (outcome, _) = portfolio.optimize_swaps(&circuit, &graph).expect("solves");
        assert_eq!(verify(&circuit, &graph, &outcome.result), Ok(()));
    }

    #[test]
    fn non_sharing_report_has_no_stats() {
        let circuit = triangle();
        let graph = line(3);
        let portfolio = PortfolioSynthesizer::standard(SynthesisConfig::with_swap_duration(1));
        let report = portfolio
            .optimize_depth_report(&circuit, &graph)
            .expect("solves");
        assert!(report.sharing.is_none());
    }

    #[test]
    fn all_failing_members_report_error() {
        // A circuit too large for the device fails in every member.
        let mut circuit = Circuit::new(5);
        circuit.push(Gate::two(GateKind::Cx, 0, 4));
        let graph = line(2);
        let portfolio = PortfolioSynthesizer::standard(SynthesisConfig::with_swap_duration(1));
        assert!(portfolio.optimize_depth(&circuit, &graph).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_rejected() {
        let _ = PortfolioSynthesizer::new(vec![]);
    }

    #[test]
    fn losers_are_cancelled_without_completing() {
        // Member 0 solves the instance in milliseconds; member 1 is
        // handicapped with an enormous depth window (t_ub = 3·400 = 1200),
        // so its first solve alone — an UNSAT proof at t_b = 3 over a
        // formula two orders of magnitude larger — far outlasts the
        // winner. The winner's stop flag must reach it mid-solve.
        let circuit = triangle();
        let graph = line(3);
        let fast = SynthesisConfig::with_swap_duration(1);
        let mut slow = SynthesisConfig::with_swap_duration(1);
        slow.tub_factor = 400.0;
        let portfolio = PortfolioSynthesizer::new(vec![fast, slow]);
        let report = portfolio
            .optimize_depth_report(&circuit, &graph)
            .expect("fast member solves");
        assert_eq!(report.winner, 0);
        assert!(report.members[0].is_winner());
        assert!(
            report.members[1].is_cancelled(),
            "handicapped member should observe the stop flag, got {:?}",
            report.members[1]
        );
        assert_eq!(verify(&circuit, &graph, &report.outcome.result), Ok(()));
        assert_eq!(report.members.len(), 2);
    }

    #[test]
    fn preset_stop_flag_cancels_all_members() {
        // If the flag is already raised, every member aborts at the entry
        // of its first solve and the race reports budget exhaustion.
        let circuit = triangle();
        let graph = line(3);
        let mut base = SynthesisConfig::with_swap_duration(1);
        let stop = Arc::new(AtomicBool::new(true));
        base.stop_flag = Some(stop);
        // The portfolio overwrites member stop flags with its own, so test
        // the single-synthesizer path here (the portfolio path is covered
        // by `losers_are_cancelled_without_completing`).
        let synth = Olsq2Synthesizer::new(base);
        match synth.optimize_depth(&circuit, &graph) {
            Err(SynthesisError::BudgetExhausted) => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }
}
