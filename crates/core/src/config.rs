//! Synthesis configuration: encoding choices, budgets, and solver
//! diversification.

use olsq2_encode::{AmoEncoding, CardEncoding};
use olsq2_sat::{ClauseExchange, ExchangeFilter, Solver, SolverFeatures};
use std::sync::Arc;
use std::time::Duration;

/// How the finite-domain mapping variables `π_q^t` are encoded
/// (§III-C of the paper; names map to the paper's Table I configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingEncoding {
    /// One selector per physical qubit with pairwise injectivity — the
    /// stand-in for Z3's *integer* encoding (wide, explicit pairwise
    /// constraints). On this crate's pure-SAT substrate the direct
    /// encoding propagates best and is the default (see the note on
    /// [`EncodingConfig::default`]).
    #[default]
    OneHot,
    /// `⌈log₂|P|⌉`-bit unsigned bit-vectors — the paper's winning `bv`
    /// encoding *under Z3*, where it avoids the arithmetic theory solver.
    Binary,
    /// One-hot plus an explicit inverse family `π_inv(p, t)` with
    /// channeling constraints — the stand-in for the paper's EUF
    /// injectivity trick (`π_inv(π(q,t),t) = q`), which avoids pairwise
    /// constraints.
    InverseOneHot,
}

/// How the gate time variables `t_g` are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimeEncoding {
    /// One selector per time step, dependencies via prefix ladders.
    #[default]
    OneHot,
    /// `⌈log₂T⌉`-bit vectors, dependencies via comparator circuits.
    Binary,
}

/// A named encoding configuration, mirroring Table I's six columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodingConfig {
    /// Mapping variable encoding.
    pub mapping: MappingEncoding,
    /// Time variable encoding.
    pub time: TimeEncoding,
    /// At-most-one encoding used inside one-hot groups.
    pub amo: AmoEncoding,
    /// Cardinality encoding for the SWAP-count bound (Table II).
    pub cardinality: CardEncoding,
}

impl Default for EncodingConfig {
    /// The fastest configuration **on this SAT substrate**: one-hot
    /// variables with CNF sequential counters.
    ///
    /// Note an instructive inversion relative to the paper: under Z3 the
    /// bit-vector encoding wins because it escapes the integer arithmetic
    /// theory solver via bit-blasting. Here *every* encoding is already
    /// bit-blasted, and — consistent with the direct-vs-log encoding
    /// literature for CSP-to-SAT — the one-hot (direct) encoding
    /// propagates better. `EncodingConfig::bv()` reproduces the paper's
    /// configuration for the Table I comparison.
    fn default() -> Self {
        EncodingConfig {
            mapping: MappingEncoding::OneHot,
            time: TimeEncoding::OneHot,
            amo: AmoEncoding::Pairwise,
            cardinality: CardEncoding::SequentialCounter,
        }
    }
}

impl EncodingConfig {
    /// `OLSQ2(bv)` — the paper's best configuration under Z3.
    pub fn bv() -> Self {
        EncodingConfig {
            mapping: MappingEncoding::Binary,
            time: TimeEncoding::Binary,
            ..Self::default()
        }
    }

    /// `OLSQ2(int)` — one-hot everywhere with pairwise injectivity
    /// (the default here; see [`EncodingConfig::default`]).
    pub fn int() -> Self {
        EncodingConfig {
            mapping: MappingEncoding::OneHot,
            time: TimeEncoding::OneHot,
            ..Self::default()
        }
    }

    /// `OLSQ2(EUF+int)` — inverse-function injectivity, one-hot time.
    pub fn euf_int() -> Self {
        EncodingConfig {
            mapping: MappingEncoding::InverseOneHot,
            time: TimeEncoding::OneHot,
            ..Self::default()
        }
    }

    /// `OLSQ2(EUF+bv)` — inverse-function injectivity, binary time.
    pub fn euf_bv() -> Self {
        EncodingConfig {
            mapping: MappingEncoding::InverseOneHot,
            time: TimeEncoding::Binary,
            ..Self::default()
        }
    }
}

/// Solver diversification knobs for portfolio members (HordeSat-style).
///
/// Racing several *identical* solvers on the same encoding is pointless —
/// they explore the same search tree. These knobs perturb branching,
/// polarity, activity decay, and the restart schedule so same-encoding
/// cohort members diverge, which is both a win on its own (different
/// member finds the answer first) and what makes learned-clause sharing
/// profitable (members learn *different* clauses).
///
/// Every field is optional; `None` keeps the solver default, so
/// `SolverDiversification::default()` is an exact no-op and a diversified
/// run with one member is bit-identical to an undiversified one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverDiversification {
    /// Seed for randomized branching (~1/64 decisions pick a random
    /// unassigned variable). `None` = deterministic VSIDS.
    pub decision_seed: Option<u64>,
    /// Saved-phase polarity for never-assigned variables.
    pub default_phase: Option<bool>,
    /// VSIDS activity decay factor in `(0, 1)`.
    pub var_decay: Option<f64>,
    /// Luby restart unit in conflicts.
    pub restart_base: Option<u64>,
    /// Override the chronological-backtracking feature flag.
    ///
    /// Search-policy overrides are *disable-only*: `variant` never draws
    /// `Some(true)`, and `apply` treats `Some(true)` on a feature the
    /// base configuration turned off as `None`. A `--legacy-solver` run
    /// therefore stays legacy for every member, keeping A/B trace pairs
    /// meaningful.
    pub chrono_backtrack: Option<bool>,
    /// Override the Glucose-restart feature flag (disable-only, as above).
    pub glucose_restarts: Option<bool>,
    /// Override the target-phase feature flag (disable-only, as above).
    pub target_phase: Option<bool>,
}

impl SolverDiversification {
    /// Whether applying this diversification changes nothing.
    pub fn is_noop(&self) -> bool {
        *self == SolverDiversification::default()
    }

    /// Applies the set knobs to a solver (unset knobs are left alone).
    pub fn apply(&self, solver: &mut Solver) {
        if let Some(seed) = self.decision_seed {
            solver.set_decision_seed(Some(seed));
        }
        if let Some(phase) = self.default_phase {
            solver.set_default_phase(phase);
        }
        if let Some(decay) = self.var_decay {
            solver.set_var_decay(decay);
        }
        if let Some(base) = self.restart_base {
            solver.set_restart_base(base);
        }
        let mut f = solver.features();
        let mut changed = false;
        // Disable-only: a member may opt out of a search policy the base
        // configuration enabled, never opt back into one it disabled.
        if self.chrono_backtrack == Some(false) && f.chrono_backtrack {
            f.chrono_backtrack = false;
            changed = true;
        }
        if self.glucose_restarts == Some(false) && f.glucose_restarts {
            f.glucose_restarts = false;
            f.restart_postpone = false;
            changed = true;
        }
        if self.target_phase == Some(false) && f.target_phase {
            f.target_phase = false;
            changed = true;
        }
        if changed {
            solver.set_features(f);
        }
    }

    /// The `index`-th member of a seeded diversification family.
    ///
    /// Index 0 is always the no-op (the cohort keeps one vanilla member,
    /// so a diversified portfolio can never do worse than the plain one
    /// on a single-threaded machine). Higher indices draw a decision
    /// seed, polarity, decay, and restart base from a splitmix64 stream,
    /// so any `(seed, index)` pair is reproducible.
    pub fn variant(seed: u64, index: usize) -> Self {
        if index == 0 {
            return SolverDiversification::default();
        }
        // splitmix64 over (seed, index): cheap, well-mixed, stateless.
        let mut x = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const DECAYS: [f64; 4] = [0.90, 0.93, 0.95, 0.99];
        const BASES: [u64; 4] = [50, 100, 150, 300];
        // Search-policy disagreement (disable-only, see `apply`): one in
        // four members runs without each modern policy, so a cohort
        // always spans both sides of every policy on larger portfolios.
        let disable = |draw: u64| draw.is_multiple_of(4).then_some(false);
        SolverDiversification {
            decision_seed: Some(next() | 1),
            default_phase: Some(next() & 1 == 1),
            var_decay: Some(DECAYS[(next() % DECAYS.len() as u64) as usize]),
            restart_base: Some(BASES[(next() % BASES.len() as u64) as usize]),
            chrono_backtrack: disable(next()),
            glucose_restarts: disable(next()),
            target_phase: disable(next()),
        }
    }
}

/// Budgets and model parameters for a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Encoding configuration.
    pub encoding: EncodingConfig,
    /// SWAP duration `S_D` in time steps (1 for QAOA circuits, 3 for
    /// CNOT-decomposed SWAPs, as in §IV).
    pub swap_duration: usize,
    /// Initial depth-window factor: `T_UB = max(T_LB·factor, T_LB + S_D)`
    /// (§III-A-1 uses 1.5).
    pub tub_factor: f64,
    /// Wall-clock budget for the whole optimization (§III-B "fixed time
    /// budget"); `None` runs to optimality.
    pub time_budget: Option<Duration>,
    /// Optional per-solve conflict budget (mainly for tests).
    pub conflict_budget: Option<u64>,
    /// Maximum number of depth/block relaxation rounds during SWAP
    /// optimization (`None` = relax until no improvement, the paper's
    /// termination condition 2; `Some(0)` = optimize under the optimal
    /// depth/block count only).
    pub pareto_relax_limit: Option<usize>,
    /// Cooperative interrupt: while set to `true`, solves abort with a
    /// budget result. Installed by [`crate::PortfolioSynthesizer`] to
    /// cancel losing portfolio members.
    pub stop_flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Best-so-far reporting: when set, the optimization loops publish
    /// every intermediate solution here, so a deadline-bound caller can
    /// recover the incumbent when the budget expires mid-descent.
    pub incumbent: Option<crate::IncumbentSlot>,
    /// Seed the solver's branching order with domain knowledge (§V of the
    /// paper): initial-mapping variables first, then gate times, leaving
    /// SWAP variables to be derived — "place, then schedule, then route".
    pub seed_variable_order: bool,
    /// Use the commutation-aware dependency graph (gate absorption,
    /// Tan & Cong ICCAD'21, the paper's ref. \[23\]): provably commuting
    /// gates are left unordered, widening the solution space — QAOA's ZZ
    /// layers collapse to dependency-free sets. Results must be checked
    /// with `verify_with_dag` under the same relaxation.
    pub commutation_aware: bool,
    /// Telemetry sink: the optimization loops record one span per
    /// (bound, iteration) with encode/solve times, the model builders
    /// report per-family formula sizes, and the SAT solver emits
    /// restart/reduce events into it. The default disabled recorder costs
    /// one branch per emission site.
    pub recorder: olsq2_obs::Recorder,
    /// Flight-recorder probe: when enabled, every SAT solver this run
    /// builds samples its search dynamics (trail depth, LBD EMAs,
    /// learnt-tier sizes) into the probe's lock-free ring every
    /// `probe.every()` conflicts, and the sharing endpoints tag their
    /// import/export flow into the same ring. Dump it with
    /// [`olsq2_obs::Probe::write_jsonl`] when a run dies. The default
    /// disabled probe costs one branch per conflict.
    pub probe: olsq2_obs::Probe,
    /// Solver diversification knobs (see [`SolverDiversification`]);
    /// applied to every solver this run builds. The default is a no-op.
    pub diversification: SolverDiversification,
    /// Learned-clause sharing medium. When set, every solver this run
    /// builds exports learnts passing [`Self::exchange_filter`] and
    /// imports foreign clauses at restart boundaries. Installed by the
    /// portfolio driver; the medium MUST fence clauses to identical
    /// variable spaces (the model builders call
    /// [`ClauseExchange::bind_space`] with a formula fingerprint at every
    /// rebuild so it can).
    pub clause_exchange: Option<Arc<dyn ClauseExchange>>,
    /// Export quality gate for [`Self::clause_exchange`].
    pub exchange_filter: ExchangeFilter,
    /// Zero-rebuild incremental encoding: when the depth/block window must
    /// grow, extend the live model in place (keeping all learned clauses,
    /// VSIDS activity, and saved phases) instead of rebuilding from
    /// scratch. Window-scoped constraints are guarded on a generation
    /// literal; superseded generations are root-falsified and reclaimed by
    /// the solver's simplification pass. `false` forces the old
    /// rebuild-on-growth path (A/B comparisons, debugging).
    pub incremental: bool,
    /// Propagation-kernel and inprocessing features for every solver this
    /// run builds (binary watch lists, vivification, strengthening,
    /// rephasing, tiered learnt store). Defaults to everything on;
    /// [`SolverFeatures::legacy`] reproduces the pre-overhaul kernel for
    /// A/B comparisons.
    pub solver_features: SolverFeatures,
    /// Record clausal proofs on every solver this run builds (enabled
    /// *before* the first clause, as the log requires). UNSAT iterations
    /// can then justify themselves: [`crate::Olsq2Synthesizer`] seals
    /// the UNSAT probe that proves its optimum into
    /// [`crate::SynthesisOutcome::refutation`], and the cube-and-conquer
    /// path stitches its per-worker logs into one checkable refutation.
    /// Incompatible with [`Self::clause_exchange`]: imported clauses
    /// carry no derivation, so proof-mode runs must not share.
    pub proof_log: bool,
    /// Spawn cohort members by forking an already-encoded base solver
    /// ([`crate::FlatModel::fork`]) instead of re-encoding per member.
    /// Applies to portfolio cohorts, pooled cube workers, and
    /// [`Self::model_seed`] consumption. `false` forces the old
    /// encode-per-member path (A/B comparisons, `--no-fork`).
    pub fork_spawn: bool,
    /// An encoded-model template to fork from instead of encoding: when
    /// set (and [`Self::fork_spawn`] is on), the model builder forks the
    /// seed — after verifying it matches this exact instance — and only
    /// re-applies the per-member knobs. Installed by the portfolio/cube
    /// spawners and by the service's snapshot-on-preempt resume path.
    pub model_seed: Option<crate::ModelSeed>,
    /// Where to publish the encoded state when the budget expires
    /// mid-descent: a degraded (preempted) run forks its final model into
    /// this slot, and a later resume attaches it as [`Self::model_seed`].
    /// `None` (the default) skips the capture entirely.
    pub snapshot_slot: Option<crate::SnapshotSlot>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            encoding: EncodingConfig::default(),
            swap_duration: 3,
            tub_factor: 1.5,
            time_budget: None,
            conflict_budget: None,
            pareto_relax_limit: None,
            stop_flag: None,
            incumbent: None,
            seed_variable_order: false,
            commutation_aware: false,
            recorder: olsq2_obs::Recorder::disabled(),
            probe: olsq2_obs::Probe::disabled(),
            diversification: SolverDiversification::default(),
            clause_exchange: None,
            exchange_filter: ExchangeFilter::default(),
            incremental: true,
            solver_features: SolverFeatures::default(),
            proof_log: false,
            fork_spawn: true,
            model_seed: None,
            snapshot_slot: None,
        }
    }
}

impl SynthesisConfig {
    /// Default configuration with the given SWAP duration.
    pub fn with_swap_duration(swap_duration: usize) -> Self {
        SynthesisConfig {
            swap_duration,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configs() {
        assert_eq!(EncodingConfig::bv().mapping, MappingEncoding::Binary);
        assert_eq!(EncodingConfig::int().mapping, MappingEncoding::OneHot);
        assert_eq!(EncodingConfig::int().time, TimeEncoding::OneHot);
        assert_eq!(
            EncodingConfig::euf_int().mapping,
            MappingEncoding::InverseOneHot
        );
        assert_eq!(EncodingConfig::euf_bv().time, TimeEncoding::Binary);
    }

    #[test]
    fn diversification_variant_zero_is_noop() {
        assert!(SolverDiversification::variant(42, 0).is_noop());
        assert!(!SolverDiversification::variant(42, 1).is_noop());
    }

    #[test]
    fn diversification_variants_are_reproducible_and_distinct() {
        let a = SolverDiversification::variant(7, 1);
        let b = SolverDiversification::variant(7, 1);
        assert_eq!(a, b);
        let c = SolverDiversification::variant(7, 2);
        // Different index must at least change the decision seed.
        assert_ne!(a.decision_seed, c.decision_seed);
        let d = SolverDiversification::variant(8, 1);
        assert_ne!(a.decision_seed, d.decision_seed);
    }

    #[test]
    fn diversification_applies_cleanly() {
        let mut s = Solver::new();
        SolverDiversification::variant(3, 5).apply(&mut s);
        SolverDiversification::default().apply(&mut s); // no-op path
    }

    #[test]
    fn diversification_policy_overrides_are_disable_only() {
        // A member may opt out of a modern search policy...
        let mut s = Solver::new();
        let d = SolverDiversification {
            chrono_backtrack: Some(false),
            glucose_restarts: Some(false),
            target_phase: Some(false),
            ..SolverDiversification::default()
        };
        d.apply(&mut s);
        let f = s.features();
        assert!(!f.chrono_backtrack && !f.glucose_restarts && !f.target_phase);
        assert!(
            !f.restart_postpone,
            "postponement dies with glucose restarts"
        );

        // ...but can never re-enable one the base configuration disabled:
        // a --legacy-solver run stays legacy for every portfolio member.
        let mut s = Solver::new();
        s.set_features(SolverFeatures::legacy());
        let d = SolverDiversification {
            chrono_backtrack: Some(true),
            glucose_restarts: Some(true),
            target_phase: Some(true),
            ..SolverDiversification::default()
        };
        d.apply(&mut s);
        let f = s.features();
        assert!(!f.chrono_backtrack && !f.glucose_restarts && !f.target_phase);

        // Seeded variants are reproducible including the policy draws.
        assert_eq!(
            SolverDiversification::variant(11, 3),
            SolverDiversification::variant(11, 3)
        );
        // Some variant in a small family disables at least one policy.
        let disables_any = (1..8).any(|k| {
            let v = SolverDiversification::variant(11, k);
            v.chrono_backtrack == Some(false)
                || v.glucose_restarts == Some(false)
                || v.target_phase == Some(false)
        });
        assert!(disables_any);
    }

    #[test]
    fn default_budgets_are_unlimited() {
        let c = SynthesisConfig::default();
        assert!(c.time_budget.is_none());
        assert!(c.conflict_budget.is_none());
        assert_eq!(c.swap_duration, 3);
        assert_eq!(SynthesisConfig::with_swap_duration(1).swap_duration, 1);
    }
}
