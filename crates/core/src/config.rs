//! Synthesis configuration: encoding choices, budgets, telemetry and proof
//! logging.

use olsq2_encode::{AmoEncoding, CardEncoding};
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
    /// budget result. Installed by the service to cancel a running job.
    pub stop_flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Best-so-far reporting: when set, the optimization loops publish
    /// every intermediate solution here, so a deadline-bound caller can
    /// recover the incumbent when the budget expires mid-descent.
    pub incumbent: Option<crate::IncumbentSlot>,
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
    /// `probe.every()` conflicts. Dump it with
    /// [`olsq2_obs::Probe::write_jsonl`] when a run dies. The default
    /// disabled probe costs one branch per conflict.
    pub probe: olsq2_obs::Probe,
    /// Record clausal proofs on every solver this run builds (enabled
    /// *before* the first clause, as the log requires), with every
    /// assumption core logged as a lemma. UNSAT iterations can then
    /// justify themselves: [`crate::Olsq2Synthesizer`] and
    /// [`crate::TbOlsq2Synthesizer`] seal the UNSAT probe that proves
    /// their optimum into [`crate::SynthesisOutcome::refutation`].
    pub proof_log: bool,
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
            commutation_aware: false,
            recorder: olsq2_obs::Recorder::disabled(),
            probe: olsq2_obs::Probe::disabled(),
            proof_log: false,
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
    fn default_budgets_are_unlimited() {
        let c = SynthesisConfig::default();
        assert!(c.time_budget.is_none());
        assert!(c.conflict_budget.is_none());
        assert_eq!(c.swap_duration, 3);
        assert_eq!(SynthesisConfig::with_swap_duration(1).swap_duration, 1);
    }
}
