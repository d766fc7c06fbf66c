//! The CDCL solver.
//!
//! A conventional conflict-driven clause-learning SAT solver in the MiniSat
//! lineage, with the features the OLSQ2 optimization loops rely on:
//!
//! * **incremental solving under assumptions** — bound constraints are
//!   guarded by activation literals, so tightening an objective bound is a
//!   new `solve` call that keeps all learned clauses;
//! * **final-conflict extraction** — which assumptions caused UNSAT;
//! * **conflict and wall-clock budgets** — `solve` can return
//!   [`SolveResult::Unknown`], which the optimizers treat as "time budget
//!   exhausted" per §III-B of the paper.
//!
//! Internals: two-watched-literal propagation with blockers and dedicated
//! binary- and ternary-clause watch lists (the other literals are inlined
//! in the watcher, so 2- and 3-clauses — which dominate the
//! one-hot/sequential-counter encodings — propagate without touching the
//! clause arena), VSIDS with an indexed heap and phase saving, first-UIP
//! learning with recursive clause minimization, chronological
//! backtracking past long jumps, Glucose-style LBD restarts with
//! postponement inside a Luby budget, target phases, and arena garbage
//! collection.
//!
//! Inprocessing runs between restarts at decision level 0: clause
//! vivification of irredundant and high-value learnt clauses,
//! self-subsumption strengthening detected during conflict analysis,
//! periodic rephasing from the best trail seen, and a three-tier
//! learnt-clause store (core / mid / local by LBD). Every clause rewrite is
//! proof-logged (lemma before delete, so the shortened clause is
//! RUP-checkable against a database still containing the original), and
//! variables above the inprocessing floor ([`Solver::set_inprocess_floor`])
//! or appearing in the current assumptions are never touched — which keeps
//! incremental window growth sound.

// Indexed `for` loops are deliberate here: clause/variable tables are indexed by position.
#![allow(clippy::needless_range_loop)]
use crate::clause::{ClauseDb, Tier};
use crate::heap::VarHeap;
use crate::lit::{ClauseRef, LBool, Lit, Var};
use crate::proof::{Proof, ProofStep};
use crate::watchlist::WatchLists;
use olsq2_obs::{Probe, Recorder, SampleSource, SearchSample};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions; inspect
    /// [`Solver::final_conflict`] for the responsible assumption subset.
    Unsat,
    /// A budget (conflicts or deadline) expired before an answer was found.
    Unknown,
}

impl SolveResult {
    /// Whether the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }

    /// Whether the result is [`SolveResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SolveResult::Unsat
    }
}

/// Cumulative search statistics, reset only by [`Solver::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learned clauses currently retained.
    pub learnts: u64,
    /// Learned-clause database reductions.
    pub reduces: u64,
    /// Literals deleted by conflict-clause minimization.
    pub minimized_lits: u64,
    /// Root-level [`Solver::simplify`] passes that did real work.
    pub simplifies: u64,
    /// Clauses removed by `simplify` because they were root-satisfied.
    pub simplify_removed: u64,
    /// Clauses strengthened by `simplify` (root-falsified literals
    /// stripped, the shortened clause re-allocated).
    pub simplify_strengthened: u64,
    /// Clauses shortened by vivification (distillation).
    pub vivified: u64,
    /// Clauses strengthened by self-subsumption detected during conflict
    /// analysis (applied at the next level-0 boundary).
    pub strengthened: u64,
    /// Propagations served by the dedicated binary watch lists.
    pub binary_props: u64,
    /// Propagations served by the dedicated ternary watch lists.
    pub ternary_props: u64,
    /// Mid-tier learnt clauses demoted to the local deletion pool for
    /// sitting out a full reduce interval.
    pub tier_demotions: u64,
    /// Rephasings from the best trail seen.
    pub rephases: u64,
    /// Chronological (one-level) backtracks taken where conflict analysis
    /// proposed a longer jump.
    pub chrono_backtracks: u64,
    /// LBD-EMA restarts suppressed because the trail was abnormally deep
    /// (the search looked close to a model).
    pub blocked_restarts: u64,
    /// Rephasings that copied the incumbent target phases instead of the
    /// best trail.
    pub target_rephases: u64,
}

/// Adds every counter of `rhs`: the totals of a run that used more than
/// one solver.
impl std::ops::AddAssign for Stats {
    fn add_assign(&mut self, rhs: Stats) {
        // Destructured, so a new counter cannot be left out of the sum.
        let Stats {
            conflicts,
            decisions,
            propagations,
            restarts,
            learnts,
            reduces,
            minimized_lits,
            simplifies,
            simplify_removed,
            simplify_strengthened,
            vivified,
            strengthened,
            binary_props,
            ternary_props,
            tier_demotions,
            rephases,
            chrono_backtracks,
            blocked_restarts,
            target_rephases,
        } = rhs;
        self.conflicts += conflicts;
        self.decisions += decisions;
        self.propagations += propagations;
        self.restarts += restarts;
        self.learnts += learnts;
        self.reduces += reduces;
        self.minimized_lits += minimized_lits;
        self.simplifies += simplifies;
        self.simplify_removed += simplify_removed;
        self.simplify_strengthened += simplify_strengthened;
        self.vivified += vivified;
        self.strengthened += strengthened;
        self.binary_props += binary_props;
        self.ternary_props += ternary_props;
        self.tier_demotions += tier_demotions;
        self.rephases += rephases;
        self.chrono_backtracks += chrono_backtracks;
        self.blocked_restarts += blocked_restarts;
        self.target_rephases += target_rephases;
    }
}

/// The cadences and the jump threshold of the search policies.
///
/// Production never sets it: every solver runs the defaults. It exists so
/// the soundness fuzzers can fire inprocessing and chronological
/// backtracking on formulas of 20 variables or fewer, which finish long
/// before the default cadences come due (see [`Solver::set_tuning`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverTuning {
    /// Conflicts between vivification passes.
    pub vivify_interval: u64,
    /// Conflicts between rephasings.
    pub rephase_interval: u64,
    /// Maximum non-chronological jump distance: when conflict analysis
    /// proposes a longer jump, the solver undoes a single level instead
    /// and records the asserting literal at its assertion level. The
    /// trail may then hold out-of-order assignments; `cancel_until`
    /// repairs them. 0 makes every backjump chronological.
    pub chrono_threshold: u32,
    /// Luby restart unit in conflicts. Must be positive.
    pub restart_base: u64,
}

impl Default for SolverTuning {
    fn default() -> Self {
        SolverTuning {
            // Vivification prices in at roughly a restart's worth of
            // propagation per pass, so it only pays off once the learnt
            // database has real tenure; short solves never reach it.
            vivify_interval: 12_000,
            rephase_interval: 10_000,
            // Short jumps keep the non-chronological learning signal;
            // only genuinely long jumps (which discard whole subtrees of
            // consistent assignments) fall back to one-level undo.
            chrono_threshold: 100,
            restart_base: 100,
        }
    }
}

/// Unit-propagation budget of one vivification pass.
const VIVIFY_PROP_BUDGET: u64 = 30_000;
/// Glucose restart trigger: fast LBD EMA above this multiple of the
/// long-run LBD average fires a restart.
const GLUCOSE_K: f64 = 1.25;
/// Minimum conflicts inside the current restart (and after a blocked
/// restart) before the LBD trigger may fire; also the warm-up before the
/// long-run averages are trusted.
const GLUCOSE_MIN_CONFLICTS: u64 = 100;
/// A restart is postponed when the trail is deeper than this multiple of
/// the long-run average trail depth at conflicts.
const RESTART_BLOCK_R: f64 = 1.4;
/// Cap on queued self-subsumption rewrites awaiting a level-0 boundary.
const MAX_PENDING_STRENGTHEN: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Watcher for a 2-clause: the other literal is stored inline, so binary
/// propagation never dereferences the clause arena. The `cref` is kept only
/// for reasons/conflicts and lazy removal.
#[derive(Debug, Clone, Copy)]
struct BinWatcher {
    cref: ClauseRef,
    implied: Lit,
}

/// Watcher for a 3-clause: both other literals are stored inline and all
/// three literals watch the clause, so a falsified watch decides the
/// clause's status (satisfied / unit / conflicting / still open) without
/// touching the clause arena, and no watcher ever migrates. Unlike binary
/// watchers, ternary clauses can be *learnt* and therefore deleted by
/// database reduction, so the scan drops watchers of deleted clauses
/// lazily (one header load, still no literal access).
#[derive(Debug, Clone, Copy)]
struct TernWatcher {
    cref: ClauseRef,
    others: [Lit; 2],
}

/// A self-subsumption rewrite detected during conflict analysis:
/// `target \ {remove}` is the resolvent of `target` with `support` and is
/// applied (proof-logged) at the next decision-level-0 boundary.
#[derive(Debug, Clone, Copy)]
struct PendingStrengthen {
    target: ClauseRef,
    remove: Lit,
    support: ClauseRef,
}

#[derive(Debug, Clone, Copy)]
struct VarData {
    reason: Option<ClauseRef>,
    level: u32,
}

/// Per-variable mark of conflict analysis, cleared through
/// `analyze_toclear` at the end of each analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Clear,
    /// In the clause being learnt (in `analyze_final`: on the frontier
    /// being traced back to the assumptions).
    Seen,
    /// Minimization proved the literal implied by the learnt clause.
    Removable,
    /// Minimization proved the literal not implied by the learnt clause.
    Failed,
}

/// A set of small indices that empties in O(1): members carry the
/// current epoch, and `clear` starts a new one.
#[derive(Debug, Clone, Default)]
struct StampSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl StampSet {
    /// Makes room for indices `0..n`.
    fn grow(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
    }

    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Adds `i`; whether it was absent.
    #[inline]
    fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamps[i] != self.epoch;
        self.stamps[i] = self.epoch;
        fresh
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }
}

/// Incremental CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use olsq2_sat::{Solver, Lit, SolveResult};
/// let mut s = Solver::new();
/// let a = Lit::positive(s.new_var());
/// let b = Lit::positive(s.new_var());
/// s.add_clause([a, b]);
/// s.add_clause([!a, b]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(s.model_value(b), Some(true));
/// // Incremental: now assume ¬b, which is impossible.
/// assert_eq!(s.solve(&[!b]), SolveResult::Unsat);
/// // The contradictory assumption subset is {¬b}.
/// assert_eq!(s.final_conflict(), &[!b]);
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    clauses: Vec<ClauseRef>,
    /// The last `unwatched` entries of `clauses` are allocated but not yet
    /// watched; `attach_pending` watches them in bulk at the next entry
    /// point that can propagate.
    unwatched: usize,
    learnts: Vec<ClauseRef>,
    watches: WatchLists<Watcher>,
    /// Dedicated watch lists for 2-clauses.
    bin_watches: WatchLists<BinWatcher>,
    /// Dedicated watch lists for 3-clauses. Every deletion of a ternary
    /// clause scrubs its three watchers at once (`scrub_retired`), so
    /// these lists never hold a dead watcher.
    tern_watches: WatchLists<TernWatcher>,
    /// Truth value of every literal, indexed by [`Lit::code`]. Both
    /// literals of a variable are written together (one `True` and one
    /// `False`, or both `Undef`), so [`Solver::value`] is a single load.
    vals: Vec<LBool>,
    vardata: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Saved phase per variable (last assigned polarity).
    phase: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    /// False once an empty clause or level-0 conflict proves global UNSAT.
    ok: bool,
    model: Vec<LBool>,
    final_conflict: Vec<Lit>,
    stats: Stats,
    conflict_budget: Option<u64>,
    deadline: Option<Instant>,
    /// Cooperative interrupt for job cancellation and cube solving: the
    /// flag being `true` aborts the next conflict boundary.
    stop: Option<Arc<AtomicBool>>,
    next_reduce: u64,
    reduce_inc: u64,
    /// Root-trail length at the last `simplify`, to skip redundant passes.
    simp_trail_len: usize,
    /// Clausal proof log, when enabled.
    proof: Option<Proof>,
    /// Telemetry sink; the default disabled recorder costs one branch.
    recorder: Recorder,
    /// Flight-recorder probe; the default disabled probe costs one
    /// branch per conflict.
    probe: Probe,
    /// Fast-horizon LBD exponential moving average (α = 2⁻⁵), over every
    /// learnt clause's LBD.
    lbd_ema_fast: f64,
    /// Slow-horizon LBD exponential moving average (α = 2⁻¹²).
    lbd_ema_slow: f64,
    /// Search cadences and the chronological-backtracking threshold.
    tuning: SolverTuning,
    /// Variables at or above this index are never touched by inprocessing
    /// (activation literals, post-build allocations). Kept as the
    /// minimum over all [`Solver::set_inprocess_floor`] calls.
    inprocess_floor: usize,
    /// Variables assumed in the current `solve` call; also off-limits to
    /// inprocessing.
    assumption_frozen: Vec<bool>,
    /// `false` while vivification probes run, so their enqueues do not
    /// clobber the saved phases that guide real search.
    save_phases: bool,
    /// When proof logging is on, record each assumption-UNSAT's negated
    /// final conflict as a lemma (cube-and-conquer proof stitching).
    core_lemmas: bool,
    /// Conflict count that triggers the next vivification pass.
    next_vivify: u64,
    /// Rotating cursors into `clauses`/`learnts` so successive passes
    /// cover the whole database.
    viv_cursor: [usize; 2],
    /// Conflict count that triggers the next rephase.
    next_rephase: u64,
    /// Longest trail seen since the last rephase, and the phases it chose.
    best_trail_len: usize,
    best_phase: Vec<bool>,
    /// Target polarity per variable (`Undef` = no target). Set from the
    /// synthesis incumbent; consulted by branching and rephasing.
    target_phase: Vec<LBool>,
    /// Alternates rephase sources between the best trail and the targets.
    rephase_flip: bool,
    /// Running sums for the Glucose restart policy: LBD and trail depth
    /// at each conflict, and the number of conflicts accumulated.
    lbd_sum: f64,
    trail_depth_sum: f64,
    avg_conflicts: u64,
    /// Global conflict count below which the LBD restart trigger stays
    /// disarmed (set after a blocked restart).
    restart_hold: u64,
    /// Scratch buffer for out-of-order trail repair in `cancel_until`.
    cancel_buf: Vec<Lit>,
    /// Self-subsumption rewrites awaiting a level-0 boundary.
    pending_strengthen: Vec<PendingStrengthen>,
    /// Literal set for the subset test in strengthening detection.
    lit_set: StampSet,
    /// Decision-level set for counting a clause's LBD.
    level_set: StampSet,
    // Scratch buffers for conflict analysis; `analyze_stack` holds the
    // minimizer's DFS frames (variable, next reason position).
    seen: Vec<Mark>,
    analyze_toclear: Vec<Var>,
    analyze_stack: Vec<(Var, u32)>,
    // Scratch buffers for clause addition (raw literals, then the
    // root-simplified clause), reused across `add_clause` calls.
    add_buf: Vec<Lit>,
    add_buf2: Vec<Lit>,
}

/// The number of distinct decision levels among `lits` (its LBD).
fn distinct_levels(levels: &mut StampSet, vardata: &[VarData], lits: &[Lit]) -> u32 {
    levels.clear();
    lits.iter()
        .filter(|l| levels.insert(vardata[l.var().index()].level as usize))
        .count() as u32
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            clauses: Vec::new(),
            unwatched: 0,
            learnts: Vec::new(),
            watches: WatchLists::new(),
            bin_watches: WatchLists::new(),
            tern_watches: WatchLists::new(),
            vals: Vec::new(),
            vardata: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            phase: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            ok: true,
            model: Vec::new(),
            final_conflict: Vec::new(),
            stats: Stats::default(),
            conflict_budget: None,
            deadline: None,
            stop: None,
            next_reduce: 2000,
            reduce_inc: 300,
            simp_trail_len: usize::MAX,
            proof: None,
            recorder: Recorder::disabled(),
            probe: Probe::disabled(),
            lbd_ema_fast: 0.0,
            lbd_ema_slow: 0.0,
            tuning: SolverTuning::default(),
            inprocess_floor: usize::MAX,
            assumption_frozen: Vec::new(),
            save_phases: true,
            core_lemmas: false,
            next_vivify: SolverTuning::default().vivify_interval,
            viv_cursor: [0, 0],
            next_rephase: SolverTuning::default().rephase_interval,
            best_trail_len: 0,
            best_phase: Vec::new(),
            target_phase: Vec::new(),
            rephase_flip: false,
            lbd_sum: 0.0,
            trail_depth_sum: 0.0,
            avg_conflicts: 0,
            restart_hold: 0,
            cancel_buf: Vec::new(),
            pending_strengthen: Vec::new(),
            lit_set: StampSet::default(),
            level_set: StampSet::default(),
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            analyze_stack: Vec::new(),
            add_buf: Vec::new(),
            add_buf2: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars() as u32);
        self.vals.extend([LBool::Undef; 2]);
        self.vardata.push(VarData {
            reason: None,
            level: 0,
        });
        self.watches.push_list();
        self.watches.push_list();
        self.bin_watches.push_list();
        self.bin_watches.push_list();
        self.tern_watches.push_list();
        self.tern_watches.push_list();
        self.phase.push(false);
        self.activity.push(0.0);
        self.order.grow(v);
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.vals.len() / 2
    }

    /// Number of problem (non-learned) clauses currently retained.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.learnts = self.learnts.len() as u64;
        s
    }

    /// Limits the next `solve` calls to roughly `budget` conflicts
    /// (cumulative from now); `None` removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget.map(|b| self.stats.conflicts + b);
    }

    /// Aborts `solve` with [`SolveResult::Unknown`] once `deadline` passes.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Installs a cooperative interrupt: while the flag is `true`, `solve`
    /// aborts with [`SolveResult::Unknown`] at the next conflict boundary.
    /// Used to cancel a running job and to stop cube workers once the
    /// run is decided. Replaces any previously installed flag.
    pub fn set_stop_flag(&mut self, stop: Option<Arc<AtomicBool>>) {
        self.stop = stop;
    }

    /// Installs a telemetry sink. The solver emits `sat.restart` and
    /// `sat.reduce_db` events during search and accumulates per-solve
    /// statistic deltas into `sat.*` counters. The default is the disabled
    /// recorder, which costs one branch per emission site.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Attaches a flight-recorder probe. While attached, the solver
    /// records one [`SearchSample`] every `probe.every()` conflicts —
    /// trail depth, decision level, LBD EMAs, learnt-tier sizes, and
    /// cumulative cadence counters — into the probe's lock-free ring.
    /// The default disabled probe costs one branch per conflict.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The attached flight-recorder probe (a cheap clone of the handle).
    pub fn probe(&self) -> Probe {
        self.probe.clone()
    }

    /// Replaces the search cadences and the chronological-backtracking
    /// threshold (see [`SolverTuning`]). May be called at any time: the
    /// next vivification and rephase are rescheduled relative to the
    /// current conflict count.
    ///
    /// # Panics
    ///
    /// Panics if `tuning.restart_base` is 0.
    pub fn set_tuning(&mut self, tuning: SolverTuning) {
        assert!(tuning.restart_base > 0, "restart base must be positive");
        self.tuning = tuning;
        self.next_vivify = self.stats.conflicts + tuning.vivify_interval;
        self.next_rephase = self.stats.conflicts + tuning.rephase_interval;
    }

    /// Sets the saved phase of `var` directly (structure-aware seeding:
    /// the model builders know which polarity dominates an at-most-one
    /// group before any conflict does).
    pub fn set_saved_phase(&mut self, var: Var, phase: bool) {
        if let Some(p) = self.phase.get_mut(var.index()) {
            *p = phase;
        }
    }

    /// Sets one target polarity. Targets outrank saved phases in
    /// branching and feed alternate rephasing passes; they persist across
    /// solves until overwritten.
    pub fn set_target_phase(&mut self, var: Var, phase: bool) {
        if var.index() >= self.num_vars() {
            return;
        }
        if self.target_phase.len() < self.num_vars() {
            self.target_phase.resize(self.num_vars(), LBool::Undef);
        }
        self.target_phase[var.index()] = LBool::from(phase);
    }

    /// Copies the most recent model into the target phases. The synthesis
    /// optimizers call this after each satisfiable bound so the next
    /// (tighter) solve steers toward the incumbent layout.
    pub fn adopt_model_targets(&mut self) {
        if self.model.is_empty() {
            return;
        }
        self.target_phase.clear();
        self.target_phase.extend_from_slice(&self.model);
    }

    /// Declares that variables `floor..` must never be touched by
    /// inprocessing (vivification / self-subsumption strengthening).
    ///
    /// The incremental model builders call this with the variable count at
    /// the end of the build: activation literals and window-growth
    /// variables allocated afterwards carry cross-solve or cross-window
    /// meaning, so clauses over them are left exactly as encoded. The
    /// floor is kept as the minimum over all calls and never rises.
    pub fn set_inprocess_floor(&mut self, floor: usize) {
        self.inprocess_floor = self.inprocess_floor.min(floor);
    }

    /// Whether inprocessing must leave clauses mentioning `v` alone.
    #[inline]
    fn is_inprocess_frozen(&self, v: Var) -> bool {
        v.index() >= self.inprocess_floor
            || self
                .assumption_frozen
                .get(v.index())
                .copied()
                .unwrap_or(false)
    }

    /// Adds `amount` to a variable's branching activity — a hook for
    /// domain-informed initial variable orderings (the paper's §V notes
    /// that "we may be able to provide a better ordering based on our
    /// domain knowledge"). Call before `solve`; VSIDS adapts from there.
    pub fn boost_activity(&mut self, var: Var, amount: f64) {
        self.activity[var.index()] += amount;
        self.order.update(var, &self.activity);
    }

    /// The variable's current VSIDS activity. Scores are only comparable
    /// within one solver (rescaling keeps them bounded, not normalized);
    /// a cube splitter uses them to rank fallback split candidates.
    pub fn var_activity(&self, var: Var) -> f64 {
        self.activity[var.index()]
    }

    /// Failed-literal-style lookahead probe: temporarily assumes `lits`
    /// at a fresh decision level, propagates, and undoes everything.
    ///
    /// Returns `None` if the probe conflicts — `lits` is refuted by unit
    /// propagation alone, so `¬lits` is implied by the current database —
    /// or `Some(n)` with the number of *additional* literals the probe
    /// implied, the classic lookahead score for cube splitting. Saved
    /// phases are not disturbed. Must be called at the root level
    /// (between `solve` calls).
    pub fn lookahead(&mut self, lits: &[Lit]) -> Option<usize> {
        assert_eq!(self.decision_level(), 0, "lookahead probes run at root");
        if !self.ok {
            return None;
        }
        self.attach_pending();
        // Reach the root fixpoint first so the probe starts clean; a
        // conflict here means the formula itself is UNSAT.
        if self.propagate().is_some() {
            self.ok = false;
            self.log_proof(|| ProofStep::Empty);
            return None;
        }
        let saved_phases = std::mem::replace(&mut self.save_phases, false);
        let mark = self.trail.len();
        self.new_decision_level();
        let mut enqueued = 0usize;
        let mut conflict = false;
        for &l in lits {
            match self.value(l) {
                LBool::True => {}
                LBool::False => {
                    conflict = true;
                    break;
                }
                LBool::Undef => {
                    self.unchecked_enqueue(l, None);
                    enqueued += 1;
                }
            }
        }
        let implied = if conflict || self.propagate().is_some() {
            None
        } else {
            Some(self.trail.len() - mark - enqueued)
        };
        self.cancel_until(0);
        self.save_phases = saved_phases;
        implied
    }

    /// Starts recording a clausal (DRAT-style) proof. Must be called
    /// before any clause is added for the log to be complete.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(Proof::new());
        }
    }

    /// Takes the recorded proof (ending proof recording).
    pub fn take_proof(&mut self) -> Option<Proof> {
        self.proof.take()
    }

    /// A copy of the proof recorded so far, leaving recording active.
    /// Lets a caller seal an intermediate refutation (close a
    /// [`Solver::final_conflict`] core with assumption units) while the
    /// same solver keeps working — and logging — on later bounds.
    pub fn clone_proof(&self) -> Option<Proof> {
        self.proof.clone()
    }

    /// When enabled (and a proof is being recorded), every UNSAT answer
    /// under assumptions appends the negated [`Solver::final_conflict`]
    /// as a lemma. The clause is RUP at that point in the log: asserting
    /// the core assumptions and unit-propagating over the clauses logged
    /// so far re-derives the contradiction the solver just found. This is
    /// the bridge a cube-and-conquer driver needs to stitch per-cube
    /// refutations into one checkable proof.
    pub fn set_core_lemmas(&mut self, on: bool) {
        self.core_lemmas = on;
    }

    #[inline]
    fn log_proof(&mut self, step: impl FnOnce() -> ProofStep) {
        if let Some(proof) = &mut self.proof {
            proof.push(step());
        }
    }

    /// Current decision level (0 = root).
    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Truth value of `lit` under the current partial assignment.
    #[inline]
    pub fn value(&self, lit: Lit) -> LBool {
        self.vals[lit.code()]
    }

    /// Truth value of `lit` in the most recent satisfying model.
    ///
    /// Returns `None` before the first [`SolveResult::Sat`] or for variables
    /// created after it.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        self.model
            .get(lit.var().index())
            .and_then(|v| v.apply_sign(lit.is_negative()).to_option())
    }

    /// After an UNSAT result with assumptions: the subset of assumption
    /// literals that together are contradictory (each entry is one of the
    /// assumptions passed to [`Solver::solve`]).
    pub fn final_conflict(&self) -> &[Lit] {
        &self.final_conflict
    }

    /// Adds a clause. Returns `false` if the solver is already in a
    /// permanently unsatisfiable state (then the clause is ignored).
    ///
    /// Tautologies are silently dropped; duplicate and root-false literals
    /// are removed. A clause of two or more literals is stored but not
    /// watched yet: the next `solve`, `simplify` or `lookahead` watches
    /// every pending clause in one pass, in addition order. A
    /// unit clause watches the pending clauses first, then propagates at
    /// the root level, so clauses added after it are simplified against
    /// everything it implies.
    ///
    /// # Panics
    ///
    /// Panics if called between `solve` invocations while the solver is not
    /// at decision level 0 (never happens through the public API, since
    /// `solve` always backtracks fully).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        let mut v = std::mem::take(&mut self.add_buf);
        v.clear();
        v.extend(lits);
        let result = self.add_clause_from_buf(&mut v);
        self.add_buf = v;
        result
    }

    /// Adds a batch of clauses packed end-to-end in `flat`; `ends[i]` is
    /// the exclusive end offset of clause `i`. Identical to one
    /// [`Solver::add_clause`] call per clause, including the deferred
    /// watching, but without a call and a scratch round-trip per clause:
    /// encoders stage literals into one flat buffer and hand the whole
    /// batch over. Stops early and returns `false` once the solver is
    /// permanently unsatisfiable.
    pub fn add_clause_batch(&mut self, flat: &[Lit], ends: &[u32]) -> bool {
        let mut v = std::mem::take(&mut self.add_buf);
        let mut start = 0usize;
        for &end in ends {
            let end = end as usize;
            debug_assert!(start <= end && end <= flat.len(), "malformed batch offsets");
            v.clear();
            v.extend_from_slice(&flat[start..end]);
            self.add_clause_from_buf(&mut v);
            start = end;
            if !self.ok {
                break;
            }
        }
        self.add_buf = v;
        self.ok
    }

    /// Shared implementation behind [`Solver::add_clause`] and
    /// [`Solver::add_clause_batch`]: `v` holds the raw literals and is
    /// used as scratch. Proof clones happen only when logging is on.
    fn add_clause_from_buf(&mut self, v: &mut Vec<Lit>) -> bool {
        assert_eq!(
            self.decision_level(),
            0,
            "clauses must be added at the root level"
        );
        if !self.ok {
            return false;
        }
        v.sort_unstable();
        v.dedup();
        self.log_proof(|| ProofStep::Original(v.clone()));
        let mut w = std::mem::take(&mut self.add_buf2);
        w.clear();
        let mut prev: Option<Lit> = None;
        let mut dropped = false;
        for &l in v.iter() {
            debug_assert!(
                l.var().index() < self.num_vars(),
                "literal over unknown variable"
            );
            if prev == Some(!l) || self.value(l) == LBool::True {
                // Tautology or already satisfied at root.
                self.add_buf2 = w;
                return true;
            }
            if self.value(l) != LBool::False {
                w.push(l);
            }
            prev = Some(l);
        }
        if w.len() != v.len() {
            dropped = true;
        }
        if dropped {
            self.log_proof(|| ProofStep::Lemma(w.clone()));
        }
        let result = match w.len() {
            0 => {
                self.ok = false;
                self.log_proof(|| ProofStep::Empty);
                false
            }
            1 => {
                // The unit propagates through every clause added before
                // it, so later clauses are simplified against its
                // implications.
                self.attach_pending();
                self.unchecked_enqueue(w[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.log_proof(|| ProofStep::Empty);
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&w, false);
                self.clauses.push(cref);
                self.unwatched += 1;
                true
            }
        };
        self.add_buf2 = w;
        result
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        if lits.len() == 2 {
            self.bin_watches
                .push((!l0).code(), BinWatcher { cref, implied: l1 });
            self.bin_watches
                .push((!l1).code(), BinWatcher { cref, implied: l0 });
        } else if lits.len() == 3 {
            let l2 = lits[2];
            self.tern_watches.push(
                (!l0).code(),
                TernWatcher {
                    cref,
                    others: [l1, l2],
                },
            );
            self.tern_watches.push(
                (!l1).code(),
                TernWatcher {
                    cref,
                    others: [l0, l2],
                },
            );
            self.tern_watches.push(
                (!l2).code(),
                TernWatcher {
                    cref,
                    others: [l0, l1],
                },
            );
        } else {
            self.watches
                .push((!l0).code(), Watcher { cref, blocker: l1 });
            self.watches
                .push((!l1).code(), Watcher { cref, blocker: l0 });
        }
    }

    /// Watches the problem clauses added since the last call, in addition
    /// order, so each list ends exactly as one `attach` per clause would
    /// leave it. Counting first moves each list at most once per call
    /// instead of on every doubling. Called at each entry
    /// point that can propagate (`solve`, `simplify`, `lookahead`, and a
    /// root unit's addition); `propagate` itself never checks.
    fn attach_pending(&mut self) {
        if self.unwatched == 0 {
            return;
        }
        let first = self.clauses.len() - self.unwatched;
        self.unwatched = 0;
        for &cref in &self.clauses[first..] {
            let lits = self.db.lits(cref);
            match lits.len() {
                2 => lits
                    .iter()
                    .for_each(|&l| self.bin_watches.announce((!l).code())),
                3 => lits
                    .iter()
                    .for_each(|&l| self.tern_watches.announce((!l).code())),
                _ => lits[..2]
                    .iter()
                    .for_each(|&l| self.watches.announce((!l).code())),
            }
        }
        // Any watcher value pads the new windows; the fill overwrites it.
        let cref = self.clauses[first];
        let l = Lit(0);
        self.watches.make_room(Watcher { cref, blocker: l });
        self.bin_watches.make_room(BinWatcher { cref, implied: l });
        self.tern_watches.make_room(TernWatcher {
            cref,
            others: [l, l],
        });
        for i in first..self.clauses.len() {
            self.attach(self.clauses[i]);
        }
    }

    #[inline]
    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        let level = self.decision_level();
        self.unchecked_enqueue_at(lit, reason, level);
    }

    /// Enqueue with an explicit recorded level. Chronological backtracking
    /// records the asserting literal at its *assertion* level even though
    /// it is pushed into a deeper trail block; the invariant is that a
    /// literal's recorded level never exceeds its block index, and
    /// `cancel_until` relocates such out-of-order literals on undo.
    #[inline]
    fn unchecked_enqueue_at(&mut self, lit: Lit, reason: Option<ClauseRef>, level: u32) {
        debug_assert_eq!(self.value(lit), LBool::Undef);
        debug_assert!(level <= self.decision_level());
        let v = lit.var().index();
        self.vals[lit.code()] = LBool::True;
        self.vals[(!lit).code()] = LBool::False;
        self.vardata[v] = VarData { reason, level };
        if self.save_phases {
            self.phase[v] = lit.is_positive();
        }
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting clause if any.
    ///
    /// Two passes per trail literal: the dedicated binary lists first
    /// (their watchers never move, and the implied literal is inline, so
    /// no arena access happens on the hot path), then an in-place
    /// two-pointer scan of the regular watch list. The scan may push
    /// watchers onto *other* lists (the new watch `¬lk` is never `p`:
    /// `lk` sits at index ≥ 2 while `¬p` is at index 1, and clause
    /// literals are distinct by construction), so re-borrowing
    /// `watches[p]` by index is safe and the old swap-out/swap-in of the
    /// whole list is gone.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let code = p.code();

            // Binary pass: no arena access at all. Nothing in the loop
            // pushes to any binary watch list (enqueues only write the
            // trail), so the `(start, len)` window snapshot stays valid
            // for the whole scan. Binary clauses are deleted only by
            // `simplify`'s eager scrub and remapped by
            // `garbage_collect`, so no watcher here can be stale. Binary
            // reasons are NOT normalized to put the implied literal
            // first; `analyze` and `locked` accept it at either position.
            let brange = self.bin_watches.range_of(code);
            if !brange.is_empty() {
                // Detach the pool so the scan runs over a local slice
                // (nothing in the loop touches any binary list).
                let pool = self.bin_watches.take_pool();
                let mut bin_conflict = None;
                for w in &pool[brange] {
                    debug_assert!(!self.db.is_deleted(w.cref));
                    match self.value(w.implied) {
                        LBool::True => {}
                        LBool::Undef => {
                            self.stats.binary_props += 1;
                            self.unchecked_enqueue(w.implied, Some(w.cref));
                        }
                        LBool::False => {
                            bin_conflict = Some(w.cref);
                            break;
                        }
                    }
                }
                self.bin_watches.restore_pool(pool);
                if let Some(cref) = bin_conflict {
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
            }

            // Ternary pass: both other literals are inline, so the
            // clause's status is decided from the assignment vector
            // alone. Watchers never migrate (all three literals watch),
            // and deleting a ternary clause scrubs its three watchers at
            // once, so every watcher here is live and the scan never
            // loads a clause header. Like the binary pass, nothing here
            // pushes to any ternary list, so the window snapshot holds.
            let trange = self.tern_watches.range_of(code);
            if !trange.is_empty() {
                // Detach the pool so the scan runs over a local slice
                // (nothing in the loop touches any ternary list).
                let pool = self.tern_watches.take_pool();
                let mut tern_conflict = None;
                for w in &pool[trange] {
                    debug_assert!(!self.db.is_deleted(w.cref));
                    let a = self.value(w.others[0]);
                    let b = self.value(w.others[1]);
                    if a == LBool::True || b == LBool::True {
                        continue;
                    }
                    match (a, b) {
                        (LBool::False, LBool::False) => {
                            tern_conflict = Some(w.cref);
                            break;
                        }
                        (LBool::False, LBool::Undef) => {
                            self.stats.ternary_props += 1;
                            self.unchecked_enqueue(w.others[1], Some(w.cref));
                        }
                        (LBool::Undef, LBool::False) => {
                            self.stats.ternary_props += 1;
                            self.unchecked_enqueue(w.others[0], Some(w.cref));
                        }
                        _ => {} // both undefined: still open
                    }
                }
                self.tern_watches.restore_pool(pool);
                if let Some(cref) = tern_conflict {
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
            }

            // Long-clause pass, compacting in place. The scan may push
            // watchers onto *other* lists; the slab guarantees this
            // list's `(start, len)` window never moves on such pushes,
            // and absolute pool indices stay valid across the pool's
            // growth, so the snapshot below holds for the whole scan.
            let false_lit = !p;
            let wrange = self.watches.range_of(code);
            let (start, len) = (wrange.start, wrange.len());
            let mut i = 0usize;
            let mut j = 0usize;
            'watchers: while i < len {
                let w = self.watches.at_raw(start + i);
                i += 1;
                // Fast path: blocker already true.
                if self.value(w.blocker) == LBool::True {
                    self.watches.set_raw(start + j, w);
                    j += 1;
                    continue;
                }
                if self.db.is_deleted(w.cref) {
                    continue; // lazily drop watcher of a deleted clause
                }
                // Make sure the false literal is at position 1.
                {
                    let lits = self.db.lits_mut(w.cref);
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.db.lits(w.cref)[0];
                let w_new = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == LBool::True {
                    self.watches.set_raw(start + j, w_new);
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let clen = self.db.len(w.cref);
                for k in 2..clen {
                    let lk = self.db.lits(w.cref)[k];
                    if self.value(lk) != LBool::False {
                        self.db.lits_mut(w.cref).swap(1, k);
                        debug_assert_ne!((!lk).code(), code);
                        self.watches.push((!lk).code(), w_new);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                self.watches.set_raw(start + j, w_new);
                j += 1;
                if self.value(first) == LBool::False {
                    // Conflict: keep remaining watchers and stop.
                    self.watches
                        .copy_within_raw(start + i..start + len, start + j);
                    j += len - i;
                    self.watches.truncate(code, j);
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
                self.unchecked_enqueue(first, Some(w.cref));
            }
            self.watches.truncate(code, j);
        }
        None
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        // Trail repair: chronological backtracking records asserting
        // literals below their block, so blocks above `level` may hold
        // literals that logically belong at or below it. Keep those
        // (relocated, in order, to the end of block `level`) and undo the
        // rest. Kept literals are never decisions — a decision's recorded
        // level equals its block index — so `trail_lim` stays consistent.
        debug_assert!(self.cancel_buf.is_empty());
        for idx in lim..self.trail.len() {
            let lit = self.trail[idx];
            let v = lit.var();
            if self.level(v) <= level {
                self.cancel_buf.push(lit);
            } else {
                self.vals[lit.code()] = LBool::Undef;
                self.vals[(!lit).code()] = LBool::Undef;
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail.append(&mut self.cancel_buf);
        self.trail_lim.truncate(level as usize);
        // Kept literals re-propagate: their implications above `level`
        // were just undone.
        self.qhead = lim;
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let a = self.db.activity(cref) + self.cla_inc as f32;
        if a > 1e20 {
            for &c in &self.learnts {
                let old = self.db.activity(c);
                self.db.set_activity(c, old * 1e-20);
            }
            self.cla_inc *= 1e-20;
            self.db.set_activity(cref, a * 1e-20);
        } else {
            self.db.set_activity(cref, a);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLA_DECAY;
    }

    #[inline]
    fn level(&self, v: Var) -> u32 {
        self.vardata[v.index()].level
    }

    #[inline]
    fn reason(&self, v: Var) -> Option<ClauseRef> {
        self.vardata[v.index()].reason
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 reserved for the asserting literal
        let mut path_c = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            if self.db.is_learnt(confl) {
                self.bump_clause(confl);
                self.db.set_used(confl, true);
                // Refresh LBD (keep minimum) and promote the tier when the
                // clause proves better than first measured.
                let lbd = distinct_levels(&mut self.level_set, &self.vardata, self.db.lits(confl));
                if lbd < self.db.lbd(confl) {
                    self.db.set_lbd(confl, lbd);
                    let promoted = Tier::for_lbd(lbd).max(self.db.tier(confl));
                    self.db.set_tier(confl, promoted);
                }
            }
            // When resolving the reason of `p`, skip `p` itself. Long
            // reasons keep the implied literal at position 0, but binary
            // reasons may carry it at either position (the binary kernel
            // never reorders arena literals), so match by value.
            for k in 0..self.db.len(confl) {
                let q = self.db.lits(confl)[k];
                if p == Some(q) {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] == Mark::Clear && self.level(v) > 0 {
                    self.seen[v.index()] = Mark::Seen;
                    self.analyze_toclear.push(v);
                    self.bump_var(v);
                    if self.level(v) >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail. Under chronological
            // backtracking the current block may also hold relocated
            // literals recorded below the conflict level; those are
            // reason-side (`seen` but not on the path) and are skipped by
            // the level check.
            loop {
                index -= 1;
                let v = self.trail[index].var();
                if self.seen[v.index()] == Mark::Seen && self.level(v) >= self.decision_level() {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            path_c -= 1;
            if path_c == 0 {
                break;
            }
            confl = self
                .reason(pl.var())
                .expect("non-decision literal on conflict path must have a reason");
            self.seen[pl.var().index()] = Mark::Clear;
            // pl.var stays in analyze_toclear; clearing the flag here keeps
            // the invariant that `seen` marks exactly the unresolved nodes.
        }
        learnt[0] = !p.expect("conflict path is nonempty");

        // Recursive minimization of the reason side.
        let before = learnt.len();
        let mut abstract_levels = 0u32;
        for &l in &learnt[1..] {
            abstract_levels |= 1 << (self.level(l.var()) & 31);
        }
        let mut kept = vec![learnt[0]];
        for idx in 1..learnt.len() {
            let l = learnt[idx];
            if self.reason(l.var()).is_none() || !self.lit_redundant(l, abstract_levels) {
                kept.push(l);
            }
        }
        self.stats.minimized_lits += (before - kept.len()) as u64;
        let mut learnt = kept;

        // Compute backtrack level and place the second-highest literal at 1.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level(learnt[i].var()) > self.level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level(learnt[1].var())
        };
        for v in self.analyze_toclear.drain(..) {
            self.seen[v.index()] = Mark::Clear;
        }
        (learnt, bt_level)
    }

    /// Checks whether clause literal `l` is implied by the rest of the
    /// learnt clause (MiniSat's `litRedundant`), by a DFS over reasons
    /// with an explicit frame stack. Verdicts are memoized for the rest
    /// of the analysis: a literal whose whole reason subtree checks out
    /// becomes `Removable`, and when the walk reaches a decision or a
    /// level outside the clause, every literal on the current path
    /// becomes `Failed`. Both are facts about the fixed clause, so later
    /// probes stop at them instead of re-walking the same subgraph, and
    /// the removed set is the one an unmemoized walk finds.
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        let (mut v, mut k) = (l.var(), 0u32);
        loop {
            let cref = self
                .reason(v)
                .expect("walk only visits literals with reasons");
            if (k as usize) < self.db.len(cref) {
                // From 0: `v` itself (wherever the binary kernel left it)
                // is skipped by identity.
                let q = self.db.lits(cref)[k as usize].var();
                k += 1;
                if q == v || self.level(q) == 0 {
                    continue;
                }
                match self.seen[q.index()] {
                    Mark::Seen | Mark::Removable => continue,
                    Mark::Clear
                        if self.reason(q).is_some()
                            && (1u32 << (self.level(q) & 31)) & abstract_levels != 0 =>
                    {
                        self.analyze_stack.push((v, k));
                        (v, k) = (q, 0);
                    }
                    Mark::Clear | Mark::Failed => {
                        // Not redundant, nor is anything on the path.
                        self.analyze_stack.push((v, k));
                        for i in 0..self.analyze_stack.len() {
                            let w = self.analyze_stack[i].0;
                            if self.seen[w.index()] == Mark::Clear {
                                self.seen[w.index()] = Mark::Failed;
                                self.analyze_toclear.push(w);
                            }
                        }
                        return false;
                    }
                }
            } else {
                // Every reason literal of `v` checks out.
                if self.seen[v.index()] == Mark::Clear {
                    self.seen[v.index()] = Mark::Removable;
                    self.analyze_toclear.push(v);
                }
                match self.analyze_stack.pop() {
                    Some(frame) => (v, k) = frame,
                    None => return true,
                }
            }
        }
    }

    /// Analyzes a conflict on an assumption: computes the subset of
    /// assumptions implying `¬p`, stored (as assumption literals) in
    /// `final_conflict`.
    fn analyze_final(&mut self, p: Lit) {
        self.final_conflict.clear();
        self.final_conflict.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = Mark::Seen;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[idx];
            let v = q.var();
            if self.seen[v.index()] != Mark::Seen {
                continue;
            }
            // Chronological unit learnts sit above `trail_lim[0]` with
            // recorded level 0 and no reason; root-implied literals never
            // contribute to the assumption core.
            if self.level(v) == 0 {
                self.seen[v.index()] = Mark::Clear;
                continue;
            }
            match self.reason(v) {
                None => {
                    debug_assert!(self.level(v) > 0);
                    // A decision above the root is an assumed literal; it is
                    // part of the contradictory subset.
                    self.final_conflict.push(q);
                }
                Some(cref) => {
                    // From 0: re-marking `v` itself is undone by the
                    // clear below, and binary reasons may hold the
                    // implied literal at either position.
                    for k in 0..self.db.len(cref) {
                        let l = self.db.lits(cref)[k];
                        if self.level(l.var()) > 0 {
                            self.seen[l.var().index()] = Mark::Seen;
                        }
                    }
                }
            }
            self.seen[v.index()] = Mark::Clear;
        }
        self.seen[p.var().index()] = Mark::Clear;
        self.final_conflict.sort_unstable();
        self.final_conflict.dedup();
    }

    fn reduce_db(&mut self) {
        self.stats.reduces += 1;
        let learnts_before = self.learnts.len();
        // Pick the deletion candidates: core clauses stay forever,
        // mid-tier clauses get one reduce interval to participate in a
        // conflict before demotion, and only the local pool is ranked.
        let mut ranked = Vec::new();
        for i in 0..self.learnts.len() {
            let c = self.learnts[i];
            if self.db.is_deleted(c) {
                continue;
            }
            match self.db.tier(c) {
                Tier::Core => {}
                Tier::Mid => {
                    if self.db.is_used(c) {
                        self.db.set_used(c, false);
                    } else {
                        self.db.set_tier(c, Tier::Local);
                        self.stats.tier_demotions += 1;
                        ranked.push(c);
                    }
                }
                Tier::Local => ranked.push(c),
            }
        }
        // Sort candidates: poor (high LBD, low activity) first.
        {
            let db = &self.db;
            ranked.sort_by(|&a, &b| {
                db.lbd(b).cmp(&db.lbd(a)).then(
                    db.activity(a)
                        .partial_cmp(&db.activity(b))
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            });
        }
        let half = ranked.len() / 2;
        ranked.truncate(half);
        ranked.retain(|&c| self.db.len(c) > 2 && !self.locked(c));
        for &c in &ranked {
            if let Some(proof) = &mut self.proof {
                proof.push(ProofStep::Delete(self.db.lits(c).to_vec()));
            }
            self.db.delete(c);
        }
        self.scrub_retired(&ranked);
        let db = &self.db;
        self.learnts.retain(|&c| !db.is_deleted(c));
        if self.db.wasted_ratio() > 0.3 {
            self.garbage_collect();
        }
        if self.recorder.is_enabled() {
            self.recorder.event(
                "sat.reduce_db",
                &[
                    ("learnts_before", learnts_before.into()),
                    ("learnts_after", self.learnts.len().into()),
                    ("conflicts", self.stats.conflicts.into()),
                ],
            );
        }
    }

    fn locked(&self, cref: ClauseRef) -> bool {
        // Long clauses keep the implied literal at position 0; binary
        // reasons may have it at either position.
        let lits = self.db.lits(cref);
        let locks = |l: Lit| self.value(l) == LBool::True && self.reason(l.var()) == Some(cref);
        // Binary and ternary reasons may have the implied literal at any
        // position (their watchers never reorder arena literals).
        locks(lits[0]) || (lits.len() <= 3 && lits[1..].iter().any(|&l| locks(l)))
    }

    fn garbage_collect(&mut self) {
        let remap = self.db.compact();
        self.watches.sweep(|w| match remap.get(w.cref) {
            Some(n) => {
                w.cref = n;
                true
            }
            None => false,
        });
        self.bin_watches.sweep(|w| match remap.get(w.cref) {
            Some(n) => {
                w.cref = n;
                true
            }
            None => false,
        });
        self.tern_watches.sweep(|w| match remap.get(w.cref) {
            Some(n) => {
                w.cref = n;
                true
            }
            None => false,
        });
        self.pending_strengthen
            .retain_mut(|p| match (remap.get(p.target), remap.get(p.support)) {
                (Some(t), Some(s)) => {
                    p.target = t;
                    p.support = s;
                    true
                }
                _ => false,
            });
        for vd in &mut self.vardata {
            if let Some(r) = vd.reason {
                vd.reason = remap.get(r);
            }
        }
        let translate = |list: &mut Vec<ClauseRef>| {
            list.retain_mut(|c| match remap.get(*c) {
                Some(n) => {
                    *c = n;
                    true
                }
                None => false,
            });
        };
        translate(&mut self.clauses);
        translate(&mut self.learnts);
    }

    /// Root-level database simplification.
    ///
    /// At decision level 0 this watches any pending clauses, removes
    /// clauses satisfied by root-fixed literals, strips root-falsified
    /// literals from the remaining clauses (re-allocating the shortened
    /// clause and retiring the original), and scrubs the retired clauses'
    /// watchers from the binary and ternary lists that held them; their
    /// long-clause watchers drop out lazily as propagation meets them.
    /// Runs automatically between restarts; the
    /// incremental window machinery calls it explicitly after permanently
    /// falsifying superseded activation literals, so the retired
    /// constraints are physically reclaimed rather than just skipped.
    ///
    /// Safe even for level-0 reasons: conflict analysis never traverses
    /// reasons of root-level literals.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if called above decision level 0. Through
    /// the public API the solver is always at the root between solves.
    pub fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.attach_pending();
        if !self.ok || self.trail.len() == self.simp_trail_len {
            return; // nothing newly fixed at the root since last time
        }
        debug_assert_eq!(self.qhead, self.trail.len(), "propagation incomplete");
        self.simp_trail_len = self.trail.len();
        self.stats.simplifies += 1;
        // The clauses this pass retires; only their lists get scrubbed.
        let mut retired = Vec::new();
        // Note on proofs: satisfied-clause deletions are NOT logged. They
        // remove clauses satisfied by root-propagated literals, and the
        // checker — which only sees clauses, not the solver's trail — may
        // still need them to re-derive those literals during later RUP
        // checks. Keeping them in the checker's database is always sound.
        // Strengthening IS logged (lemma + delete): the shortened clause
        // subsumes the original, so later RUP checks only get easier.
        for which in 0..2 {
            let list = std::mem::take(if which == 0 {
                &mut self.clauses
            } else {
                &mut self.learnts
            });
            let mut keep = Vec::with_capacity(list.len());
            'clauses: for c in list {
                if self.db.is_deleted(c) {
                    continue;
                }
                let mut falsified = 0usize;
                for &l in self.db.lits(c) {
                    match self.value(l) {
                        LBool::True => {
                            self.db.delete(c);
                            retired.push(c);
                            self.stats.simplify_removed += 1;
                            continue 'clauses;
                        }
                        LBool::False => falsified += 1,
                        LBool::Undef => {}
                    }
                }
                if falsified == 0 {
                    keep.push(c);
                    continue;
                }
                // Strip the root-falsified literals. The arena stores the
                // length in the clause header, so shortening means
                // allocating the shrunk clause and deleting the original.
                let shrunk: Vec<Lit> = self
                    .db
                    .lits(c)
                    .iter()
                    .copied()
                    .filter(|&l| self.value(l) != LBool::False)
                    .collect();
                // With root propagation complete, a non-satisfied clause
                // keeps at least two unfalsified literals (one unfalsified
                // literal would have been propagated, satisfying it).
                debug_assert!(shrunk.len() >= 2, "unit survived root propagation");
                if let Some(proof) = &mut self.proof {
                    proof.push(ProofStep::Lemma(shrunk.clone()));
                    proof.push(ProofStep::Delete(self.db.lits(c).to_vec()));
                }
                let learnt = self.db.is_learnt(c);
                let meta = learnt.then(|| (self.db.lbd(c), self.db.activity(c)));
                let new_cref = self.db.alloc(&shrunk, learnt);
                if let Some((old_lbd, old_act)) = meta {
                    self.db.set_lbd(new_cref, old_lbd.min(shrunk.len() as u32));
                    self.db.set_activity(new_cref, old_act);
                }
                self.db.delete(c);
                retired.push(c);
                self.attach(new_cref);
                keep.push(new_cref);
                self.stats.simplify_strengthened += 1;
            }
            *(if which == 0 {
                &mut self.clauses
            } else {
                &mut self.learnts
            }) = keep;
        }
        self.scrub_retired(&retired);
        if self.db.wasted_ratio() > 0.3 {
            self.garbage_collect();
        }
    }

    /// Drops the watchers of just-deleted clauses from the binary and
    /// ternary lists that held them, and only from those: two or three
    /// lists per clause, each scrubbed once, watcher order kept. Every
    /// binary or ternary deletion goes through here (`simplify`,
    /// `reduce_db`, `replace_clause`), so neither the binary nor the
    /// ternary scan ever meets a dead watcher and neither checks. Long
    /// lists keep dropping dead watchers lazily in `propagate`.
    fn scrub_retired(&mut self, retired: &[ClauseRef]) {
        let mut bin_codes = Vec::new();
        let mut tern_codes = Vec::new();
        for &c in retired {
            let lits = self.db.lits(c);
            let codes = match lits.len() {
                2 => &mut bin_codes,
                3 => &mut tern_codes,
                _ => continue,
            };
            codes.extend(lits.iter().map(|&l| (!l).code()));
        }
        let db = &self.db;
        bin_codes.sort_unstable();
        bin_codes.dedup();
        for code in bin_codes {
            self.bin_watches.retain(code, |w| !db.is_deleted(w.cref));
        }
        tern_codes.sort_unstable();
        tern_codes.dedup();
        for code in tern_codes {
            self.tern_watches.retain(code, |w| !db.is_deleted(w.cref));
        }
    }

    /// Replaces the clause at `clauses`/`learnts` slot `idx` (selected by
    /// `which`: 0 = irredundant, 1 = learnt) with `new`, a strict subset of
    /// its literals derived by vivification or self-subsumption.
    ///
    /// Proof order matters: the lemma is logged *before* the delete, so the
    /// checker verifies the shortened clause by RUP against a database that
    /// still contains the original. Because `new ⊆ old`, the new clause
    /// subsumes the old one and deleting the original is safe under any
    /// later incremental clause additions.
    fn replace_clause(&mut self, which: usize, idx: usize, new: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        let c = if which == 0 {
            self.clauses[idx]
        } else {
            self.learnts[idx]
        };
        if let Some(proof) = &mut self.proof {
            proof.push(ProofStep::Lemma(new.to_vec()));
            proof.push(ProofStep::Delete(self.db.lits(c).to_vec()));
        }
        match new.len() {
            0 => {
                // All literals refuted at the root: the formula is UNSAT.
                self.db.delete(c);
                self.scrub_retired(&[c]);
                self.ok = false;
                self.log_proof(|| ProofStep::Empty);
            }
            1 => {
                // The slot keeps the retired cref; long-list pruning is
                // lazy, but the ternary lists are clean before the unit
                // propagates.
                self.db.delete(c);
                self.scrub_retired(&[c]);
                match self.value(new[0]) {
                    LBool::True => {}
                    LBool::False => {
                        self.ok = false;
                        self.log_proof(|| ProofStep::Empty);
                    }
                    LBool::Undef => {
                        self.unchecked_enqueue(new[0], None);
                        if self.propagate().is_some() {
                            self.ok = false;
                            self.log_proof(|| ProofStep::Empty);
                        }
                    }
                }
            }
            _ => {
                let learnt = self.db.is_learnt(c);
                let new_cref = self.db.alloc(new, learnt);
                if learnt {
                    let lbd = self.db.lbd(c).min(new.len() as u32);
                    self.db.set_lbd(new_cref, lbd);
                    self.db.set_activity(new_cref, self.db.activity(c));
                    self.db
                        .set_tier(new_cref, self.db.tier(c).max(Tier::for_lbd(lbd)));
                }
                self.db.delete(c);
                self.scrub_retired(&[c]);
                self.attach(new_cref);
                if which == 0 {
                    self.clauses[idx] = new_cref;
                } else {
                    self.learnts[idx] = new_cref;
                }
            }
        }
    }

    /// One vivification pass over the clause database, budgeted in unit
    /// propagations. Candidates are irredundant clauses and high-value
    /// (core/mid tier) learnts of length ≥ 3 with no frozen variables;
    /// cursors rotate so successive passes cover the whole database.
    ///
    /// Vivifying clause `C`: at level 0, assume the negation of each
    /// literal in turn and propagate. Three shortening outcomes, all RUP
    /// with `C` still in the database: a conflict (the assumed prefix is a
    /// clause), a literal propagated true (prefix ∨ that literal), a
    /// literal propagated false (drop it). Saved phases are protected from
    /// the probe assignments.
    fn vivify_round(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.simplify();
        if !self.ok {
            return;
        }
        let budget = self.stats.propagations + VIVIFY_PROP_BUDGET;
        self.save_phases = false;
        for which in 0..2 {
            let len = if which == 0 {
                self.clauses.len()
            } else {
                self.learnts.len()
            };
            if len == 0 {
                continue;
            }
            let mut idx = self.viv_cursor[which] % len;
            for _ in 0..len {
                if !self.ok || self.stats.propagations >= budget {
                    break;
                }
                self.vivify_clause(which, idx);
                idx = (idx + 1) % len;
            }
            self.viv_cursor[which] = idx;
        }
        self.save_phases = true;
    }

    /// Vivifies one clause slot, if eligible (see [`Solver::vivify_round`]).
    fn vivify_clause(&mut self, which: usize, idx: usize) {
        let c = if which == 0 {
            self.clauses[idx]
        } else {
            self.learnts[idx]
        };
        if self.db.is_deleted(c) || self.db.len(c) < 3 {
            return;
        }
        if which == 1 && self.db.tier(c) == Tier::Local {
            return; // only distill learnts worth keeping
        }
        let lits: Vec<Lit> = self.db.lits(c).to_vec();
        if lits.iter().any(|&l| self.is_inprocess_frozen(l.var())) {
            return;
        }
        if lits.iter().any(|&l| self.value(l) == LBool::True) {
            return; // root-satisfied (possible mid-round); simplify retires it
        }
        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in &lits {
            match self.value(l) {
                // Implied by the negated prefix: clause = prefix ∨ l.
                LBool::True => {
                    kept.push(l);
                    break;
                }
                // Refuted under the negated prefix: l is redundant.
                LBool::False => {}
                LBool::Undef => {
                    kept.push(l);
                    self.new_decision_level();
                    self.unchecked_enqueue(!l, None);
                    if self.propagate().is_some() {
                        // F ∧ ¬prefix is contradictory: prefix is a clause.
                        break;
                    }
                }
            }
        }
        self.cancel_until(0);
        if kept.len() < lits.len() {
            self.stats.vivified += 1;
            self.replace_clause(which, idx, &kept);
        }
    }

    /// During conflict analysis: if the just-learned clause resolves with
    /// the conflicting clause to a strict subset of it (`learnt[1..] ⊆
    /// confl` and `¬learnt[0] ∈ confl`), queue `confl \ {¬learnt[0]}` for
    /// application at the next level-0 boundary — applying mid-search
    /// would require re-watching an all-false clause. The support cref is
    /// remembered so the rewrite is only applied (and proof-logged) while
    /// both clauses are still alive, keeping the lemma RUP for the checker.
    fn maybe_queue_strengthen(&mut self, confl: ClauseRef, learnt: &[Lit], support: ClauseRef) {
        if learnt.len() < 2
            || self.pending_strengthen.len() >= MAX_PENDING_STRENGTHEN
            || self.db.is_deleted(confl)
            || self.db.len(confl) <= learnt.len()
        {
            return;
        }
        let remove = !learnt[0];
        self.lit_set.clear();
        for &l in &learnt[1..] {
            self.lit_set.insert(l.code());
        }
        let mut hits = 0usize;
        let mut has_remove = false;
        for k in 0..self.db.len(confl) {
            let q = self.db.lits(confl)[k];
            if self.is_inprocess_frozen(q.var()) {
                return;
            }
            if q == remove {
                has_remove = true;
            } else if self.lit_set.contains(q.code()) {
                hits += 1;
            }
        }
        if has_remove && hits == learnt.len() - 1 {
            self.pending_strengthen.push(PendingStrengthen {
                target: confl,
                remove,
                support,
            });
        }
    }

    /// Applies queued self-subsumption rewrites at decision level 0.
    fn apply_pending_strengthenings(&mut self) {
        if self.pending_strengthen.is_empty() {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let pending = std::mem::take(&mut self.pending_strengthen);
        for p in pending {
            if !self.ok {
                break;
            }
            // Both clauses must still be alive: the target is what we
            // rewrite, and the support is what makes the shortened clause
            // RUP-checkable (the checker's database tracks ours).
            if self.db.is_deleted(p.target) || self.db.is_deleted(p.support) {
                continue;
            }
            let lits = self.db.lits(p.target).to_vec();
            if !lits.contains(&p.remove) || lits.iter().any(|&l| self.value(l) == LBool::True) {
                continue; // superseded by another rewrite or root-satisfied
            }
            let kept: Vec<Lit> = lits
                .iter()
                .copied()
                .filter(|&l| l != p.remove && self.value(l) != LBool::False)
                .collect();
            let which = usize::from(self.db.is_learnt(p.target));
            let list = if which == 0 {
                &self.clauses
            } else {
                &self.learnts
            };
            let Some(idx) = list.iter().position(|&c| c == p.target) else {
                continue;
            };
            self.replace_clause(which, idx, &kept);
            self.stats.strengthened += 1;
        }
    }

    /// Rephases all saved phases from the best (longest) trail seen, then
    /// resets the tracker so a new best can form. When target phases are
    /// set (the synthesis incumbent), alternate passes copy the targets
    /// instead, steering the search back toward the best layout found.
    fn rephase(&mut self) {
        let use_target = self.rephase_flip && self.target_phase.iter().any(|t| *t != LBool::Undef);
        self.rephase_flip = !self.rephase_flip;
        if use_target {
            self.stats.rephases += 1;
            self.stats.target_rephases += 1;
            let n = self.target_phase.len().min(self.phase.len());
            for v in 0..n {
                if let Some(b) = self.target_phase[v].to_option() {
                    self.phase[v] = b;
                }
            }
            self.best_trail_len = 0;
            return;
        }
        if self.best_phase.is_empty() {
            return; // no conflict recorded a best trail yet
        }
        self.stats.rephases += 1;
        let n = self.best_phase.len().min(self.phase.len());
        self.phase[..n].copy_from_slice(&self.best_phase[..n]);
        self.best_trail_len = 0;
    }

    /// Level-0 inprocessing dispatcher, called at restart boundaries.
    fn maybe_inprocess(&mut self) {
        if !self.ok {
            return;
        }
        self.apply_pending_strengthenings();
        if self.ok && self.stats.conflicts >= self.next_vivify {
            self.vivify_round();
            self.next_vivify = self.stats.conflicts + self.tuning.vivify_interval;
        }
        if self.stats.conflicts >= self.next_rephase {
            self.rephase();
            self.next_rephase = self.stats.conflicts + self.tuning.rephase_interval;
        }
    }

    fn luby(mut x: u64) -> u64 {
        // Luby sequence: 1,1,2,1,1,2,4,...
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|stop| stop.load(Ordering::Relaxed))
    }

    fn out_of_budget(&self) -> bool {
        if let Some(limit) = self.conflict_budget {
            if self.stats.conflicts >= limit {
                return true;
            }
        }
        if self.stop_requested() {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.stats.conflicts.is_multiple_of(256) && Instant::now() >= deadline {
                return true;
            }
        }
        false
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop(&self.activity)?;
            if self.vals[Lit::positive(v).code()] == LBool::Undef {
                return Some(Lit::new(v, !self.branch_phase(v)));
            }
        }
    }

    /// Polarity for a fresh decision: the target phase when one is set,
    /// otherwise the saved phase.
    #[inline]
    fn branch_phase(&self, v: Var) -> bool {
        self.target_phase
            .get(v.index())
            .and_then(|t| t.to_option())
            .unwrap_or(self.phase[v.index()])
    }

    /// Solves under the given assumptions.
    ///
    /// Returns [`SolveResult::Sat`] with a model, [`SolveResult::Unsat`]
    /// with a final conflict over the assumptions, or
    /// [`SolveResult::Unknown`] if a budget expired. The solver is left at
    /// the root level and can be reused incrementally.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            self.final_conflict.clear();
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        self.attach_pending();
        self.seen.resize(self.num_vars(), Mark::Clear);
        self.lit_set.grow(2 * self.num_vars());
        // Every decision level holds a decision or an assumption.
        self.level_set.grow(self.num_vars() + assumptions.len() + 1);
        self.model.clear();
        self.final_conflict.clear();
        // Assumption variables are off-limits to inprocessing for the
        // whole call: rewriting a clause based on what an assumption
        // propagates would bake a per-call hypothesis into the database.
        // (Level-0 inprocessing never sees assumption values — they are
        // undone at every restart — but the freeze also keeps activation
        // literals pinned in their guard clauses.)
        self.assumption_frozen.clear();
        self.assumption_frozen.resize(self.num_vars(), false);
        for a in assumptions {
            self.assumption_frozen[a.var().index()] = true;
        }
        // A cooperative stop may have been raised between incremental
        // solves (e.g. by a job cancel); honor it before searching so
        // cancellation works even for solves that would finish conflict-free.
        if self.stop_requested() {
            return SolveResult::Unknown;
        }

        let stats_before = self.stats;
        let mut curr_restarts = 0u64;
        let result = loop {
            let budget = self.tuning.restart_base * Self::luby(curr_restarts);
            match self.search(budget, assumptions) {
                Some(r) => break r,
                None => {
                    curr_restarts += 1;
                    self.stats.restarts += 1;
                    // Restart boundary: back at decision level 0, the
                    // canonical safe point to run inprocessing.
                    self.maybe_inprocess();
                    if !self.ok {
                        self.final_conflict.clear();
                        break SolveResult::Unsat;
                    }
                    if self.recorder.is_enabled() {
                        // Timestamped conflict totals let a trace consumer
                        // derive the conflict rate between restarts.
                        self.recorder.event(
                            "sat.restart",
                            &[
                                ("restart", curr_restarts.into()),
                                (
                                    "conflicts",
                                    (self.stats.conflicts - stats_before.conflicts).into(),
                                ),
                                ("learnts", self.learnts.len().into()),
                            ],
                        );
                    }
                    if self.out_of_budget() {
                        break SolveResult::Unknown;
                    }
                }
            }
        };
        // (A root conflict discovered while settling is recorded in
        // `ok`; the verdict for *this* call is already decided.)
        self.settle_root();
        // Assumption-core lemma: at the moment `analyze_final` ran, the
        // core assumptions propagated to a contradiction using reason
        // clauses that are all in the proof log, so the negated core is
        // RUP here. (An empty core means global UNSAT; `Empty` is
        // already logged on that path.)
        if self.core_lemmas && result == SolveResult::Unsat && !self.final_conflict.is_empty() {
            let core = self.final_conflict.clone();
            self.log_proof(|| ProofStep::Lemma(core.iter().map(|&l| !l).collect()));
        }
        if self.recorder.is_enabled() {
            let d = self.stats;
            self.recorder.add("sat.solves", 1);
            self.recorder
                .add("sat.conflicts", d.conflicts - stats_before.conflicts);
            self.recorder
                .add("sat.decisions", d.decisions - stats_before.decisions);
            self.recorder.add(
                "sat.propagations",
                d.propagations - stats_before.propagations,
            );
            self.recorder
                .add("sat.restarts", d.restarts - stats_before.restarts);
            self.recorder
                .add("sat.reduces", d.reduces - stats_before.reduces);
            self.recorder.add(
                "sat.minimized_lits",
                d.minimized_lits - stats_before.minimized_lits,
            );
            self.recorder
                .add("sat.simplifies", d.simplifies - stats_before.simplifies);
            self.recorder.add(
                "sat.simplify_removed",
                d.simplify_removed - stats_before.simplify_removed,
            );
            self.recorder.add(
                "sat.simplify_strengthened",
                d.simplify_strengthened - stats_before.simplify_strengthened,
            );
            self.recorder
                .add("sat.vivified", d.vivified - stats_before.vivified);
            self.recorder.add(
                "sat.strengthened",
                d.strengthened - stats_before.strengthened,
            );
            self.recorder.add(
                "sat.binary_props",
                d.binary_props - stats_before.binary_props,
            );
            self.recorder.add(
                "sat.tier_demotions",
                d.tier_demotions - stats_before.tier_demotions,
            );
            self.recorder
                .add("sat.rephases", d.rephases - stats_before.rephases);
            self.recorder.add(
                "sat.chrono_backtracks",
                d.chrono_backtracks - stats_before.chrono_backtracks,
            );
            self.recorder.add(
                "sat.blocked_restarts",
                d.blocked_restarts - stats_before.blocked_restarts,
            );
            self.recorder.add(
                "sat.target_rephases",
                d.target_rephases - stats_before.target_rephases,
            );
        }
        result
    }

    /// Folds one learnt clause's LBD into the fast/slow moving averages
    /// (Glucose-style search-quality signals; the flight recorder samples
    /// both).
    #[inline]
    fn update_lbd_emas(&mut self, lbd: u32) {
        let lbd = f64::from(lbd);
        self.lbd_ema_fast += (lbd - self.lbd_ema_fast) / 32.0;
        self.lbd_ema_slow += (lbd - self.lbd_ema_slow) / 4096.0;
        self.lbd_sum += lbd;
    }

    /// Restart decision for the current search pass: due once the Luby
    /// budget runs out, or as soon as the fast LBD EMA rises `GLUCOSE_K`
    /// above the long-run LBD average (recent learning is unusually
    /// poor), unless the trail is much deeper than its long-run
    /// conflict-time average — then the search looks close to a model and
    /// the restart is postponed for another `GLUCOSE_MIN_CONFLICTS`
    /// conflicts.
    fn restart_due(&mut self, conflicts_here: u64, conflict_limit: u64) -> bool {
        let budget_due = conflicts_here >= conflict_limit;
        if self.stats.conflicts < self.restart_hold {
            return false;
        }
        let warm = self.avg_conflicts >= GLUCOSE_MIN_CONFLICTS;
        let lbd_due = conflicts_here >= GLUCOSE_MIN_CONFLICTS
            && warm
            && self.lbd_ema_fast > GLUCOSE_K * (self.lbd_sum / self.avg_conflicts as f64);
        if !(budget_due || lbd_due) {
            return false;
        }
        if warm
            && (self.trail.len() as f64)
                > RESTART_BLOCK_R * (self.trail_depth_sum / self.avg_conflicts as f64)
        {
            self.stats.blocked_restarts += 1;
            self.restart_hold = self.stats.conflicts + GLUCOSE_MIN_CONFLICTS;
            return false;
        }
        // Re-arm the trigger: the fast EMA restarts from the long-run
        // average, the Glucose analogue of clearing the bounded queue.
        if self.avg_conflicts > 0 {
            self.lbd_ema_fast = self.lbd_sum / self.avg_conflicts as f64;
        }
        true
    }

    /// Backtracks to the root and restores the propagation fixpoint
    /// there. Chronological trail repair relocates root-recorded literals
    /// and rewinds `qhead`, so their implications must be recomputed
    /// before `simplify` or the next search pass runs. Returns `false`
    /// when root propagation conflicts: the formula is globally UNSAT.
    fn settle_root(&mut self) -> bool {
        self.cancel_until(0);
        if self.qhead < self.trail.len() && self.propagate().is_some() {
            self.ok = false;
            self.final_conflict.clear();
            self.log_proof(|| ProofStep::Empty);
            return false;
        }
        true
    }

    /// Records one flight sample of the post-backjump search state. Only
    /// called when [`Probe::sample_due`] fired, so the learnt-tier scan
    /// stays off the per-conflict path.
    fn emit_flight_sample(&self) {
        let (mut core, mut mid, mut local) = (0u64, 0u64, 0u64);
        for &c in &self.learnts {
            match self.db.tier(c) {
                Tier::Core => core += 1,
                Tier::Mid => mid += 1,
                Tier::Local => local += 1,
            }
        }
        self.probe.record(SearchSample {
            source: SampleSource::Search,
            at_us: 0, // stamped by the probe
            conflicts: self.stats.conflicts,
            decisions: self.stats.decisions,
            propagations: self.stats.propagations,
            restarts: self.stats.restarts,
            reduces: self.stats.reduces,
            rephases: self.stats.rephases,
            trail_len: self.trail.len() as u64,
            decision_level: u64::from(self.decision_level()),
            lbd_ema_fast: self.lbd_ema_fast,
            lbd_ema_slow: self.lbd_ema_slow,
            learnts_core: core,
            learnts_mid: mid,
            learnts_local: local,
            exported: 0,
            imported: 0,
            pool_depth: 0,
            queue_len: 0,
            chrono_backtracks: self.stats.chrono_backtracks,
            blocked_restarts: self.stats.blocked_restarts,
        });
    }

    /// Runs CDCL search for up to `conflict_limit` conflicts.
    /// `Some(result)` terminates; `None` requests a restart.
    fn search(&mut self, conflict_limit: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                // Long-run averages for the Glucose restart policy (the
                // LBD half accumulates in `update_lbd_emas`).
                self.trail_depth_sum += self.trail.len() as f64;
                self.avg_conflicts += 1;
                if self.trail.len() > self.best_trail_len {
                    // The trail is at its longest right at the conflict;
                    // remember the polarities of the deepest one seen.
                    self.best_trail_len = self.trail.len();
                    if self.best_phase.len() < self.phase.len() {
                        self.best_phase = self.phase.clone();
                    }
                    for &l in &self.trail {
                        self.best_phase[l.var().index()] = l.is_positive();
                    }
                }
                // Under chronological backtracking the conflict may live
                // entirely below the current decision level (out-of-order
                // assignments); drop to the conflict's own level first so
                // analyze sees it as the current one. Every literal of the
                // conflicting clause survives the repair, so it is still
                // falsified afterwards.
                let mut clevel = 0;
                for k in 0..self.db.len(confl) {
                    clevel = clevel.max(self.level(self.db.lits(confl)[k].var()));
                }
                if clevel < self.decision_level() {
                    self.cancel_until(clevel);
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.final_conflict.clear();
                    self.log_proof(|| ProofStep::Empty);
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.log_proof(|| ProofStep::Lemma(learnt.clone()));
                // Chronological backtracking: a long jump discards a whole
                // subtree of still-consistent assignments; undo one level
                // instead and record the asserting literal at its
                // assertion level.
                let dl = self.decision_level();
                let target = if dl - bt > self.tuning.chrono_threshold {
                    self.stats.chrono_backtracks += 1;
                    dl - 1
                } else {
                    bt
                };
                self.cancel_until(target);
                if learnt.len() == 1 {
                    self.update_lbd_emas(1);
                    self.unchecked_enqueue_at(learnt[0], None, 0);
                } else {
                    let cref = self.db.alloc(&learnt, true);
                    let lbd = distinct_levels(&mut self.level_set, &self.vardata, &learnt);
                    self.update_lbd_emas(lbd);
                    self.db.set_lbd(cref, lbd);
                    self.db.set_tier(cref, Tier::for_lbd(lbd));
                    self.learnts.push(cref);
                    self.attach(cref);
                    self.bump_clause(cref);
                    self.unchecked_enqueue_at(learnt[0], Some(cref), bt);
                    self.maybe_queue_strengthen(confl, &learnt, cref);
                }
                self.decay_activities();
                if self.probe.sample_due(self.stats.conflicts) {
                    self.emit_flight_sample();
                }
                if self.out_of_budget() {
                    if !self.settle_root() {
                        return Some(SolveResult::Unsat);
                    }
                    return Some(SolveResult::Unknown);
                }
            } else {
                if self.restart_due(conflicts_here, conflict_limit) {
                    if !self.settle_root() {
                        return Some(SolveResult::Unsat);
                    }
                    return None; // restart
                }
                if self.decision_level() == 0 {
                    self.simplify();
                }
                if self.learnts.len() as u64 >= self.next_reduce {
                    self.next_reduce += self.reduce_inc;
                    self.reduce_db();
                }
                // Extend the assumption prefix.
                let mut assumed = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.analyze_final(p);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            self.new_decision_level();
                            self.unchecked_enqueue(p, None);
                            assumed = true;
                            break;
                        }
                    }
                }
                if assumed {
                    continue; // propagate the just-assumed literal first
                }
                match self.pick_branch() {
                    None => {
                        // All variables assigned: model found. The
                        // positive literals' values are the variables'.
                        self.model.extend(self.vals.iter().step_by(2));
                        return Some(SolveResult::Sat);
                    }
                    Some(next) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        self.unchecked_enqueue(next, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(s.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0]]);
        s.add_clause([!v[0], v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        assert!(!s.add_clause([!v[0]]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn unsat_via_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], !v[1]]);
        s.add_clause([!v[0], v[2]]);
        s.add_clause([!v[2], v[3]]);
        s.add_clause([!v[0], !v[3]]);
        // v0 forced true, then v2, v3, contradiction with ¬v3.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    /// Two solvers' stats add counter by counter. Every counter holds a
    /// different value, so one added into the wrong field shows.
    #[test]
    fn stats_add_every_counter() {
        let one = Stats {
            conflicts: 1,
            decisions: 2,
            propagations: 3,
            restarts: 4,
            learnts: 5,
            reduces: 6,
            minimized_lits: 7,
            simplifies: 8,
            simplify_removed: 9,
            simplify_strengthened: 10,
            vivified: 11,
            strengthened: 12,
            binary_props: 13,
            ternary_props: 14,
            tier_demotions: 15,
            rephases: 16,
            chrono_backtracks: 17,
            blocked_restarts: 18,
            target_rephases: 19,
        };
        let mut sum = Stats::default();
        sum += one;
        sum += one;
        assert_eq!(
            sum,
            Stats {
                conflicts: 2,
                decisions: 4,
                propagations: 6,
                restarts: 8,
                learnts: 10,
                reduces: 12,
                minimized_lits: 14,
                simplifies: 16,
                simplify_removed: 18,
                simplify_strengthened: 20,
                vivified: 22,
                strengthened: 24,
                binary_props: 26,
                ternary_props: 28,
                tier_demotions: 30,
                rephases: 32,
                chrono_backtracks: 34,
                blocked_restarts: 36,
                target_rephases: 38,
            }
        );
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: x[p][h].
        let mut s = Solver::new();
        let mut x = [[Lit(0); 2]; 3];
        for p in 0..3 {
            for h in 0..2 {
                x[p][h] = Lit::positive(s.new_var());
            }
        }
        for p in 0..3 {
            s.add_clause([x[p][0], x[p][1]]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause([!x[p1][h], !x[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn probe_samples_the_search_every_conflict() {
        // 5 pigeons, 4 holes: enough conflicts to fill a small ring.
        let mut s = Solver::new();
        s.set_probe(Probe::new(256, 1));
        let mut x = [[Lit(0); 4]; 5];
        for p in 0..5 {
            for h in 0..4 {
                x[p][h] = Lit::positive(s.new_var());
            }
        }
        for p in 0..5 {
            s.add_clause(x[p]);
        }
        for h in 0..4 {
            for p1 in 0..5 {
                for p2 in (p1 + 1)..5 {
                    s.add_clause([!x[p1][h], !x[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let probe = s.probe();
        assert!(probe.emitted() > 0, "search must have sampled");
        let samples = probe.snapshot();
        let mut last_conflicts = 0;
        for (_, smp) in &samples {
            assert_eq!(smp.source, SampleSource::Search);
            assert!(smp.conflicts >= last_conflicts, "conflicts are cumulative");
            last_conflicts = smp.conflicts;
            assert!(smp.lbd_ema_fast > 0.0 && smp.lbd_ema_slow > 0.0);
        }
        let (fast, slow) = (s.lbd_ema_fast, s.lbd_ema_slow);
        assert!(fast > 0.0 && slow > 0.0);
        // Fast horizon moves further from zero than the slow one early on.
        assert!(fast >= slow);
    }

    #[test]
    fn assumptions_and_final_conflict() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([!v[0], !v[1]]);
        assert_eq!(s.solve(&[v[0], v[1]]), SolveResult::Unsat);
        let fc = s.final_conflict().to_vec();
        assert!(fc.contains(&v[1]) || fc.contains(&v[0]));
        // Without assumptions it is satisfiable again.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Irrelevant assumption set is fine.
        assert_eq!(s.solve(&[v[2]]), SolveResult::Sat);
        assert_eq!(s.model_value(v[2]), Some(true));
    }

    #[test]
    fn incremental_add_between_solves() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause([!v[0]]);
        s.add_clause([!v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(v[2]), Some(true));
        s.add_clause([!v[2]]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        // Solver stays UNSAT forever afterwards.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown_on_hard_instance() {
        // A random-ish parity/pigeonhole mix the solver cannot finish in 1 conflict.
        let mut s = Solver::new();
        let n = 8;
        let mut x = Vec::new();
        for _ in 0..n {
            x.push(Lit::positive(s.new_var()));
        }
        for p in 0..n {
            let clause: Vec<Lit> = (0..n - 1).map(|h| x[(p + h) % n]).collect();
            s.add_clause(clause);
        }
        for h in 0..n - 1 {
            for p1 in 0..n {
                for p2 in (p1 + 1)..n {
                    if (p1 + p2 + h) % 3 == 0 {
                        s.add_clause([!x[p1], !x[p2]]);
                    }
                }
            }
        }
        s.set_conflict_budget(Some(1));
        let r = s.solve(&[]);
        // With 1 conflict of budget the outcome must not be trusted SAT with
        // a wrong model — it is either solved instantly or Unknown.
        if r == SolveResult::Unknown {
            s.set_conflict_budget(None);
            let r2 = s.solve(&[]);
            assert_ne!(r2, SolveResult::Unknown);
        }
    }

    #[test]
    fn tautology_and_duplicates_are_handled() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause([v[0], !v[0]])); // tautology: dropped
        assert!(s.add_clause([v[1], v[1], v[1]])); // dedup to unit
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn assumption_repeated_and_implied() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([!v[0], v[1]]);
        assert_eq!(s.solve(&[v[0], v[0], v[1]]), SolveResult::Sat);
        assert_eq!(s.solve(&[v[0], !v[1]]), SolveResult::Unsat);
    }

    #[test]
    fn model_covers_unconstrained_vars() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.add_clause([v[0]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for l in v {
            assert!(s.model_value(l).is_some());
        }
    }

    #[test]
    fn lookahead_counts_implications_and_detects_conflicts() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        s.add_clause([!v[3], !v[0]]);
        // v0 implies v1 and v2 by unit propagation plus ¬v3.
        assert_eq!(s.lookahead(&[v[0]]), Some(3));
        // Probing a UP-contradictory pair conflicts.
        assert_eq!(s.lookahead(&[v[0], v[3]]), None);
        // The probe left nothing behind: the solver still answers SAT and
        // can assign v3 with ¬v0.
        assert_eq!(s.solve(&[v[3]]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(false));
    }

    #[test]
    fn lookahead_is_idempotent_between_solves() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([v[2], v[3]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let a = s.lookahead(&[v[0]]);
        let b = s.lookahead(&[v[0]]);
        assert_eq!(a, b);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn core_lemmas_are_rup_checkable() {
        let mut s = Solver::new();
        s.enable_proof();
        s.set_core_lemmas(true);
        let v = lits(&mut s, 4);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        s.add_clause([!v[2], !v[3]]);
        assert_eq!(s.solve(&[v[0], v[3]]), SolveResult::Unsat);
        let core = s.final_conflict().to_vec();
        assert!(!core.is_empty());
        let proof = s.take_proof().expect("proof enabled");
        // The log ends with the negated core; closing it with assumption
        // units makes a full refutation the checker accepts.
        let last = proof.steps().last().expect("core lemma logged");
        let negated: Vec<Lit> = core.iter().map(|&l| !l).collect();
        assert_eq!(last, &ProofStep::Lemma(negated));
        let mut closed = Proof::new();
        for step in proof.steps() {
            closed.push(step.clone());
        }
        for &a in &core {
            closed.push(ProofStep::Original(vec![a]));
        }
        closed.push(ProofStep::Empty);
        closed.check().expect("stitched refutation must be RUP");
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..9).map(Solver::luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }

    #[test]
    fn recorder_accumulates_per_solve_deltas() {
        let mut s = Solver::new();
        let rec = Recorder::new();
        s.set_recorder(rec.clone());
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[2]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[!v[2], v[0]]), SolveResult::Unsat);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["sat.solves"], 2);
        // The counters mirror the solver's own cumulative stats.
        assert_eq!(snap.counters["sat.decisions"], s.stats().decisions);
        assert_eq!(snap.counters["sat.propagations"], s.stats().propagations);
    }

    #[test]
    fn simplify_removes_root_satisfied_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[2]]);
        let before = s.num_clauses();
        // Fixing v0 at the root satisfies both clauses; units propagate
        // eagerly so simplify sees the fixed trail immediately.
        s.add_clause([v[0]]);
        s.simplify();
        assert!(s.stats().simplify_removed >= 2);
        assert!(s.num_clauses() <= before - 2);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn simplify_strips_root_falsified_literals() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        s.add_clause([!v[0]]);
        s.simplify();
        assert!(s.stats().simplify_strengthened >= 1);
        // The clause shrank to [v1, v2]: forbidding v1 must force v2.
        assert_eq!(s.solve(&[!v[1]]), SolveResult::Sat);
        assert_eq!(s.model_value(v[2]), Some(true));
    }

    #[test]
    fn simplify_keeps_proof_checkable() {
        let mut s = Solver::new();
        s.enable_proof();
        let v = lits(&mut s, 3);
        // Unsatisfiable core over v0..v2 with some root units to strip.
        s.add_clause([v[0], v[1], v[2]]);
        s.add_clause([v[0], v[1], !v[2]]);
        s.add_clause([v[0], !v[1]]);
        s.add_clause([!v[0]]);
        s.simplify();
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let proof = s.take_proof().expect("proof recording was enabled");
        assert!(proof.claims_unsat());
        assert!(proof.check().is_ok());
    }

    #[test]
    fn binary_watches_serve_pigeonhole_propagations() {
        // The pigeonhole stays UNSAT, and its at-most-one pairs propagate
        // through the binary lists.
        let mut s = Solver::new();
        let mut x = [[Lit(0); 3]; 4];
        for p in 0..4 {
            for h in 0..3 {
                x[p][h] = Lit::positive(s.new_var());
            }
        }
        for p in 0..4 {
            s.add_clause(x[p]);
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause([!x[p1][h], !x[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().binary_props > 0);
    }

    #[test]
    fn vivification_shortens_clauses_and_stays_sound() {
        let mut s = Solver::new();
        s.enable_proof();
        let v = lits(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        // Under ¬a ∧ ¬b the second clause propagates c, refuting ¬c in the
        // first — vivification strips it to (a ∨ b).
        s.add_clause([a, b, !c]);
        s.add_clause([a, b, c]);
        s.vivify_round();
        assert!(s.stats().vivified >= 1);
        // The strengthened database must behave like the original: a and b
        // both false is now a direct conflict.
        assert_eq!(s.solve(&[!a, !b]), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause([!a]);
        s.add_clause([!b]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let proof = s.take_proof().expect("proof enabled");
        assert!(proof.claims_unsat());
        proof
            .check()
            .expect("vivified proof must stay RUP-checkable");
    }

    #[test]
    fn inprocess_floor_freezes_variables() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], !v[2]]);
        s.add_clause([v[0], v[1], v[2]]);
        // Same vivifiable pair as above, but everything is frozen.
        s.set_inprocess_floor(0);
        s.vivify_round();
        assert_eq!(s.stats().vivified, 0);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn pending_strengthen_applies_and_keeps_proof() {
        let mut s = Solver::new();
        s.enable_proof();
        let v = lits(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        s.add_clause([a, b, c]); // target
        s.add_clause([!c, a, b]); // support: resolving on c yields (a ∨ b)
        let target = s.clauses[0];
        let support = s.clauses[1];
        s.pending_strengthen.push(PendingStrengthen {
            target,
            remove: c,
            support,
        });
        s.apply_pending_strengthenings();
        assert_eq!(s.stats().strengthened, 1);
        assert_eq!(s.db.len(s.clauses[0]), 2);
        assert_eq!(s.solve(&[!a, !b]), SolveResult::Unsat);
        s.add_clause([!a]);
        s.add_clause([!b]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let proof = s.take_proof().expect("proof enabled");
        proof
            .check()
            .expect("strengthened proof must stay RUP-checkable");
    }

    #[test]
    fn aggressive_inprocessing_cadence_still_answers_correctly() {
        // Inprocess at every restart with unit restarts: the pigeonhole
        // stays UNSAT, rephasing fires, and the proof checks.
        let mut s = Solver::new();
        s.enable_proof();
        s.set_tuning(SolverTuning {
            vivify_interval: 1,
            rephase_interval: 1,
            restart_base: 1,
            ..SolverTuning::default()
        });
        let mut x = [[Lit(0); 3]; 4];
        for p in 0..4 {
            for h in 0..3 {
                x[p][h] = Lit::positive(s.new_var());
            }
        }
        for p in 0..4 {
            s.add_clause(x[p]);
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause([!x[p1][h], !x[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().rephases >= 1);
        let proof = s.take_proof().expect("proof enabled");
        assert!(proof.claims_unsat());
        proof.check().expect("inprocessed proof must check");
    }

    #[test]
    fn simplify_counter_and_unchanged_trail_skip() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0]]);
        s.simplify();
        let after_first = s.stats().simplifies;
        assert!(after_first >= 1);
        // Nothing newly fixed at the root: the second call is a no-op.
        s.simplify();
        assert_eq!(s.stats().simplifies, after_first);
    }

    /// Fully chronological tuning: every conflict undoes one level.
    fn chrono_tuning() -> SolverTuning {
        SolverTuning {
            chrono_threshold: 0,
            ..SolverTuning::default()
        }
    }

    /// The trail invariant chronological backtracking must preserve: a
    /// literal's recorded level never exceeds the index of the decision
    /// block it physically sits in, and literals kept across a repair are
    /// never decisions.
    fn assert_trail_invariants(s: &Solver) {
        for (pos, &lit) in s.trail.iter().enumerate() {
            // Block index = number of decision boundaries at or before pos.
            let block = s.trail_lim.iter().filter(|&&lim| lim <= pos).count() as u32;
            assert!(
                s.level(lit.var()) <= block,
                "trail[{pos}] = {lit:?} recorded at level {} but sits in block {block}",
                s.level(lit.var())
            );
        }
        for (level, &lim) in s.trail_lim.iter().enumerate() {
            let v = s.trail[lim].var();
            assert_eq!(
                s.level(v),
                level as u32 + 1,
                "block boundary {level} does not hold its decision"
            );
        }
    }

    #[test]
    fn chrono_cancel_until_repairs_out_of_order_trail() {
        // Build the exact state chronological backtracking creates: an
        // asserting literal recorded at level 1 physically inside block 2,
        // then repair back to level 1 and to the root.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        s.add_clause([!a, c]);
        let reason = *s.clauses.last().expect("clause stored");

        s.new_decision_level();
        s.unchecked_enqueue(a, None); // decision block 1
        s.new_decision_level();
        s.unchecked_enqueue(b, None); // decision block 2
        s.unchecked_enqueue_at(c, Some(reason), 1); // out-of-order: level 1 in block 2
        s.new_decision_level();
        s.unchecked_enqueue(d, None); // decision block 3
        assert_trail_invariants(&s);

        s.cancel_until(1);
        // b and d (levels 2 and 3) are undone; a and the relocated c stay.
        assert_eq!(s.decision_level(), 1);
        assert_eq!(s.trail, vec![a, c]);
        assert_eq!(s.value(a), LBool::True);
        assert_eq!(s.value(c), LBool::True);
        assert_eq!(s.value(b), LBool::Undef);
        assert_eq!(s.value(d), LBool::Undef);
        assert_eq!(s.level(c.var()), 1);
        // Kept literals re-propagate: qhead rewound to the repair point.
        assert_eq!(s.qhead, 1);
        assert_trail_invariants(&s);

        s.cancel_until(0);
        assert_eq!(s.decision_level(), 0);
        assert!(s.trail.is_empty());
        assert_eq!(s.value(a), LBool::Undef);
        assert_eq!(s.value(c), LBool::Undef);
    }

    #[test]
    fn chrono_solve_settles_at_propagated_root() {
        // After any solve under chronological backtracking the solver
        // must sit at a fully propagated root: relocated literals are
        // level 0 and `qhead` has caught up (otherwise a later
        // `simplify` or incremental solve would run on a stale fixpoint).
        let mut s = Solver::new();
        s.set_tuning(chrono_tuning());
        let mut x = [[Lit(0); 4]; 5];
        for p in 0..5 {
            for h in 0..4 {
                x[p][h] = Lit::positive(s.new_var());
            }
        }
        for p in 0..5 {
            s.add_clause(x[p]);
        }
        for h in 0..4 {
            for p1 in 0..5 {
                for p2 in (p1 + 1)..5 {
                    s.add_clause([!x[p1][h], !x[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(
            s.stats().chrono_backtracks > 0,
            "threshold 0 must take the chronological path"
        );
        assert_eq!(s.decision_level(), 0);
        assert_eq!(s.qhead, s.trail.len(), "root fixpoint not restored");
        for &lit in &s.trail {
            assert_eq!(s.level(lit.var()), 0);
        }
    }

    #[test]
    fn chrono_analyze_final_cores_stay_sound() {
        // Seeded mini-fuzz of assumption solving under full chrono: the
        // final conflict must name only assumptions, and the named subset
        // must be genuinely contradictory by enumeration. Unit learnts
        // recorded at level 0 (reason `None`) are exactly the literals
        // `analyze_final` must skip rather than expand.
        let mut rng = olsq2_prng::Rng::seed_from_u64(0xC4B0_0001);
        for round in 0..80 {
            let num_vars = rng.gen_range(3usize..=9);
            let num_clauses = rng.gen_range(6usize..=30);
            let clauses: Vec<Vec<i32>> = (0..num_clauses)
                .map(|_| {
                    let len = rng.gen_range(1usize..=3);
                    (0..len)
                        .map(|_| {
                            let v = rng.gen_range(1i32..=num_vars as i32);
                            if rng.gen_bool(0.5) {
                                -v
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            let codes: Vec<i32> = (0..rng.gen_range(1usize..=4))
                .map(|_| {
                    let v = rng.gen_range(1i32..=num_vars as i32);
                    if rng.gen_bool(0.5) {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            let holds = |assignment: u32, c: i32| {
                let bit = (assignment >> (c.unsigned_abs() - 1)) & 1 == 1;
                if c > 0 {
                    bit
                } else {
                    !bit
                }
            };
            let brute = |extra: &[i32]| {
                (0..(1u32 << num_vars)).any(|asg| {
                    clauses.iter().all(|cl| cl.iter().any(|&c| holds(asg, c)))
                        && extra.iter().all(|&c| holds(asg, c))
                })
            };
            let lit_of = |c: i32| Lit::new(Var::from_index(c.unsigned_abs() as usize - 1), c < 0);
            let mut s = Solver::new();
            s.set_tuning(chrono_tuning());
            for _ in 0..num_vars {
                s.new_var();
            }
            for cl in &clauses {
                s.add_clause(cl.iter().map(|&c| lit_of(c)));
            }
            let assumptions: Vec<Lit> = codes.iter().map(|&c| lit_of(c)).collect();
            let result = s.solve(&assumptions);
            assert_eq!(result.is_sat(), brute(&codes), "round {round}");
            if result == SolveResult::Unsat && brute(&[]) {
                let core: Vec<i32> = s
                    .final_conflict()
                    .iter()
                    .map(|l| {
                        let v = l.var().index() as i32 + 1;
                        if l.is_negative() {
                            -v
                        } else {
                            v
                        }
                    })
                    .collect();
                assert!(!core.is_empty(), "round {round}: empty core");
                for c in &core {
                    assert!(
                        codes.contains(c),
                        "round {round}: core literal {c} is not an assumption"
                    );
                }
                assert!(
                    !brute(&core),
                    "round {round}: reported core is not contradictory"
                );
            }
        }
    }

    #[test]
    fn chrono_then_simplify_keeps_answers() {
        // simplify() runs at the root on the repaired trail; it must not
        // lose relocated literals or their implications.
        let mut s = Solver::new();
        s.set_tuning(chrono_tuning());
        let v = lits(&mut s, 6);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[2]]);
        s.add_clause([!v[1], v[3]]);
        s.add_clause([!v[2], !v[3], v[4]]);
        s.add_clause([v[4], v[5]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.simplify();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Pin the instance down to UNSAT through units + simplify.
        s.add_clause([!v[4]]);
        s.add_clause([!v[5]]);
        s.simplify();
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn glucose_restart_trigger_edge_cases() {
        let mut s = Solver::new();
        // Cold start: no long-run average yet, so the LBD trigger must
        // hold its fire no matter how bad the fast EMA looks.
        s.lbd_ema_fast = 100.0;
        assert!(!s.restart_due(GLUCOSE_MIN_CONFLICTS + 10, 1_000));

        // Warm, fast EMA above K × long-run average → restart, and the
        // fast EMA is re-armed to the long-run average.
        s.avg_conflicts = GLUCOSE_MIN_CONFLICTS;
        s.lbd_sum = 2.0 * GLUCOSE_MIN_CONFLICTS as f64; // long-run average 2.0
        s.lbd_ema_fast = 3.0; // > 1.25 × 2.0
        assert!(s.restart_due(GLUCOSE_MIN_CONFLICTS + 10, 1_000));
        assert!((s.lbd_ema_fast - 2.0).abs() < 1e-9, "fast EMA re-armed");

        // Below the minimum conflicts inside this restart → no trigger.
        s.lbd_ema_fast = 3.0;
        assert!(!s.restart_due(GLUCOSE_MIN_CONFLICTS - 1, 1_000));

        // Healthy fast EMA → no trigger.
        s.lbd_ema_fast = 2.0;
        assert!(!s.restart_due(GLUCOSE_MIN_CONFLICTS + 10, 1_000));
    }

    #[test]
    fn glucose_restart_postponement_blocks_and_rearms() {
        let mut s = Solver::new();
        let v = lits(&mut s, 30);
        // Warm averages: mean conflict-trail depth 10, so a 20-deep trail
        // is "abnormally deep" (> 1.4 × 10) and must block the restart.
        s.avg_conflicts = GLUCOSE_MIN_CONFLICTS;
        s.lbd_sum = 2.0 * GLUCOSE_MIN_CONFLICTS as f64;
        s.trail_depth_sum = 10.0 * GLUCOSE_MIN_CONFLICTS as f64;
        s.lbd_ema_fast = 3.0;
        s.stats.conflicts = 500;
        s.new_decision_level();
        for &l in v.iter().take(20) {
            s.unchecked_enqueue(l, None);
        }
        assert!(
            !s.restart_due(GLUCOSE_MIN_CONFLICTS + 10, 1_000),
            "deep trail postpones"
        );
        assert_eq!(s.stats.blocked_restarts, 1);
        assert_eq!(
            s.restart_hold,
            500 + GLUCOSE_MIN_CONFLICTS,
            "postponement re-arms the hold"
        );
        // While held, even a budget-due restart stays blocked …
        assert!(!s.restart_due(1_000, 1_000));
        // … and past the hold with a drained trail the trigger fires.
        s.cancel_until(0);
        s.stats.conflicts = 500 + GLUCOSE_MIN_CONFLICTS;
        assert!(s.restart_due(GLUCOSE_MIN_CONFLICTS + 10, 1_000));
    }

    #[test]
    fn target_phases_steer_branching() {
        // Unconstrained variables: the model must reproduce the target
        // polarities.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0], v[1], v[2], v[3]]); // keep the instance nontrivial
        for (i, l) in v.iter().enumerate() {
            s.set_target_phase(l.var(), i % 2 == 0);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for (i, l) in v.iter().enumerate() {
            assert_eq!(s.model_value(*l), Some(i % 2 == 0), "target ignored");
        }
    }

    #[test]
    fn adopt_model_targets_copies_the_incumbent() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0]]);
        s.add_clause([!v[0], v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.target_phase.is_empty());
        s.adopt_model_targets();
        assert_eq!(s.target_phase, s.model);
        assert_eq!(s.target_phase[v[1].var().index()], LBool::True);
    }

    /// Every watch list's clause sequence: binary, ternary, then long
    /// lists, each indexed by literal code.
    fn watch_sequences(s: &Solver) -> [Vec<Vec<ClauseRef>>; 3] {
        fn crefs<T: Copy>(
            lists: &WatchLists<T>,
            n: usize,
            cref: fn(T) -> ClauseRef,
        ) -> Vec<Vec<ClauseRef>> {
            (0..n)
                .map(|c| lists.range_of(c).map(|i| cref(lists.at_raw(i))).collect())
                .collect()
        }
        let n = 2 * s.num_vars();
        [
            crefs(&s.bin_watches, n, |w| w.cref),
            crefs(&s.tern_watches, n, |w| w.cref),
            crefs(&s.watches, n, |w| w.cref),
        ]
    }

    /// Random clauses of 2–5 distinct variables, no units.
    fn random_clauses(rng: &mut olsq2_prng::Rng, vars: &[Lit], n: usize) -> Vec<Vec<Lit>> {
        (0..n)
            .map(|_| {
                let mut pool = vars.to_vec();
                rng.shuffle(&mut pool);
                let len = rng.gen_range(2..6usize);
                pool[..len]
                    .iter()
                    .map(|&l| if rng.gen_bool(0.5) { l } else { !l })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bulk_intake_keeps_addition_order_per_list() {
        let mut rng = olsq2_prng::Rng::seed_from_u64(0x001A_7ACE);
        let mut bulk = Solver::new();
        let mut eager = Solver::new();
        let v = lits(&mut bulk, 14);
        lits(&mut eager, 14);
        let rounds = [
            random_clauses(&mut rng, &v, 60),
            random_clauses(&mut rng, &v, 40),
        ];
        for (i, round) in rounds.iter().enumerate() {
            for c in round {
                bulk.add_clause(c.iter().copied());
                // One attach per clause: the order intake must reproduce.
                eager.add_clause(c.iter().copied());
                eager.attach_pending();
            }
            assert!(
                i > 0 || bulk.unwatched == 60,
                "the bulk solver defers its watches"
            );
            bulk.simplify();
            eager.simplify();
            assert_eq!(watch_sequences(&bulk), watch_sequences(&eager));
            assert_eq!(bulk.solve(&[]), eager.solve(&[]));
            assert_eq!(bulk.stats(), eager.stats());
            assert_eq!(watch_sequences(&bulk), watch_sequences(&eager));
        }
        // Before any search moved a watch, each list is addition order:
        // the first round's clauses, watched on every literal of a 2- or
        // 3-clause and on the first two of a longer one.
        let mut fresh = Solver::new();
        let w = lits(&mut fresh, 14);
        assert_eq!(w, v);
        for c in &rounds[0] {
            fresh.add_clause(c.iter().copied());
        }
        fresh.simplify();
        let mut expected: [Vec<Vec<ClauseRef>>; 3] =
            std::array::from_fn(|_| vec![Vec::new(); 2 * fresh.num_vars()]);
        for &cref in &fresh.clauses {
            let lits = fresh.db.lits(cref);
            let (scheme, watched) = match lits.len() {
                2 => (0, lits),
                3 => (1, lits),
                _ => (2, &lits[..2]),
            };
            for &l in watched {
                expected[scheme][(!l).code()].push(cref);
            }
        }
        assert_eq!(watch_sequences(&fresh), expected);
    }

    #[test]
    fn root_unit_propagates_through_unwatched_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[1], v[2], v[3]]);
        // ¬v0 forces v1 through the still-unwatched first clause.
        s.add_clause([!v[0]]);
        assert_eq!(s.value(v[1]), LBool::True);
        let before = s.num_clauses();
        // Satisfied by the implied v1: dropped on arrival.
        s.add_clause([v[1], v[3]]);
        assert_eq!(s.num_clauses(), before);
        // ¬v1 is root-false: the clause arrives as the binary (v2 ∨ v3).
        s.add_clause([!v[1], v[2], !v[3]]);
        let last = *s.clauses.last().expect("clause kept");
        assert_eq!(s.db.lits(last), &[v[2], !v[3]]);
        assert_eq!(s.solve(&[!v[2]]), SolveResult::Unsat);
    }

    #[test]
    fn lookahead_and_simplify_see_unwatched_clauses() {
        let setup = || {
            let mut s = Solver::new();
            let v = lits(&mut s, 3);
            s.add_clause([!v[0], v[1]]);
            s.add_clause([!v[1], v[2]]);
            assert_eq!(s.unwatched, 2);
            (s, v)
        };
        let (mut s, v) = setup();
        assert_eq!(s.lookahead(&[v[0]]), Some(2));

        let (mut s, v) = setup();
        s.simplify();
        assert_eq!(s.unwatched, 0);
        let [bin, _, _] = watch_sequences(&s);
        assert_eq!(bin[(!v[1]).code()], vec![s.clauses[0]]);
        assert_eq!(bin[v[1].code()], vec![s.clauses[1]]);
    }

    #[test]
    fn reduction_scrubs_the_watchers_of_deleted_ternary_learnts() {
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        // Long problem clauses keep the arena's dead share low, so no
        // garbage collection sweeps the lists behind the scrub's back.
        for _ in 0..4 {
            for w in v.windows(5) {
                s.add_clause(w.iter().copied());
            }
        }
        s.attach_pending();
        for w in v.windows(3) {
            let c = s.db.alloc(w, true);
            s.attach(c);
            s.learnts.push(c);
        }
        s.reduce_db();
        assert_eq!(
            s.learnts.len(),
            4,
            "half of the eight local learnts retired"
        );
        assert!(s.db.wasted_ratio() > 0.0, "no garbage collection ran");
        let [_, tern, _] = watch_sequences(&s);
        assert_eq!(tern.iter().flatten().count(), 3 * s.learnts.len());
        for cref in tern.iter().flatten() {
            assert!(
                !s.db.is_deleted(*cref),
                "dead ternary watcher survived reduction"
            );
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn simplify_leaves_no_dead_binary_or_ternary_watcher() {
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        let pad = lits(&mut s, 8);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[2], v[3]]);
        s.add_clause([!v[0], v[4], v[5]]);
        s.add_clause([v[1], v[4]]);
        s.add_clause([v[2], v[3], v[4], v[5]]);
        // Untouched clauses keep the arena's dead share low, so no
        // garbage collection sweeps the lists behind the scrub's back.
        for w in pad.windows(3) {
            s.add_clause(w.iter().copied());
            s.add_clause([w[0], !w[1]]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Satisfies the first two and strengthens the third to binary.
        s.add_clause([v[0]]);
        s.simplify();
        assert_eq!(s.stats().simplify_removed, 2);
        assert_eq!(s.stats().simplify_strengthened, 1);
        assert!(s.db.wasted_ratio() > 0.0, "garbage collection ran");
        let [bin, tern, _] = watch_sequences(&s);
        for cref in bin.iter().chain(&tern).flatten() {
            assert!(!s.db.is_deleted(*cref), "dead watcher survived simplify");
        }
        assert_eq!(s.solve(&[!v[4], !v[5]]), SolveResult::Unsat);
    }
}
