//! Finite-domain variable families over the SAT substrate.
//!
//! [`FdVar`] is the bridge between the paper's SMT-level variables (mapping
//! `π_q^t`, time `t_g`) and CNF: the same model-building code works with
//! one-hot ("int") and binary ("bv") representations, which is how the
//! Table I encoding ablation is expressed.

// Indexed `for` loops are deliberate here: ladder constraints index adjacent positions.
#![allow(clippy::needless_range_loop)]
use crate::config::TimeEncoding;
use olsq2_arch::CouplingGraph;
use olsq2_encode::{width_for, AmoEncoding, BitVec, CnfSink, OneHot};
use olsq2_sat::{Lit, Solver};

/// A variable ranging over `0..domain`, in one of two CNF representations.
#[derive(Debug, Clone)]
pub struct FdVar {
    repr: FdRepr,
    domain: usize,
    eq_cache: Vec<Option<Lit>>,
}

#[derive(Debug, Clone)]
enum FdRepr {
    OneHot(OneHot),
    Binary(BitVec),
}

impl FdVar {
    /// One-hot representation with an exactly-one constraint.
    pub fn new_onehot<S: CnfSink>(sink: &mut S, domain: usize, amo: AmoEncoding) -> FdVar {
        FdVar::new_onehot_guarded(sink, domain, amo, None)
    }

    /// One-hot representation whose *at-least-one* constraint is guarded
    /// (`guard → some selector true`; at-most-one stays unconditional).
    ///
    /// This is the extendable-window form: when the domain later grows via
    /// [`FdVar::extend_domain`], the caller root-falsifies the old guard
    /// and a fresh guarded at-least-one over the enlarged selector set
    /// takes over. With `None` the constraint is unconditional and the
    /// variable cannot be extended.
    pub fn new_onehot_guarded<S: CnfSink>(
        sink: &mut S,
        domain: usize,
        amo: AmoEncoding,
        guard: Option<Lit>,
    ) -> FdVar {
        let oh = match guard {
            None => OneHot::new(sink, domain, amo),
            Some(g) => {
                assert!(domain > 0, "domain must be nonempty");
                let selectors: Vec<Lit> =
                    (0..domain).map(|_| Lit::positive(sink.new_var())).collect();
                let mut alo = Vec::with_capacity(domain + 1);
                alo.push(!g);
                alo.extend_from_slice(&selectors);
                sink.add_clause(&alo);
                olsq2_encode::at_most_one(sink, &selectors, amo);
                OneHot::from_selectors(selectors)
            }
        };
        FdVar {
            repr: FdRepr::OneHot(oh),
            domain,
            eq_cache: vec![None; domain],
        }
    }

    /// Binary representation; values ≥ `domain` are excluded by a
    /// comparator when `domain` is not a power of two.
    pub fn new_binary<S: CnfSink>(sink: &mut S, domain: usize) -> FdVar {
        FdVar::new_binary_guarded(sink, domain, None)
    }

    /// Binary representation whose domain-bound comparator is guarded by
    /// `guard` (see [`FdVar::new_onehot_guarded`] for the protocol).
    pub fn new_binary_guarded<S: CnfSink>(
        sink: &mut S,
        domain: usize,
        guard: Option<Lit>,
    ) -> FdVar {
        assert!(domain > 0);
        let bv = BitVec::new(sink, width_for(domain as u64 - 1));
        bv.assert_le_const_if(sink, domain as u64 - 1, guard);
        FdVar {
            repr: FdRepr::Binary(bv),
            domain,
            eq_cache: vec![None; domain],
        }
    }

    /// Grows the domain to `0..new_domain` in place, guarding the new
    /// generation's domain constraint with `guard`. Returns `false` if the
    /// representation cannot extend (binary needing a wider bit-vector) —
    /// the caller must then rebuild instead.
    ///
    /// The caller owns the generational protocol: the previous guard must
    /// be root-falsified so the old (narrower) at-least-one / domain bound
    /// stops constraining the variable. Existing at-most-one constraints,
    /// equality literals, and comparator circuits stay valid because the
    /// domain only grows.
    pub fn extend_domain<S: CnfSink>(
        &mut self,
        sink: &mut S,
        new_domain: usize,
        amo: AmoEncoding,
        guard: Lit,
    ) -> bool {
        assert!(new_domain >= self.domain, "domains only grow");
        if new_domain == self.domain {
            return true;
        }
        match &mut self.repr {
            FdRepr::Binary(bv) => {
                if width_for(new_domain as u64 - 1) != bv.width() {
                    return false; // wider vector needed: not extendable in place
                }
                bv.assert_le_const_if(sink, new_domain as u64 - 1, Some(guard));
            }
            FdRepr::OneHot(oh) => {
                let mut selectors = oh.selectors().to_vec();
                let old = selectors.len();
                selectors.extend((old..new_domain).map(|_| Lit::positive(sink.new_var())));
                match amo {
                    // Pairwise extends incrementally: only pairs touching a
                    // new selector are missing.
                    AmoEncoding::Pairwise => {
                        for i in 0..old {
                            for j in old..new_domain {
                                sink.add_clause(&[!selectors[i], !selectors[j]]);
                            }
                        }
                        for i in old..new_domain {
                            for j in (i + 1)..new_domain {
                                sink.add_clause(&[!selectors[i], !selectors[j]]);
                            }
                        }
                    }
                    // Ladder/commander auxiliaries don't extend; re-emit the
                    // whole at-most-one (redundant over old pairs but sound).
                    _ => olsq2_encode::at_most_one(sink, &selectors, amo),
                }
                let mut alo = Vec::with_capacity(new_domain + 1);
                alo.push(!guard);
                alo.extend_from_slice(&selectors);
                sink.add_clause(&alo);
                self.repr = FdRepr::OneHot(OneHot::from_selectors(selectors));
            }
        }
        self.eq_cache.resize(new_domain, None);
        self.domain = new_domain;
        true
    }

    /// Asserts `guard → self ∉ lo..hi`, used to patch previously issued
    /// bound activation literals when the domain grows past them: a cached
    /// one-hot `≤ v` bound knows nothing about selectors allocated later,
    /// so each extension forbids the new values under the same activator.
    /// (Binary comparators cover the whole bit width and need no patch.)
    pub fn forbid_range_if<S: CnfSink>(
        &mut self,
        sink: &mut S,
        range: std::ops::Range<usize>,
        guard: Option<Lit>,
    ) {
        assert!(range.end <= self.domain);
        let mut clause = Vec::new();
        for v in range {
            clause.clear();
            clause.extend(guard.map(|g| !g));
            self.push_neq(v, &mut clause);
            sink.add_clause(&clause);
        }
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// A literal that is true iff the variable equals `v`
    /// (cached per value; one-hot returns the selector directly).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the domain.
    pub fn eq_lit<S: CnfSink>(&mut self, sink: &mut S, v: usize) -> Lit {
        assert!(v < self.domain);
        if let Some(l) = self.eq_cache[v] {
            return l;
        }
        let l = match &self.repr {
            FdRepr::OneHot(oh) => oh.selector(v),
            FdRepr::Binary(bv) => bv.eq_const_lit(sink, v as u64),
        };
        self.eq_cache[v] = Some(l);
        l
    }

    /// Appends clause-prefix literals asserting "≠ v" to `out`: at least
    /// one is true iff the variable differs from `v`. Append consequent
    /// literals after them to build `(self == v) → ⋁ consequents` without
    /// auxiliaries.
    pub fn push_neq(&self, v: usize, out: &mut Vec<Lit>) {
        assert!(v < self.domain);
        match &self.repr {
            FdRepr::OneHot(oh) => out.push(!oh.selector(v)),
            FdRepr::Binary(bv) => bv.push_neq_const(v as u64, out),
        }
    }

    /// Appends literals that are *all* true iff the variable equals `v`
    /// (a conjunction antecedent) to `out`.
    pub fn push_eq(&self, v: usize, out: &mut Vec<Lit>) {
        assert!(v < self.domain);
        match &self.repr {
            FdRepr::OneHot(oh) => out.push(oh.selector(v)),
            FdRepr::Binary(bv) => bv.push_eq_const(v as u64, out),
        }
    }

    /// Asserts `guard → self ≤ v`.
    pub fn assert_le_if<S: CnfSink>(&mut self, sink: &mut S, v: usize, guard: Option<Lit>) {
        match &self.repr {
            FdRepr::Binary(bv) => bv.assert_le_const_if(sink, v as u64, guard),
            FdRepr::OneHot(_) => {
                for value in (v + 1)..self.domain {
                    let mut clause = Vec::with_capacity(2);
                    if let Some(g) = guard {
                        clause.push(!g);
                    }
                    let eq = self.eq_lit(sink, value);
                    clause.push(!eq);
                    sink.add_clause(&clause);
                }
            }
        }
    }

    /// The raw representation literals: the bits (binary) or selectors
    /// (one-hot). Two same-encoding variables are equal iff these agree
    /// position-wise.
    pub fn raw_lits(&self) -> Vec<Lit> {
        match &self.repr {
            FdRepr::OneHot(oh) => oh.selectors().to_vec(),
            FdRepr::Binary(bv) => bv.bits().to_vec(),
        }
    }

    /// Decodes the value from a model.
    ///
    /// # Panics
    ///
    /// Panics if the solver has no model covering this variable.
    pub fn value_in(&self, solver: &Solver) -> usize {
        match &self.repr {
            FdRepr::OneHot(oh) => oh
                .value_in(solver)
                .expect("model must assign one-hot group"),
            FdRepr::Binary(bv) => {
                bv.value_in(solver).expect("model must assign bit-vector") as usize
            }
        }
    }
}

/// Emits the mapping transformation across one SWAP step, the transition
/// family the flat, TB and SATMap models share. `qubits` yields each
/// program qubit's mapping before and after the step, and `swap(e)` is
/// the literal of a SWAP on edge `e` finishing at the step:
///
/// * stay: `(π == p) ∧ no SWAP on an edge at p → π' == p`;
/// * move: `σ_e ∧ (π == a) → π' == b`, in both orientations of `e`.
///
/// Clauses go out qubit by qubit, stays before moves, through one reused
/// buffer.
pub fn transition_step<'a, S: CnfSink>(
    sink: &mut S,
    graph: &CouplingGraph,
    qubits: impl IntoIterator<Item = (&'a FdVar, &'a FdVar)>,
    swap: impl Fn(usize) -> Lit,
) {
    let (mut clause, mut conj) = (Vec::new(), Vec::new());
    // `clause ∨ b` for every literal `b` of the conjunction `after == v`.
    let mut implies_eq = |sink: &mut S, clause: &mut Vec<Lit>, after: &FdVar, v: usize| {
        conj.clear();
        after.push_eq(v, &mut conj);
        let prefix = clause.len();
        for &bit in &conj {
            clause.truncate(prefix);
            clause.push(bit);
            sink.add_clause(clause);
        }
    };
    for (before, after) in qubits {
        for p in 0..graph.num_qubits() {
            let p16 = p as u16;
            clause.clear();
            before.push_neq(p, &mut clause);
            clause.extend(
                graph
                    .neighbors(p16)
                    .iter()
                    .map(|&n| swap(graph.edge_between(p16, n).expect("adjacency implies edge"))),
            );
            implies_eq(sink, &mut clause, after, p);
        }
        for e in 0..graph.num_edges() {
            let (pa, pb) = graph.edge(e);
            for (from, to) in [(pa, pb), (pb, pa)] {
                clause.clear();
                clause.push(!swap(e));
                before.push_neq(from as usize, &mut clause);
                implies_eq(sink, &mut clause, after, to as usize);
            }
        }
    }
}

/// The family of gate time variables with dependency support.
///
/// For one-hot time, dependencies use per-gate *prefix ladders*
/// (`le[g][t] ↔ t_g ≤ t`), giving `O(T)` clauses per dependency; for
/// binary time, a comparator circuit per dependency.
#[derive(Debug, Clone)]
pub struct TimeVars {
    vars: Vec<FdVar>,
    encoding: TimeEncoding,
    amo: AmoEncoding,
    /// Lazily built prefix ladders (one-hot only): `ladders[g][t]` ↔ `t_g ≤ t`.
    ladders: Vec<Option<Vec<Lit>>>,
    t_ub: usize,
    /// Whether construction was guarded (extension requires it).
    guarded: bool,
    /// Recorded `(earlier, later)` strict dependencies, re-emitted for the
    /// new time steps when the window is extended (one-hot only; binary
    /// comparators are domain-independent).
    befores: Vec<(usize, usize)>,
    /// Recorded relaxed dependencies (`t_earlier ≤ t_later`).
    before_or_equals: Vec<(usize, usize)>,
    /// Recorded disequalities (`t_a ≠ t_b`).
    not_equals: Vec<(usize, usize)>,
}

impl TimeVars {
    /// Allocates `num_gates` time variables over `0..t_ub`.
    ///
    /// With a `guard`, the per-variable domain constraint (at-least-one /
    /// binary upper bound) is conditional on it, which is what makes the
    /// window extendable later via [`TimeVars::extend`]; every solve must
    /// then assume the current generation's guard. With `None` the
    /// variables are unconditional and the window is fixed.
    pub fn new<S: CnfSink>(
        sink: &mut S,
        num_gates: usize,
        t_ub: usize,
        encoding: TimeEncoding,
        amo: AmoEncoding,
        guard: Option<Lit>,
    ) -> TimeVars {
        let vars = (0..num_gates)
            .map(|_| match encoding {
                TimeEncoding::OneHot => FdVar::new_onehot_guarded(sink, t_ub, amo, guard),
                TimeEncoding::Binary => FdVar::new_binary_guarded(sink, t_ub, guard),
            })
            .collect();
        TimeVars {
            vars,
            encoding,
            amo,
            ladders: vec![None; num_gates],
            t_ub,
            guarded: guard.is_some(),
            befores: Vec::new(),
            before_or_equals: Vec::new(),
            not_equals: Vec::new(),
        }
    }

    /// Extends every gate's time variable to range over `0..new_t_ub`,
    /// appending ladder rungs and re-emitting the recorded dependency
    /// constraints for the new time steps. The new generation's domain
    /// constraints are guarded by `guard`; the caller root-falsifies the
    /// previous guard. Returns `false` (leaving the family untouched) if
    /// the family was built unguarded or the binary representation needs a
    /// wider bit-vector — the caller must rebuild then.
    pub fn extend<S: CnfSink>(&mut self, sink: &mut S, new_t_ub: usize, guard: Lit) -> bool {
        assert!(new_t_ub >= self.t_ub, "windows only grow");
        if !self.guarded {
            return false;
        }
        if new_t_ub == self.t_ub {
            return true;
        }
        if self.encoding == TimeEncoding::Binary
            && width_for(new_t_ub as u64 - 1) != width_for(self.t_ub as u64 - 1)
        {
            return false;
        }
        let old_t_ub = self.t_ub;
        for v in &mut self.vars {
            let ok = v.extend_domain(sink, new_t_ub, self.amo, guard);
            debug_assert!(ok, "width checked above");
        }
        self.t_ub = new_t_ub;
        if self.encoding == TimeEncoding::Binary {
            // Comparator dependencies and xor disequalities range over the
            // full bit width already; nothing to re-emit.
            return true;
        }
        // Append rungs to the ladders that were already materialized (lazy
        // ones will simply be built at the new length).
        for g in 0..self.vars.len() {
            if self.ladders[g].is_none() {
                continue;
            }
            let mut lits = self.ladders[g].take().expect("checked above");
            let mut prev = *lits.last().expect("ladders are nonempty");
            for t in old_t_ub..new_t_ub {
                let sel = self.vars[g].eq_lit(sink, t);
                let le = Lit::positive(sink.new_var());
                sink.add_clause(&[!prev, le]);
                sink.add_clause(&[!sel, le]);
                sink.add_clause(&[!le, prev, sel]);
                lits.push(le);
                prev = le;
            }
            self.ladders[g] = Some(lits);
        }
        // Re-emit the per-time-step dependency clauses for the new steps.
        for i in 0..self.befores.len() {
            let (earlier, later) = self.befores[i];
            let ladder: Vec<Lit> = self.ladder(sink, earlier).to_vec();
            for t in old_t_ub..new_t_ub {
                let sel = self.vars[later].eq_lit(sink, t);
                sink.add_clause(&[!sel, ladder[t - 1]]);
            }
        }
        for i in 0..self.before_or_equals.len() {
            let (earlier, later) = self.before_or_equals[i];
            let ladder: Vec<Lit> = self.ladder(sink, earlier).to_vec();
            for t in old_t_ub..new_t_ub {
                let sel = self.vars[later].eq_lit(sink, t);
                sink.add_clause(&[!sel, ladder[t]]);
            }
        }
        for i in 0..self.not_equals.len() {
            let (a, b) = self.not_equals[i];
            for t in old_t_ub..new_t_ub {
                let sa = self.vars[a].eq_lit(sink, t);
                let sb = self.vars[b].eq_lit(sink, t);
                sink.add_clause(&[!sa, !sb]);
            }
        }
        true
    }

    /// The upper bound `T_UB` the variables range under.
    pub fn t_ub(&self) -> usize {
        self.t_ub
    }

    /// Access to gate `g`'s variable.
    pub fn var_mut(&mut self, g: usize) -> &mut FdVar {
        &mut self.vars[g]
    }

    /// Immutable access to gate `g`'s variable.
    pub fn var(&self, g: usize) -> &FdVar {
        &self.vars[g]
    }

    /// Scheduled time of gate `g` in the current model.
    pub fn value_in(&self, solver: &Solver, g: usize) -> usize {
        self.vars[g].value_in(solver)
    }

    fn ladder<S: CnfSink>(&mut self, sink: &mut S, g: usize) -> &[Lit] {
        if self.ladders[g].is_none() {
            // le[t] ↔ t_g ≤ t, built as a prefix OR of selectors.
            let mut lits = Vec::with_capacity(self.t_ub);
            let mut prev: Option<Lit> = None;
            for t in 0..self.t_ub {
                let sel = self.vars[g].eq_lit(sink, t);
                let le = Lit::positive(sink.new_var());
                match prev {
                    None => {
                        // le0 ↔ sel0
                        sink.add_clause(&[!le, sel]);
                        sink.add_clause(&[le, !sel]);
                    }
                    Some(p) => {
                        sink.add_clause(&[!p, le]);
                        sink.add_clause(&[!sel, le]);
                        sink.add_clause(&[!le, p, sel]);
                    }
                }
                lits.push(le);
                prev = Some(le);
            }
            self.ladders[g] = Some(lits);
        }
        self.ladders[g].as_ref().expect("just built")
    }

    /// Asserts the relaxed dependency `t_earlier ≤ t_later`, used by the
    /// transition-based model where dependent gates may share a block.
    pub fn assert_before_or_equal<S: CnfSink>(
        &mut self,
        sink: &mut S,
        earlier: usize,
        later: usize,
    ) {
        match self.encoding {
            TimeEncoding::Binary => {
                let (a, b) = (self.vars[earlier].clone(), self.vars[later].clone());
                if let (FdRepr::Binary(ba), FdRepr::Binary(bb)) = (&a.repr, &b.repr) {
                    ba.assert_le(sink, bb);
                }
            }
            TimeEncoding::OneHot => {
                self.before_or_equals.push((earlier, later));
                let ladder: Vec<Lit> = self.ladder(sink, earlier).to_vec();
                for t in 0..self.t_ub {
                    let sel = self.vars[later].eq_lit(sink, t);
                    sink.add_clause(&[!sel, ladder[t]]);
                }
            }
        }
    }

    /// Asserts `t_a ≠ t_b`: two gates that share a program qubit can never
    /// execute in the same time step, even when commutation leaves their
    /// *order* free (used by the commutation-aware flat model).
    pub fn assert_not_equal<S: CnfSink>(&mut self, sink: &mut S, a: usize, b: usize) {
        match self.encoding {
            TimeEncoding::OneHot => {
                self.not_equals.push((a, b));
                for t in 0..self.t_ub {
                    let sa = self.vars[a].eq_lit(sink, t);
                    let sb = self.vars[b].eq_lit(sink, t);
                    sink.add_clause(&[!sa, !sb]);
                }
            }
            TimeEncoding::Binary => {
                let (va, vb) = (self.vars[a].clone(), self.vars[b].clone());
                let diffs: Vec<Lit> = va
                    .raw_lits()
                    .iter()
                    .zip(vb.raw_lits())
                    .map(|(&x, y)| {
                        // y ↔ x ⊕ y via Tseitin, one per bit.
                        olsq2_encode::gates::xor_lit(sink, x, y)
                    })
                    .collect();
                sink.add_clause(&diffs);
            }
        }
    }

    /// Asserts the gate-dependency constraint `t_earlier < t_later`
    /// (§II-A constraint 2).
    pub fn assert_before<S: CnfSink>(&mut self, sink: &mut S, earlier: usize, later: usize) {
        match self.encoding {
            TimeEncoding::Binary => {
                let (a, b) = (self.vars[earlier].clone(), self.vars[later].clone());
                if let (FdRepr::Binary(ba), FdRepr::Binary(bb)) = (&a.repr, &b.repr) {
                    ba.assert_lt(sink, bb);
                }
            }
            TimeEncoding::OneHot => {
                self.befores.push((earlier, later));
                // sel(later, t) → le(earlier, t-1); sel(later, 0) impossible.
                let first = self.vars[later].eq_lit(sink, 0);
                sink.add_clause(&[!first]);
                let ladder: Vec<Lit> = self.ladder(sink, earlier).to_vec();
                for t in 1..self.t_ub {
                    let sel = self.vars[later].eq_lit(sink, t);
                    sink.add_clause(&[!sel, ladder[t - 1]]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_sat::{SolveResult, Solver};

    fn both_reprs(domain: usize) -> Vec<(Solver, FdVar)> {
        let mut out = Vec::new();
        let mut s1 = Solver::new();
        let v1 = FdVar::new_onehot(&mut s1, domain, AmoEncoding::Pairwise);
        out.push((s1, v1));
        let mut s2 = Solver::new();
        let v2 = FdVar::new_binary(&mut s2, domain);
        out.push((s2, v2));
        out
    }

    #[test]
    fn eq_lit_matches_value() {
        for (mut s, mut v) in both_reprs(5) {
            let e3 = v.eq_lit(&mut s, 3);
            s.add_clause([e3]);
            assert_eq!(s.solve(&[]), SolveResult::Sat);
            assert_eq!(v.value_in(&s), 3);
        }
    }

    #[test]
    fn binary_excludes_values_outside_domain() {
        let mut s = Solver::new();
        let mut v = FdVar::new_binary(&mut s, 5); // width 3, but 5..8 excluded
        for val in 0..5 {
            let e = v.eq_lit(&mut s, val);
            assert_eq!(s.solve(&[e]), SolveResult::Sat, "value {val}");
        }
        // Forbid all legal values: no model remains.
        let bad: Vec<Lit> = (0..5).map(|val| !v.eq_lit(&mut s, val)).collect();
        assert_eq!(s.solve(&bad), SolveResult::Unsat);
    }

    #[test]
    fn eq_cache_returns_same_literal() {
        for (mut s, mut v) in both_reprs(6) {
            let a = v.eq_lit(&mut s, 2);
            let b = v.eq_lit(&mut s, 2);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn neq_prefix_blocks_exactly_one_value() {
        for (mut s, v) in both_reprs(4) {
            let mut clause = Vec::new();
            v.push_neq(1, &mut clause);
            s.add_clause(clause);
            let mut allowed = 0;
            for val in 0..4 {
                let mut conj = Vec::new();
                v.push_eq(val, &mut conj);
                if s.solve(&conj) == SolveResult::Sat {
                    allowed += 1;
                }
            }
            assert_eq!(allowed, 3);
        }
    }

    #[test]
    fn le_bound_with_guard() {
        for (mut s, mut v) in both_reprs(8) {
            let g = Lit::positive(s.new_var());
            v.assert_le_if(&mut s, 3, Some(g));
            let e6 = v.eq_lit(&mut s, 6);
            assert_eq!(s.solve(&[g, e6]), SolveResult::Unsat);
            assert_eq!(s.solve(&[e6]), SolveResult::Sat);
            let e2 = v.eq_lit(&mut s, 2);
            assert_eq!(s.solve(&[g, e2]), SolveResult::Sat);
        }
    }

    #[test]
    fn dependencies_order_gates_exhaustively() {
        for encoding in [TimeEncoding::OneHot, TimeEncoding::Binary] {
            let mut s = Solver::new();
            let mut tv = TimeVars::new(&mut s, 3, 4, encoding, AmoEncoding::Pairwise, None);
            tv.assert_before(&mut s, 0, 1);
            tv.assert_before(&mut s, 1, 2);
            // Check every assignment triple.
            for a in 0..4 {
                for b in 0..4 {
                    for c in 0..4 {
                        let mut assumptions = Vec::new();
                        for (g, val) in [(0usize, a), (1, b), (2, c)] {
                            assumptions.push(tv.var_mut(g).eq_lit(&mut s, val));
                        }
                        let expected = a < b && b < c;
                        assert_eq!(
                            s.solve(&assumptions) == SolveResult::Sat,
                            expected,
                            "{encoding:?} {a},{b},{c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extend_domain_matches_fresh_semantics() {
        // 5 → 7 keeps the binary width (both need 3 bits), so both
        // representations extend in place.
        for onehot in [true, false] {
            let mut s = Solver::new();
            let g0 = Lit::positive(s.new_var());
            let mut v = if onehot {
                FdVar::new_onehot_guarded(&mut s, 5, AmoEncoding::Pairwise, Some(g0))
            } else {
                FdVar::new_binary_guarded(&mut s, 5, Some(g0))
            };
            let e2 = v.eq_lit(&mut s, 2);
            assert_eq!(s.solve(&[g0, e2]), SolveResult::Sat);
            let g1 = Lit::positive(s.new_var());
            assert!(v.extend_domain(&mut s, 7, AmoEncoding::Pairwise, g1));
            s.add_clause([!g0]);
            for val in 0..7 {
                let e = v.eq_lit(&mut s, val);
                assert_eq!(s.solve(&[g1, e]), SolveResult::Sat, "value {val}");
            }
            // Forbid all legal values: the guarded at-least-one / domain
            // bound still forces one of them.
            let mut bad: Vec<Lit> = (0..7).map(|val| !v.eq_lit(&mut s, val)).collect();
            bad.push(g1);
            assert_eq!(s.solve(&bad), SolveResult::Unsat);
        }
    }

    #[test]
    fn binary_extension_fails_when_width_grows() {
        let mut s = Solver::new();
        let g0 = Lit::positive(s.new_var());
        let mut v = FdVar::new_binary_guarded(&mut s, 4, Some(g0)); // 2 bits
        let g1 = Lit::positive(s.new_var());
        assert!(!v.extend_domain(&mut s, 6, AmoEncoding::Pairwise, g1)); // needs 3
        assert_eq!(v.domain(), 4);
    }

    #[test]
    fn forbid_range_patches_stale_bound() {
        let mut s = Solver::new();
        let g0 = Lit::positive(s.new_var());
        let mut v = FdVar::new_onehot_guarded(&mut s, 4, AmoEncoding::Pairwise, Some(g0));
        // A "≤ 2" activation issued before the extension…
        let act = Lit::positive(s.new_var());
        v.assert_le_if(&mut s, 2, Some(act));
        let g1 = Lit::positive(s.new_var());
        assert!(v.extend_domain(&mut s, 6, AmoEncoding::Pairwise, g1));
        s.add_clause([!g0]);
        // …knows nothing about the new values until patched.
        v.forbid_range_if(&mut s, 4..6, Some(act));
        let e5 = v.eq_lit(&mut s, 5);
        assert_eq!(s.solve(&[g1, act, e5]), SolveResult::Unsat);
        assert_eq!(s.solve(&[g1, e5]), SolveResult::Sat);
        let e1 = v.eq_lit(&mut s, 1);
        assert_eq!(s.solve(&[g1, act, e1]), SolveResult::Sat);
    }

    #[test]
    fn time_extension_preserves_dependency_semantics() {
        for encoding in [TimeEncoding::OneHot, TimeEncoding::Binary] {
            // 5 → 7 keeps binary width, so both encodings extend.
            let mut s = Solver::new();
            let g0 = Lit::positive(s.new_var());
            let mut tv = TimeVars::new(&mut s, 3, 5, encoding, AmoEncoding::Pairwise, Some(g0));
            tv.assert_before(&mut s, 0, 1);
            tv.assert_before_or_equal(&mut s, 1, 2);
            tv.assert_not_equal(&mut s, 0, 2);
            let g1 = Lit::positive(s.new_var());
            assert!(tv.extend(&mut s, 7, g1));
            assert_eq!(tv.t_ub(), 7);
            s.add_clause([!g0]);
            for a in 0..7 {
                for b in 0..7 {
                    for c in 0..7 {
                        let mut assumptions = vec![g1];
                        for (g, val) in [(0usize, a), (1, b), (2, c)] {
                            assumptions.push(tv.var_mut(g).eq_lit(&mut s, val));
                        }
                        let expected = a < b && b <= c && a != c;
                        assert_eq!(
                            s.solve(&assumptions) == SolveResult::Sat,
                            expected,
                            "{encoding:?} {a},{b},{c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unguarded_time_vars_refuse_extension() {
        let mut s = Solver::new();
        let mut tv = TimeVars::new(
            &mut s,
            2,
            4,
            TimeEncoding::OneHot,
            AmoEncoding::Pairwise,
            None,
        );
        let g = Lit::positive(s.new_var());
        assert!(!tv.extend(&mut s, 6, g));
        assert_eq!(tv.t_ub(), 4);
    }

    #[test]
    fn t_ub_accessor() {
        let mut s = Solver::new();
        let tv = TimeVars::new(
            &mut s,
            2,
            7,
            TimeEncoding::Binary,
            AmoEncoding::Pairwise,
            None,
        );
        assert_eq!(tv.t_ub(), 7);
    }
}
