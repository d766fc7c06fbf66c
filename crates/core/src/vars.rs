//! Finite-domain variable families over the SAT substrate, and the
//! constraint families every model shares.
//!
//! [`FdVar`] is the bridge between the paper's SMT-level variables (mapping
//! `π_q^t`, time `t_g`) and CNF: the same model-building code works with
//! one-hot ("int") and binary ("bv") representations, which is how the
//! Table I encoding ablation is expressed.
//!
//! The families take a step range: a model's build emits steps `0..T`, and
//! a window growth emits `T..T'` through the same functions.

// Indexed `for` loops are deliberate here: ladder constraints index adjacent positions.
#![allow(clippy::needless_range_loop)]
use crate::config::{EncodingConfig, MappingEncoding, TimeEncoding};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, Operands};
use olsq2_encode::{at_most_one, gates, width_for, AmoEncoding, BitVec, CnfSink, OneHot};
use olsq2_sat::{Lit, Solver};
use std::collections::HashMap;
use std::ops::Range;

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
    fn with_repr(repr: FdRepr, domain: usize) -> FdVar {
        FdVar {
            repr,
            domain,
            eq_cache: vec![None; domain],
        }
    }

    /// One-hot representation with an exactly-one constraint.
    pub fn new_onehot<S: CnfSink>(sink: &mut S, domain: usize, amo: AmoEncoding) -> FdVar {
        FdVar::with_repr(FdRepr::OneHot(OneHot::new(sink, domain, amo)), domain)
    }

    /// One-hot representation whose *at-least-one* constraint is guarded
    /// (`guard → some selector true`; at-most-one stays unconditional).
    ///
    /// This is the extendable-window form: when the domain later grows via
    /// [`FdVar::extend_domain`], the caller root-falsifies the old guard
    /// and a fresh guarded at-least-one over the enlarged selector set
    /// takes over.
    pub fn new_onehot_guarded<S: CnfSink>(
        sink: &mut S,
        domain: usize,
        amo: AmoEncoding,
        guard: Lit,
    ) -> FdVar {
        assert!(domain > 0, "domain must be nonempty");
        let selectors: Vec<Lit> = (0..domain).map(|_| Lit::positive(sink.new_var())).collect();
        let mut alo = Vec::with_capacity(domain + 1);
        alo.push(!guard);
        alo.extend_from_slice(&selectors);
        sink.add_clause(&alo);
        at_most_one(sink, &selectors, amo);
        FdVar::with_repr(FdRepr::OneHot(OneHot::from_selectors(selectors)), domain)
    }

    /// Binary representation; values ≥ `domain` are excluded by a
    /// comparator when `domain` is not a power of two.
    pub fn new_binary<S: CnfSink>(sink: &mut S, domain: usize) -> FdVar {
        FdVar::binary(sink, domain, None)
    }

    /// Binary representation whose domain-bound comparator is guarded by
    /// `guard` (see [`FdVar::new_onehot_guarded`] for the protocol).
    pub fn new_binary_guarded<S: CnfSink>(sink: &mut S, domain: usize, guard: Lit) -> FdVar {
        FdVar::binary(sink, domain, Some(guard))
    }

    fn binary<S: CnfSink>(sink: &mut S, domain: usize, guard: Option<Lit>) -> FdVar {
        assert!(domain > 0);
        let bv = BitVec::new(sink, width_for(domain as u64 - 1));
        bv.assert_le_const_if(sink, domain as u64 - 1, guard);
        FdVar::with_repr(FdRepr::Binary(bv), domain)
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
                    _ => at_most_one(sink, &selectors, amo),
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

    /// Asserts `guard → self ∉ range`, one clause per value. A one-hot
    /// bound issued before the domain grew knows nothing about the
    /// selectors allocated later, so each growth forbids the new values
    /// under the same activator. (Binary comparators cover the whole bit
    /// width and need no patch.)
    pub fn forbid_range_if<S: CnfSink>(&mut self, sink: &mut S, range: Range<usize>, guard: Lit) {
        assert!(range.end <= self.domain);
        let mut clause = Vec::new();
        for v in range {
            clause.clear();
            clause.push(!guard);
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
    pub fn assert_le_if<S: CnfSink>(&mut self, sink: &mut S, v: usize, guard: Lit) {
        match &self.repr {
            FdRepr::Binary(bv) => bv.assert_le_const_if(sink, v as u64, Some(guard)),
            FdRepr::OneHot(_) => self.forbid_range_if(sink, (v + 1)..self.domain, guard),
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

/// Appends the mapping variables `π_q^t` of `steps` to every program
/// qubit's row of `mapping` (`mapping[q][t]`, over `np` physical qubits)
/// and emits their injectivity, step by step: the mapping family the flat
/// and TB models share. Variables go out qubit by qubit.
pub fn mapping_steps<S: CnfSink>(
    sink: &mut S,
    mapping: &mut [Vec<FdVar>],
    np: usize,
    enc: EncodingConfig,
    steps: Range<usize>,
) {
    for row in mapping.iter_mut() {
        for _ in steps.clone() {
            row.push(match enc.mapping {
                MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                    FdVar::new_onehot(sink, np, enc.amo)
                }
                MappingEncoding::Binary => FdVar::new_binary(sink, np),
            });
        }
    }
    for t in steps {
        assert_injective(sink, mapping, t, np, enc);
    }
}

/// Asserts that no two program qubits share a physical qubit at step `t`
/// of `mapping` (`mapping[q][t]`, over `np` physical qubits):
///
/// * one-hot: an at-most-one per physical qubit (the "int" style);
/// * binary: per qubit pair, at least one bit of the two vectors differs;
/// * inverse one-hot: an inverse family `π_inv(p, t)` over `Q ∪ {free}`,
///   channeled to the mapping; injectivity follows from `π_inv` being a
///   function (the EUF trick).
pub fn assert_injective<S: CnfSink>(
    sink: &mut S,
    mapping: &mut [Vec<FdVar>],
    t: usize,
    np: usize,
    enc: EncodingConfig,
) {
    let nq = mapping.len();
    match enc.mapping {
        MappingEncoding::OneHot => {
            for p in 0..np {
                let sels: Vec<Lit> = mapping.iter_mut().map(|m| m[t].eq_lit(sink, p)).collect();
                at_most_one(sink, &sels, enc.amo);
            }
        }
        MappingEncoding::Binary => {
            for q1 in 0..nq {
                for q2 in (q1 + 1)..nq {
                    let diffs: Vec<Lit> = mapping[q1][t]
                        .raw_lits()
                        .iter()
                        .zip(mapping[q2][t].raw_lits())
                        .map(|(&x, y)| gates::xor_lit(sink, x, y))
                        .collect();
                    let diff = gates::or_all(sink, &diffs);
                    sink.add_clause(&[diff]);
                }
            }
        }
        MappingEncoding::InverseOneHot => {
            let mut inv: Vec<FdVar> = (0..np)
                .map(|_| FdVar::new_onehot(sink, nq + 1, enc.amo))
                .collect();
            for q in 0..nq {
                for p in 0..np {
                    let m = mapping[q][t].eq_lit(sink, p);
                    let i = inv[p].eq_lit(sink, q);
                    sink.add_clause(&[!m, i]);
                    sink.add_clause(&[!i, m]);
                }
            }
        }
    }
}

/// The Eq. 1 literal: true iff program qubits `qa` and `qb` sit on the two
/// ends of one device edge, in either orientation, at step `t` of
/// `mapping` (`mapping[q][t]`).
pub fn adjacency_lit<S: CnfSink>(
    sink: &mut S,
    graph: &CouplingGraph,
    mapping: &mut [Vec<FdVar>],
    qa: u16,
    qb: u16,
    t: usize,
) -> Lit {
    let mut pair_lits = Vec::with_capacity(2 * graph.num_edges());
    for e in 0..graph.num_edges() {
        let (pa, pb) = graph.edge(e);
        for (x, y) in [(pa, pb), (pb, pa)] {
            let la = mapping[qa as usize][t].eq_lit(sink, x as usize);
            let lb = mapping[qb as usize][t].eq_lit(sink, y as usize);
            pair_lits.push(gates::and_lit(sink, la, lb));
        }
    }
    gates::or_all(sink, &pair_lits)
}

/// Emits Eq. 1 over `steps`, the scheduling family the flat and TB models
/// share: a two-qubit gate at step `t` acts on adjacent physical qubits,
/// `(t_g == t) → adjacent(q, q', t)`. Gates go one by one, steps inner,
/// and each qubit pair's [`adjacency_lit`] is built once per step.
pub fn adjacency_steps<S: CnfSink>(
    sink: &mut S,
    circuit: &Circuit,
    graph: &CouplingGraph,
    mapping: &mut [Vec<FdVar>],
    time: &TimeVars,
    steps: Range<usize>,
) {
    let mut adj_cache: HashMap<(u16, u16, usize), Lit> = HashMap::new();
    let mut clause = Vec::new();
    for (g, gate) in circuit.gates().iter().enumerate() {
        if let Operands::Two(q1, q2) = gate.operands {
            let (qa, qb) = (q1.min(q2), q1.max(q2));
            for t in steps.clone() {
                let adj = *adj_cache
                    .entry((qa, qb, t))
                    .or_insert_with(|| adjacency_lit(sink, graph, mapping, qa, qb, t));
                clause.clear();
                time.var(g).push_neq(t, &mut clause);
                clause.push(adj);
                sink.add_clause(&clause);
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

/// The transitions into `steps`: transition `t` leads from step `t` to
/// step `t + 1`, so the window `0..T` has transitions `0..T-1`, and a
/// growth to `T..T'` adds `T-1..T'-1`, the first across the seam.
pub fn transitions_into(steps: Range<usize>) -> Range<usize> {
    steps.start.saturating_sub(1)..steps.end.saturating_sub(1)
}

/// An ordering constraint between two gates' time variables.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// `t_a < t_b`.
    Before,
    /// `t_a ≤ t_b`.
    BeforeOrEqual,
    /// `t_a ≠ t_b`.
    NotEqual,
}

/// The family of gate time variables with dependency support.
///
/// For one-hot time, dependencies use per-gate *prefix ladders*
/// (`le[g][t] ↔ t_g ≤ t`), giving `O(T)` clauses per dependency; for
/// binary time, a comparator circuit per dependency.
///
/// The window starts empty and opens by [`TimeVars::grow`], before any
/// ordering is asserted. Every domain constraint (at-least-one / binary
/// upper bound) is guarded by the window's generation literal, so every
/// solve must assume the current one, and a growth can retire it.
#[derive(Debug, Clone)]
pub struct TimeVars {
    vars: Vec<FdVar>,
    encoding: TimeEncoding,
    amo: AmoEncoding,
    /// Lazily built prefix ladders (one-hot only): `ladders[g][t]` ↔ `t_g ≤ t`.
    ladders: Vec<Option<Vec<Lit>>>,
    t_ub: usize,
    /// Recorded one-hot orderings, re-emitted for the new steps whenever
    /// the window grows (binary comparators are domain-independent).
    orders: Vec<(Order, usize, usize)>,
}

impl TimeVars {
    /// `num_gates` time variables over an empty window.
    pub fn new(num_gates: usize, encoding: TimeEncoding, amo: AmoEncoding) -> TimeVars {
        TimeVars {
            vars: Vec::with_capacity(num_gates),
            encoding,
            amo,
            ladders: vec![None; num_gates],
            t_ub: 0,
            orders: Vec::new(),
        }
    }

    /// Grows the window to `0..to` under a fresh generation guard, which
    /// it returns: each variable's domain constraint over the new window
    /// is conditional on it. Over the new steps it appends the
    /// materialized ladders' rungs and re-emits every recorded ordering.
    /// Once the whole model has grown, the caller root-falsifies the
    /// previous guard. Returns `None`, leaving the family untouched, when
    /// a binary time index would need a wider bit-vector; the caller
    /// rebuilds then.
    ///
    /// # Panics
    ///
    /// Panics unless `to` exceeds the current window.
    pub fn grow<S: CnfSink>(&mut self, sink: &mut S, to: usize) -> Option<Lit> {
        let from = self.t_ub;
        assert!(to > from, "windows only grow");
        if self.encoding == TimeEncoding::Binary
            && from > 0
            && width_for(to as u64 - 1) != width_for(from as u64 - 1)
        {
            return None;
        }
        let guard = Lit::positive(sink.new_var());
        let num_gates = self.ladders.len();
        for g in 0..num_gates {
            if from == 0 {
                self.vars.push(match self.encoding {
                    TimeEncoding::OneHot => FdVar::new_onehot_guarded(sink, to, self.amo, guard),
                    TimeEncoding::Binary => FdVar::new_binary_guarded(sink, to, guard),
                });
            } else {
                let grown = self.vars[g].extend_domain(sink, to, self.amo, guard);
                debug_assert!(grown, "width checked above");
            }
        }
        self.t_ub = to;
        // Comparator orderings and xor disequalities range over the full
        // bit width already: only one-hot time has steps to fill in.
        if self.encoding == TimeEncoding::OneHot {
            for g in 0..num_gates {
                if self.ladders[g].is_some() {
                    self.rungs(sink, g, from..to);
                }
            }
            for i in 0..self.orders.len() {
                self.emit_order(sink, self.orders[i], from..to);
            }
        }
        Some(guard)
    }

    /// The upper bound `T_UB` the variables range under.
    pub fn t_ub(&self) -> usize {
        self.t_ub
    }

    /// Asserts `act → t_g < bound` for every gate, over the window's
    /// `steps`: one-hot time forbids each value of `steps` from `bound`
    /// on, one clause per gate and value, so a window growth calls this
    /// again over its new steps; binary time asserts one comparator per
    /// gate when `steps` starts the window, which covers every later step.
    pub fn bound_if<S: CnfSink>(
        &mut self,
        sink: &mut S,
        bound: usize,
        act: Lit,
        steps: Range<usize>,
    ) {
        for var in &mut self.vars {
            match self.encoding {
                TimeEncoding::OneHot => {
                    var.forbid_range_if(sink, bound.max(steps.start)..steps.end, act)
                }
                TimeEncoding::Binary if steps.start == 0 => var.assert_le_if(sink, bound - 1, act),
                TimeEncoding::Binary => {}
            }
        }
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

    /// Appends the rungs of `steps` to gate `g`'s prefix ladder,
    /// `le[t] ↔ t_g ≤ t`, a prefix OR of selectors.
    fn rungs<S: CnfSink>(&mut self, sink: &mut S, g: usize, steps: Range<usize>) {
        let mut lits = self.ladders[g].take().unwrap_or_default();
        for t in steps {
            let sel = self.vars[g].eq_lit(sink, t);
            let le = Lit::positive(sink.new_var());
            match lits.last() {
                None => {
                    // le0 ↔ sel0
                    sink.add_clause(&[!le, sel]);
                    sink.add_clause(&[le, !sel]);
                }
                Some(&prev) => {
                    sink.add_clause(&[!prev, le]);
                    sink.add_clause(&[!sel, le]);
                    sink.add_clause(&[!le, prev, sel]);
                }
            }
            lits.push(le);
        }
        self.ladders[g] = Some(lits);
    }

    /// Gate `g`'s prefix ladder over the whole window, built on first use.
    fn ladder<S: CnfSink>(&mut self, sink: &mut S, g: usize) -> Vec<Lit> {
        if self.ladders[g].is_none() {
            self.rungs(sink, g, 0..self.t_ub);
        }
        self.ladders[g].clone().expect("just built")
    }

    /// Emits a one-hot ordering over `steps`.
    fn emit_order<S: CnfSink>(
        &mut self,
        sink: &mut S,
        (order, a, b): (Order, usize, usize),
        steps: Range<usize>,
    ) {
        match order {
            Order::Before => {
                // sel(b, t) → le(a, t-1); sel(b, 0) impossible.
                if steps.start == 0 {
                    let first = self.vars[b].eq_lit(sink, 0);
                    sink.add_clause(&[!first]);
                }
                let ladder = self.ladder(sink, a);
                for t in steps.start.max(1)..steps.end {
                    let sel = self.vars[b].eq_lit(sink, t);
                    sink.add_clause(&[!sel, ladder[t - 1]]);
                }
            }
            Order::BeforeOrEqual => {
                let ladder = self.ladder(sink, a);
                for t in steps {
                    let sel = self.vars[b].eq_lit(sink, t);
                    sink.add_clause(&[!sel, ladder[t]]);
                }
            }
            Order::NotEqual => {
                for t in steps {
                    let sa = self.vars[a].eq_lit(sink, t);
                    let sb = self.vars[b].eq_lit(sink, t);
                    sink.add_clause(&[!sa, !sb]);
                }
            }
        }
    }

    /// Asserts an ordering over every window: once over the current
    /// window, and again over the new steps of each [`TimeVars::grow`]
    /// (one-hot), or once as a comparator circuit (binary).
    fn assert_order<S: CnfSink>(&mut self, sink: &mut S, order: Order, a: usize, b: usize) {
        match self.encoding {
            TimeEncoding::OneHot => {
                self.orders.push((order, a, b));
                self.emit_order(sink, (order, a, b), 0..self.t_ub);
            }
            TimeEncoding::Binary => {
                let (va, vb) = (self.vars[a].clone(), self.vars[b].clone());
                let (FdRepr::Binary(ba), FdRepr::Binary(bb)) = (&va.repr, &vb.repr) else {
                    unreachable!("binary time variables are bit-vectors");
                };
                match order {
                    Order::Before => ba.assert_lt(sink, bb),
                    Order::BeforeOrEqual => ba.assert_le(sink, bb),
                    Order::NotEqual => {
                        // One Tseitin xor per bit: some bit differs.
                        let diffs: Vec<Lit> = ba
                            .bits()
                            .iter()
                            .zip(bb.bits())
                            .map(|(&x, &y)| gates::xor_lit(sink, x, y))
                            .collect();
                        sink.add_clause(&diffs);
                    }
                }
            }
        }
    }

    /// Asserts the gate-dependency constraint `t_earlier < t_later`
    /// (§II-A constraint 2).
    pub fn assert_before<S: CnfSink>(&mut self, sink: &mut S, earlier: usize, later: usize) {
        self.assert_order(sink, Order::Before, earlier, later);
    }

    /// Asserts the relaxed dependency `t_earlier ≤ t_later`, used by the
    /// transition-based model where dependent gates may share a block.
    pub fn assert_before_or_equal<S: CnfSink>(
        &mut self,
        sink: &mut S,
        earlier: usize,
        later: usize,
    ) {
        self.assert_order(sink, Order::BeforeOrEqual, earlier, later);
    }

    /// Asserts `t_a ≠ t_b`: two gates that share a program qubit can never
    /// execute in the same time step, even when commutation leaves their
    /// *order* free (used by the commutation-aware flat model).
    pub fn assert_not_equal<S: CnfSink>(&mut self, sink: &mut S, a: usize, b: usize) {
        self.assert_order(sink, Order::NotEqual, a, b);
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
            v.assert_le_if(&mut s, 3, g);
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
            let mut tv = TimeVars::new(3, encoding, AmoEncoding::Pairwise);
            let g = tv.grow(&mut s, 4).expect("an empty window grows");
            tv.assert_before(&mut s, 0, 1);
            tv.assert_before(&mut s, 1, 2);
            // Check every assignment triple.
            for a in 0..4 {
                for b in 0..4 {
                    for c in 0..4 {
                        let mut assumptions = vec![g];
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
                FdVar::new_onehot_guarded(&mut s, 5, AmoEncoding::Pairwise, g0)
            } else {
                FdVar::new_binary_guarded(&mut s, 5, g0)
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
        let mut v = FdVar::new_binary_guarded(&mut s, 4, g0); // 2 bits
        let g1 = Lit::positive(s.new_var());
        assert!(!v.extend_domain(&mut s, 6, AmoEncoding::Pairwise, g1)); // needs 3
        assert_eq!(v.domain(), 4);
    }

    #[test]
    fn forbid_range_patches_stale_bound() {
        let mut s = Solver::new();
        let g0 = Lit::positive(s.new_var());
        let mut v = FdVar::new_onehot_guarded(&mut s, 4, AmoEncoding::Pairwise, g0);
        // A "≤ 2" activation issued before the extension…
        let act = Lit::positive(s.new_var());
        v.assert_le_if(&mut s, 2, act);
        let g1 = Lit::positive(s.new_var());
        assert!(v.extend_domain(&mut s, 6, AmoEncoding::Pairwise, g1));
        s.add_clause([!g0]);
        // …knows nothing about the new values until patched.
        v.forbid_range_if(&mut s, 4..6, act);
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
            let mut tv = TimeVars::new(3, encoding, AmoEncoding::Pairwise);
            let g0 = tv.grow(&mut s, 5).expect("an empty window grows");
            tv.assert_before(&mut s, 0, 1);
            tv.assert_before_or_equal(&mut s, 1, 2);
            tv.assert_not_equal(&mut s, 0, 2);
            let g1 = tv.grow(&mut s, 7).expect("same binary width");
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
    fn binary_time_growth_refuses_a_wider_vector() {
        let mut s = Solver::new();
        let mut tv = TimeVars::new(2, TimeEncoding::Binary, AmoEncoding::Pairwise);
        assert!(tv.grow(&mut s, 3).is_some()); // 2 bits
        assert!(tv.grow(&mut s, 4).is_some()); // still 2 bits
        assert_eq!(tv.t_ub(), 4);
        assert!(tv.grow(&mut s, 6).is_none()); // needs 3
        assert_eq!(tv.t_ub(), 4);
    }
}
