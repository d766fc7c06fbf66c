//! Cardinality constraints (`Σ xᵢ ≤ k`) with swappable encodings.
//!
//! The OLSQ2 swap-count bound (Eq. 5 of the paper) is a Boolean cardinality
//! constraint. The paper compares Z3's `AtMost` (pseudo-Boolean theory
//! solver) against a CNF sequential-counter circuit and finds CNF much
//! faster. Here the contenders are:
//!
//! * [`CardEncoding::SequentialCounter`] — Sinz's counter in CNF with
//!   *sorted, monotone outputs*: bounding to `k` is the single assumption
//!   `¬out[k]`, which is what makes the paper's iterative-descent swap
//!   optimization incremental.
//! * [`CardEncoding::Totalizer`] — Bailleux–Boutonnet unary totalizer,
//!   also with sorted outputs.
//! * [`CardEncoding::AdderNetwork`] — binary adder tree plus a guarded
//!   comparator per bound; propagates poorly, playing the role of the
//!   pseudo-Boolean `AtMost` path in Table II.

// Indexed `for` loops are deliberate here: counter ladders index adjacent bounds.
#![allow(clippy::needless_range_loop)]
use crate::bitvec::BitVec;
use crate::gates::full_adder;
use crate::sink::CnfSink;
use olsq2_sat::Lit;
use std::collections::HashMap;

/// Encoding choice for cardinality networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CardEncoding {
    /// Sinz sequential counter in CNF (the paper's winning choice).
    #[default]
    SequentialCounter,
    /// Unary totalizer tree.
    Totalizer,
    /// Binary adder network + comparator (`AtMost`/pseudo-Boolean stand-in).
    AdderNetwork,
}

#[derive(Debug, Clone)]
enum Outputs {
    /// `sorted[j]` is true if at least `j+1` inputs are true
    /// (input → output direction only).
    Sorted(Vec<Lit>),
    /// Binary count of true inputs.
    Binary(BitVec),
}

/// A cardinality network over a fixed input set, supporting repeated
/// bounding via assumptions (for the iterative-descent loop of §III-B-2).
///
/// # Examples
///
/// ```
/// use olsq2_encode::{CardEncoding, CardinalityNetwork, CnfSink};
/// use olsq2_sat::{Lit, Solver, SolveResult};
/// let mut s = Solver::new();
/// let xs: Vec<Lit> = (0..6).map(|_| Lit::positive(s.new_var())).collect();
/// let mut card = CardinalityNetwork::new(&mut s, &xs, 6, CardEncoding::SequentialCounter);
/// // Force four inputs true, then ask for ≤ 3: UNSAT under the assumption.
/// for &x in &xs[..4] { s.add_clause([x]); }
/// let bound = card.at_most(&mut s, 3);
/// assert_eq!(s.solve(&[bound]), SolveResult::Unsat);
/// let relaxed = card.at_most(&mut s, 4);
/// assert_eq!(s.solve(&[relaxed]), SolveResult::Sat);
/// ```
#[derive(Debug, Clone)]
pub struct CardinalityNetwork {
    n_inputs: usize,
    capacity: usize,
    enc: CardEncoding,
    max_bound: usize,
    /// The input literals (kept so [`CardinalityNetwork::extend`] can
    /// rebuild the adder network; the sorted encodings extend in place).
    inputs: Vec<Lit>,
    outputs: Outputs,
    /// Cached activation literals per bound (adder encoding only).
    bound_cache: HashMap<usize, Lit>,
}

impl CardinalityNetwork {
    /// Builds a network over `inputs` able to express bounds `0..=max_bound`.
    ///
    /// For the sorted encodings, auxiliary size is `O(n · min(n, max_bound+1))`;
    /// bounds above `max_bound` are reported as trivially true.
    pub fn new<S: CnfSink>(
        sink: &mut S,
        inputs: &[Lit],
        max_bound: usize,
        enc: CardEncoding,
    ) -> CardinalityNetwork {
        let n = inputs.len();
        let capacity = n.min(max_bound.saturating_add(1));
        let outputs = match enc {
            CardEncoding::SequentialCounter => {
                Outputs::Sorted(sequential_counter(sink, inputs, capacity))
            }
            CardEncoding::Totalizer => Outputs::Sorted(totalizer(sink, inputs, capacity)),
            CardEncoding::AdderNetwork => Outputs::Binary(adder_network(sink, inputs)),
        };
        CardinalityNetwork {
            n_inputs: n,
            capacity,
            enc,
            max_bound,
            inputs: inputs.to_vec(),
            outputs,
            bound_cache: HashMap::new(),
        }
    }

    /// Appends `new_inputs` to the network in place, reusing the existing
    /// counting circuitry, and returns any activation literals that were
    /// invalidated by the extension (the caller should falsify them at the
    /// root so the solver can discard the superseded comparators).
    ///
    /// * `SequentialCounter` — the sorted output column is exactly the
    ///   fold state of Sinz's counter, so extension *continues the fold*
    ///   over the new inputs; the resulting clauses are identical to a
    ///   fresh build over the concatenated input list.
    /// * `Totalizer` — builds a sub-totalizer over the new inputs and
    ///   merges it with the old root node.
    /// * `AdderNetwork` — re-sums all inputs (the binary adder has no
    ///   extension-friendly structure); previously cached bound literals
    ///   guard comparators over the old, smaller sum and are returned for
    ///   root falsification.
    ///
    /// Bound literals previously returned by [`CardinalityNetwork::at_most`]
    /// for the sorted encodings remain *sound* (they constrain the old
    /// input subset) but no longer cap the full sum; callers must request
    /// fresh bound literals after extension.
    pub fn extend<S: CnfSink>(&mut self, sink: &mut S, new_inputs: &[Lit]) -> Vec<Lit> {
        if new_inputs.is_empty() {
            return Vec::new();
        }
        let old_n = self.n_inputs;
        self.n_inputs += new_inputs.len();
        self.capacity = self.n_inputs.min(self.max_bound.saturating_add(1));
        self.inputs.extend_from_slice(new_inputs);
        let mut invalidated = Vec::new();
        match self.enc {
            CardEncoding::SequentialCounter => {
                let prev = match std::mem::replace(&mut self.outputs, Outputs::Sorted(Vec::new())) {
                    Outputs::Sorted(p) => p,
                    Outputs::Binary(_) => unreachable!("sequential counter has sorted outputs"),
                };
                let outs = sequential_counter_from(sink, prev, new_inputs, old_n, self.capacity);
                self.outputs = Outputs::Sorted(outs);
            }
            CardEncoding::Totalizer => {
                let old = match std::mem::replace(&mut self.outputs, Outputs::Sorted(Vec::new())) {
                    Outputs::Sorted(p) => p,
                    Outputs::Binary(_) => unreachable!("totalizer has sorted outputs"),
                };
                let fresh = totalizer(sink, new_inputs, self.capacity);
                let merged = if old.is_empty() {
                    fresh
                } else {
                    totalizer_merge(sink, &old, &fresh, self.capacity)
                };
                self.outputs = Outputs::Sorted(merged);
            }
            CardEncoding::AdderNetwork => {
                self.outputs = Outputs::Binary(adder_network(sink, &self.inputs));
                invalidated = self.bound_cache.drain().map(|(_, l)| l).collect();
                invalidated.sort_unstable();
            }
        }
        invalidated
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Largest bound the network can constrain (`capacity - 1`); larger
    /// bounds are trivially satisfied.
    pub fn max_expressible_bound(&self) -> usize {
        self.capacity.saturating_sub(1)
    }

    /// Returns an assumption literal that, when assumed, enforces
    /// `Σ inputs ≤ k`. Reusable across `solve` calls; requesting the same
    /// `k` twice returns the same literal.
    ///
    /// # Panics
    ///
    /// For sorted encodings, panics if `k` exceeds `max_bound` given at
    /// construction while still below the input count (the network cannot
    /// express it).
    pub fn at_most<S: CnfSink>(&mut self, sink: &mut S, k: usize) -> Lit {
        if k >= self.n_inputs {
            return sink.true_lit(); // vacuously true
        }
        match &self.outputs {
            Outputs::Sorted(outs) => {
                assert!(
                    k < outs.len(),
                    "bound {k} exceeds network capacity {}",
                    outs.len()
                );
                // outs[k] ↔ "≥ k+1 true" (forward direction); ¬outs[k] caps at k.
                !outs[k]
            }
            Outputs::Binary(_) => {
                if let Some(&l) = self.bound_cache.get(&k) {
                    return l;
                }
                let act = Lit::positive(sink.new_var());
                if let Outputs::Binary(sum) = &self.outputs {
                    sum.assert_le_const_if(sink, k as u64, Some(act));
                }
                self.bound_cache.insert(k, act);
                act
            }
        }
    }
}

/// Sinz sequential counter, one direction, `capacity` columns.
/// Returns `out[j]` = "at least j+1 of the inputs are true".
fn sequential_counter<S: CnfSink>(sink: &mut S, inputs: &[Lit], capacity: usize) -> Vec<Lit> {
    if inputs.is_empty() || capacity == 0 {
        return Vec::new();
    }
    sequential_counter_from(sink, Vec::new(), inputs, 0, capacity)
}

/// Continues the sequential-counter fold: `prev` is the output column
/// after `offset` inputs (empty when starting fresh), and the returned
/// column accounts for `inputs` as inputs `offset..offset+len`. Emits the
/// same clauses a monolithic build over the concatenated inputs would.
fn sequential_counter_from<S: CnfSink>(
    sink: &mut S,
    mut prev: Vec<Lit>,
    inputs: &[Lit],
    offset: usize,
    capacity: usize,
) -> Vec<Lit> {
    if capacity == 0 {
        return prev;
    }
    // s[j] after processing input i: at least j+1 true among inputs[0..=i].
    for (d, &x) in inputs.iter().enumerate() {
        let cols = capacity.min(offset + d + 1);
        let cur: Vec<Lit> = (0..cols).map(|_| Lit::positive(sink.new_var())).collect();
        // x → cur[0]
        sink.add_clause(&[!x, cur[0]]);
        for j in 0..prev.len() {
            // prev[j] → cur[j]
            sink.add_clause(&[!prev[j], cur[j]]);
            // x ∧ prev[j] → cur[j+1]
            if j + 1 < cols {
                sink.add_clause(&[!x, !prev[j], cur[j + 1]]);
            }
        }
        prev = cur;
    }
    prev
}

/// Bailleux–Boutonnet totalizer with outputs capped at `capacity`.
fn totalizer<S: CnfSink>(sink: &mut S, inputs: &[Lit], capacity: usize) -> Vec<Lit> {
    if inputs.is_empty() || capacity == 0 {
        return Vec::new();
    }
    fn build<S: CnfSink>(sink: &mut S, lits: &[Lit], cap: usize) -> Vec<Lit> {
        if lits.len() == 1 {
            return vec![lits[0]];
        }
        let mid = lits.len() / 2;
        let a = build(sink, &lits[..mid], cap);
        let b = build(sink, &lits[mid..], cap);
        totalizer_merge(sink, &a, &b, cap)
    }
    build(sink, inputs, capacity)
}

/// One totalizer merge node: combines two sorted-output children into a
/// sorted parent capped at `cap` columns (input → output direction only).
fn totalizer_merge<S: CnfSink>(sink: &mut S, a: &[Lit], b: &[Lit], cap: usize) -> Vec<Lit> {
    let out_len = (a.len() + b.len()).min(cap);
    if out_len == 0 {
        return Vec::new();
    }
    let r: Vec<Lit> = (0..out_len)
        .map(|_| Lit::positive(sink.new_var()))
        .collect();
    // a_i alone implies r_i (1-indexed semantics, 0-indexed storage).
    for (i, &ai) in a.iter().enumerate() {
        let tgt = i.min(out_len - 1);
        sink.add_clause(&[!ai, r[tgt]]);
    }
    for (j, &bj) in b.iter().enumerate() {
        let tgt = j.min(out_len - 1);
        sink.add_clause(&[!bj, r[tgt]]);
    }
    // a_i ∧ b_j → r_{i+j+1} (counts add).
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let tgt = (i + j + 1).min(out_len - 1);
            sink.add_clause(&[!ai, !bj, r[tgt]]);
        }
    }
    r
}

/// Binary adder network: ripple columns of full adders (a "parallel
/// counter"), returning the binary count of true inputs.
fn adder_network<S: CnfSink>(sink: &mut S, inputs: &[Lit]) -> BitVec {
    if inputs.is_empty() {
        let f = sink.false_lit();
        return BitVec::from_bits(vec![f]);
    }
    let mut columns: Vec<Vec<Lit>> = vec![inputs.to_vec()];
    let mut result: Vec<Lit> = Vec::new();
    let mut col = 0;
    while col < columns.len() {
        let mut bits = std::mem::take(&mut columns[col]);
        // Reduce the column to a single bit, pushing carries upward.
        while bits.len() >= 3 {
            let a = bits.pop().expect("len >= 3");
            let b = bits.pop().expect("len >= 2");
            let c = bits.pop().expect("len >= 1");
            let (sum, carry) = full_adder(sink, a, b, c);
            bits.push(sum);
            if columns.len() <= col + 1 {
                columns.push(Vec::new());
            }
            columns[col + 1].push(carry);
        }
        if bits.len() == 2 {
            let a = bits.pop().expect("len == 2");
            let b = bits.pop().expect("len == 1");
            let (sum, carry) = crate::gates::half_adder(sink, a, b);
            bits.push(sum);
            if columns.len() <= col + 1 {
                columns.push(Vec::new());
            }
            columns[col + 1].push(carry);
        }
        match bits.pop() {
            Some(b) => result.push(b),
            None => {
                let f = sink.false_lit();
                result.push(f);
            }
        }
        col += 1;
    }
    BitVec::from_bits(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_sat::{SolveResult, Solver};

    const ENCODINGS: [CardEncoding; 3] = [
        CardEncoding::SequentialCounter,
        CardEncoding::Totalizer,
        CardEncoding::AdderNetwork,
    ];

    /// For every input pattern and every bound, the network must accept the
    /// pattern iff its popcount is ≤ the bound.
    fn check_exhaustive(n: usize, enc: CardEncoding) {
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..n).map(|_| Lit::positive(s.new_var())).collect();
        let mut card = CardinalityNetwork::new(&mut s, &xs, n, enc);
        let bounds: Vec<Lit> = (0..=n).map(|k| card.at_most(&mut s, k)).collect();
        for pattern in 0..(1u32 << n) {
            for k in 0..=n {
                let mut assumptions = vec![bounds[k]];
                for (i, &x) in xs.iter().enumerate() {
                    assumptions.push(if pattern >> i & 1 == 1 { x } else { !x });
                }
                let expected = pattern.count_ones() as usize <= k;
                let got = s.solve(&assumptions);
                assert_eq!(
                    got == SolveResult::Sat,
                    expected,
                    "enc={enc:?} n={n} pattern={pattern:b} k={k} got={got:?}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_small_all_encodings() {
        for enc in ENCODINGS {
            for n in 1..=5 {
                check_exhaustive(n, enc);
            }
        }
    }

    #[test]
    fn capacity_limits_sorted_networks() {
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..10).map(|_| Lit::positive(s.new_var())).collect();
        let mut card = CardinalityNetwork::new(&mut s, &xs, 3, CardEncoding::SequentialCounter);
        assert_eq!(card.max_expressible_bound(), 3);
        // Bound 2 works:
        let b2 = card.at_most(&mut s, 2);
        for &x in &xs[..3] {
            s.add_clause([x]);
        }
        assert_eq!(s.solve(&[b2]), SolveResult::Unsat);
        let b3 = card.at_most(&mut s, 3);
        assert_eq!(s.solve(&[b3]), SolveResult::Sat);
    }

    #[test]
    fn bound_at_or_above_input_count_is_trivial() {
        for enc in ENCODINGS {
            let mut s = Solver::new();
            let xs: Vec<Lit> = (0..4).map(|_| Lit::positive(s.new_var())).collect();
            let mut card = CardinalityNetwork::new(&mut s, &xs, 4, enc);
            let b = card.at_most(&mut s, 4);
            for &x in &xs {
                s.add_clause([x]);
            }
            assert_eq!(s.solve(&[b]), SolveResult::Sat, "enc={enc:?}");
        }
    }

    #[test]
    fn adder_caches_bound_literals() {
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..5).map(|_| Lit::positive(s.new_var())).collect();
        let mut card = CardinalityNetwork::new(&mut s, &xs, 5, CardEncoding::AdderNetwork);
        let a = card.at_most(&mut s, 2);
        let b = card.at_most(&mut s, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn descent_loop_finds_exact_count() {
        // Mimic the paper's iterative descent: fix 3 of 8 inputs true, then
        // descend the bound until UNSAT; optimum must be 3.
        for enc in ENCODINGS {
            let mut s = Solver::new();
            let xs: Vec<Lit> = (0..8).map(|_| Lit::positive(s.new_var())).collect();
            let mut card = CardinalityNetwork::new(&mut s, &xs, 8, enc);
            for &x in &xs[..3] {
                s.add_clause([x]);
            }
            let mut k = 8usize;
            let optimum = loop {
                let b = card.at_most(&mut s, k);
                match s.solve(&[b]) {
                    SolveResult::Sat => {
                        if k == 0 {
                            break 0;
                        }
                        k -= 1;
                    }
                    SolveResult::Unsat => break k + 1,
                    SolveResult::Unknown => panic!("no budget set"),
                }
            };
            assert_eq!(optimum, 3, "enc={enc:?}");
        }
    }

    /// Build over a prefix, extend with the rest, and require exactly the
    /// popcount semantics of a fresh network over all inputs.
    fn check_extended_exhaustive(n_old: usize, n_new: usize, enc: CardEncoding) {
        let n = n_old + n_new;
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..n).map(|_| Lit::positive(s.new_var())).collect();
        let mut card = CardinalityNetwork::new(&mut s, &xs[..n_old], n, enc);
        let invalidated = card.extend(&mut s, &xs[n_old..]);
        for l in invalidated {
            s.add_clause([!l]);
        }
        assert_eq!(card.num_inputs(), n);
        let bounds: Vec<Lit> = (0..=n).map(|k| card.at_most(&mut s, k)).collect();
        for pattern in 0..(1u32 << n) {
            for k in 0..=n {
                let mut assumptions = vec![bounds[k]];
                for (i, &x) in xs.iter().enumerate() {
                    assumptions.push(if pattern >> i & 1 == 1 { x } else { !x });
                }
                let expected = pattern.count_ones() as usize <= k;
                let got = s.solve(&assumptions);
                assert_eq!(
                    got == SolveResult::Sat,
                    expected,
                    "enc={enc:?} n_old={n_old} n_new={n_new} pattern={pattern:b} k={k} got={got:?}"
                );
            }
        }
    }

    #[test]
    fn extension_matches_fresh_build_all_encodings() {
        for enc in ENCODINGS {
            for (n_old, n_new) in [(0, 3), (1, 3), (2, 2), (3, 1), (3, 3)] {
                check_extended_exhaustive(n_old, n_new, enc);
            }
        }
    }

    #[test]
    fn repeated_extension_grows_capacity_with_inputs() {
        // Capacity limited by input count at build time must grow as
        // inputs arrive, so new bounds become expressible.
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..8).map(|_| Lit::positive(s.new_var())).collect();
        let mut card =
            CardinalityNetwork::new(&mut s, &xs[..2], 7, CardEncoding::SequentialCounter);
        assert_eq!(card.max_expressible_bound(), 1);
        card.extend(&mut s, &xs[2..5]);
        card.extend(&mut s, &xs[5..]);
        assert_eq!(card.max_expressible_bound(), 7);
        for &x in &xs[..5] {
            s.add_clause([x]);
        }
        let b4 = card.at_most(&mut s, 4);
        assert_eq!(s.solve(&[b4]), SolveResult::Unsat);
        let b5 = card.at_most(&mut s, 5);
        assert_eq!(s.solve(&[b5]), SolveResult::Sat);
    }

    #[test]
    fn sequential_extension_emits_identical_clause_count() {
        // The fold continuation must produce exactly the clauses of a
        // monolithic build over the concatenated inputs.
        let mut fresh = crate::Cnf::new();
        let xs: Vec<Lit> = (0..9).map(|_| fresh.new_var()).map(Lit::positive).collect();
        CardinalityNetwork::new(&mut fresh, &xs, 5, CardEncoding::SequentialCounter);

        let mut grown = crate::Cnf::new();
        let ys: Vec<Lit> = (0..9).map(|_| grown.new_var()).map(Lit::positive).collect();
        let mut card =
            CardinalityNetwork::new(&mut grown, &ys[..4], 5, CardEncoding::SequentialCounter);
        card.extend(&mut grown, &ys[4..]);
        assert_eq!(fresh.num_clauses(), grown.num_clauses());
        assert_eq!(fresh.num_vars(), grown.num_vars());
    }

    #[test]
    fn zero_inputs() {
        for enc in ENCODINGS {
            let mut s = Solver::new();
            let mut card = CardinalityNetwork::new(&mut s, &[], 3, enc);
            let b = card.at_most(&mut s, 0);
            assert_eq!(s.solve(&[b]), SolveResult::Sat, "enc={enc:?}");
        }
    }
}
