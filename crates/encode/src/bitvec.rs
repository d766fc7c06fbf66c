//! Unsigned bit-vector variables.
//!
//! This is the reproduction's stand-in for Z3's bit-vector theory: a value
//! in `0..2^w` represented by `w` fresh Boolean variables (LSB first),
//! manipulated purely through CNF. The OLSQ2 "bv" encoding stores each
//! mapping variable π and time variable t as one of these.

use crate::gates::{and_all, iff_lit};
use crate::sink::CnfSink;
use olsq2_sat::{Lit, Solver};

/// An unsigned bit-vector of fresh Boolean variables, LSB first.
///
/// # Examples
///
/// ```
/// use olsq2_encode::{BitVec, CnfSink};
/// use olsq2_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let bv = BitVec::new(&mut s, 4);
/// bv.assert_eq_const(&mut s, 11);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(bv.value_in(&s), Some(11));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    bits: Vec<Lit>,
}

/// Minimal width able to represent values `0..=max` (at least 1).
pub fn width_for(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

impl BitVec {
    /// Allocates a bit-vector of `width` fresh variables.
    pub fn new<S: CnfSink>(sink: &mut S, width: usize) -> BitVec {
        assert!(width > 0 && width <= 63, "width must be in 1..=63");
        BitVec {
            bits: (0..width).map(|_| Lit::positive(sink.new_var())).collect(),
        }
    }

    /// Wraps existing literals as a bit-vector (LSB first).
    pub fn from_bits(bits: Vec<Lit>) -> BitVec {
        assert!(!bits.is_empty());
        BitVec { bits }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The literals, LSB first.
    pub fn bits(&self) -> &[Lit] {
        &self.bits
    }

    /// The literal of bit `i` adjusted to be true iff that bit of the value
    /// equals the corresponding bit of `val`.
    #[inline]
    fn bit_eq(&self, i: usize, val: u64) -> Lit {
        if val >> i & 1 == 1 {
            self.bits[i]
        } else {
            !self.bits[i]
        }
    }

    /// Appends the literals that are all true iff the vector equals `val`
    /// (a conjunction usable as an implication antecedent) to `out`.
    pub fn push_eq_const(&self, val: u64, out: &mut Vec<Lit>) {
        out.extend((0..self.width()).map(|i| self.bit_eq(i, val)));
    }

    /// Appends a clause prefix asserting "≠ val" to `out`: literals of
    /// which at least one is true iff the vector differs from `val`. Push
    /// payload literals after these to encode `(self == val) → payload`.
    pub fn push_neq_const(&self, val: u64, out: &mut Vec<Lit>) {
        out.extend((0..self.width()).map(|i| !self.bit_eq(i, val)));
    }

    /// Reified equality with a constant: a literal `y ↔ (self == val)`.
    pub fn eq_const_lit<S: CnfSink>(&self, sink: &mut S, val: u64) -> Lit {
        let mut conj = Vec::with_capacity(self.width());
        self.push_eq_const(val, &mut conj);
        and_all(sink, &conj)
    }

    /// Asserts `self == val` with unit clauses.
    ///
    /// # Panics
    ///
    /// Panics if `val` does not fit in the width.
    pub fn assert_eq_const<S: CnfSink>(&self, sink: &mut S, val: u64) {
        assert!(val >> self.width() == 0, "constant wider than bit-vector");
        for i in 0..self.width() {
            sink.add_clause(&[self.bit_eq(i, val)]);
        }
    }

    /// Asserts `guard → (self ≤ val)` using the lexicographic encoding
    /// (one clause per zero bit of `val`). Pass `None` for an
    /// unconditional constraint.
    pub fn assert_le_const_if<S: CnfSink>(&self, sink: &mut S, val: u64, guard: Option<Lit>) {
        let w = self.width();
        if val >> w != 0 || val + 1 == 1 << w {
            return; // trivially satisfied within the width
        }
        for i in 0..w {
            if val >> i & 1 == 0 {
                let mut clause = Vec::with_capacity(w + 1);
                if let Some(g) = guard {
                    clause.push(!g);
                }
                clause.push(!self.bits[i]);
                for j in (i + 1)..w {
                    if val >> j & 1 == 1 {
                        clause.push(!self.bits[j]);
                    }
                }
                sink.add_clause(&clause);
            }
        }
    }

    /// Asserts `guard → (self < val)`; `val == 0` forces the guard false.
    pub fn assert_lt_const_if<S: CnfSink>(&self, sink: &mut S, val: u64, guard: Option<Lit>) {
        if val == 0 {
            match guard {
                Some(g) => sink.add_clause(&[!g]),
                None => {
                    let f = sink.false_lit();
                    sink.add_clause(&[f]);
                }
            }
        } else {
            self.assert_le_const_if(sink, val - 1, guard);
        }
    }

    /// Asserts `guard → (self ≥ val)`: at least one bit at or above each
    /// pattern position. Encoded by the dual lexicographic scheme.
    pub fn assert_ge_const_if<S: CnfSink>(&self, sink: &mut S, val: u64, guard: Option<Lit>) {
        let w = self.width();
        assert!(val >> w == 0, "constant wider than bit-vector");
        if val == 0 {
            return;
        }
        // self ≥ val  ⇔  ¬(self ≤ val-1): for each set bit i of val, if all
        // higher bits where val has 1 are matched, bit_i must hold unless a
        // higher zero-position bit of val is set in self.
        for i in 0..w {
            if val >> i & 1 == 1 {
                let mut clause = Vec::with_capacity(w + 1);
                if let Some(g) = guard {
                    clause.push(!g);
                }
                clause.push(self.bits[i]);
                for j in (i + 1)..w {
                    if val >> j & 1 == 0 {
                        clause.push(self.bits[j]);
                    }
                }
                sink.add_clause(&clause);
            }
        }
    }

    /// Reified equality between two equal-width vectors.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn eq_lit<S: CnfSink>(&self, sink: &mut S, other: &BitVec) -> Lit {
        assert_eq!(self.width(), other.width());
        let per_bit: Vec<Lit> = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| iff_lit(sink, a, b))
            .collect();
        and_all(sink, &per_bit)
    }

    /// Reified strict comparison: a literal `y ↔ (self < other)`.
    ///
    /// Built MSB-down: `lt_i = (¬a_i ∧ b_i) ∨ ((a_i ↔ b_i) ∧ lt_{i+1})`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn lt_lit<S: CnfSink>(&self, sink: &mut S, other: &BitVec) -> Lit {
        assert_eq!(self.width(), other.width());
        let mut lt = sink.false_lit();
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            // Iterating LSB→MSB and folding keeps the MSB outermost.
            let strictly = crate::gates::and_lit(sink, !a, b);
            let equal = iff_lit(sink, a, b);
            let carry = crate::gates::and_lit(sink, equal, lt);
            lt = crate::gates::or_lit(sink, strictly, carry);
        }
        lt
    }

    /// Asserts `self < other`.
    pub fn assert_lt<S: CnfSink>(&self, sink: &mut S, other: &BitVec) {
        let lt = self.lt_lit(sink, other);
        sink.add_clause(&[lt]);
    }

    /// Asserts `self ≤ other`.
    pub fn assert_le<S: CnfSink>(&self, sink: &mut S, other: &BitVec) {
        let gt = other.lt_lit(sink, self);
        sink.add_clause(&[!gt]);
    }

    /// Decodes the value from the solver's last model.
    pub fn value_in(&self, solver: &Solver) -> Option<u64> {
        let mut v = 0u64;
        for (i, &b) in self.bits.iter().enumerate() {
            if solver.model_value(b)? {
                v |= 1 << i;
            }
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_sat::SolveResult;

    #[test]
    fn width_for_ranges() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 3);
        assert_eq!(width_for(127), 7);
        assert_eq!(width_for(128), 8);
    }

    #[test]
    fn const_roundtrip() {
        for val in 0..16u64 {
            let mut s = Solver::new();
            let bv = BitVec::new(&mut s, 4);
            bv.assert_eq_const(&mut s, val);
            assert_eq!(s.solve(&[]), SolveResult::Sat);
            assert_eq!(bv.value_in(&s), Some(val));
        }
    }

    #[test]
    fn le_const_exhaustive() {
        for bound in 0..8u64 {
            for val in 0..8u64 {
                let mut s = Solver::new();
                let bv = BitVec::new(&mut s, 3);
                bv.assert_le_const_if(&mut s, bound, None);
                bv.assert_eq_const(&mut s, val);
                let expected = val <= bound;
                assert_eq!(
                    s.solve(&[]) == SolveResult::Sat,
                    expected,
                    "val={val} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn ge_const_exhaustive() {
        for bound in 0..8u64 {
            for val in 0..8u64 {
                let mut s = Solver::new();
                let bv = BitVec::new(&mut s, 3);
                bv.assert_ge_const_if(&mut s, bound, None);
                bv.assert_eq_const(&mut s, val);
                let expected = val >= bound;
                assert_eq!(
                    s.solve(&[]) == SolveResult::Sat,
                    expected,
                    "val={val} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn guarded_le_with_assumptions() {
        let mut s = Solver::new();
        let bv = BitVec::new(&mut s, 4);
        let g = Lit::positive(s.new_var());
        bv.assert_le_const_if(&mut s, 5, Some(g));
        bv.assert_eq_const(&mut s, 9);
        assert_eq!(s.solve(&[g]), SolveResult::Unsat);
        assert_eq!(s.solve(&[!g]), SolveResult::Sat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn lt_zero_forces_guard_false() {
        let mut s = Solver::new();
        let bv = BitVec::new(&mut s, 3);
        let g = Lit::positive(s.new_var());
        bv.assert_lt_const_if(&mut s, 0, Some(g));
        assert_eq!(s.solve(&[g]), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn eq_const_lit_reification() {
        for val in 0..8u64 {
            for target in 0..8u64 {
                let mut s = Solver::new();
                let bv = BitVec::new(&mut s, 3);
                let y = bv.eq_const_lit(&mut s, target);
                bv.assert_eq_const(&mut s, val);
                assert_eq!(s.solve(&[]), SolveResult::Sat);
                assert_eq!(s.model_value(y), Some(val == target));
            }
        }
    }

    #[test]
    fn neq_prefix_blocks_single_value() {
        let mut s = Solver::new();
        let bv = BitVec::new(&mut s, 3);
        let mut clause = Vec::new();
        bv.push_neq_const(5, &mut clause);
        s.add_clause(clause);
        bv.assert_eq_const(&mut s, 5);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn eq_lit_between_vectors() {
        let mut s = Solver::new();
        let a = BitVec::new(&mut s, 3);
        let b = BitVec::new(&mut s, 3);
        let y = a.eq_lit(&mut s, &b);
        a.assert_eq_const(&mut s, 6);
        b.assert_eq_const(&mut s, 6);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(y), Some(true));

        let mut s2 = Solver::new();
        let a = BitVec::new(&mut s2, 3);
        let b = BitVec::new(&mut s2, 3);
        let y = a.eq_lit(&mut s2, &b);
        a.assert_eq_const(&mut s2, 6);
        b.assert_eq_const(&mut s2, 2);
        assert_eq!(s2.solve(&[]), SolveResult::Sat);
        assert_eq!(s2.model_value(y), Some(false));
    }

    #[test]
    fn lt_between_vectors_exhaustive() {
        for a in 0..8u64 {
            for b in 0..8u64 {
                let mut s = Solver::new();
                let x = BitVec::new(&mut s, 3);
                let y = BitVec::new(&mut s, 3);
                let lt = x.lt_lit(&mut s, &y);
                x.assert_eq_const(&mut s, a);
                y.assert_eq_const(&mut s, b);
                assert_eq!(s.solve(&[]), SolveResult::Sat);
                assert_eq!(s.model_value(lt), Some(a < b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn assert_lt_le_prune_models() {
        let mut s = Solver::new();
        let x = BitVec::new(&mut s, 3);
        let y = BitVec::new(&mut s, 3);
        x.assert_lt(&mut s, &y);
        y.assert_le(&mut s, &x);
        assert_eq!(s.solve(&[]), SolveResult::Unsat); // x < y ≤ x impossible
    }

    #[test]
    fn le_const_trivial_bounds_add_nothing() {
        let mut cnf = crate::Cnf::new();
        let bv = BitVec::new(&mut cnf, 3);
        bv.assert_le_const_if(&mut cnf, 7, None); // max value: trivial
        assert_eq!(cnf.num_clauses(), 0);
    }
}
