//! Clausal proof logging and checking (DRAT-style, RUP lemmas).
//!
//! When [`Solver::enable_proof`](crate::Solver::enable_proof) is on, the
//! solver records every input clause, every learned lemma, every deletion,
//! and the final empty clause of an UNSAT run. [`Proof::check`] replays
//! the log with a reverse-unit-propagation (RUP) checker — an independent
//! implementation sharing no code with the solver's propagation — so
//! UNSAT answers can be verified without trusting the CDCL engine. This
//! mirrors how production SMT/SAT pipelines justify optimality proofs,
//! which in this repository back every "proven optimal" claim.

use crate::lit::Lit;
use std::collections::HashMap;

/// One event of a clausal proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// An input clause, as given by the user.
    Original(Vec<Lit>),
    /// A derived clause; must have the RUP property w.r.t. the clauses
    /// live at this point.
    Lemma(Vec<Lit>),
    /// A clause removed from the database.
    Delete(Vec<Lit>),
    /// The empty clause: the formula is unsatisfiable.
    Empty,
}

/// A recorded proof.
#[derive(Debug, Clone, Default)]
pub struct Proof {
    steps: Vec<ProofStep>,
}

/// Errors from [`Proof::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckProofError {
    /// A lemma is not RUP at its position.
    LemmaNotRup {
        /// Index of the failing step.
        step: usize,
    },
    /// A deletion references a clause that is not in the database.
    DeleteMissing {
        /// Index of the failing step.
        step: usize,
    },
    /// The proof claims UNSAT but the empty clause does not follow.
    EmptyNotDerivable,
    /// The proof ends without deriving the empty clause.
    NoEmptyClause,
}

impl std::fmt::Display for CheckProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckProofError::LemmaNotRup { step } => {
                write!(f, "lemma at step {step} is not RUP")
            }
            CheckProofError::DeleteMissing { step } => {
                write!(f, "deletion at step {step} references an unknown clause")
            }
            CheckProofError::EmptyNotDerivable => {
                write!(f, "empty clause does not follow by unit propagation")
            }
            CheckProofError::NoEmptyClause => write!(f, "proof has no empty-clause step"),
        }
    }
}

impl std::error::Error for CheckProofError {}

impl Proof {
    /// Creates an empty proof log.
    pub fn new() -> Proof {
        Proof::default()
    }

    /// Appends a step.
    pub fn push(&mut self, step: ProofStep) {
        self.steps.push(step);
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of lemma steps (learned clauses).
    pub fn num_lemmas(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Lemma(_)))
            .count()
    }

    /// Whether the proof ends in the empty clause (claims UNSAT).
    pub fn claims_unsat(&self) -> bool {
        self.steps.iter().any(|s| matches!(s, ProofStep::Empty))
    }

    /// Forward RUP check of the whole log.
    ///
    /// Propagation runs on a two-watched-literal scheme private to the
    /// checker, so large stitched proofs (cube-and-conquer refutations
    /// run to tens of thousands of lemmas)
    /// check in time proportional to the clauses actually touched, not
    /// `lemmas × formula`.
    ///
    /// # Errors
    ///
    /// Returns the first failing step.
    pub fn check(&self) -> Result<(), CheckProofError> {
        let mut db = ClauseSet::default();
        let mut saw_empty = false;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                ProofStep::Original(c) => db.insert(c),
                ProofStep::Lemma(c) => {
                    if !db.rup(c) {
                        return Err(CheckProofError::LemmaNotRup { step: i });
                    }
                    db.insert(c);
                }
                ProofStep::Delete(c) => {
                    if !db.remove(c) {
                        return Err(CheckProofError::DeleteMissing { step: i });
                    }
                }
                ProofStep::Empty => {
                    if !db.rup(&[]) {
                        return Err(CheckProofError::EmptyNotDerivable);
                    }
                    saw_empty = true;
                }
            }
        }
        if saw_empty {
            Ok(())
        } else {
            Err(CheckProofError::NoEmptyClause)
        }
    }
}

/// Truth value of a variable inside the checker (0 = unset).
const UNSET: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// A clause multiset with a two-watched-literal unit propagator —
/// entirely independent of the solver under test (it shares no code
/// with the CDCL engine's propagation), but fast enough for stitched
/// multi-worker refutations. Each [`ClauseSet::rup`] query assumes the
/// lemma's negation on a scratch trail, propagates through the watch
/// lists, and undoes the trail afterwards; dead (deleted) clauses are
/// dropped from watch and unit lists lazily as propagation meets them.
#[derive(Debug, Default)]
struct ClauseSet {
    /// Clause literals; positions 0/1 are the watched literals (the
    /// canonical sorted form is kept separately as the index key).
    clauses: Vec<Vec<Lit>>,
    /// Sorted-clause → live indices (multiset semantics).
    index: HashMap<Vec<Lit>, Vec<usize>>,
    live: Vec<bool>,
    /// Literal code → clauses watching that literal.
    watches: Vec<Vec<usize>>,
    /// Live unit clauses (propagated first in every query).
    units: Vec<usize>,
    /// Live empty clauses in the database (everything is then implied).
    empty_clauses: usize,
    /// Scratch assignment, indexed by variable.
    assign: Vec<u8>,
    /// Variables assigned by the current query, for undo.
    trail: Vec<usize>,
}

fn canonical(c: &[Lit]) -> Vec<Lit> {
    let mut k = c.to_vec();
    k.sort_unstable();
    k.dedup();
    k
}

/// Watch-list slot of a literal.
fn code(l: Lit) -> usize {
    l.var().index() * 2 + usize::from(l.is_negative())
}

impl ClauseSet {
    fn ensure_var(&mut self, v: usize) {
        if self.assign.len() <= v {
            self.assign.resize(v + 1, UNSET);
            self.watches.resize((v + 1) * 2, Vec::new());
        }
    }

    /// The literal's value under the scratch assignment.
    fn value(&self, l: Lit) -> u8 {
        match self.assign[l.var().index()] {
            UNSET => UNSET,
            v => {
                if (v == TRUE) == l.is_positive() {
                    TRUE
                } else {
                    FALSE
                }
            }
        }
    }

    fn insert(&mut self, c: &[Lit]) {
        let key = canonical(c);
        let idx = self.clauses.len();
        for &l in &key {
            self.ensure_var(l.var().index());
        }
        match key.len() {
            0 => self.empty_clauses += 1,
            1 => self.units.push(idx),
            _ => {
                self.watches[code(key[0])].push(idx);
                self.watches[code(key[1])].push(idx);
            }
        }
        self.clauses.push(key.clone());
        self.live.push(true);
        self.index.entry(key).or_default().push(idx);
    }

    fn remove(&mut self, c: &[Lit]) -> bool {
        let key = canonical(c);
        if let Some(stack) = self.index.get_mut(&key) {
            while let Some(idx) = stack.pop() {
                if self.live[idx] {
                    self.live[idx] = false;
                    if self.clauses[idx].is_empty() {
                        self.empty_clauses -= 1;
                    }
                    // Watch/unit entries are collected lazily.
                    return true;
                }
            }
        }
        false
    }

    /// Assigns `l` true; returns `false` on conflict with the current
    /// assignment.
    fn enqueue(&mut self, l: Lit) -> bool {
        match self.value(l) {
            TRUE => true,
            FALSE => false,
            _ => {
                let v = l.var().index();
                self.assign[v] = if l.is_positive() { TRUE } else { FALSE };
                self.trail.push(v);
                true
            }
        }
    }

    fn undo_trail(&mut self) {
        for &v in &self.trail {
            self.assign[v] = UNSET;
        }
        self.trail.clear();
    }

    /// Reverse unit propagation: assume the negation of `lemma` and
    /// propagate; `true` iff a conflict arises (the lemma is implied).
    fn rup(&mut self, lemma: &[Lit]) -> bool {
        if self.empty_clauses > 0 {
            return true;
        }
        debug_assert!(self.trail.is_empty());
        // ¬lemma: every literal false. A clash means the lemma is a
        // tautology — trivially RUP.
        for &l in lemma {
            self.ensure_var(l.var().index());
            if !self.enqueue(!l) {
                self.undo_trail();
                return true;
            }
        }
        // Live unit clauses seed the propagation queue.
        let mut i = 0;
        while i < self.units.len() {
            let ci = self.units[i];
            if !self.live[ci] {
                self.units.swap_remove(i);
                continue;
            }
            if !self.enqueue(self.clauses[ci][0]) {
                self.undo_trail();
                return true;
            }
            i += 1;
        }
        let conflict = !self.propagate();
        self.undo_trail();
        conflict
    }

    /// Exhausts the watch-list propagation queue; `false` on conflict.
    fn propagate(&mut self) -> bool {
        let mut qhead = 0;
        while qhead < self.trail.len() {
            let v = self.trail[qhead];
            qhead += 1;
            // The literal of `v` falsified by this assignment.
            let false_lit = Lit::new(
                crate::lit::Var::from_index(v),
                self.assign[v] == TRUE, // var true ⇒ its negation is false
            );
            let mut ws = std::mem::take(&mut self.watches[code(false_lit)]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                if !self.live[ci] {
                    ws.swap_remove(i);
                    continue;
                }
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                if self.value(self.clauses[ci][0]) == TRUE {
                    i += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].len() {
                    if self.value(self.clauses[ci][k]) != FALSE {
                        self.clauses[ci].swap(1, k);
                        let new_watch = self.clauses[ci][1];
                        self.watches[code(new_watch)].push(ci);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit (first watch propagates) or conflicting.
                let first = self.clauses[ci][0];
                if !self.enqueue(first) {
                    self.watches[code(false_lit)] = ws;
                    return false;
                }
                i += 1;
            }
            self.watches[code(false_lit)] = ws;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(v: i32) -> Lit {
        Lit::new(Var::from_index(v.unsigned_abs() as usize - 1), v < 0)
    }

    fn cls(ls: &[i32]) -> Vec<Lit> {
        ls.iter().map(|&v| lit(v)).collect()
    }

    #[test]
    fn hand_built_resolution_proof_checks() {
        // (1 2) (1 -2) (-1 3) (-1 -3): classic 4-clause UNSAT.
        let mut p = Proof::new();
        p.push(ProofStep::Original(cls(&[1, 2])));
        p.push(ProofStep::Original(cls(&[1, -2])));
        p.push(ProofStep::Original(cls(&[-1, 3])));
        p.push(ProofStep::Original(cls(&[-1, -3])));
        p.push(ProofStep::Lemma(cls(&[1]))); // resolve first two
        p.push(ProofStep::Lemma(cls(&[-1]))); // resolve last two
        p.push(ProofStep::Empty);
        assert_eq!(p.check(), Ok(()));
        assert!(p.claims_unsat());
        assert_eq!(p.num_lemmas(), 2);
    }

    #[test]
    fn bogus_lemma_is_rejected() {
        let mut p = Proof::new();
        p.push(ProofStep::Original(cls(&[1, 2])));
        p.push(ProofStep::Lemma(cls(&[1]))); // does not follow
        p.push(ProofStep::Empty);
        assert_eq!(p.check(), Err(CheckProofError::LemmaNotRup { step: 1 }));
    }

    #[test]
    fn premature_empty_is_rejected() {
        let mut p = Proof::new();
        p.push(ProofStep::Original(cls(&[1, 2])));
        p.push(ProofStep::Empty);
        assert_eq!(p.check(), Err(CheckProofError::EmptyNotDerivable));
    }

    #[test]
    fn missing_empty_is_rejected() {
        let mut p = Proof::new();
        p.push(ProofStep::Original(cls(&[1])));
        assert_eq!(p.check(), Err(CheckProofError::NoEmptyClause));
    }

    #[test]
    fn deletion_bookkeeping() {
        let mut p = Proof::new();
        p.push(ProofStep::Original(cls(&[1])));
        p.push(ProofStep::Original(cls(&[-1])));
        p.push(ProofStep::Delete(cls(&[9]))); // never added
        assert_eq!(p.check(), Err(CheckProofError::DeleteMissing { step: 2 }));
    }

    #[test]
    fn deleted_clauses_stop_supporting_lemmas() {
        let mut p = Proof::new();
        p.push(ProofStep::Original(cls(&[1, 2])));
        p.push(ProofStep::Original(cls(&[1, -2])));
        p.push(ProofStep::Delete(cls(&[1, 2])));
        p.push(ProofStep::Lemma(cls(&[1]))); // support was deleted
        p.push(ProofStep::Empty);
        assert!(p.check().is_err());
    }
}
