//! The [`CnfSink`] abstraction: anything clauses can be emitted into.
//!
//! The encoding helpers in this crate are generic over the sink so the same
//! encoder code can stream clauses directly into the [`olsq2_sat::Solver`],
//! collect them into a [`Cnf`] for DIMACS export, or pass through a
//! [`CountingSink`] that records formula-size statistics for the tables in
//! the paper.

use olsq2_sat::{Lit, Solver, Var};

/// A consumer of CNF clauses with its own variable allocator.
pub trait CnfSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Emits one clause.
    fn add_clause(&mut self, lits: &[Lit]);

    /// A literal constrained to be true (allocated lazily, at most once).
    fn true_lit(&mut self) -> Lit;

    /// A literal constrained to be false.
    fn false_lit(&mut self) -> Lit {
        !self.true_lit()
    }
}

impl CnfSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits.iter().copied());
    }

    fn true_lit(&mut self) -> Lit {
        // The solver has no stored constant; allocate one per call site via
        // ConstPool in higher layers. For direct use, allocate and pin.
        let l = Lit::positive(Solver::new_var(self));
        Solver::add_clause(self, [l]);
        l
    }
}

/// An owned CNF formula, collectible for DIMACS export and inspection.
///
/// # Examples
///
/// ```
/// use olsq2_encode::{Cnf, CnfSink};
/// use olsq2_sat::Lit;
/// let mut cnf = Cnf::new();
/// let a = Lit::positive(cnf.new_var());
/// let b = Lit::positive(cnf.new_var());
/// cnf.add_clause(&[a, b]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    true_lit: Option<Lit>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of collected clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// The collected clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Loads every clause into a fresh solver (allocating its variables).
    pub fn load_into(&self, solver: &mut Solver) {
        while solver.num_vars() < self.num_vars {
            solver.new_var();
        }
        for c in &self.clauses {
            solver.add_clause(c.iter().copied());
        }
    }
}

impl CnfSink for Cnf {
    fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }

    fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = Lit::positive(self.new_var());
        self.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }
}

/// Stages clauses into one reusable flat literal buffer and hands them
/// to the solver in bulk via [`Solver::add_clause_batch`], instead of
/// paying a call (and a scratch round-trip) per clause. Watching is not
/// the sink's business: the solver defers it for every clause, staged
/// or not, and watches all pending clauses at once at its next entry
/// point (see [`Solver::add_clause`]).
///
/// Variable allocation and [`CnfSink::true_lit`] pass straight through;
/// only clause emission is deferred. Staged clauses reach the solver in
/// emission order on [`flush`](BatchSink::flush) — called automatically
/// when the buffer crosses its high-water mark and on drop — so the sink
/// is transparent to encoders as long as nobody reads the solver's
/// clause counts mid-batch (flush first, or drop the sink).
///
/// # Examples
///
/// ```
/// use olsq2_encode::{BatchSink, CnfSink};
/// use olsq2_sat::{Lit, SolveResult, Solver};
/// let mut solver = Solver::new();
/// let mut batch = BatchSink::new(&mut solver);
/// let a = Lit::positive(batch.new_var());
/// let b = Lit::positive(batch.new_var());
/// batch.add_clause(&[a, b]);
/// batch.add_clause(&[!a]);
/// drop(batch); // flushes
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// assert_eq!(solver.model_value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct BatchSink<'a> {
    solver: &'a mut Solver,
    /// All staged literals, clause after clause.
    flat: Vec<Lit>,
    /// Exclusive end offset of each staged clause in `flat`.
    ends: Vec<u32>,
}

/// Literal high-water mark that triggers an automatic flush; bounds the
/// staging memory without making small batches pay for it.
const BATCH_FLUSH_LITS: usize = 1 << 16;

impl<'a> BatchSink<'a> {
    /// Wraps `solver` with an empty staging buffer.
    pub fn new(solver: &'a mut Solver) -> BatchSink<'a> {
        BatchSink {
            solver,
            flat: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Number of clauses currently staged (diagnostics/tests).
    pub fn staged(&self) -> usize {
        self.ends.len()
    }

    /// Hands every staged clause to the solver, in emission order.
    pub fn flush(&mut self) {
        if self.ends.is_empty() {
            return;
        }
        self.solver.add_clause_batch(&self.flat, &self.ends);
        self.flat.clear();
        self.ends.clear();
    }
}

impl Drop for BatchSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl CnfSink for BatchSink<'_> {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self.solver)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.flat.extend_from_slice(lits);
        self.ends.push(self.flat.len() as u32);
        if self.flat.len() >= BATCH_FLUSH_LITS {
            self.flush();
        }
    }

    fn true_lit(&mut self) -> Lit {
        // Keep the solver's per-call contract (see the Solver impl); the
        // unit is staged so it lands in emission order.
        let l = Lit::positive(Solver::new_var(self.solver));
        CnfSink::add_clause(self, &[l]);
        l
    }
}

/// Wraps a sink, counting variables and clauses that pass through.
///
/// Used by the experiment harness to report formula sizes alongside solve
/// times (the paper's "fewer variables and constraints" claim).
#[derive(Debug)]
pub struct CountingSink<'a, S> {
    inner: &'a mut S,
    vars: usize,
    clauses: usize,
    literals: usize,
}

impl<'a, S: CnfSink> CountingSink<'a, S> {
    /// Wraps `inner`, counting from zero.
    pub fn new(inner: &'a mut S) -> Self {
        CountingSink {
            inner,
            vars: 0,
            clauses: 0,
            literals: 0,
        }
    }

    /// Variables allocated through this wrapper.
    pub fn vars_added(&self) -> usize {
        self.vars
    }

    /// Clauses emitted through this wrapper.
    pub fn clauses_added(&self) -> usize {
        self.clauses
    }

    /// Literal occurrences emitted through this wrapper.
    pub fn literals_added(&self) -> usize {
        self.literals
    }
}

impl<S: CnfSink> CnfSink for CountingSink<'_, S> {
    fn new_var(&mut self) -> Var {
        self.vars += 1;
        self.inner.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses += 1;
        self.literals += lits.len();
        self.inner.add_clause(lits);
    }

    fn true_lit(&mut self) -> Lit {
        self.inner.true_lit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_sat::SolveResult;

    #[test]
    fn cnf_collects_and_loads() {
        let mut cnf = Cnf::new();
        let a = Lit::positive(cnf.new_var());
        let b = Lit::positive(cnf.new_var());
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[!a]);
        let mut s = Solver::new();
        cnf.load_into(&mut s);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(b), Some(true));
    }

    #[test]
    fn cnf_true_lit_is_cached() {
        let mut cnf = Cnf::new();
        let t1 = cnf.true_lit();
        let t2 = cnf.true_lit();
        assert_eq!(t1, t2);
        assert_eq!(cnf.num_vars(), 1);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn counting_sink_counts() {
        let mut cnf = Cnf::new();
        let (a, b);
        {
            let mut cs = CountingSink::new(&mut cnf);
            a = Lit::positive(cs.new_var());
            b = Lit::positive(cs.new_var());
            cs.add_clause(&[a, b]);
            cs.add_clause(&[!a, b]);
            assert_eq!(cs.vars_added(), 2);
            assert_eq!(cs.clauses_added(), 2);
            assert_eq!(cs.literals_added(), 4);
        }
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn batch_sink_stages_and_flushes_in_order() {
        let mut direct = Solver::new();
        let mut batched = Solver::new();
        let lits: Vec<Lit> = (0..4)
            .map(|_| {
                Lit::positive(Solver::new_var(&mut direct));
                Lit::positive(Solver::new_var(&mut batched))
            })
            .collect();
        let clauses: [&[Lit]; 4] = [
            &[lits[0], lits[1]],
            &[!lits[0], lits[2]],
            &[!lits[1], !lits[2], lits[3]],
            &[!lits[3]],
        ];
        for c in clauses {
            Solver::add_clause(&mut direct, c.iter().copied());
        }
        {
            let mut batch = BatchSink::new(&mut batched);
            for c in clauses {
                CnfSink::add_clause(&mut batch, c);
            }
            assert_eq!(batch.staged(), 4, "small batches stay staged");
        } // drop flushes
        assert_eq!(batched.num_clauses(), direct.num_clauses());
        assert_eq!(batched.solve(&[]), direct.solve(&[]));
    }

    #[test]
    fn batch_sink_hits_conflicts_like_direct_adds() {
        let mut s = Solver::new();
        let a = Lit::positive(Solver::new_var(&mut s));
        {
            let mut batch = BatchSink::new(&mut s);
            CnfSink::add_clause(&mut batch, &[a]);
            CnfSink::add_clause(&mut batch, &[!a]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn solver_is_a_sink() {
        let mut s = Solver::new();
        let v = CnfSink::new_var(&mut s);
        CnfSink::add_clause(&mut s, &[Lit::positive(v)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }
}
