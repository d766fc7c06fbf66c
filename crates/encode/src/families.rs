//! Per-constraint-family formula accounting.
//!
//! The paper's encoding-size tables break the formula down by constraint
//! family (mapping/injectivity, dependencies, SWAP choice, gate scheduling,
//! mapping transition, cardinality). Rather than threading a counting sink
//! through every encoder, the model builders snapshot `(vars, clauses)`
//! before and after each section and credit the delta to a family via
//! [`FamilyTally::credit_since`]. Auxiliary (Tseitin) variables allocated
//! inside a section are therefore attributed to the family that needed
//! them.

use crate::sink::Cnf;
use olsq2_sat::{Lit, Solver};

/// The constraint families the OLSQ2 models are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintFamily {
    /// Mapping variables `π_q^t` plus injectivity constraints.
    Mapping,
    /// Time variables `t_g` plus dependency / exclusivity constraints.
    Dependency,
    /// SWAP choice variables `σ_e^t` plus SWAP/SWAP exclusion.
    Swap,
    /// Gate scheduling validity: two-qubit adjacency (Eq. 1) and SWAP
    /// overlap (Eq. 2–3), or the baseline's space-variable consistency.
    Scheduling,
    /// Mapping transformation across time steps (stay/move clauses).
    Transition,
    /// Objective machinery: cardinality networks and bound activation
    /// literals (Eq. 4–5).
    Cardinality,
}

impl ConstraintFamily {
    /// Every family, in model-build order.
    pub const ALL: [ConstraintFamily; 6] = [
        ConstraintFamily::Mapping,
        ConstraintFamily::Dependency,
        ConstraintFamily::Swap,
        ConstraintFamily::Scheduling,
        ConstraintFamily::Transition,
        ConstraintFamily::Cardinality,
    ];

    /// Stable snake_case name, used as a trace-field / metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            ConstraintFamily::Mapping => "mapping",
            ConstraintFamily::Dependency => "dependency",
            ConstraintFamily::Swap => "swap",
            ConstraintFamily::Scheduling => "scheduling",
            ConstraintFamily::Transition => "transition",
            ConstraintFamily::Cardinality => "cardinality",
        }
    }

    /// Precomputed `vars.<name>` span-field / metric key, so hot build
    /// paths don't re-allocate format strings per family per build.
    pub fn vars_key(self) -> &'static str {
        match self {
            ConstraintFamily::Mapping => "vars.mapping",
            ConstraintFamily::Dependency => "vars.dependency",
            ConstraintFamily::Swap => "vars.swap",
            ConstraintFamily::Scheduling => "vars.scheduling",
            ConstraintFamily::Transition => "vars.transition",
            ConstraintFamily::Cardinality => "vars.cardinality",
        }
    }

    /// Precomputed `clauses.<name>` span-field / metric key.
    pub fn clauses_key(self) -> &'static str {
        match self {
            ConstraintFamily::Mapping => "clauses.mapping",
            ConstraintFamily::Dependency => "clauses.dependency",
            ConstraintFamily::Swap => "clauses.swap",
            ConstraintFamily::Scheduling => "clauses.scheduling",
            ConstraintFamily::Transition => "clauses.transition",
            ConstraintFamily::Cardinality => "clauses.cardinality",
        }
    }

    fn index(self) -> usize {
        match self {
            ConstraintFamily::Mapping => 0,
            ConstraintFamily::Dependency => 1,
            ConstraintFamily::Swap => 2,
            ConstraintFamily::Scheduling => 3,
            ConstraintFamily::Transition => 4,
            ConstraintFamily::Cardinality => 5,
        }
    }
}

/// A mutually-exclusive, exhaustive selector group a cube-and-conquer
/// splitter may branch on: the formula is known to contain an
/// **unguarded** exactly-one constraint over `lits` (so asserting each
/// selector in turn partitions the search space, and the at-least-one
/// clause certifies exhaustiveness in a stitched proof).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitGroup {
    /// The constraint family the group belongs to (splitters prefer
    /// [`ConstraintFamily::Mapping`] groups — the initial-mapping
    /// selectors partition the instance along its most symmetric axis).
    pub family: ConstraintFamily,
    /// The selector literals; exactly one is true in every model.
    pub lits: Vec<Lit>,
}

/// Variables and clauses credited to one family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyCount {
    /// Variables allocated (including auxiliary/Tseitin variables).
    pub vars: usize,
    /// Clauses emitted.
    pub clauses: usize,
}

/// Anything whose formula size can be snapshotted for delta accounting.
pub trait FormulaSize {
    /// Current `(variables, clauses)` totals.
    fn formula_size(&self) -> (usize, usize);
}

impl FormulaSize for Solver {
    fn formula_size(&self) -> (usize, usize) {
        (self.num_vars(), self.num_clauses())
    }
}

impl FormulaSize for Cnf {
    fn formula_size(&self) -> (usize, usize) {
        (self.num_vars(), self.num_clauses())
    }
}

/// Accumulated per-family formula sizes for one built model.
///
/// # Examples
///
/// ```
/// use olsq2_encode::{Cnf, CnfSink, ConstraintFamily, FamilyTally};
/// use olsq2_sat::Lit;
///
/// let mut cnf = Cnf::new();
/// let mut tally = FamilyTally::new();
/// let mark = tally.mark(&cnf);
/// let a = Lit::positive(cnf.new_var());
/// cnf.add_clause(&[a]);
/// tally.credit_since(ConstraintFamily::Mapping, &cnf, mark);
/// assert_eq!(tally.get(ConstraintFamily::Mapping).vars, 1);
/// assert_eq!(tally.total().clauses, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FamilyTally {
    counts: [FamilyCount; ConstraintFamily::ALL.len()],
}

impl FamilyTally {
    /// An all-zero tally.
    pub fn new() -> FamilyTally {
        FamilyTally::default()
    }

    /// Snapshots the current formula size — the starting mark for the next
    /// [`FamilyTally::credit_since`].
    pub fn mark(&self, sized: &impl FormulaSize) -> (usize, usize) {
        sized.formula_size()
    }

    /// Credits everything added since `mark` to `family` and returns a new
    /// mark at the current size.
    pub fn credit_since(
        &mut self,
        family: ConstraintFamily,
        sized: &impl FormulaSize,
        mark: (usize, usize),
    ) -> (usize, usize) {
        let now = sized.formula_size();
        let c = &mut self.counts[family.index()];
        c.vars += now.0.saturating_sub(mark.0);
        c.clauses += now.1.saturating_sub(mark.1);
        now
    }

    /// The counts credited to one family.
    pub fn get(&self, family: ConstraintFamily) -> FamilyCount {
        self.counts[family.index()]
    }

    /// Iterates `(family, counts)` in model-build order.
    pub fn iter(&self) -> impl Iterator<Item = (ConstraintFamily, FamilyCount)> + '_ {
        ConstraintFamily::ALL
            .iter()
            .map(move |&f| (f, self.counts[f.index()]))
    }

    /// Sum over all families.
    pub fn total(&self) -> FamilyCount {
        let mut t = FamilyCount::default();
        for c in &self.counts {
            t.vars += c.vars;
            t.clauses += c.clauses;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CnfSink;
    use olsq2_sat::Lit;

    #[test]
    fn deltas_accumulate_per_family() {
        let mut cnf = Cnf::new();
        let mut tally = FamilyTally::new();
        let mut mark = tally.mark(&cnf);
        let a = Lit::positive(cnf.new_var());
        let b = Lit::positive(cnf.new_var());
        cnf.add_clause(&[a, b]);
        mark = tally.credit_since(ConstraintFamily::Mapping, &cnf, mark);
        cnf.add_clause(&[!a]);
        cnf.add_clause(&[!b]);
        mark = tally.credit_since(ConstraintFamily::Dependency, &cnf, mark);
        // A second credit to an already-used family accumulates.
        cnf.add_clause(&[a]);
        tally.credit_since(ConstraintFamily::Mapping, &cnf, mark);

        assert_eq!(
            tally.get(ConstraintFamily::Mapping),
            FamilyCount {
                vars: 2,
                clauses: 2
            }
        );
        assert_eq!(
            tally.get(ConstraintFamily::Dependency),
            FamilyCount {
                vars: 0,
                clauses: 2
            }
        );
        assert_eq!(
            tally.get(ConstraintFamily::Cardinality),
            FamilyCount::default()
        );
        assert_eq!(
            tally.total(),
            FamilyCount {
                vars: 2,
                clauses: 4
            }
        );
    }

    #[test]
    fn family_names_are_unique() {
        let names: std::collections::HashSet<&str> =
            ConstraintFamily::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), ConstraintFamily::ALL.len());
    }

    #[test]
    fn metric_keys_match_name_convention() {
        for f in ConstraintFamily::ALL {
            assert_eq!(f.vars_key(), format!("vars.{}", f.name()));
            assert_eq!(f.clauses_key(), format!("clauses.{}", f.name()));
        }
    }

    #[test]
    fn solver_implements_formula_size() {
        let mut s = Solver::new();
        let mut tally = FamilyTally::new();
        let mark = tally.mark(&s);
        let a = Lit::positive(CnfSink::new_var(&mut s));
        let b = Lit::positive(CnfSink::new_var(&mut s));
        // A binary clause: the solver stores unit clauses on the trail, so
        // they would not show up in `num_clauses`.
        CnfSink::add_clause(&mut s, &[a, b]);
        tally.credit_since(ConstraintFamily::Swap, &s, mark);
        assert_eq!(
            tally.get(ConstraintFamily::Swap),
            FamilyCount {
                vars: 2,
                clauses: 1
            }
        );
    }
}
