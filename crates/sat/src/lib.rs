//! # olsq2-sat
//!
//! An incremental CDCL SAT solver, written from scratch as the constraint
//! substrate of the OLSQ2 layout-synthesis reproduction. It plays the role
//! Z3 plays in the paper: the OLSQ2 formulation is bit-blasted into CNF
//! (see the `olsq2-encode` crate) and solved here, including the paper's
//! iterative-refinement loops, which lean on solving under assumptions so
//! learned clauses carry over between objective bounds.
//!
//! ## Features
//!
//! * two-watched-literal propagation with blocker literals, plus dedicated
//!   binary- and ternary-clause watch lists that inline the other literals
//! * VSIDS branching with phase saving, target phases and periodic
//!   rephasing from the best trail seen
//! * first-UIP clause learning with recursive minimization, and
//!   chronological backtracking past long jumps
//! * Glucose-style LBD restarts with postponement inside a Luby budget,
//!   and a three-tier (core/mid/local) learnt-clause store
//! * inprocessing between restarts: clause vivification and
//!   self-subsumption strengthening, proof-logged and RUP-checkable
//! * incremental solving under assumptions with final-conflict extraction
//! * conflict-count and wall-clock budgets ([`SolveResult::Unknown`]) and
//!   a cooperative stop flag
//!
//! ## Example
//!
//! ```
//! use olsq2_sat::{Solver, Lit, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = Lit::positive(solver.new_var());
//! let y = Lit::positive(solver.new_var());
//! solver.add_clause([x, y]);
//! solver.add_clause([!x, y]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert_eq!(solver.model_value(y), Some(true));
//! // Incremental re-solve under an assumption:
//! assert_eq!(solver.solve(&[!y]), SolveResult::Unsat);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clause;
pub mod heap;
mod lit;
pub mod preprocess;
pub mod proof;
mod solver;
mod watchlist;

pub use clause::Tier;
pub use lit::{ClauseRef, LBool, Lit, Var};
pub use preprocess::{Preprocessor, SimplifiedCnf};
pub use proof::{CheckProofError, Proof, ProofStep};
pub use solver::{SolveResult, Solver, SolverTuning, Stats};
