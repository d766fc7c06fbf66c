//! Cube-and-conquer for the OLSQ2 SAT pipeline.
//!
//! Partitions one hard SAT query (a DIMACS instance handed to
//! `olsq2 sat --cube-workers`) into a tree of **cubes** (assumption sets)
//! via lookahead splitting, then solves the cubes on a pool of
//! incremental workers with work stealing.
//!
//! The pieces, bottom-up:
//!
//! * [`tree`] — the cube tree: branches, states, post-order walks;
//! * [`splitter`] — lookahead-scored split selection, preferring the
//!   one-hot groups the caller supplies as hints ([`SplitGroup`]) and
//!   falling back to VSIDS-ranked literals;
//! * [`engine`] — per-worker deques with steal-half, budget-triggered
//!   dynamic re-splitting, sibling pruning through assumption cores, and
//!   cooperative cancellation;
//! * [`stitch`] — assembling per-worker proof logs into one checkable
//!   refutation of *formula ∧ base*.
//!
//! Cubes are solved **as assumptions** on long-lived solvers, never by
//! mutating the clause database, so every lemma learned in one cube
//! carries to the next. On a single core that reuse — plus cores that
//! prune entire sibling subtrees — is where the engine beats a lone
//! solver; with real parallelism the same structure also scales out.
//!
//! # Example
//!
//! ```
//! use olsq2_cube::{solve_cubes, CubeConfig, SatCubeSolver};
//! use olsq2_obs::Recorder;
//! use olsq2_sat::{Lit, SolveResult, Var};
//!
//! let lit = |v: usize| Lit::positive(Var::from_index(v));
//! // All four clauses over two variables: UNSAT.
//! let clauses = vec![
//!     vec![lit(0), lit(1)],
//!     vec![!lit(0), lit(1)],
//!     vec![lit(0), !lit(1)],
//!     vec![!lit(0), !lit(1)],
//! ];
//! let cfg = CubeConfig { workers: 2, depth: 1, prove: true, ..Default::default() };
//! let run = solve_cubes(
//!     |_| SatCubeSolver::new(2, &clauses, true),
//!     &cfg,
//!     &Recorder::disabled(),
//! );
//! assert_eq!(run.result, SolveResult::Unsat);
//! run.proof.expect("stitched refutation").check().expect("checkable");
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod splitter;
pub mod stitch;
pub mod tree;

pub use engine::{solve_cubes, CubeConfig, CubeRun, CubeSolvable, CubeStats, SatCubeSolver};
pub use splitter::{choose_split, SplitDecision, SplitterConfig};
pub use stitch::stitch_refutation;
pub use tree::{CubeNode, CubeTree, NodeState};

// Re-exported so engine users need not depend on `olsq2-encode`
// directly.
pub use olsq2_encode::SplitGroup;
