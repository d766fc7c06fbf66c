//! Learned-clause exchange hooks (HordeSat-style portfolio sharing).
//!
//! A portfolio of solvers working on the *same* CNF wastes the conflict
//! analysis every losing member performs: each learned clause is a lemma
//! of the shared formula and would prune the search of every other
//! member. This module defines the solver-side half of clause sharing:
//!
//! * [`ClauseExchange`] — the hook pair a sharing medium implements.
//!   The solver **exports** learned clauses that pass the
//!   [`ExchangeFilter`] (low LBD, short) as they are derived, and
//!   **imports** foreign clauses at restart boundaries and on `solve`
//!   entry, where it is safely at decision level 0.
//! * [`ExchangeFilter`] — the export quality gate (LBD threshold and
//!   length cap, the knobs HordeSat exposes).
//!
//! The medium itself (ring buffers, cohort grouping, variable-space
//! fingerprinting) lives with the portfolio driver in the `olsq2` core
//! crate; this crate only defines the boundary so the solver stays free
//! of any concurrency machinery.
//!
//! # Soundness contract
//!
//! Every clause handed to [`ClauseExchange::export`] is a logical
//! consequence of the exporter's clause database. Importing it into a
//! solver over a **different** formula (or a different variable
//! numbering of the same formula) is unsound and will silently corrupt
//! UNSAT answers. Implementations MUST only deliver clauses between
//! solvers whose variable spaces are identical; the
//! [`ClauseExchange::bind_space`] hook exists so the model builder can
//! tag each rebuild of the formula and the medium can fence clauses by
//! that tag. The solver additionally drops imported clauses that
//! mention variables it has not allocated, but that guard cannot detect
//! *renumbered* variables — the fence is the medium's responsibility.
//!
//! When clausal proof logging is enabled, imported clauses are recorded
//! as [`ProofStep::Imported`](crate::ProofStep::Imported) and the
//! checker either re-derives them by reverse unit propagation or fails
//! with an explicit
//! [`CheckProofError::ImportedNotVerified`](crate::CheckProofError::ImportedNotVerified)
//! — sharing can weaken proof *checkability*, never silently.

use crate::lit::Lit;

/// Export quality gate: which learned clauses are worth sharing.
///
/// Sharing everything floods the importers with long, instance-specific
/// clauses that cost propagation overhead; HordeSat's observation is
/// that short, low-LBD ("glue") clauses carry almost all of the value.
///
/// # Examples
///
/// ```
/// use olsq2_sat::ExchangeFilter;
/// let f = ExchangeFilter::default();
/// assert!(f.admits(3, 2));
/// assert!(!f.admits(100, 2)); // too long
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeFilter {
    /// Maximum literal-block distance an exported clause may have.
    pub max_lbd: u32,
    /// Maximum number of literals an exported clause may have.
    pub max_len: usize,
}

impl Default for ExchangeFilter {
    /// LBD ≤ 4 and length ≤ 8 — the classic HordeSat-style defaults.
    fn default() -> Self {
        ExchangeFilter {
            max_lbd: 4,
            max_len: 8,
        }
    }
}

impl ExchangeFilter {
    /// Whether a learned clause of the given size and LBD passes the gate.
    #[inline]
    pub fn admits(&self, len: usize, lbd: u32) -> bool {
        len <= self.max_len && lbd <= self.max_lbd
    }
}

/// The sharing medium between portfolio solvers.
///
/// Implementations must be cheap on the export path — it runs inside
/// the solver's conflict loop — and must uphold the soundness contract
/// in the [module docs](self): clauses may only flow between solvers
/// over the identical variable space.
pub trait ClauseExchange: Send + Sync + std::fmt::Debug {
    /// Offers a learned clause (already past the [`ExchangeFilter`]) to
    /// the medium. `lbd` is the literal-block distance at learn time.
    fn export(&self, lits: &[Lit], lbd: u32);

    /// Appends foreign clauses into `out`. Called by the solver at
    /// restart boundaries and on `solve` entry, always at decision
    /// level 0. The medium should deliver each clause to each consumer
    /// at most once.
    fn import_into(&self, out: &mut Vec<Vec<Lit>>);

    /// Notifies the medium that the attached solver's variable space
    /// (re)materialized: `fingerprint` identifies the formula build and
    /// `num_vars` is the variable count at build time. Media that fence
    /// clauses by space use this to tag exports and filter imports; the
    /// default implementation ignores it.
    fn bind_space(&self, fingerprint: u64, num_vars: usize) {
        let _ = (fingerprint, num_vars);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_filter_gates_on_both_axes() {
        let f = ExchangeFilter::default();
        assert!(f.admits(1, 1));
        assert!(f.admits(8, 4));
        assert!(!f.admits(9, 4));
        assert!(!f.admits(8, 5));
    }

    #[test]
    fn custom_filter() {
        let f = ExchangeFilter {
            max_lbd: 2,
            max_len: 30,
        };
        assert!(f.admits(30, 2));
        assert!(!f.admits(31, 2));
        assert!(!f.admits(5, 3));
    }
}
