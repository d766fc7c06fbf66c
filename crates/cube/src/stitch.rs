//! Stitching per-worker proof logs into one checkable refutation.
//!
//! Each worker records a self-contained DRAT-style log (originals,
//! lemmas, core lemmas for refuted cubes). The stitcher concatenates
//! them into a single [`Proof`] that refutes **formula ∧ base** and
//! passes [`Proof::check`]:
//!
//! 1. **Worker logs, deletions stripped.** RUP is monotone in database
//!    growth, so replaying every worker's originals and lemmas into one
//!    database keeps each lemma checkable at its position; `Delete`
//!    steps are dropped because a clause one worker deletes may support
//!    a later lemma of another worker.
//! 2. **Base assumptions as original units.** The engine solves every
//!    cube under the instance-level base (bound activation literals,
//!    window guards); making them unit clauses scopes the refutation to
//!    that bound, exactly like the assumption-core lemma the sequential
//!    path emits.
//! 3. **Blocking lemmas in post-order.** For every tree node, children
//!    first, the lemma `¬path` is emitted:
//!    * a **refuted leaf** is RUP from its worker's core lemma (the
//!      core is a subset of `base ∪ path`, so asserting the path plus
//!      the base units falsifies it outright);
//!    * a **pruned leaf** is RUP from the *pruning sibling's* core
//!      lemma by the same argument (the core is contained in the
//!      pruned path — that is what pruning checked);
//!    * a **literal-split interior node** is RUP from its two
//!      children's lemmas (they become the units `l` and `¬l`);
//!    * a **group-split interior node** is RUP from its children's
//!      lemmas plus the group's *at-least-one* clause, which is an
//!      original of the formula ([`SplitGroup`](olsq2_encode::SplitGroup)
//!      requires an unguarded exactly-one) — this is where
//!      exhaustiveness of one-hot splits is actually checked;
//!    * the **root**'s path is empty, so its step is the empty clause.
//!
//! When a cube's conflict involved no cube literal (`base_unsat`), the
//! instance is refuted under the base alone: some worker logged a core
//! lemma over base literals only (or the empty clause outright), so the
//! stitched proof skips the tree walk and closes with `Empty` directly.

use crate::tree::CubeTree;
use olsq2_sat::{Lit, Proof, ProofStep};

/// Assembles per-worker logs into one refutation of *formula ∧ base*.
///
/// `tree` must have every leaf refuted or pruned unless `base_unsat` is
/// set (in which case open leaves are irrelevant — the base alone is
/// contradictory and the tree walk is skipped).
pub fn stitch_refutation(
    worker_proofs: &[Proof],
    tree: &CubeTree,
    base: &[Lit],
    base_unsat: bool,
) -> Proof {
    let mut out = Proof::new();
    for p in worker_proofs {
        for step in p.steps() {
            if !matches!(step, ProofStep::Delete(_)) {
                out.push(step.clone());
            }
        }
    }
    for &l in base {
        out.push(ProofStep::Original(vec![l]));
    }
    if base_unsat {
        out.push(ProofStep::Empty);
        return out;
    }
    for id in tree.postorder() {
        let path = tree.path(id);
        if path.is_empty() {
            out.push(ProofStep::Empty);
        } else {
            out.push(ProofStep::Lemma(path.iter().map(|&l| !l).collect()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_sat::Var;

    fn lit(v: usize) -> Lit {
        Lit::positive(Var::from_index(v))
    }

    /// Hand-built two-cube refutation of (a ∨ b) ∧ (¬a) ∧ (¬b): worker 0
    /// refutes cube [a], worker 1 refutes cube [¬a]; the stitched proof
    /// must derive the empty clause from their core lemmas.
    #[test]
    fn literal_split_stitches_to_checkable_refutation() {
        let (a, b) = (lit(0), lit(1));
        // All four clauses over {a, b}: UNSAT, but unit propagation on the
        // originals alone derives nothing — the stitched lemmas must do
        // real work.
        let originals = vec![vec![a, b], vec![!a, b], vec![a, !b], vec![!a, !b]];
        let mut w0 = Proof::new();
        let mut w1 = Proof::new();
        for c in &originals {
            w0.push(ProofStep::Original(c.clone()));
            w1.push(ProofStep::Original(c.clone()));
        }
        // Core lemmas: solving under assumption [a] (resp. [¬a]) conflicts
        // on the core {a} (resp. {¬a}).
        w0.push(ProofStep::Lemma(vec![!a]));
        w0.push(ProofStep::Delete(vec![a, b])); // must be stripped
        w1.push(ProofStep::Lemma(vec![a]));

        let mut tree = CubeTree::new();
        use crate::tree::NodeState;
        let kids = tree.split(0, vec![vec![a], vec![!a]], false);
        tree.set_state(kids[0], NodeState::Refuted);
        tree.set_state(kids[1], NodeState::Refuted);

        let stitched = stitch_refutation(&[w0, w1], &tree, &[], false);
        assert!(stitched.claims_unsat());
        assert!(
            !stitched
                .steps()
                .iter()
                .any(|s| matches!(s, ProofStep::Delete(_))),
            "deletions must be stripped"
        );
        stitched.check().expect("stitched proof checks");
    }

    /// A core over base literals only: the shortcut emits worker logs,
    /// base units, and the empty clause — no tree lemmas.
    #[test]
    fn base_level_core_short_circuits_the_tree_walk() {
        let (g, x) = (lit(0), lit(1));
        let mut w0 = Proof::new();
        w0.push(ProofStep::Original(vec![!g, x]));
        w0.push(ProofStep::Original(vec![!g, !x]));
        // Solving any cube under base assumption [g] conflicts on {g}.
        w0.push(ProofStep::Lemma(vec![!g]));

        let mut tree = CubeTree::new();
        tree.split(0, vec![vec![x], vec![!x]], false); // leaves still open

        let stitched = stitch_refutation(&[w0], &tree, &[g], true);
        stitched.check().expect("shortcut proof checks");
        assert!(
            !stitched
                .steps()
                .iter()
                .any(|s| matches!(s, ProofStep::Lemma(c) if c.len() == 2)),
            "no per-cube blocking lemmas on the shortcut path"
        );
    }

    /// Pruned leaves lean on the *sibling's* core lemma: only one worker
    /// ever solved, yet both children's blocking lemmas must check.
    #[test]
    fn pruned_leaves_are_covered_by_the_pruning_core() {
        let (a, s1, s2, c, d) = (lit(0), lit(1), lit(2), lit(3), lit(4));
        // Group split on the one-hot {s1, s2}; each selector is refuted
        // through an auxiliary variable, so no original is unit and the
        // ALO clause s1 ∨ s2 is what closes the root.
        let originals = vec![
            vec![s1, s2],
            vec![!s1, c],
            vec![!s1, !c],
            vec![!s2, d],
            vec![!s2, !d],
        ];
        let mut w0 = Proof::new();
        for cl in &originals {
            w0.push(ProofStep::Original(cl.clone()));
        }
        // Refuting cube [s1, a] conflicts on core {s1}: publishes {s1},
        // which prunes the sibling [s1, ¬a] without solving it.
        w0.push(ProofStep::Lemma(vec![!s1]));
        // Refuting cube [s2] conflicts on core {s2}.
        w0.push(ProofStep::Lemma(vec![!s2]));

        use crate::tree::NodeState;
        let mut tree = CubeTree::new();
        let kids = tree.split(0, vec![vec![s1], vec![s2]], true);
        let grand = tree.split(kids[0], vec![vec![a], vec![!a]], false);
        tree.set_state(grand[0], NodeState::Refuted);
        tree.set_state(grand[1], NodeState::Pruned);
        tree.set_state(kids[1], NodeState::Refuted);

        let stitched = stitch_refutation(&[w0], &tree, &[], false);
        stitched.check().expect("pruned-leaf lemmas check");
    }
}
