//! Lookahead-scored split selection.
//!
//! The splitter ranks candidate split dimensions by how much unit
//! propagation each branch would trigger ([`olsq2_sat::Solver::lookahead`]
//! — the classic lookahead score of cube-and-conquer solvers, cf.
//! march/treengeling). Candidates come from two sources, in preference
//! order:
//!
//! 1. **one-hot groups** supplied as hints ([`SplitGroup`], e.g. the
//!    pigeon-to-hole selectors of a pigeonhole instance):
//!    asserting each selector in turn partitions the space exactly, and
//!    the group's at-least-one clause certifies exhaustiveness when
//!    proofs are stitched;
//! 2. **VSIDS-ranked literals**: the highest-activity variables probed in
//!    both polarities, scored by the product of the two branch
//!    propagation counts (rewarding balanced, high-propagation splits).
//!
//! A probe that conflicts outright is the best possible outcome — that
//! branch is refuted by propagation alone — and scores accordingly.

use olsq2_encode::{ConstraintFamily, SplitGroup};
use olsq2_sat::{Lit, Solver};
use std::collections::HashSet;

/// Splitter tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SplitterConfig {
    /// How many candidate one-hot groups to probe per split (the rest are
    /// ranked out by summed VSIDS activity without probing).
    pub probe_groups: usize,
    /// How many fallback literal candidates to probe per split.
    pub probe_lits: usize,
    /// Widest one-hot group worth splitting on (wider groups fan out too
    /// many cubes per level).
    pub max_group_width: usize,
}

impl Default for SplitterConfig {
    fn default() -> Self {
        SplitterConfig {
            probe_groups: 4,
            probe_lits: 8,
            max_group_width: 24,
        }
    }
}

/// The chosen split dimension for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitDecision {
    /// One child per selector of a registered one-hot group.
    Group(Vec<Lit>),
    /// Two children: the literal and its negation.
    Literal(Lit),
}

impl SplitDecision {
    /// The child branches this decision induces.
    pub fn branches(&self) -> Vec<Vec<Lit>> {
        match self {
            SplitDecision::Group(sels) => sels.iter().map(|&s| vec![s]).collect(),
            SplitDecision::Literal(l) => vec![vec![*l], vec![!*l]],
        }
    }

    /// Whether this is a one-hot group split.
    pub fn is_group(&self) -> bool {
        matches!(self, SplitDecision::Group(_))
    }
}

/// Score bonus for a branch refuted by propagation alone.
const CONFLICT_BONUS: usize = 1 << 20;

/// Picks the split dimension for the cube `base ∪ path`, or `None` when
/// no candidate exists (no unused groups, no active unfixed variables).
///
/// Probes run at the solver's root level, so this must be called between
/// `solve` invocations.
pub fn choose_split(
    solver: &mut Solver,
    base: &[Lit],
    path: &[Lit],
    hints: &[SplitGroup],
    cfg: &SplitterConfig,
) -> Option<SplitDecision> {
    let used: HashSet<u32> = base
        .iter()
        .chain(path.iter())
        .map(|l| l.var().index() as u32)
        .collect();
    if let Some(group) = best_group(solver, base, path, hints, cfg, &used) {
        return Some(SplitDecision::Group(group));
    }
    best_literal(solver, base, path, cfg, &used).map(SplitDecision::Literal)
}

/// The highest-lookahead-scoring eligible one-hot group, preferring
/// mapping-family groups (the instance's most symmetric axis).
fn best_group(
    solver: &mut Solver,
    base: &[Lit],
    path: &[Lit],
    hints: &[SplitGroup],
    cfg: &SplitterConfig,
    used: &HashSet<u32>,
) -> Option<Vec<Lit>> {
    // Eligible: within width, not already branched on along this path.
    let eligible = |g: &&SplitGroup| {
        g.lits.len() >= 2
            && g.lits.len() <= cfg.max_group_width
            && !g
                .lits
                .iter()
                .any(|l| used.contains(&(l.var().index() as u32)))
    };
    let mut candidates: Vec<&SplitGroup> = hints
        .iter()
        .filter(|g| g.family == ConstraintFamily::Mapping)
        .filter(eligible)
        .collect();
    if candidates.is_empty() {
        candidates = hints
            .iter()
            .filter(|g| g.family != ConstraintFamily::Mapping)
            .filter(eligible)
            .collect();
    }
    // Rank by summed VSIDS activity so only the liveliest few get probed.
    candidates.sort_by(|a, b| {
        let act =
            |g: &SplitGroup| -> f64 { g.lits.iter().map(|l| solver.var_activity(l.var())).sum() };
        act(b)
            .partial_cmp(&act(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates.truncate(cfg.probe_groups.max(1));

    let mut probe = Vec::with_capacity(base.len() + path.len() + 1);
    let mut best: Option<(usize, Vec<Lit>)> = None;
    for g in candidates {
        let mut score = 0usize;
        for &sel in &g.lits {
            probe.clear();
            probe.extend_from_slice(base);
            probe.extend_from_slice(path);
            probe.push(sel);
            score += match solver.lookahead(&probe) {
                Some(implied) => implied,
                None => CONFLICT_BONUS,
            };
        }
        // Normalize by width so wide groups must earn their fan-out.
        score /= g.lits.len();
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, g.lits.clone()));
        }
    }
    best.map(|(_, lits)| lits)
}

/// The best VSIDS-ranked literal, scored march-style by the product of
/// both polarities' propagation counts.
fn best_literal(
    solver: &mut Solver,
    base: &[Lit],
    path: &[Lit],
    cfg: &SplitterConfig,
    used: &HashSet<u32>,
) -> Option<Lit> {
    let n = solver.num_vars();
    let mut vars: Vec<usize> = (0..n).filter(|v| !used.contains(&(*v as u32))).collect();
    vars.sort_by(|&a, &b| {
        let (aa, ab) = (
            solver.var_activity(olsq2_sat::Var::from_index(a)),
            solver.var_activity(olsq2_sat::Var::from_index(b)),
        );
        ab.partial_cmp(&aa).unwrap_or(std::cmp::Ordering::Equal)
    });
    vars.truncate(cfg.probe_lits.max(1));

    let mut probe = Vec::with_capacity(base.len() + path.len() + 1);
    let mut best: Option<(usize, Lit)> = None;
    for v in vars {
        let l = Lit::positive(olsq2_sat::Var::from_index(v));
        let mut side = |lit: Lit, probe: &mut Vec<Lit>| -> Option<usize> {
            probe.clear();
            probe.extend_from_slice(base);
            probe.extend_from_slice(path);
            probe.push(lit);
            solver.lookahead(probe)
        };
        let pos = side(l, &mut probe);
        let neg = side(!l, &mut probe);
        let score = match (pos, neg) {
            // Both sides propagate: reward balance (product).
            (Some(p), Some(q)) => (p + 1) * (q + 1),
            // One side refuted outright: the other child inherits the
            // whole subproblem, but the refuted child costs nothing.
            (None, Some(q)) => CONFLICT_BONUS + q,
            (Some(p), None) => CONFLICT_BONUS + p,
            // Both refuted: the cube itself is propagation-UNSAT.
            (None, None) => 2 * CONFLICT_BONUS,
        };
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, l));
        }
    }
    best.map(|(_, l)| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_encode::{exactly_one, AmoEncoding, CnfSink};

    fn onehot_group(solver: &mut Solver, n: usize) -> Vec<Lit> {
        let lits: Vec<Lit> = (0..n)
            .map(|_| Lit::positive(CnfSink::new_var(solver)))
            .collect();
        exactly_one(solver, &lits, AmoEncoding::Pairwise);
        lits
    }

    #[test]
    fn prefers_registered_mapping_groups() {
        let mut solver = Solver::new();
        let sels = onehot_group(&mut solver, 3);
        let hints = vec![SplitGroup {
            family: ConstraintFamily::Mapping,
            lits: sels.clone(),
        }];
        let cfg = SplitterConfig::default();
        let d = choose_split(&mut solver, &[], &[], &hints, &cfg).expect("splittable");
        assert_eq!(d, SplitDecision::Group(sels));
        assert_eq!(d.branches().len(), 3);
    }

    #[test]
    fn groups_already_on_the_path_are_skipped() {
        let mut solver = Solver::new();
        let g1 = onehot_group(&mut solver, 3);
        let g2 = onehot_group(&mut solver, 3);
        let hints = vec![
            SplitGroup {
                family: ConstraintFamily::Mapping,
                lits: g1.clone(),
            },
            SplitGroup {
                family: ConstraintFamily::Mapping,
                lits: g2.clone(),
            },
        ];
        let cfg = SplitterConfig::default();
        let d = choose_split(&mut solver, &[], &[g1[0]], &hints, &cfg).expect("splittable");
        assert_eq!(d, SplitDecision::Group(g2));
    }

    #[test]
    fn falls_back_to_literals_without_groups() {
        let mut solver = Solver::new();
        let a = Lit::positive(CnfSink::new_var(&mut solver));
        let b = Lit::positive(CnfSink::new_var(&mut solver));
        CnfSink::add_clause(&mut solver, &[a, b]);
        let cfg = SplitterConfig::default();
        let d = choose_split(&mut solver, &[], &[], &[], &cfg).expect("splittable");
        assert!(matches!(d, SplitDecision::Literal(_)));
        assert_eq!(d.branches().len(), 2);
    }

    #[test]
    fn no_candidates_yields_none() {
        let mut solver = Solver::new();
        let a = Lit::positive(CnfSink::new_var(&mut solver));
        let cfg = SplitterConfig::default();
        // The only variable is already on the path.
        assert_eq!(choose_split(&mut solver, &[], &[a], &[], &cfg), None);
    }

    #[test]
    fn conflicting_branches_score_highest() {
        let mut solver = Solver::new();
        let a = Lit::positive(CnfSink::new_var(&mut solver));
        let b = Lit::positive(CnfSink::new_var(&mut solver));
        let c = Lit::positive(CnfSink::new_var(&mut solver));
        // a is propagation-refuted in its positive phase: ¬a ∨ b, ¬a ∨ ¬b.
        CnfSink::add_clause(&mut solver, &[!a, b]);
        CnfSink::add_clause(&mut solver, &[!a, !b]);
        CnfSink::add_clause(&mut solver, &[c, b]);
        let cfg = SplitterConfig {
            probe_lits: 8,
            ..Default::default()
        };
        let d = choose_split(&mut solver, &[], &[], &[], &cfg).expect("splittable");
        assert_eq!(d, SplitDecision::Literal(a));
    }
}
