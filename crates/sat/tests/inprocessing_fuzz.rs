//! Differential/fuzz testing of the solver's inprocessing and search
//! policies.
//!
//! Vivification, deferred strengthening, rephasing, chronological
//! backtracking and target phases all rewrite the clause database or the
//! trail mid-solve, so a bug in any of them can silently corrupt a
//! "proven optimal" claim. Seeded random CNFs plus crafted pigeonhole and
//! parity families are solved with every such pass firing far more often
//! than in production, and every answer is checked against a
//! ≤20-variable brute-force reference; UNSAT proofs must RUP-check.

use olsq2_prng::Rng;
use olsq2_sat::{Lit, SolveResult, Solver, SolverTuning, Var};

#[derive(Debug, Clone)]
struct Formula {
    num_vars: usize,
    clauses: Vec<Vec<i32>>, // DIMACS-ish: ±(var+1)
}

fn lit_of(code: i32) -> Lit {
    let var = Var::from_index(code.unsigned_abs() as usize - 1);
    Lit::new(var, code < 0)
}

fn clause_satisfied(clause: &[i32], assignment: u32) -> bool {
    clause.iter().any(|&c| {
        let bit = (assignment >> (c.unsigned_abs() - 1)) & 1 == 1;
        if c > 0 {
            bit
        } else {
            !bit
        }
    })
}

/// Exhaustive reference checker, capped at 20 variables.
fn brute_force(f: &Formula) -> Option<u32> {
    assert!(
        f.num_vars <= 20,
        "brute-force reference only handles ≤ 20 variables"
    );
    'outer: for assignment in 0..(1u32 << f.num_vars) {
        for clause in &f.clauses {
            if !clause_satisfied(clause, assignment) {
                continue 'outer;
            }
        }
        return Some(assignment);
    }
    None
}

fn check_model(s: &Solver, f: &Formula, ctx: &str) {
    for clause in &f.clauses {
        let ok = clause
            .iter()
            .any(|&c| s.model_value(lit_of(c)) == Some(true));
        assert!(ok, "{ctx}: model violates clause {clause:?}");
    }
}

fn random_formula(rng: &mut Rng) -> Formula {
    let num_vars = rng.gen_range(2usize..=14);
    // Lean dense: ~4.3 clauses/var sits near the 3-SAT phase transition,
    // so the corpus mixes SAT and UNSAT and forces real conflict work.
    let num_clauses = rng.gen_range(1usize..=(4 * num_vars + 8));
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = rng.gen_range(1usize..=3);
            (0..len)
                .map(|_| {
                    let v = rng.gen_range(1i32..=num_vars as i32);
                    if rng.gen_bool(0.5) {
                        -v
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    Formula { num_vars, clauses }
}

/// PHP(pigeons, holes): each pigeon in a hole, no hole shared.
/// UNSAT whenever `pigeons > holes`.
fn pigeonhole(pigeons: usize, holes: usize) -> Formula {
    let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h)).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    Formula {
        num_vars: pigeons * holes,
        clauses,
    }
}

/// A random XOR system: each equation `a ⊕ b ⊕ c = rhs` over distinct
/// variables, expanded to its four CNF clauses. Parity constraints are
/// the classic hard case for resolution-based solvers.
fn parity_system(rng: &mut Rng, num_vars: usize, equations: usize) -> Formula {
    let mut clauses = Vec::new();
    for _ in 0..equations {
        let mut vars = Vec::new();
        while vars.len() < 3 {
            let v = rng.gen_range(1i32..=num_vars as i32);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let rhs = rng.gen_bool(0.5);
        let (a, b, c) = (vars[0], vars[1], vars[2]);
        // Clauses ruling out assignments of wrong parity.
        for mask in 0..8u32 {
            let parity = (mask.count_ones() % 2 == 1) == rhs;
            if !parity {
                let sign = |bit: u32, v: i32| if (mask >> bit) & 1 == 1 { -v } else { v };
                clauses.push(vec![sign(0, a), sign(1, b), sign(2, c)]);
            }
        }
    }
    Formula { num_vars, clauses }
}

/// Inprocessing cadence cranked far past production settings so that
/// vivification, deferred strengthening, and rephasing all fire many
/// times even on tiny formulas. The unit restart base restarts after
/// every conflict: inprocessing runs at restart boundaries, so this
/// maximizes how often the database is rewritten mid-solve.
fn aggressive_tuning() -> SolverTuning {
    SolverTuning {
        vivify_interval: 4,
        rephase_interval: 6,
        restart_base: 1,
        ..SolverTuning::default()
    }
}

fn inprocessing_solver(f: &Formula, proof: bool) -> Solver {
    let mut s = Solver::new();
    s.set_tuning(aggressive_tuning());
    if proof {
        s.enable_proof();
    }
    for _ in 0..f.num_vars {
        s.new_var();
    }
    for clause in &f.clauses {
        s.add_clause(clause.iter().map(|&c| lit_of(c)));
    }
    s
}

#[test]
fn inprocessing_fuzz_agrees_with_brute_force() {
    // Random corpus near the phase transition, solved with every
    // inprocessing pass firing at maximum frequency under proof logging.
    // Verdicts must match the exhaustive reference, SAT models must
    // satisfy the formula, and UNSAT proofs must fully RUP-check even
    // though vivification and strengthening have been rewriting the
    // clause database the proof talks about.
    let mut rng = Rng::seed_from_u64(0xF022_0007);
    let mut unsat_proofs = 0;
    for round in 0..120 {
        let f = random_formula(&mut rng);
        let expected_sat = brute_force(&f).is_some();
        let ctx = format!("inprocessing round {round}");
        let mut s = inprocessing_solver(&f, true);
        let first = s.solve(&[]);
        assert_eq!(first.is_sat(), expected_sat, "{ctx}");
        if expected_sat {
            check_model(&s, &f, &ctx);
            // Incremental re-solve under an assumption flipping the
            // model: inprocessing must not have baked the old model in.
            let pivot = lit_of(
                f.clauses
                    .first()
                    .and_then(|c| c.first())
                    .copied()
                    .unwrap_or(1),
            );
            let assumption = if s.model_value(pivot) == Some(true) {
                !pivot
            } else {
                pivot
            };
            let second = s.solve(&[assumption]);
            if second == SolveResult::Sat {
                check_model(&s, &f, &format!("{ctx} (assumed)"));
                assert_eq!(s.model_value(assumption), Some(true), "{ctx}");
            }
        } else {
            let proof = s.take_proof().expect("proof logging was enabled");
            assert!(proof.claims_unsat(), "{ctx}");
            assert_eq!(proof.check(), Ok(()), "{ctx}: inprocessed proof");
            unsat_proofs += 1;
        }
    }
    assert!(unsat_proofs >= 10, "corpus too easy: {unsat_proofs} UNSAT");
}

#[test]
fn inprocessing_agrees_on_crafted_families() {
    for (pigeons, holes) in [(3, 2), (4, 3), (3, 3), (4, 4), (5, 4)] {
        let f = pigeonhole(pigeons, holes);
        let expected_sat = pigeons <= holes;
        let ctx = format!("inprocessed pigeonhole({pigeons},{holes})");
        let mut s = inprocessing_solver(&f, true);
        assert_eq!(s.solve(&[]).is_sat(), expected_sat, "{ctx}");
        if expected_sat {
            check_model(&s, &f, &ctx);
        } else {
            let proof = s.take_proof().expect("proof");
            assert_eq!(proof.check(), Ok(()), "{ctx}");
        }
    }
    let mut rng = Rng::seed_from_u64(0xF022_0008);
    for round in 0..30 {
        let nv = rng.gen_range(4usize..=14);
        let eqs = rng.gen_range(1usize..=2 * nv);
        let f = parity_system(&mut rng, nv, eqs);
        let expected_sat = brute_force(&f).is_some();
        let ctx = format!("inprocessed parity round {round}");
        let mut s = inprocessing_solver(&f, false);
        assert_eq!(s.solve(&[]).is_sat(), expected_sat, "{ctx}");
        if expected_sat {
            check_model(&s, &f, &ctx);
        }
    }
}

/// Search-policy stress: fully chronological backtracking (every conflict
/// undoes one level) on top of the aggressive cadence, so target-phase
/// branching, glucose restarts and a rephaser firing every few conflicts
/// all meet out-of-order trails — the harshest composition of the search
/// policies.
fn chrono_tuning() -> SolverTuning {
    SolverTuning {
        chrono_threshold: 0,
        ..aggressive_tuning()
    }
}

fn chrono_solver(f: &Formula, proof: bool) -> Solver {
    let mut s = Solver::new();
    s.set_tuning(chrono_tuning());
    if proof {
        s.enable_proof();
    }
    for _ in 0..f.num_vars {
        s.new_var();
    }
    for clause in &f.clauses {
        s.add_clause(clause.iter().map(|&c| lit_of(c)));
    }
    // Hostile target polarities: alternating, unrelated to any model, so
    // the target-following brancher and the target rephaser are both
    // steered wrong on purpose and must still converge.
    for v in 0..f.num_vars {
        s.set_target_phase(Var::from_index(v), v % 2 == 0);
    }
    s
}

#[test]
fn chrono_rephase_fuzz_agrees_with_brute_force() {
    // Random corpus near the phase transition under fully chronological
    // backtracking with adversarial target phases and a high-frequency
    // rephaser. Verdicts must match the exhaustive reference, SAT models
    // must satisfy the formula, and UNSAT proofs must RUP-check even
    // though the trail holds out-of-order assignments all solve long.
    let mut rng = Rng::seed_from_u64(0xF022_000A);
    let mut unsat_proofs = 0;
    for round in 0..120 {
        let f = random_formula(&mut rng);
        let expected_sat = brute_force(&f).is_some();
        let ctx = format!("chrono round {round}");
        let mut s = chrono_solver(&f, true);
        let first = s.solve(&[]);
        assert_eq!(first.is_sat(), expected_sat, "{ctx}");
        if expected_sat {
            check_model(&s, &f, &ctx);
            // Re-solve under an assumption flipping the model: the trail
            // repair from the first solve must leave the solver reusable,
            // and targets adopted mid-run must not pin the old model.
            let pivot = lit_of(
                f.clauses
                    .first()
                    .and_then(|c| c.first())
                    .copied()
                    .unwrap_or(1),
            );
            let assumption = if s.model_value(pivot) == Some(true) {
                !pivot
            } else {
                pivot
            };
            let second = s.solve(&[assumption]);
            if second == SolveResult::Sat {
                check_model(&s, &f, &format!("{ctx} (assumed)"));
                assert_eq!(s.model_value(assumption), Some(true), "{ctx}");
            }
        } else {
            let proof = s.take_proof().expect("proof logging was enabled");
            assert!(proof.claims_unsat(), "{ctx}");
            assert_eq!(proof.check(), Ok(()), "{ctx}: chrono proof");
            unsat_proofs += 1;
        }
    }
    assert!(unsat_proofs >= 10, "corpus too easy: {unsat_proofs} UNSAT");
}

#[test]
fn chrono_rephase_agrees_on_crafted_families() {
    for (pigeons, holes) in [(3, 2), (4, 3), (3, 3), (4, 4), (5, 4)] {
        let f = pigeonhole(pigeons, holes);
        let expected_sat = pigeons <= holes;
        let ctx = format!("chrono pigeonhole({pigeons},{holes})");
        let mut s = chrono_solver(&f, true);
        assert_eq!(s.solve(&[]).is_sat(), expected_sat, "{ctx}");
        if expected_sat {
            check_model(&s, &f, &ctx);
        } else {
            assert!(
                s.stats().chrono_backtracks > 0,
                "{ctx}: threshold 0 never took the chronological path"
            );
            let proof = s.take_proof().expect("proof");
            assert_eq!(proof.check(), Ok(()), "{ctx}");
        }
    }
    let mut rng = Rng::seed_from_u64(0xF022_000B);
    for round in 0..30 {
        let nv = rng.gen_range(4usize..=14);
        let eqs = rng.gen_range(1usize..=2 * nv);
        let f = parity_system(&mut rng, nv, eqs);
        let expected_sat = brute_force(&f).is_some();
        let ctx = format!("chrono parity round {round}");
        let mut s = chrono_solver(&f, false);
        assert_eq!(s.solve(&[]).is_sat(), expected_sat, "{ctx}");
        if expected_sat {
            check_model(&s, &f, &ctx);
        }
    }
}
