//! Differential tests for the cube-and-conquer subsystem: on every
//! instance the cube engine must report exactly the verdict a single
//! sequential solver reports — for seeded CNF fuzzer families (random
//! 3-SAT, one-hot structured instances, instances under standing
//! assumptions) across several worker/split-depth configurations. UNSAT
//! instances are re-run in prove mode and the stitched refutation is
//! checked.

use olsq2_cube::{solve_cubes, CubeConfig, SatCubeSolver, SplitGroup};
use olsq2_obs::Recorder;
use olsq2_prng::Rng;
use olsq2_sat::{Lit, SolveResult, Solver, Var};

fn lit(v: usize) -> Lit {
    Lit::positive(Var::from_index(v))
}

/// Worker/depth grid each instance is solved under. Depth 1 with one
/// worker degenerates to plain sequential search inside the engine;
/// the larger cells exercise stealing and re-splitting.
const CONFIGS: &[(usize, usize)] = &[(1, 1), (2, 2), (4, 3)];

fn random_3sat(rng: &mut Rng, n: usize, m: usize) -> Vec<Vec<Lit>> {
    let mut clauses = Vec::with_capacity(m);
    for _ in 0..m {
        let mut vars = [0usize; 3];
        loop {
            for v in &mut vars {
                *v = rng.gen_range(0..n);
            }
            if vars[0] != vars[1] && vars[1] != vars[2] && vars[0] != vars[2] {
                break;
            }
        }
        clauses.push(
            vars.iter()
                .map(|&v| if rng.gen_bool(0.5) { lit(v) } else { !lit(v) })
                .collect(),
        );
    }
    clauses
}

fn sequential_verdict(num_vars: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> SolveResult {
    let mut solver = Solver::new();
    while solver.num_vars() < num_vars {
        solver.new_var();
    }
    for c in clauses {
        solver.add_clause(c.iter().copied());
    }
    solver.solve(assumptions)
}

/// Asserts the SAT witness's model satisfies every clause under the
/// standing assumptions.
fn check_model(worker: &SatCubeSolver, clauses: &[Vec<Lit>], assumptions: &[Lit]) {
    for a in assumptions {
        assert_eq!(
            worker.solver().model_value(*a),
            Some(true),
            "assumption violated"
        );
    }
    for (i, c) in clauses.iter().enumerate() {
        assert!(
            c.iter()
                .any(|&l| worker.solver().model_value(l) == Some(true)),
            "clause {i} unsatisfied by cube witness"
        );
    }
}

/// Runs the cube engine over `clauses` under every config in
/// [`CONFIGS`] and asserts each verdict equals `expected`; on UNSAT the
/// instance is additionally re-solved in prove mode (single config) and
/// the stitched refutation checked.
fn assert_cube_matches(
    label: &str,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    hints: &[SplitGroup],
    assumptions: &[Lit],
    expected: SolveResult,
) {
    for &(workers, depth) in CONFIGS {
        let cfg = CubeConfig {
            workers,
            depth,
            conflict_budget: 500,
            ..CubeConfig::default()
        };
        let run = solve_cubes(
            |_| {
                let mut w = SatCubeSolver::new(num_vars, clauses, false);
                w.set_base(assumptions.to_vec());
                for g in hints {
                    w.add_hint(g.clone());
                }
                w
            },
            &cfg,
            &Recorder::disabled(),
        );
        assert_eq!(
            run.result, expected,
            "{label}: cube (workers={workers}, depth={depth}) disagrees with sequential"
        );
        if expected == SolveResult::Sat {
            check_model(
                run.witness().expect("SAT run carries a witness"),
                clauses,
                assumptions,
            );
        }
    }
    if expected == SolveResult::Unsat && assumptions.is_empty() {
        let cfg = CubeConfig {
            workers: 2,
            depth: 2,
            prove: true,
            ..CubeConfig::default()
        };
        let run = solve_cubes(
            |_| {
                let mut w = SatCubeSolver::new(num_vars, clauses, true);
                for g in hints {
                    w.add_hint(g.clone());
                }
                w
            },
            &cfg,
            &Recorder::disabled(),
        );
        assert_eq!(
            run.result,
            SolveResult::Unsat,
            "{label}: prove-mode verdict flipped"
        );
        let proof = run
            .proof
            .expect("prove-mode UNSAT carries a stitched proof");
        assert!(
            proof.check().is_ok(),
            "{label}: stitched refutation rejected by the checker"
        );
    }
}

/// Family A: random 3-SAT around the phase transition (clause/variable
/// ratio swept 3.5–5.0 so both verdicts occur). No split hints — the
/// splitter falls back to VSIDS variable cubes.
#[test]
fn random_3sat_matches_sequential_across_configs() {
    let mut rng = Rng::seed_from_u64(0xC0BE_0001);
    let mut sat = 0;
    let mut unsat = 0;
    for round in 0..24 {
        let n = rng.gen_range(8usize..=14);
        let m = n * 7 / 2 + rng.gen_range(0..=n * 3 / 2);
        let clauses = random_3sat(&mut rng, n, m);
        let expected = sequential_verdict(n, &clauses, &[]);
        match expected {
            SolveResult::Sat => sat += 1,
            SolveResult::Unsat => unsat += 1,
            SolveResult::Unknown => panic!("sequential solver returned Unknown"),
        }
        assert_cube_matches(
            &format!("3sat round {round}"),
            n,
            &clauses,
            &[],
            &[],
            expected,
        );
    }
    assert!(
        sat > 0 && unsat > 0,
        "fuzzer family must cover both verdicts (sat={sat}, unsat={unsat})"
    );
}

/// Family B: one-hot structured instances — `k` exactly-one groups plus
/// random implications between group members, mirroring the mapping
/// constraints the synthesis encoder emits. Groups are registered as
/// split hints, so the lookahead splitter's one-hot path is on trial.
#[test]
fn one_hot_instances_with_hints_match_sequential() {
    let mut rng = Rng::seed_from_u64(0xC0BE_0002);
    let mut sat = 0;
    let mut unsat = 0;
    for round in 0..16 {
        let groups = rng.gen_range(3usize..=5);
        let width = rng.gen_range(3usize..=4);
        let n = groups * width;
        let member = |g: usize, i: usize| lit(g * width + i);
        let mut clauses = Vec::new();
        let mut hints = Vec::new();
        for g in 0..groups {
            let row: Vec<Lit> = (0..width).map(|i| member(g, i)).collect();
            clauses.push(row.clone());
            for a in 0..width {
                for b in a + 1..width {
                    clauses.push(vec![!row[a], !row[b]]);
                }
            }
            hints.push(SplitGroup {
                family: olsq2_encode::ConstraintFamily::Mapping,
                lits: row,
            });
        }
        // Random implications member(g1, i) -> ¬member(g2, j): enough of
        // them over-constrains the instance into UNSAT.
        let conflicts = rng.gen_range(n * 2..n * 10);
        for _ in 0..conflicts {
            let g1 = rng.gen_range(0..groups);
            let g2 = rng.gen_range(0..groups);
            if g1 == g2 {
                continue;
            }
            let i = rng.gen_range(0..width);
            let j = rng.gen_range(0..width);
            clauses.push(vec![!member(g1, i), !member(g2, j)]);
        }
        let expected = sequential_verdict(n, &clauses, &[]);
        match expected {
            SolveResult::Sat => sat += 1,
            SolveResult::Unsat => unsat += 1,
            SolveResult::Unknown => panic!("sequential solver returned Unknown"),
        }
        assert_cube_matches(
            &format!("one-hot round {round}"),
            n,
            &clauses,
            &hints,
            &[],
            expected,
        );
    }
    assert!(
        sat > 0 && unsat > 0,
        "fuzzer family must cover both verdicts (sat={sat}, unsat={unsat})"
    );
}

/// Family C: random 3-SAT under standing base assumptions — every cube
/// must inherit the base, and `solve(assumptions)` on the sequential
/// side is the reference.
#[test]
fn standing_assumptions_match_sequential() {
    let mut rng = Rng::seed_from_u64(0xC0BE_0003);
    for round in 0..12 {
        let n = rng.gen_range(8usize..=12);
        let m = n * 4;
        let clauses = random_3sat(&mut rng, n, m);
        let picks = rng.gen_range(1usize..=3);
        let mut assumptions = Vec::new();
        for _ in 0..picks {
            let v = rng.gen_range(0..n);
            if assumptions
                .iter()
                .all(|a: &Lit| a.var() != Var::from_index(v))
            {
                assumptions.push(if rng.gen_bool(0.5) { lit(v) } else { !lit(v) });
            }
        }
        let expected = sequential_verdict(n, &clauses, &assumptions);
        if expected == SolveResult::Unknown {
            panic!("sequential solver returned Unknown");
        }
        assert_cube_matches(
            &format!("assumption round {round}"),
            n,
            &clauses,
            &[],
            &assumptions,
            expected,
        );
    }
}
