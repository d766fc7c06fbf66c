//! Differential wall for the search policies (chronological
//! backtracking, target phases, glucose restarts, structure seeding).
//!
//! None of them may move an optimum: QAOA and QFT optima are pinned by
//! value, QUEKO rows must recover their construction's optimum, and every
//! layout must verify. Scrambled assumption cubes under hostile target
//! phases must agree with brute-force enumeration, and refutations
//! produced under chronological backtracking — including the fully
//! chronological `chrono_threshold = 0` regime, where *every* conflict
//! undoes a single level — must replay through the independent RUP
//! checker.

use olsq2::{Olsq2Synthesizer, SynthesisConfig};
use olsq2_arch::{grid, line};
use olsq2_circuit::generators::{qaoa_circuit, qft_circuit, queko_circuit};
use olsq2_layout::verify;
use olsq2_prng::Rng;
use olsq2_sat::{Lit, SolveResult, Solver, SolverTuning, Var};

/// Fully chronological tuning: every backjump is replaced by a one-level
/// undo, so the trail is permanently out of order.
fn chrono_tuning() -> SolverTuning {
    SolverTuning {
        chrono_threshold: 0,
        ..SolverTuning::default()
    }
}

/// Runs `optimize_depth` and checks the answer against `optimum`.
fn assert_depth_optimum(
    label: &str,
    circuit: &olsq2_circuit::Circuit,
    device: &olsq2_arch::CouplingGraph,
    optimum: usize,
) {
    let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1));
    let out = synth.optimize_depth(circuit, device).expect("solves");
    assert!(out.proven_optimal, "{label}: not proven optimal");
    assert_eq!(
        verify(circuit, device, &out.result),
        Ok(()),
        "{label}: layout fails verification"
    );
    assert_eq!(out.result.depth, optimum, "{label}: optimum moved");
}

#[test]
fn qaoa_optima_are_pinned() {
    let device = grid(3, 3);
    for (seed, optimum) in [(1u64, 6), (7, 6)] {
        let circuit = qaoa_circuit(6, seed);
        assert_depth_optimum(&format!("qaoa seed {seed}"), &circuit, &device, optimum);
    }
}

#[test]
fn qft_optima_are_pinned() {
    // QFT(4) on a line forces routing; on a 2×2 grid it embeds tighter.
    let circuit = qft_circuit(4);
    assert_depth_optimum("qft line4", &circuit, &line(4), 10);
    assert_depth_optimum("qft grid2x2", &circuit, &grid(2, 2), 9);
}

#[test]
fn queko_rows_recover_construction_optimum() {
    // QUEKO instances carry their optimum by construction, so these rows
    // check absolute optimality.
    let device = grid(3, 3);
    for (depth, seed) in [(3usize, 11u64), (4, 12)] {
        let q = queko_circuit(device.num_qubits(), device.edges(), depth, depth * 4, seed);
        assert_depth_optimum(
            &format!("queko depth {depth} seed {seed}"),
            &q.circuit,
            &device,
            q.optimal_depth,
        );
    }
}

// ---------------------------------------------------------------------
// Scrambled cubes: raw-CNF differential at the solver level.
// ---------------------------------------------------------------------

fn lit_of(code: i32) -> Lit {
    Lit::new(Var::from_index(code.unsigned_abs() as usize - 1), code < 0)
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

fn brute_force(num_vars: usize, clauses: &[Vec<i32>], extra_units: &[i32]) -> Option<u32> {
    'outer: for assignment in 0..(1u32 << num_vars) {
        for clause in clauses {
            if !clause_satisfied(clause, assignment) {
                continue 'outer;
            }
        }
        for &u in extra_units {
            if !clause_satisfied(&[u], assignment) {
                continue 'outer;
            }
        }
        return Some(assignment);
    }
    None
}

/// Builds a solver over `clauses` inserted in a seeded scrambled order —
/// the decorrelated arena layout a solver has mid-search, and the layout
/// under which the kernel rewrite is actually exercised.
fn scrambled_solver(
    num_vars: usize,
    clauses: &[Vec<i32>],
    tuning: SolverTuning,
    seed: u64,
    proof: bool,
) -> Solver {
    let mut order: Vec<usize> = (0..clauses.len()).collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut s = Solver::new();
    s.set_tuning(tuning);
    if proof {
        s.enable_proof();
    }
    for _ in 0..num_vars {
        s.new_var();
    }
    for &i in &order {
        s.add_clause(clauses[i].iter().map(|&c| lit_of(c)));
    }
    s
}

fn random_formula(rng: &mut Rng) -> (usize, Vec<Vec<i32>>) {
    let num_vars = rng.gen_range(4usize..=10);
    let num_clauses = rng.gen_range(8usize..=40);
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
    (num_vars, clauses)
}

#[test]
fn scrambled_assumption_cubes_agree_with_brute_force() {
    // Each formula is solved under a full cube expansion of two random
    // variables (all four sign combinations), under the default tuning
    // and fully chronological backtracking, against exhaustive
    // enumeration. Target phases are seeded with deliberately *hostile*
    // polarities so the target-following brancher must still recover the
    // right verdict.
    let mut rng = Rng::seed_from_u64(0x5EA2_C8D1);
    for round in 0..40 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let a = rng.gen_range(1i32..=num_vars as i32);
        let b = rng.gen_range(1i32..=num_vars as i32);
        for (name, tuning) in [
            ("default", SolverTuning::default()),
            ("chrono", chrono_tuning()),
        ] {
            let mut s = scrambled_solver(num_vars, &clauses, tuning, 0xAB00 + round, false);
            for v in 0..num_vars {
                s.set_target_phase(Var::from_index(v), v % 2 == 0);
            }
            for signs in 0..4u32 {
                let cube = [
                    if signs & 1 == 0 { a } else { -a },
                    if signs & 2 == 0 { b } else { -b },
                ];
                let expected = brute_force(num_vars, &clauses, &cube);
                let assumptions: Vec<Lit> = cube.iter().map(|&c| lit_of(c)).collect();
                let result = s.solve(&assumptions);
                match expected {
                    Some(_) => {
                        assert_eq!(
                            result,
                            SolveResult::Sat,
                            "round {round}/{name}: cube {cube:?} should be SAT"
                        );
                        for clause in &clauses {
                            assert!(
                                clause
                                    .iter()
                                    .any(|&c| s.model_value(lit_of(c)) == Some(true)),
                                "round {round}/{name}: model violates {clause:?}"
                            );
                        }
                        for &l in &assumptions {
                            assert_eq!(
                                s.model_value(l),
                                Some(true),
                                "round {round}/{name}: assumption dishonored"
                            );
                        }
                    }
                    None => assert_eq!(
                        result,
                        SolveResult::Unsat,
                        "round {round}/{name}: cube {cube:?} should be UNSAT"
                    ),
                }
            }
        }
    }
}

#[test]
fn chronological_refutations_replay_through_rup_checker() {
    // Fully chronological mode (threshold 0) on scrambled UNSAT formulas:
    // the DRAT log must still replay through the independent checker,
    // proving that out-of-order trails never corrupt clause learning.
    let mut rng = Rng::seed_from_u64(0x5EA2_F00F);
    let mut refutations = 0;
    for round in 0..80 {
        let (num_vars, clauses) = random_formula(&mut rng);
        if brute_force(num_vars, &clauses, &[]).is_some() {
            continue;
        }
        let mut s = scrambled_solver(num_vars, &clauses, chrono_tuning(), 0xCB00 + round, true);
        assert_eq!(s.solve(&[]), SolveResult::Unsat, "round {round}");
        let proof = s.take_proof().expect("proof recorded");
        assert!(proof.claims_unsat(), "round {round}");
        assert_eq!(proof.check(), Ok(()), "round {round}: proof rejected");
        refutations += 1;
    }
    assert!(
        refutations >= 10,
        "corpus too easy: {refutations} UNSAT rounds"
    );
}

#[test]
fn pigeonhole_chrono_proof_checks_and_backtracks_chronologically() {
    // PHP(5,4) guarantees deep conflicts; with threshold 0 the chrono
    // path must actually fire, and the refutation must still check.
    let (p, h) = (5usize, 4usize);
    let mut s = Solver::new();
    s.set_tuning(chrono_tuning());
    s.enable_proof();
    let x: Vec<Vec<Lit>> = (0..p)
        .map(|_| (0..h).map(|_| Lit::positive(s.new_var())).collect())
        .collect();
    for row in &x {
        s.add_clause(row.iter().copied());
    }
    for p1 in 0..p {
        for p2 in (p1 + 1)..p {
            for (&a, &b) in x[p1].iter().zip(&x[p2]) {
                s.add_clause([!a, !b]);
            }
        }
    }
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
    assert!(
        s.stats().chrono_backtracks > 0,
        "threshold 0 must exercise the chronological path"
    );
    let proof = s.take_proof().expect("proof recorded");
    assert!(proof.claims_unsat());
    assert_eq!(proof.check(), Ok(()));
}

#[test]
fn synthesis_refutation_under_chrono_is_rup_checkable() {
    // End-to-end: a QUEKO instance bounded one step below its constructed
    // optimum is UNSAT; with proof logging on and fully chronological
    // backtracking, the layout-synthesis refutation must replay through
    // the RUP checker. Every solve assumes the model's window guard, so
    // the proof is closed as the synthesizer seals its refutations: with
    // core lemmas on, the failed-assumption core follows as units, then
    // the empty clause.
    use olsq2::FlatModel;
    use olsq2_sat::ProofStep;
    let device = grid(3, 3);
    let q = queko_circuit(device.num_qubits(), device.edges(), 4, 16, 21);
    let config = SynthesisConfig {
        swap_duration: 1,
        proof_log: true,
        ..SynthesisConfig::default()
    };
    let mut model =
        FlatModel::build(&q.circuit, &device, &config, q.optimal_depth + 2).expect("builds");
    model.solver_mut().set_tuning(chrono_tuning());
    model.solver_mut().set_core_lemmas(true);
    let too_tight = model.depth_bound(q.optimal_depth - 1);
    assert_eq!(model.solve(&[too_tight]), SolveResult::Unsat);
    let solver = model.solver_mut();
    let core = solver.final_conflict().to_vec();
    let mut proof = solver.take_proof().expect("proof logging was enabled");
    for a in core {
        proof.push(ProofStep::Original(vec![a]));
    }
    proof.push(ProofStep::Empty);
    assert_eq!(proof.check(), Ok(()), "synthesis refutation rejected");
}

/// Pins the search itself, not just its answers: the solver counts and
/// formula size of seven fixed runs, four of which grow their window (two
/// in the time walk, two in the SWAP walk). A change that only speeds up
/// clause intake, encoding or minimization must leave every figure here
/// as it is; a change that alters the search order on purpose updates
/// them.
#[test]
fn search_counts_are_pinned() {
    use olsq2::TbOlsq2Synthesizer;
    use olsq2_arch::device_by_name;
    use olsq2_circuit::generators::{qft_decomposed, tof_circuit};
    // (conflicts, propagations, decisions, (vars, clauses)).
    let counts = |out: &olsq2::SynthesisOutcome| {
        let s = out.solver_stats;
        (s.conflicts, s.propagations, s.decisions, out.formula_size)
    };
    let line4 = device_by_name("line4").expect("known device");
    let out = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3))
        .optimize_depth(&qft_decomposed(4), &line4)
        .expect("solves");
    assert_eq!(out.result.depth, 28);
    assert_eq!(
        counts(&out),
        (2893, 708_732, 6157, (4004, 37_871)),
        "qft-4/line4"
    );

    let aspen4 = device_by_name("aspen4").expect("known device");
    let q = queko_circuit(aspen4.num_qubits(), aspen4.edges(), 5, 37, 42);
    let out = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3))
        .optimize_depth(&q.circuit, &aspen4)
        .expect("solves");
    assert_eq!(out.result.depth, 5);
    assert_eq!(
        counts(&out),
        (377, 221_089, 2852, (7450, 89_983)),
        "queko-16x37/aspen4"
    );

    let grid2x3 = device_by_name("grid2x3").expect("known device");
    let out = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1))
        .optimize_swaps(&qaoa_circuit(6, 42), &grid2x3)
        .expect("solves")
        .outcome;
    assert_eq!(out.result.swap_count(), 2);
    assert_eq!(
        counts(&out),
        (448, 94_601, 709, (836, 3619)),
        "TB qaoa-6/grid2x3"
    );

    // Two runs that outgrow their first window in the time walk, so the
    // formulas a window extension appends are pinned too: a tight flat
    // window (`tub_factor = 1.0`, 24→36 steps) and TB's block walk
    // doubling its window (4→8 blocks).
    let mut tight = SynthesisConfig::with_swap_duration(3);
    tight.tub_factor = 1.0;
    let out = Olsq2Synthesizer::new(tight)
        .optimize_depth(&qft_decomposed(4), &line4)
        .expect("solves");
    assert_eq!(out.result.depth, 28);
    assert_eq!(
        (counts(&out), out.extensions),
        ((3056, 836_051, 6193, (4505, 46_706)), 1),
        "qft-4/line4, tub_factor 1.0"
    );

    let line5 = device_by_name("line5").expect("known device");
    let out = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3))
        .optimize_swaps(&tof_circuit(3), &line5)
        .expect("solves")
        .outcome;
    assert_eq!(out.result.swap_count(), 4);
    assert_eq!(
        (counts(&out), out.extensions),
        ((1548, 200_635, 2361, (1516, 7109)), 1),
        "TB tof-3/line5"
    );

    // Two runs that grow their window in the SWAP walk, relaxing the
    // time bound past it: flat 7→8 steps, TB 4→5 blocks.
    let mut tight = SynthesisConfig::with_swap_duration(1);
    tight.tub_factor = 1.0;
    let out = Olsq2Synthesizer::new(tight)
        .optimize_swaps(&qaoa_circuit(6, 2), &grid2x3)
        .expect("solves")
        .best;
    assert_eq!((out.result.swap_count(), out.result.depth), (2, 7));
    assert_eq!(
        (counts(&out), out.extensions),
        ((2832, 974_488, 4812, (1835, 8870)), 1),
        "qaoa-6 seed 2/grid2x3, tub_factor 1.0"
    );

    let mut circuit = olsq2_circuit::Circuit::new(5);
    for (a, b) in [
        (0, 4),
        (1, 0),
        (0, 4),
        (1, 2),
        (0, 3),
        (2, 0),
        (4, 2),
        (1, 0),
        (4, 2),
        (1, 0),
        (1, 4),
    ] {
        circuit.push(olsq2_circuit::Gate::two(olsq2_circuit::GateKind::Cx, a, b));
    }
    let out = TbOlsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1))
        .optimize_swaps(&circuit, &line5)
        .expect("solves");
    assert_eq!((out.outcome.result.swap_count(), out.block_count), (4, 5));
    assert_eq!(
        (counts(&out.outcome), out.outcome.extensions),
        ((1931, 223_360, 2876, (659, 2678)), 1),
        "TB 11-CX/line5"
    );
}
