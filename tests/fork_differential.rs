//! Differential tests for model forking, the mechanism behind the
//! service's snapshot-on-preempt resume: a model forked by
//! [`FlatModel::fork`] (via [`ModelSeed`]) must be observationally
//! identical to a freshly encoded one — same SAT/UNSAT verdict at every
//! depth bound — and must produce refutations the RUP checker accepts.
//! QAOA, QFT, and QUEKO instances cover the paper's benchmark families.

use olsq2::{FlatModel, ModelSeed, Olsq2Synthesizer, SynthesisConfig};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, queko_circuit};
use olsq2_circuit::{Circuit, DependencyGraph};
use olsq2_layout::verify;
use olsq2_sat::SolveResult;

/// QAOA / QFT / QUEKO instances (name, circuit, device, swap duration).
fn benchmarks() -> Vec<(&'static str, Circuit, CouplingGraph, usize)> {
    let queko_dev = grid(2, 3);
    let queko = queko_circuit(queko_dev.num_qubits(), queko_dev.edges(), 3, 12, 7).circuit;
    vec![
        ("qaoa-4", qaoa_circuit(4, 11), line(4), 1),
        ("qft-4", qft_decomposed(4), line(4), 3),
        ("queko-2x3", queko, queko_dev, 1),
    ]
}

/// Walks both models down from `t_ub`, comparing the verdict at every
/// depth bound until the first UNSAT (inclusive); SAT layouts must
/// verify on both sides.
fn assert_bound_descent_agrees(
    label: &str,
    circuit: &Circuit,
    device: &CouplingGraph,
    forked: &mut FlatModel,
    fresh: &mut FlatModel,
    t_ub: usize,
) {
    for k in (1..=t_ub).rev() {
        let fork_act = forked.depth_bound(k);
        let fresh_act = fresh.depth_bound(k);
        let fork_res = forked.solve(&[fork_act]);
        let fresh_res = fresh.solve(&[fresh_act]);
        assert_eq!(
            fork_res, fresh_res,
            "{label}: verdict diverged at depth bound {k}"
        );
        match fork_res {
            SolveResult::Sat => {
                for (side, model) in [("forked", &*forked), ("fresh", &*fresh)] {
                    let result = model.extract();
                    assert!(
                        result.depth <= k,
                        "{label} ({side}): depth {} > bound {k}",
                        result.depth
                    );
                    assert_eq!(
                        verify(circuit, device, &result),
                        Ok(()),
                        "{label} ({side}) at bound {k}"
                    );
                }
            }
            SolveResult::Unsat => break,
            SolveResult::Unknown => panic!("{label}: solver returned Unknown at bound {k}"),
        }
    }
}

/// Model-level differential over the benchmarks: a model forked from a
/// [`ModelSeed`] and a freshly encoded model with the same config must
/// report the same verdict at every depth bound down to the first
/// refutation. The seed serves two forks in turn, since a stored snapshot
/// must survive every resume it serves.
#[test]
fn forked_members_match_fresh_builds() {
    for (name, circuit, device, sd) in &benchmarks() {
        let t_ub = DependencyGraph::new(circuit).longest_chain().max(1) + 2;
        let cfg = SynthesisConfig::with_swap_duration(*sd);
        let template = FlatModel::build(circuit, device, &cfg, t_ub).expect("template build");
        let instance = ModelSeed::instance_fingerprint(circuit, device, &cfg);
        let seed = ModelSeed::capture(template, instance);
        for member in 1..=2usize {
            let mut forked = seed
                .fork_for(&cfg, circuit, device, instance, t_ub)
                .expect("seed serves the same instance at the same window");
            let mut fresh = FlatModel::build(circuit, device, &cfg, t_ub).expect("fresh build");
            assert_bound_descent_agrees(
                &format!("{name} member {member}"),
                circuit,
                device,
                &mut forked,
                &mut fresh,
                t_ub,
            );
        }
    }
}

/// Window-growth differential: a seed captured at a small window must
/// serve a *larger* window by forking and growing the fork in place
/// ([`FlatModel::extend_window`]), and the grown fork must agree with a
/// model freshly built at the large window at every depth bound.
#[test]
fn forked_window_growth_matches_fresh_build() {
    for (name, circuit, device, sd) in &benchmarks() {
        let base_t_ub = DependencyGraph::new(circuit).longest_chain().max(1);
        let grown_t_ub = base_t_ub + 2;
        let cfg = SynthesisConfig::with_swap_duration(*sd);
        let template = FlatModel::build(circuit, device, &cfg, base_t_ub).expect("template build");
        let seed = ModelSeed::capture(
            template,
            ModelSeed::instance_fingerprint(circuit, device, &cfg),
        );
        let mut forked = seed
            .fork_for(&cfg, circuit, device, seed.instance(), grown_t_ub)
            .expect("incremental seed serves a larger window");
        assert_eq!(forked.t_ub(), grown_t_ub, "{name}: fork did not grow");
        assert_eq!(
            forked.extensions(),
            1,
            "{name}: growth must extend in place"
        );
        let mut fresh = FlatModel::build(circuit, device, &cfg, grown_t_ub).expect("fresh build");
        assert_bound_descent_agrees(
            &format!("{name} grown fork"),
            circuit,
            device,
            &mut forked,
            &mut fresh,
            grown_t_ub,
        );
    }
}

/// Proof differential: a fork of a proof-logging template refutes a
/// sub-optimal bound, and its core-lemma log must pass the RUP checker.
#[test]
fn forked_unsat_proofs_rup_check() {
    let circuit = qaoa_circuit(4, 42);
    let device = line(4);
    let base = SynthesisConfig::with_swap_duration(1);
    let seq = Olsq2Synthesizer::new(base.clone())
        .optimize_depth(&circuit, &device)
        .expect("sequential reference solves");
    assert!(seq.proven_optimal);
    let opt = seq.result.depth;
    assert!(
        opt >= 2,
        "need a refutable sub-optimal bound, optimum is {opt}"
    );

    let mut cfg = base.clone();
    cfg.proof_log = true;
    let mut template = FlatModel::build(&circuit, &device, &cfg, opt + 1).expect("template build");
    let mut forked = template.fork(&cfg);
    forked.solver_mut().set_core_lemmas(true);
    let act = forked.depth_bound(opt - 1);
    assert_eq!(forked.solve(&[act]), SolveResult::Unsat);
    let core = forked.solver_mut().final_conflict().to_vec();
    assert!(!core.is_empty(), "UNSAT under assumptions must name a core");
    let mut proof = forked
        .solver_mut()
        .take_proof()
        .expect("proof logging must survive the fork");
    assert!(proof.num_lemmas() > 0, "refutation recorded no lemmas");
    // Close the log into a refutation of formula ∧ core: the core-lemma
    // pass logged the negated core as the final lemma, so asserting the
    // core assumptions (the bound activator and the window guard) as
    // axioms makes the empty clause RUP.
    for &a in &core {
        proof.push(olsq2_sat::ProofStep::Original(vec![a]));
    }
    proof.push(olsq2_sat::ProofStep::Empty);
    assert!(proof.claims_unsat());
    proof
        .check()
        .expect("forked member's refutation must RUP-check");
}
