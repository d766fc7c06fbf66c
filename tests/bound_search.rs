//! The flat bound search end to end: `Olsq2Synthesizer` walks the depth
//! bound and then, on the same warm model, the SWAP bound. Under proof
//! logging the decisive UNSAT probe comes back as a sealed refutation
//! the RUP checker accepts; a run stopped mid-probe hands back either a
//! verified incumbent or `BudgetExhausted`; and the flat SWAP optima are
//! pinned to known values.

use olsq2::{Olsq2Synthesizer, SynthesisConfig, SynthesisError, SynthesisOutcome};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, queko_circuit};
use olsq2_circuit::{Circuit, DependencyGraph, Gate, GateKind};
use olsq2_layout::verify;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// QAOA (routing-heavy), QFT (arithmetic), QUEKO (known-optimal).
fn depth_corpus() -> Vec<(&'static str, Circuit, CouplingGraph, usize)> {
    let queko = queko_circuit(6, grid(2, 3).edges(), 5, 16, 42);
    vec![
        ("qaoa-4", qaoa_circuit(4, 42), line(4), 1),
        ("qaoa-6", qaoa_circuit(6, 42), grid(2, 3), 1),
        ("qft-4", qft_decomposed(4), line(4), 3),
        ("queko-5x16", queko.circuit, grid(2, 3), 3),
    ]
}

fn triangle() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Gate::two(GateKind::Cx, 0, 1));
    c.push(Gate::two(GateKind::Cx, 1, 2));
    c.push(Gate::two(GateKind::Cx, 0, 2));
    c
}

fn proving(swap_duration: usize) -> Olsq2Synthesizer {
    let mut config = SynthesisConfig::with_swap_duration(swap_duration);
    config.proof_log = true;
    Olsq2Synthesizer::new(config)
}

fn assert_refutation_checks(name: &str, out: &SynthesisOutcome) {
    let proof = out
        .refutation
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: sealed refutation owed"));
    assert!(proof.claims_unsat(), "{name}: proof does not claim UNSAT");
    proof
        .check()
        .unwrap_or_else(|e| panic!("{name}: refutation rejected: {e:?}"));
}

/// Proof mode, depth objective: an optimum above the DAG bound owes a
/// sealed refutation of `depth ≤ optimum − 1`; an optimum on the bound
/// owes none.
#[test]
fn depth_refutations_are_proof_checked() {
    for (name, circuit, device, sd) in depth_corpus() {
        let out = proving(sd)
            .optimize_depth(&circuit, &device)
            .expect("synthesis");
        assert!(out.proven_optimal, "{name}: optimum not proven");
        assert_eq!(verify(&circuit, &device, &out.result), Ok(()));
        let t_lb = DependencyGraph::new(&circuit).longest_chain().max(1);
        if out.result.depth > t_lb {
            assert_refutation_checks(name, &out);
        } else {
            assert!(
                out.refutation.is_none(),
                "{name}: optimum on the structural bound has nothing to refute"
            );
        }
    }
}

/// Proof mode, SWAP objective: the refutation is sealed on the warm model
/// that also ran the depth phase, so its log holds both phases' lemmas.
#[test]
fn swap_refutation_is_proof_checked() {
    let circuit = triangle();
    let device = line(3);
    let out = proving(1)
        .optimize_swaps(&circuit, &device)
        .expect("synthesis");
    assert!(out.best.proven_optimal);
    assert_eq!(out.best.result.swap_count(), 1);
    assert_refutation_checks("triangle/line3", &out.best);

    // A zero-SWAP optimum is the structural bound: nothing to refute.
    let mut square = Circuit::new(4);
    for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3)] {
        square.push(Gate::two(GateKind::Cx, a, b));
    }
    let out = proving(1)
        .optimize_swaps(&square, &grid(2, 2))
        .expect("synthesis");
    assert!(out.best.proven_optimal);
    assert_eq!(out.best.result.swap_count(), 0);
    assert!(out.best.refutation.is_none());
}

/// Flat SWAP optima pinned to known values (the same rows as the
/// benchmark's `expected.txt`), each proven and verified.
#[test]
fn flat_swap_optima_are_pinned() {
    let corpus: Vec<(&str, Circuit, CouplingGraph, usize)> = vec![
        ("triangle/line3", triangle(), line(3), 1),
        ("qaoa-4/line4", qaoa_circuit(4, 42), line(4), 3),
        ("qaoa-6/grid2x3", qaoa_circuit(6, 42), grid(2, 3), 2),
    ];
    for (name, circuit, device, optimum) in corpus {
        let out = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(1))
            .optimize_swaps(&circuit, &device)
            .expect("synthesis");
        assert!(out.best.proven_optimal, "{name}: optimum not proven");
        assert_eq!(out.best.result.swap_count(), optimum, "{name}");
        assert_eq!(
            verify(&circuit, &device, &out.best.result),
            Ok(()),
            "{name}: layout failed verification"
        );
        assert_eq!(
            out.pareto.last().map(|&(_, s)| s),
            Some(optimum),
            "{name}: the last Pareto point is the optimum"
        );
    }
}

/// Stopping the walk from another thread at any moment (sweeping the
/// delay so different runs interrupt different probes, mid-solve
/// included) must never corrupt the result: the run either dies before a
/// first solution with `BudgetExhausted`, or returns an incumbent that
/// verifies and is never better than the optimum (qft-4/line4 at S_D = 3:
/// depth 28, SWAP count 3).
#[test]
fn stop_flag_sweep_leaves_incumbents_valid() {
    let circuit = qft_decomposed(4);
    let device = line(4);
    for swaps in [false, true] {
        for delay_us in [50u64, 500, 5_000, 50_000] {
            let stop = Arc::new(AtomicBool::new(false));
            let mut config = SynthesisConfig::with_swap_duration(3);
            config.stop_flag = Some(stop.clone());
            let synth = Olsq2Synthesizer::new(config);
            let killer = {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(delay_us));
                    stop.store(true, Ordering::Relaxed);
                })
            };
            let outcome = if swaps {
                synth.optimize_swaps(&circuit, &device).map(|o| o.best)
            } else {
                synth.optimize_depth(&circuit, &device)
            };
            killer.join().expect("killer thread");
            let run = format!("swaps={swaps}, stop after {delay_us}us");
            match outcome {
                Ok(out) => {
                    assert_eq!(
                        verify(&circuit, &device, &out.result),
                        Ok(()),
                        "{run}: invalid layout"
                    );
                    assert!(out.result.depth >= 28, "{run}: depth below the optimum");
                    let value = if swaps {
                        out.result.swap_count()
                    } else {
                        out.result.depth
                    };
                    let optimum = if swaps { 3 } else { 28 };
                    assert!(value >= optimum, "{run}: better than optimal");
                    if out.proven_optimal {
                        assert_eq!(value, optimum, "{run}: proved a wrong optimum");
                    }
                }
                Err(SynthesisError::BudgetExhausted) => {}
                Err(e) => panic!("{run}: unexpected error {e}"),
            }
        }
    }
}
