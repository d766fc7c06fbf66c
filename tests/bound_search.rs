//! The bound search end to end: `Olsq2Synthesizer` walks the depth bound
//! and then, on the same warm model, the SWAP bound; `TbOlsq2Synthesizer`
//! walks the block count and then, on the same warm model, the SWAP bound.
//! Under proof logging the flat synthesizer's decisive UNSAT probe comes
//! back as a sealed refutation the RUP checker accepts; a run of either
//! synthesizer stopped mid-probe hands back either a verified incumbent or
//! `BudgetExhausted`; and both synthesizers' SWAP optima are pinned to
//! known values.

use olsq2::{
    Olsq2Synthesizer, SynthesisConfig, SynthesisError, SynthesisOutcome, TbOlsq2Synthesizer,
};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, queko_circuit, tof_circuit};
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

/// The SWAP walks under test: flat `Olsq2Synthesizer` or TB
/// `TbOlsq2Synthesizer`.
#[derive(Clone, Copy, Debug)]
enum Synth {
    Flat,
    Tb,
}

/// SWAP optima of both synthesizers pinned to known values (the same rows
/// as the benchmark's `expected.txt`), each proven and verified. TB's
/// optima may exceed flat's: its SWAP layers sit between whole blocks.
#[test]
fn flat_swap_optima_are_pinned() {
    use Synth::{Flat, Tb};
    let corpus: Vec<(&str, Synth, Circuit, CouplingGraph, usize, usize)> = vec![
        ("triangle/line3", Flat, triangle(), line(3), 1, 1),
        ("qaoa-4/line4", Flat, qaoa_circuit(4, 42), line(4), 1, 3),
        (
            "qaoa-6/grid2x3",
            Flat,
            qaoa_circuit(6, 42),
            grid(2, 3),
            1,
            2,
        ),
        ("triangle/line3", Tb, triangle(), line(3), 1, 1),
        ("qaoa-6/grid2x3", Tb, qaoa_circuit(6, 42), grid(2, 3), 1, 2),
        ("tof-3/line5", Tb, tof_circuit(3), line(5), 3, 4),
        ("qft-5/line5", Tb, qft_decomposed(5), line(5), 3, 6),
    ];
    for (name, synth, circuit, device, sd, optimum) in corpus {
        let config = SynthesisConfig::with_swap_duration(sd);
        let out = match synth {
            Flat => {
                let out = Olsq2Synthesizer::new(config)
                    .optimize_swaps(&circuit, &device)
                    .expect("synthesis");
                assert_eq!(
                    out.pareto.last().map(|&(_, s)| s),
                    Some(optimum),
                    "{name}: the last Pareto point is the optimum"
                );
                out.best
            }
            Tb => {
                TbOlsq2Synthesizer::new(config)
                    .optimize_swaps(&circuit, &device)
                    .expect("synthesis")
                    .outcome
            }
        };
        assert!(out.proven_optimal, "{name} ({synth:?}): optimum not proven");
        assert_eq!(out.result.swap_count(), optimum, "{name} ({synth:?})");
        assert_eq!(
            verify(&circuit, &device, &out.result),
            Ok(()),
            "{name} ({synth:?}): layout failed verification"
        );
    }
}

/// Stopping a walk from another thread at any moment (sweeping the delay
/// so different runs interrupt different probes, mid-solve included) must
/// never corrupt the result: the run either dies before a first solution
/// with `BudgetExhausted`, or returns an incumbent that verifies, is never
/// better than the optimum, and equals it whenever it is marked proven.
/// The walks: flat depth and SWAPs on qft-4/line4 (depth 28, SWAP count
/// 3), TB SWAPs on qft-5/line5 (SWAP count 6), all at S_D = 3. TB's block
/// walk alone outlasts 50 ms, so its sweep reaches further to stop the
/// SWAP phase too.
#[test]
fn stop_flag_sweep_leaves_incumbents_valid() {
    let qft4 = qft_decomposed(4);
    let qft5 = qft_decomposed(5);
    let flat_delays_us = [50, 500, 5_000, 50_000];
    let tb_delays_us = [50, 5_000, 250_000, 2_500_000];
    // (synth, SWAP objective?, circuit, device, optimum, depth floor, delays)
    let walks = [
        (Synth::Flat, false, &qft4, line(4), 28, 28, flat_delays_us),
        (Synth::Flat, true, &qft4, line(4), 3, 28, flat_delays_us),
        (
            Synth::Tb,
            true,
            &qft5,
            line(5),
            6,
            DependencyGraph::new(&qft5).longest_chain(),
            tb_delays_us,
        ),
    ];
    for (synth, swaps, circuit, device, optimum, depth_floor, delays_us) in walks {
        for delay_us in delays_us {
            let stop = Arc::new(AtomicBool::new(false));
            let mut config = SynthesisConfig::with_swap_duration(3);
            config.stop_flag = Some(stop.clone());
            let killer = {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(delay_us));
                    stop.store(true, Ordering::Relaxed);
                })
            };
            let outcome = match (synth, swaps) {
                (Synth::Flat, false) => {
                    Olsq2Synthesizer::new(config).optimize_depth(circuit, &device)
                }
                (Synth::Flat, true) => Olsq2Synthesizer::new(config)
                    .optimize_swaps(circuit, &device)
                    .map(|o| o.best),
                (Synth::Tb, _) => TbOlsq2Synthesizer::new(config)
                    .optimize_swaps(circuit, &device)
                    .map(|o| o.outcome),
            };
            killer.join().expect("killer thread");
            let run = format!("{synth:?} swaps={swaps}, stop after {delay_us}us");
            match outcome {
                Ok(out) => {
                    assert_eq!(
                        verify(circuit, &device, &out.result),
                        Ok(()),
                        "{run}: invalid layout"
                    );
                    assert!(
                        out.result.depth >= depth_floor,
                        "{run}: depth below its floor"
                    );
                    let value = if swaps {
                        out.result.swap_count()
                    } else {
                        out.result.depth
                    };
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
