//! The bound search end to end: `Olsq2Synthesizer` walks the depth bound
//! and then, on the same warm model, the SWAP bound; `TbOlsq2Synthesizer`
//! walks the block count and then, on the same warm model, the SWAP bound.
//! Under proof logging the flat synthesizer's decisive UNSAT probe comes
//! back as a sealed refutation the RUP checker accepts; a run of either
//! synthesizer stopped mid-probe hands back either a verified incumbent or
//! `BudgetExhausted`; both synthesizers' SWAP optima are pinned to known
//! values; and `optimize_depth`'s sub-device first probe proves the DAG
//! bound on a ball of the device, or hands over to the full-device walk
//! with its probe counted.

use olsq2::{
    Olsq2Synthesizer, Recorder, SynthesisConfig, SynthesisError, SynthesisOutcome,
    TbOlsq2Synthesizer,
};
use olsq2_arch::{grid, line, sycamore54, CouplingGraph};
use olsq2_circuit::generators::{
    qaoa_circuit, qft_decomposed, queko_circuit, tof_circuit, toffoli_circuit,
};
use olsq2_circuit::{Circuit, DependencyGraph, Gate, GateKind};
use olsq2_layout::verify;
use olsq2_obs::{FieldValue, SpanData};
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

fn u64_field(span: &SpanData, key: &str) -> Option<u64> {
    span.fields.iter().find_map(|(k, v)| match v {
        FieldValue::U64(x) if k == key => Some(*x),
        _ => None,
    })
}

/// `optimize_depth` on `device`, traced, optionally under proof logging.
fn traced_depth(
    circuit: &Circuit,
    device: &CouplingGraph,
    sd: usize,
    proof_log: bool,
) -> (Result<SynthesisOutcome, SynthesisError>, Vec<SpanData>) {
    let recorder = Recorder::new();
    let mut config = SynthesisConfig::with_swap_duration(sd);
    config.recorder = recorder.clone();
    config.proof_log = proof_log;
    let out = Olsq2Synthesizer::new(config).optimize_depth(circuit, device);
    (out, recorder.snapshot().spans)
}

fn named<'a>(spans: &'a [SpanData], name: &str) -> Vec<&'a SpanData> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// Every `encode` and `iteration` span nests under the run's single
/// `optimize_depth` span, and the iteration spans' conflicts add up to
/// the outcome's `solver_stats`.
fn assert_spans_account_for(name: &str, out: &SynthesisOutcome, spans: &[SpanData]) {
    let outer = named(spans, "optimize_depth");
    assert_eq!(outer.len(), 1, "{name}: one optimize_depth span");
    for s in named(spans, "encode")
        .into_iter()
        .chain(named(spans, "iteration"))
    {
        assert_eq!(s.parent, Some(outer[0].id), "{name}: {} nests", s.name);
    }
    let iterations = named(spans, "iteration");
    assert_eq!(
        iterations.len(),
        out.iterations,
        "{name}: one span per probe"
    );
    let conflicts: u64 = iterations
        .iter()
        .map(|s| u64_field(s, "conflicts").expect("iteration conflicts"))
        .sum();
    assert_eq!(
        out.solver_stats.conflicts, conflicts,
        "{name}: stats add up"
    );
}

/// Depth at the DAG bound on a ball of `2·|Q|` device qubits is the
/// device optimum: one sub-device encode, one probe, proven, and the
/// lifted layout verifies on the full device. Under proof logging there
/// is nothing to refute.
#[test]
fn sub_device_probe_proves_the_dag_bound() {
    let hits = [
        ("qft-4/grid3x3", qft_decomposed(4), grid(3, 3), 3, 21),
        ("qaoa-8/sycamore", qaoa_circuit(8, 42), sycamore54(), 1, 8),
    ];
    for (name, circuit, device, sd, depth) in hits {
        assert_eq!(DependencyGraph::new(&circuit).longest_chain(), depth);
        let ball = 2 * circuit.num_qubits() as u64;
        for proof_log in [false, true] {
            let (out, spans) = traced_depth(&circuit, &device, sd, proof_log);
            let out = out.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.proven_optimal, "{name}: optimum not proven");
            assert_eq!(out.result.depth, depth, "{name}");
            assert_eq!(out.iterations, 1, "{name}");
            assert!(out.refutation.is_none(), "{name}: nothing to refute");
            assert_eq!(verify(&circuit, &device, &out.result), Ok(()), "{name}");
            let encodes = named(&spans, "encode");
            assert_eq!(encodes.len(), 1, "{name}: the full device is never encoded");
            assert_eq!(u64_field(encodes[0], "sub_device"), Some(ball), "{name}");
            let iterations = named(&spans, "iteration");
            assert_eq!(u64_field(iterations[0], "sub_device"), Some(ball), "{name}");
            assert_spans_account_for(name, &out, &spans);
        }
    }
}

/// A Toffoli on grid3x3 needs two steps beyond its DAG bound of 11, so
/// the probe on the 6-qubit ball is UNSAT and the full-device walk finds
/// and proves depth 13 as if the probe had not run. The run counts the
/// probe: two encodes (sub-device first), and `solver_stats` is the sum
/// of both models' probes. Under proof logging the full device's
/// decisive UNSAT comes back as a refutation the checker accepts.
#[test]
fn sub_device_miss_walks_the_full_device() {
    let circuit = toffoli_circuit();
    let device = grid(3, 3);
    assert_eq!(DependencyGraph::new(&circuit).longest_chain(), 11);
    for proof_log in [false, true] {
        let (out, spans) = traced_depth(&circuit, &device, 3, proof_log);
        let out = out.expect("synthesis");
        assert!(out.proven_optimal);
        assert_eq!(out.result.depth, 13);
        assert_eq!(verify(&circuit, &device, &out.result), Ok(()));
        let encodes: Vec<Option<u64>> = named(&spans, "encode")
            .iter()
            .map(|s| u64_field(s, "sub_device"))
            .collect();
        assert_eq!(encodes, vec![Some(6), None]);
        let iterations = named(&spans, "iteration");
        assert_eq!(u64_field(iterations[0], "sub_device"), Some(6));
        assert!(iterations[1..]
            .iter()
            .all(|s| u64_field(s, "sub_device").is_none()));
        assert_spans_account_for("toffoli/grid3x3", &out, &spans);
        if proof_log {
            assert_refutation_checks("toffoli/grid3x3", &out);
        }
    }
}

/// A run whose budget is spent by the end of the sub-device probe ends
/// `BudgetExhausted` and never encodes the full device: a preset stop
/// flag cuts the probe on qaoa-8/sycamore, and a zero time budget on
/// toffoli/grid3x3 has passed when its probe ends (UNSAT, or cut if the
/// probe reaches the solver's deadline check).
#[test]
fn spent_budget_never_encodes_the_full_device() {
    let stopped: fn(&mut SynthesisConfig) = |c| c.stop_flag = Some(Arc::new(AtomicBool::new(true)));
    let no_time: fn(&mut SynthesisConfig) = |c| c.time_budget = Some(Duration::ZERO);
    let cases = [
        (
            "qaoa-8/sycamore",
            qaoa_circuit(8, 42),
            sycamore54(),
            1,
            stopped,
            16,
        ),
        (
            "toffoli/grid3x3",
            toffoli_circuit(),
            grid(3, 3),
            3,
            no_time,
            6,
        ),
    ];
    for (name, circuit, device, sd, spend, ball) in cases {
        let recorder = Recorder::new();
        let mut config = SynthesisConfig::with_swap_duration(sd);
        config.recorder = recorder.clone();
        spend(&mut config);
        let out = Olsq2Synthesizer::new(config).optimize_depth(&circuit, &device);
        assert!(
            matches!(out, Err(SynthesisError::BudgetExhausted)),
            "{name}: {out:?}"
        );
        let spans = recorder.snapshot().spans;
        let encodes: Vec<Option<u64>> = named(&spans, "encode")
            .iter()
            .map(|s| u64_field(s, "sub_device"))
            .collect();
        assert_eq!(encodes, vec![Some(ball)], "{name}");
    }
}

/// `optimize_swaps` runs its SWAP phase on the depth phase's model, so
/// its depth phase stays on the full device even where a ball would fit:
/// one encode, no sub-device probe, and a layout that verifies.
#[test]
fn swap_objective_skips_the_sub_device_probe() {
    let device = grid(3, 3);
    let recorder = Recorder::new();
    let mut config = SynthesisConfig::with_swap_duration(1);
    config.recorder = recorder.clone();
    let out = Olsq2Synthesizer::new(config)
        .optimize_swaps(&triangle(), &device)
        .expect("synthesis");
    assert!(out.best.proven_optimal);
    assert_eq!(out.best.result.swap_count(), 1);
    assert_eq!(verify(&triangle(), &device, &out.best.result), Ok(()));
    let spans = recorder.snapshot().spans;
    let encodes: Vec<Option<u64>> = named(&spans, "encode")
        .iter()
        .map(|s| u64_field(s, "sub_device"))
        .collect();
    assert_eq!(encodes, vec![None]);
}
