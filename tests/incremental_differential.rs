//! Differential tests for in-place window growth: a flat model extended
//! across window growth must be indistinguishable — at every bound, not
//! just the optimum — from a model freshly built at the same window, and
//! a synthesis run that outgrows its window must land on the optimum of a
//! run whose first window already holds it. Every layout must pass the
//! five-constraint verifier. (The TB model's counterpart is a unit test
//! in `crates/core/src/transition.rs`.)

use olsq2::{FlatModel, Olsq2Synthesizer, SynthesisConfig};
use olsq2_arch::{grid, line, CouplingGraph};
use olsq2_circuit::generators::{qaoa_circuit, queko_circuit};
use olsq2_circuit::{Circuit, DependencyGraph, Gate, GateKind};
use olsq2_layout::verify;
use olsq2_prng::Rng;
use olsq2_sat::SolveResult;

fn random_circuit(rng: &mut Rng, nq: usize, max_gates: usize) -> Circuit {
    let len = rng.gen_range(1usize..=max_gates);
    let mut c = Circuit::new(nq);
    for _ in 0..len {
        let a = rng.gen_range(0..nq as u16);
        let b = rng.gen_range(0..nq as u16);
        if a != b {
            c.push(Gate::two(GateKind::Cx, a, b));
        }
    }
    if c.is_empty() {
        c.push(Gate::two(GateKind::Cx, 0, 1));
    }
    c
}

fn devices() -> Vec<CouplingGraph> {
    vec![line(4), grid(2, 2), grid(2, 3)]
}

/// Room for every SWAP count the differential probes.
const SWAP_CAPACITY: usize = 16;

/// Builds one model at `windows[0]`, grows it in place through the rest
/// of `windows`, and after every growth compares it against a fresh build
/// at the same window: the SAT/UNSAT verdict must agree at *every* depth
/// bound in the window, and with `swap_bounds`, under each satisfiable
/// one at every SWAP bound below the larger of the two witnessed counts
/// (so a grown model weaker or stronger than the fresh one shows up);
/// every witness must verify and respect its bounds. Bounds and the SWAP
/// network asked for before a growth are carried across it, and chained
/// growths exercise the guard chain (generation N's guard falsified by
/// N+1).
fn assert_growth_matches_fresh_builds(
    label: &str,
    circuit: &Circuit,
    device: &CouplingGraph,
    swap_duration: usize,
    windows: &[usize],
    swap_bounds: bool,
) {
    let config = SynthesisConfig::with_swap_duration(swap_duration);
    let probe = |model: &mut FlatModel, depth: usize, swaps: Option<usize>| {
        let mut acts = vec![model.depth_bound(depth)];
        acts.extend(swaps.map(|s| model.swap_bound(s, SWAP_CAPACITY)));
        model.solve(&acts)
    };
    let mut extended = FlatModel::build(circuit, device, &config, windows[0]).expect("builds");
    for (step, &window) in windows[1..].iter().enumerate() {
        assert!(
            extended.extend_window(circuit, device, window),
            "{label} step {step}: extension refused"
        );
        let mut fresh = FlatModel::build(circuit, device, &config, window).expect("fresh build");
        for k in 1..=window {
            let mut witnessed = 0;
            for swaps in std::iter::once(None).chain((0..SWAP_CAPACITY).map(Some)) {
                if swaps.is_some_and(|s| !swap_bounds || s >= witnessed) {
                    break;
                }
                let at = format!("{label} step {step}, bound ({k}, {swaps:?})");
                let verdict = probe(&mut extended, k, swaps);
                assert_eq!(
                    verdict,
                    probe(&mut fresh, k, swaps),
                    "{at}: verdicts diverged"
                );
                if verdict != SolveResult::Sat {
                    continue;
                }
                for (side, result) in [("extended", extended.extract()), ("fresh", fresh.extract())]
                {
                    assert!(result.depth <= k, "{at} ({side}): depth {}", result.depth);
                    assert!(
                        swaps.is_none_or(|s| result.swap_count() <= s),
                        "{at} ({side}): {} SWAPs",
                        result.swap_count()
                    );
                    assert_eq!(verify(circuit, device, &result), Ok(()), "{at} ({side})");
                    witnessed = witnessed.max(result.swap_count());
                }
            }
        }
    }
    assert_eq!(extended.extensions(), windows.len() - 1, "{label}");
}

/// Model-level differential: random circuits grown 3→5→7→9, plus two
/// structured rows grown from their DAG bound `T_LB` (at least 2) in two
/// steps of `max(T_LB / 2, 2)`: a QUEKO instance (S_D 3) and a QAOA
/// instance (S_D 1), both on a 2×3 grid. The QAOA row checks depth
/// bounds only: refuting its SWAP bounds takes about a minute unoptimized.
#[test]
fn extended_flat_model_matches_fresh_build_at_every_depth() {
    let mut rng = Rng::seed_from_u64(0x1AC4_0001);
    for round in 0..6 {
        let circuit = random_circuit(&mut rng, 4, 7);
        let device = &devices()[rng.gen_range(0usize..3)];
        assert_growth_matches_fresh_builds(
            &format!("round {round}"),
            &circuit,
            device,
            1,
            &[3, 5, 7, 9],
            true,
        );
    }

    let device = grid(2, 3);
    let queko = queko_circuit(device.num_qubits(), device.edges(), 3, 8, 42).circuit;
    for (label, circuit, swap_duration, swap_bounds) in [
        ("queko-3x8/grid2x3", queko, 3, true),
        ("qaoa-6/grid2x3", qaoa_circuit(6, 42), 1, false),
    ] {
        let t0 = DependencyGraph::new(&circuit).longest_chain().max(2);
        let step = (t0 / 2).max(2);
        let windows = [t0, t0 + step, t0 + 2 * step];
        assert_growth_matches_fresh_builds(
            label,
            &circuit,
            &device,
            swap_duration,
            &windows,
            swap_bounds,
        );
    }
}

/// Synthesizer-level differential with growth forced: a tight initial
/// window (`tub_factor = 1.0`, SWAP duration 3) makes phase-1 relaxation
/// outgrow the window, so these runs must actually extend — and still
/// land on the optimum of a reference run whose first window (twice the
/// optimum) holds every bound the walk probes, so it never grows.
#[test]
fn forced_window_growth_extends_and_agrees() {
    let mut rng = Rng::seed_from_u64(0x1AC4_0003);
    let mut total_extensions = 0usize;
    for round in 0..6 {
        let circuit = random_circuit(&mut rng, 4, 8);
        let device = line(4);
        let mut tight = SynthesisConfig::with_swap_duration(3);
        tight.tub_factor = 1.0;
        let grown = Olsq2Synthesizer::new(tight)
            .optimize_depth(&circuit, &device)
            .expect("depth optimization with a tight window");

        let t_lb = DependencyGraph::new(&circuit).longest_chain().max(1);
        let mut roomy = SynthesisConfig::with_swap_duration(3);
        roomy.tub_factor = 2.0 * grown.result.depth as f64 / t_lb as f64;
        let reference = Olsq2Synthesizer::new(roomy)
            .optimize_depth(&circuit, &device)
            .expect("depth optimization with a roomy window");

        assert!(
            grown.proven_optimal && reference.proven_optimal,
            "round {round}"
        );
        assert_eq!(
            grown.result.depth, reference.result.depth,
            "round {round}: depth optimum diverged"
        );
        assert_eq!(
            reference.extensions, 0,
            "round {round}: the reference run outgrew its first window"
        );
        for (label, out) in [("grown", &grown), ("reference", &reference)] {
            assert_eq!(
                verify(&circuit, &device, &out.result),
                Ok(()),
                "round {round} ({label})"
            );
        }
        total_extensions += grown.extensions;
    }
    assert!(
        total_extensions >= 1,
        "no round triggered a window extension: the growth path went untested"
    );
}
