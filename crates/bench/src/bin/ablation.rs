//! Ablation: incremental solving (the paper's Improvement 2 mechanism —
//! activation-literal bounds over one solver, learned clauses reused
//! across objective bounds) versus a fresh model per bound.
//!
//! The paper attributes part of its optimization speed to incremental
//! solving ("learned information from the previous iteration can be
//! reused"); this binary quantifies that choice on the depth-optimization
//! loop.

use olsq2::{FlatModel, Olsq2Synthesizer, SynthesisConfig};
use olsq2_arch::grid;
use olsq2_bench::{geomean_ratio, ratio, BenchOpts, Cell};
use olsq2_circuit::generators::qaoa_circuit;
use olsq2_circuit::{Circuit, DependencyGraph};
use olsq2_sat::SolveResult;
use std::time::Instant;

/// Depth optimization with a fresh solver per bound and no clause reuse,
/// under `Olsq2Synthesizer::optimize_depth`'s rule: relax geometrically
/// from `T_LB` until SAT, then descend from the witness's depth until
/// UNSAT or one above the highest refuted bound. Fresh solvers may find
/// other witnesses, so the bounds probed can differ from the driver's.
fn fresh_per_bound(circuit: &Circuit, graph: &olsq2_arch::CouplingGraph, opts: &BenchOpts) -> Cell {
    let start = Instant::now();
    let deadline = start + opts.budget;
    let config = SynthesisConfig::with_swap_duration(1);
    let dag = DependencyGraph::new(circuit);
    let t_lb = dag.longest_chain().max(1);
    let t_ub = ((t_lb as f64 * 1.5).ceil() as usize).max(t_lb + 1);

    // The verdict at `bound`, with the witness's depth when SAT.
    let solve_at = |bound: usize| -> Option<(SolveResult, usize)> {
        let mut model = FlatModel::build(circuit, graph, &config, t_ub.max(bound)).ok()?;
        let act = model.depth_bound(bound);
        model.solver_mut().set_deadline(Some(deadline));
        let verdict = model.solve(&[act]);
        let depth = match verdict {
            SolveResult::Sat => model.extract().depth,
            _ => bound,
        };
        Some((verdict, depth))
    };

    // Relax geometrically; `lo` is one above the highest refuted bound.
    let (mut t_b, mut lo) = (t_lb, t_lb);
    let mut depth = loop {
        match solve_at(t_b) {
            Some((SolveResult::Sat, depth)) => break depth,
            Some((SolveResult::Unsat, _)) => {
                lo = t_b + 1;
                let r = if t_b < 100 { 1.3 } else { 1.1 };
                t_b = ((t_b as f64 * r).ceil() as usize).max(t_b + 1);
            }
            _ => return Cell::Timeout,
        }
    };
    // Descend from the witness's depth.
    while depth > lo {
        match solve_at(depth - 1) {
            Some((SolveResult::Sat, d)) => depth = d,
            Some((SolveResult::Unsat, _)) => break,
            _ => return Cell::Timeout,
        }
    }
    Cell::Time(start.elapsed())
}

fn incremental(circuit: &Circuit, graph: &olsq2_arch::CouplingGraph, opts: &BenchOpts) -> Cell {
    let mut config = SynthesisConfig::with_swap_duration(1);
    config.time_budget = Some(opts.budget);
    let synth = Olsq2Synthesizer::new(config);
    let start = Instant::now();
    match synth.optimize_depth(circuit, graph) {
        Ok(_) => Cell::Time(start.elapsed()),
        Err(olsq2::SynthesisError::BudgetExhausted) => Cell::Timeout,
        Err(e) => Cell::Failed(e.to_string()),
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let cases: Vec<(usize, usize)> = if opts.full {
        vec![(8, 4), (10, 4), (12, 4), (14, 4), (16, 5)]
    } else {
        vec![(8, 3), (8, 4), (10, 4), (12, 4)]
    };
    println!("Ablation: incremental (activation literals) vs fresh-solver-per-bound");
    println!("(depth optimization on QAOA circuits)\n");
    println!(
        "{:<12} {:<8} {:>10} {:>12} {:>9}",
        "benchmark", "device", "fresh", "incremental", "speedup"
    );
    let mut pairs = Vec::new();
    for (n, g) in cases {
        let circuit = qaoa_circuit(n, opts.seed);
        let graph = grid(g, g);
        let fresh = fresh_per_bound(&circuit, &graph, &opts);
        let inc = incremental(&circuit, &graph, &opts);
        println!(
            "{:<12} {:<8} {:>10} {:>12} {:>9}",
            circuit.name(),
            graph.name(),
            fresh,
            inc,
            ratio(&fresh, &inc)
        );
        pairs.push((fresh, inc));
    }
    println!(
        "\naverage speedup from incremental solving: {}",
        geomean_ratio(&pairs)
    );
}
