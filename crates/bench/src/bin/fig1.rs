//! Fig. 1 — impact of coupling-graph grid size and circuit gate count on
//! solving time: the original OLSQ formulation (a) versus OLSQ2 (b).
//!
//! Each cell builds the layout-synthesis instance for a QAOA circuit on a
//! grid with a fixed depth window and *no* SWAP bound (the satisfiable
//! feasibility instance the paper measures), and reports the build+solve
//! time per formulation.
//!
//! Both formulations use the same variable encoding (the substrate-best
//! one-hot) so the cell isolates the paper's Improvement 1 — eliminating
//! the space variables — rather than the encoding choice, which Table I
//! measures separately. (In the paper the two factors are also varied
//! separately: Fig. 1's OLSQ uses Z3 integers, its OLSQ2 uses bit-vectors,
//! and Table I decomposes the difference.)
//!
//! Quick mode: grids 3×3/4×4/5×5 × QAOA 8–12; `--full`: grids 5×5…9×9 ×
//! QAOA 10–24 with the paper's `T_UB = 21` window.

use olsq2::{EncodingConfig, FlatModel, ModelStyle, SynthesisConfig};
use olsq2_arch::grid;
use olsq2_bench::{geomean_ratio, ratio, BenchOpts, Cell};
use olsq2_circuit::generators::qaoa_circuit;
use olsq2_sat::SolveResult;
use std::time::Instant;

fn run_style(
    circuit: &olsq2_circuit::Circuit,
    graph: &olsq2_arch::CouplingGraph,
    opts: &BenchOpts,
    style: ModelStyle,
    encoding: EncodingConfig,
    t_ub: usize,
) -> Cell {
    let config = SynthesisConfig {
        encoding,
        swap_duration: 1,
        time_budget: Some(opts.budget),
        ..SynthesisConfig::default()
    };
    let start = Instant::now();
    let mut model = match FlatModel::build_with_style(circuit, graph, &config, t_ub, style) {
        Ok(m) => m,
        Err(e) => return Cell::Failed(e.to_string()),
    };
    model.solver_mut().set_deadline(Some(start + opts.budget));
    match model.solve(&[]) {
        SolveResult::Sat => Cell::Time(start.elapsed()),
        SolveResult::Unsat => Cell::Failed("unexpected UNSAT".into()),
        SolveResult::Unknown => Cell::Timeout,
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let (grids, sizes, t_ub): (Vec<usize>, Vec<usize>, usize) = if opts.full {
        (vec![5, 6, 7, 8, 9], vec![10, 12, 16, 20, 24], 21)
    } else {
        (vec![3, 4, 5], vec![8, 10, 12], 12)
    };
    println!("Fig. 1 reproduction: SMT solving time, OLSQ formulation vs OLSQ2 formulation");
    println!("(QAOA phase-splitting circuits on grid devices, depth window T_UB={t_ub}, no swap bound)\n");
    println!(
        "{:<8} {:<12} {:>10} {:>10} {:>9}",
        "grid", "qubit/gate", "OLSQ", "OLSQ2", "speedup"
    );
    let mut pairs = Vec::new();
    for &g in &grids {
        let graph = grid(g, g);
        for &n in &sizes {
            if n > graph.num_qubits() {
                continue;
            }
            let circuit = qaoa_circuit(n, opts.seed);
            let baseline = run_style(
                &circuit,
                &graph,
                &opts,
                ModelStyle::OlsqBaseline,
                EncodingConfig::int(),
                t_ub,
            );
            let ours = run_style(
                &circuit,
                &graph,
                &opts,
                ModelStyle::Olsq2,
                EncodingConfig::int(),
                t_ub,
            );
            println!(
                "{:<8} {:<12} {:>10} {:>10} {:>9}",
                format!("{g}x{g}"),
                format!("{}/{}", n, circuit.num_gates()),
                baseline,
                ours,
                ratio(&baseline, &ours)
            );
            pairs.push((baseline, ours));
        }
    }
    println!(
        "\naverage speedup (geomean over solved pairs): {}",
        geomean_ratio(&pairs)
    );
}
