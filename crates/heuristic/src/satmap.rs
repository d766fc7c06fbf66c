//! A SATMap-style slice-based mapper (after Molavi et al., "Qubit mapping
//! and routing via MaxSAT", MICRO 2022) — the second baseline of Table IV.
//!
//! The constraint-relaxation scheme the OLSQ2 paper describes: the circuit
//! is cut into *slices* whose interaction graphs embed into the device;
//! every slice receives one mapping, consecutive mappings are linked by up
//! to `K` layers of SWAPs, and the **total** SWAP count is minimized
//! jointly over all slices by iterative descent (the MaxSAT objective,
//! realized here as a cardinality bound on the SAT solver).
//!
//! The gate-to-slice assignment is fixed before solving — exactly the
//! "unnecessary constraint" of layer-by-layer methods that the OLSQ2 paper
//! identifies as the source of sub-optimality relative to TB-OLSQ2.

// Indexed `for` loops are deliberate here: slice/edge index loops mirror the encoding.
#![allow(clippy::needless_range_loop)]
use crate::SabreError;
use olsq2::vars::{adjacency_lit, assert_injective, transition_step, FdVar};
use olsq2::EncodingConfig;
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, Operands};
use olsq2_encode::{CardEncoding, CardinalityNetwork, CnfSink};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_sat::{Lit, SolveResult, Solver};
use std::time::{Duration, Instant};

/// Configuration for the slice mapper.
#[derive(Debug, Clone, PartialEq)]
pub struct SatMapConfig {
    /// Maximum SWAP layers per slice transition; the solver starts at 1
    /// and grows to this cap while infeasible.
    pub max_rounds: usize,
    /// Wall-clock budget (mirrors the 24 h timeout the paper applies to
    /// SATMap; exceeding it is the paper's "TO" failure mode).
    pub time_budget: Option<Duration>,
    /// SWAP duration for the emitted schedule.
    pub swap_duration: usize,
}

impl Default for SatMapConfig {
    fn default() -> Self {
        SatMapConfig {
            max_rounds: 8,
            time_budget: None,
            swap_duration: 3,
        }
    }
}

/// Errors from [`satmap_route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatMapError {
    /// The circuit does not fit or cannot be sliced.
    Infeasible(String),
    /// The time budget expired ("TO" in the paper's Table IV).
    Timeout,
}

impl std::fmt::Display for SatMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatMapError::Infeasible(m) => write!(f, "infeasible: {m}"),
            SatMapError::Timeout => write!(f, "time budget exhausted"),
        }
    }
}

impl std::error::Error for SatMapError {}

impl From<SabreError> for SatMapError {
    fn from(e: SabreError) -> Self {
        SatMapError::Infeasible(e.to_string())
    }
}

/// Outcome of the slice mapper.
#[derive(Debug, Clone)]
pub struct SatMapOutcome {
    /// The produced layout.
    pub result: LayoutResult,
    /// Number of slices the circuit was cut into.
    pub slices: usize,
}

/// Distinct interaction pairs of a gate set.
fn distinct_pairs(circuit: &Circuit, gates_in: &[usize]) -> Vec<(u16, u16)> {
    let mut pairs: Vec<(u16, u16)> = gates_in
        .iter()
        .filter_map(|&g| match circuit.gate(g).operands {
            Operands::Two(a, b) => Some((a.min(b), a.max(b))),
            Operands::One(_) => None,
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Checks whether an interaction graph embeds into the device.
fn embeds(
    nq: usize,
    pairs: &[(u16, u16)],
    graph: &CouplingGraph,
    deadline: Option<Instant>,
) -> Result<bool, SatMapError> {
    let mut solver = Solver::new();
    solver.set_deadline(deadline);
    let np = graph.num_qubits();
    let mut mapping: Vec<Vec<FdVar>> = (0..nq)
        .map(|_| vec![FdVar::new_binary(&mut solver, np)])
        .collect();
    // Bit-vector mappings with pairwise-difference injectivity.
    assert_injective(&mut solver, &mut mapping, 0, np, EncodingConfig::bv());
    for &(qa, qb) in pairs {
        let adjacent = adjacency_lit(&mut solver, graph, &mut mapping, qa, qb, 0);
        solver.add_clause([adjacent]);
    }
    match solver.solve(&[]) {
        SolveResult::Sat => Ok(true),
        SolveResult::Unsat => Ok(false),
        SolveResult::Unknown => Err(SatMapError::Timeout),
    }
}

/// The joint model's decoded solution.
struct JointSolution {
    /// `mapping[epoch][q]`.
    mapping: Vec<Vec<u16>>,
    /// `layers[transition][layer]` = swapped edge indices.
    layers: Vec<Vec<Vec<usize>>>,
}

/// Builds and solves the joint slice model with `k` layers per transition,
/// minimizing total SWAPs by descent. Returns `None` when infeasible at
/// this `k`.
fn solve_joint(
    circuit: &Circuit,
    graph: &CouplingGraph,
    slices: &[Vec<usize>],
    k: usize,
    deadline: Option<Instant>,
) -> Result<Option<JointSolution>, SatMapError> {
    let nq = circuit.num_qubits();
    let np = graph.num_qubits();
    let ne = graph.num_edges();
    let s = slices.len();
    // Epoch layout: slice 0 is epoch 0; each transition contributes k
    // epochs, the last of which is the next slice's epoch.
    let epochs = 1 + (s - 1) * k;
    let slice_epoch = |i: usize| i * k;

    let mut solver = Solver::new();
    solver.set_deadline(deadline);
    // `mapping[q][epoch]`, allocated epoch by epoch.
    let mut mapping: Vec<Vec<FdVar>> = vec![Vec::with_capacity(epochs); nq];
    for _ in 0..epochs {
        for row in &mut mapping {
            row.push(FdVar::new_binary(&mut solver, np));
        }
    }
    for ep in 0..epochs {
        assert_injective(&mut solver, &mut mapping, ep, np, EncodingConfig::bv());
    }
    // Swap layers between consecutive epochs.
    let swap_lits: Vec<Vec<Lit>> = (0..epochs.saturating_sub(1))
        .map(|_| {
            (0..ne)
                .map(|_| Lit::positive(CnfSink::new_var(&mut solver)))
                .collect()
        })
        .collect();
    for layer in &swap_lits {
        for e1 in 0..ne {
            let (a1, b1) = graph.edge(e1);
            for e2 in (e1 + 1)..ne {
                let (a2, b2) = graph.edge(e2);
                if a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2 {
                    solver.add_clause([!layer[e1], !layer[e2]]);
                }
            }
        }
    }
    // Transformation between epochs.
    for ep in 0..epochs.saturating_sub(1) {
        let qubits = mapping.iter().map(|row| (&row[ep], &row[ep + 1]));
        transition_step(&mut solver, graph, qubits, |e| swap_lits[ep][e]);
    }
    // Adjacency for each slice at its epoch.
    for (i, slice) in slices.iter().enumerate() {
        let ep = slice_epoch(i);
        for (qa, qb) in distinct_pairs(circuit, slice) {
            let adjacent = adjacency_lit(&mut solver, graph, &mut mapping, qa, qb, ep);
            solver.add_clause([adjacent]);
        }
    }

    match solver.solve(&[]) {
        SolveResult::Unsat => return Ok(None),
        SolveResult::Unknown => return Err(SatMapError::Timeout),
        SolveResult::Sat => {}
    }

    // Descent on total swaps (the MaxSAT objective).
    let all_swaps: Vec<Lit> = swap_lits.iter().flatten().copied().collect();
    let count = |solver: &Solver| {
        all_swaps
            .iter()
            .filter(|&&l| solver.model_value(l) == Some(true))
            .count()
    };
    let decode = |solver: &Solver, mapping: &[Vec<FdVar>]| -> JointSolution {
        let maps: Vec<Vec<u16>> = (0..epochs)
            .map(|ep| {
                mapping
                    .iter()
                    .map(|row| row[ep].value_in(solver) as u16)
                    .collect()
            })
            .collect();
        let layers: Vec<Vec<Vec<usize>>> = (0..s.saturating_sub(1))
            .map(|t| {
                (0..k)
                    .map(|l| {
                        let ep = t * k + l;
                        swap_lits[ep]
                            .iter()
                            .enumerate()
                            .filter(|(_, &lit)| solver.model_value(lit) == Some(true))
                            .map(|(e, _)| e)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        JointSolution {
            mapping: maps,
            layers,
        }
    };

    let mut best_count = count(&solver);
    let mut best = decode(&solver, &mapping);
    if best_count > 0 {
        let mut card = CardinalityNetwork::new(
            &mut solver,
            &all_swaps,
            best_count,
            CardEncoding::SequentialCounter,
        );
        while best_count > 0 {
            let bound = card.at_most(&mut solver, best_count - 1);
            match solver.solve(&[bound]) {
                SolveResult::Sat => {
                    best_count = count(&solver);
                    best = decode(&solver, &mapping);
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => break, // keep best under budget
            }
        }
    }
    Ok(Some(best))
}

/// Maps and routes a circuit via joint slice-based optimization.
///
/// # Errors
///
/// [`SatMapError::Infeasible`] if the circuit cannot fit the device, and
/// [`SatMapError::Timeout`] when the budget expires.
///
/// # Examples
///
/// ```
/// use olsq2_heuristic::{satmap_route, SatMapConfig};
/// use olsq2_arch::grid;
/// use olsq2_circuit::generators::qaoa_circuit;
/// use olsq2_layout::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = qaoa_circuit(8, 1);
/// let graph = grid(3, 3);
/// let mut config = SatMapConfig::default();
/// config.swap_duration = 1;
/// let out = satmap_route(&circuit, &graph, &config)?;
/// assert_eq!(verify(&circuit, &graph, &out.result), Ok(()));
/// # Ok(())
/// # }
/// ```
pub fn satmap_route(
    circuit: &Circuit,
    graph: &CouplingGraph,
    config: &SatMapConfig,
) -> Result<SatMapOutcome, SatMapError> {
    let nq = circuit.num_qubits();
    if nq > graph.num_qubits() {
        return Err(SatMapError::Infeasible(format!(
            "{nq} program qubits on a {}-qubit device",
            graph.num_qubits()
        )));
    }
    let deadline = config.time_budget.map(|b| Instant::now() + b);
    let sd = config.swap_duration.max(1);

    // --- Slice the circuit greedily by embeddability --------------------
    let mut slices: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for g in 0..circuit.num_gates() {
        match circuit.gate(g).operands {
            Operands::One(_) => current.push(g),
            Operands::Two(..) => {
                let mut candidate = current.clone();
                candidate.push(g);
                let pairs = distinct_pairs(circuit, &candidate);
                let has_new_pair = distinct_pairs(circuit, &current).len() != pairs.len();
                let fits = !has_new_pair || embeds(nq, &pairs, graph, deadline)?;
                if fits {
                    current = candidate;
                } else {
                    slices.push(std::mem::take(&mut current));
                    current.push(g);
                    let single = distinct_pairs(circuit, &current);
                    if !embeds(nq, &single, graph, deadline)? {
                        return Err(SatMapError::Infeasible(
                            "a single two-qubit gate does not embed".into(),
                        ));
                    }
                }
            }
        }
    }
    if !current.is_empty() {
        slices.push(current);
    }
    if slices.is_empty() {
        return Ok(SatMapOutcome {
            result: LayoutResult {
                initial_mapping: (0..nq as u16).collect(),
                schedule: vec![],
                swaps: vec![],
                depth: 0,
                swap_duration: sd,
            },
            slices: 0,
        });
    }

    // --- Joint solve with growing per-transition layer budget -----------
    let mut solution = None;
    if slices.len() == 1 {
        // One slice: routing-free; the joint model degenerates to embedding.
        solution = solve_joint(circuit, graph, &slices, 1, deadline)?;
    } else {
        for k in 1..=config.max_rounds {
            if let Some(sol) = solve_joint(circuit, graph, &slices, k, deadline)? {
                solution = Some(sol);
                break;
            }
        }
    }
    let solution = solution.ok_or_else(|| {
        SatMapError::Infeasible(format!(
            "transitions not routable within {} layers",
            config.max_rounds
        ))
    })?;

    // --- Lower to a time-resolved LayoutResult --------------------------
    let k = if slices.len() > 1 {
        solution.layers[0].len()
    } else {
        0
    };
    let _ = k;
    let mut cursor = 0usize;
    let mut qubit_ready = vec![0usize; nq];
    let mut schedule = vec![0usize; circuit.num_gates()];
    let mut swaps: Vec<SwapOp> = Vec::new();
    let mut depth = 0usize;
    for (i, slice) in slices.iter().enumerate() {
        if i > 0 {
            for layer in &solution.layers[i - 1] {
                if layer.is_empty() {
                    continue;
                }
                let finish = cursor + sd - 1;
                for &e in layer {
                    swaps.push(SwapOp {
                        edge: e,
                        finish_time: finish,
                    });
                }
                cursor = finish + 1;
            }
            for r in &mut qubit_ready {
                *r = (*r).max(cursor);
            }
        }
        for &g in slice {
            let gate = circuit.gate(g);
            let start = gate
                .operands
                .qubits()
                .map(|q| qubit_ready[q as usize])
                .max()
                .unwrap_or(cursor)
                .max(cursor);
            schedule[g] = start;
            for q in gate.operands.qubits() {
                qubit_ready[q as usize] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        cursor = qubit_ready
            .iter()
            .copied()
            .max()
            .unwrap_or(cursor)
            .max(cursor);
    }
    depth = depth.max(swaps.iter().map(|s| s.finish_time + 1).max().unwrap_or(0));

    Ok(SatMapOutcome {
        result: LayoutResult {
            initial_mapping: solution.mapping[0].clone(),
            schedule,
            swaps,
            depth,
            swap_duration: sd,
        },
        slices: slices.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::{grid, line};
    use olsq2_circuit::generators::{qaoa_circuit, tof_circuit};
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_layout::verify;

    #[test]
    fn maps_triangle_on_line() {
        let mut c = Circuit::new(3);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c.push(Gate::two(GateKind::Cx, 1, 2));
        c.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let cfg = SatMapConfig {
            swap_duration: 1,
            ..Default::default()
        };
        let out = satmap_route(&c, &graph, &cfg).expect("maps");
        assert_eq!(verify(&c, &graph, &out.result), Ok(()));
        assert!(out.result.swap_count() >= 1);
        assert!(out.slices >= 2);
    }

    #[test]
    fn zero_swaps_when_slice_embeds() {
        let mut c = Circuit::new(4);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c.push(Gate::two(GateKind::Cx, 2, 3));
        let graph = grid(2, 2);
        let out = satmap_route(&c, &graph, &SatMapConfig::default()).expect("maps");
        assert_eq!(out.result.swap_count(), 0);
        assert_eq!(out.slices, 1);
        assert_eq!(verify(&c, &graph, &out.result), Ok(()));
    }

    #[test]
    fn maps_qaoa_on_grid() {
        let c = qaoa_circuit(8, 5);
        let graph = grid(3, 3);
        let cfg = SatMapConfig {
            swap_duration: 1,
            ..Default::default()
        };
        let out = satmap_route(&c, &graph, &cfg).expect("maps");
        assert_eq!(verify(&c, &graph, &out.result), Ok(()));
    }

    #[test]
    fn maps_tof_on_grid() {
        let c = tof_circuit(4);
        let graph = grid(3, 3);
        let out = satmap_route(&c, &graph, &SatMapConfig::default()).expect("maps");
        assert_eq!(verify(&c, &graph, &out.result), Ok(()));
    }

    #[test]
    fn single_qubit_only_circuit() {
        let mut c = Circuit::new(2);
        c.push(Gate::one(GateKind::H, 0));
        c.push(Gate::one(GateKind::T, 1));
        let out = satmap_route(&c, &line(2), &SatMapConfig::default()).expect("maps");
        assert_eq!(out.result.swap_count(), 0);
        assert_eq!(verify(&c, &line(2), &out.result), Ok(()));
    }

    #[test]
    fn rejects_oversized() {
        let mut c = Circuit::new(4);
        c.push(Gate::two(GateKind::Cx, 0, 3));
        assert!(matches!(
            satmap_route(&c, &line(2), &SatMapConfig::default()),
            Err(SatMapError::Infeasible(_))
        ));
    }
}
