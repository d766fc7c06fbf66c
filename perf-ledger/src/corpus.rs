//! The workloads: which instances each runs, how `--seed` shapes them, and
//! the optimum each must reach.
//!
//! The seed changes the text the program parses, never the layout problem
//! it solves: every rotation angle is drawn from the seed (layout synthesis
//! reads only which qubits a gate touches), and so is the name of the
//! quantum register. Relabeling qubits or drawing new QAOA graphs or QUEKO
//! circuits would change the problem, and CDCL run time swings by several
//! times under such changes (see README.md), which no timing bound could
//! absorb. The service's twin jobs are the exception: they relabel their
//! originals' qubits, which the result cache must see through, so no
//! solver ever runs on them. With the problems fixed, `expected.txt` holds
//! for every seed.

use olsq2_arch::{device_by_name, CouplingGraph};
use olsq2_circuit::generators::{qaoa_circuit, qft_decomposed, queko_circuit, tof_circuit};
use olsq2_circuit::{write_qasm, Circuit, Gate, GateKind, Operands};
use olsq2_layout::LayoutResult;
use olsq2_prng::Rng;
use olsq2_service::json::{object, Json};
use std::collections::BTreeMap;

/// The benchmark's workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Flat depth optimization; bound by UNSAT optimality probes.
    Depth,
    /// Flat and transition-based SWAP optimization; the driver layer.
    Swaps,
    /// Flat depth optimization on large devices; bound by encoding.
    DeviceScale,
    /// A batch of small jobs through the service; queue, cache, serialization.
    Service,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "depth" => Some(Workload::Depth),
            "swaps" => Some(Workload::Swaps),
            "device-scale" => Some(Workload::DeviceScale),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Depth => "depth",
            Workload::Swaps => "swaps",
            Workload::DeviceScale => "device-scale",
            Workload::Service => "service",
        }
    }
}

/// Which synthesis call a row makes, named as in `expected.txt` and as the
/// service's manifest objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// `Olsq2Synthesizer::optimize_depth`.
    Depth,
    /// `Olsq2Synthesizer::optimize_swaps`.
    Swaps,
    /// `TbOlsq2Synthesizer::optimize_swaps`.
    TbSwaps,
}

impl Tool {
    pub fn name(self) -> &'static str {
        match self {
            Tool::Depth => "depth",
            Tool::Swaps => "swaps",
            Tool::TbSwaps => "tb-swaps",
        }
    }

    /// The objective value of `result` that this tool minimizes.
    pub fn optimum(self, result: &LayoutResult) -> usize {
        match self {
            Tool::Depth => result.depth,
            Tool::Swaps | Tool::TbSwaps => result.swap_count(),
        }
    }
}

/// How a row's circuit is made.
#[derive(Debug, Clone, Copy)]
enum Family {
    Qft(usize),
    Tof(usize),
    /// A QAOA ring on a fixed random 3-regular graph.
    Qaoa {
        qubits: usize,
        graph_seed: u64,
    },
    /// A QUEKO circuit over the row's device with a known optimal depth.
    Queko {
        depth: usize,
        gates: usize,
        construction_seed: u64,
    },
}

/// The generator seed of the graph and QUEKO rows: the one the committed
/// `BENCH_*.json` harnesses used, so their optima cross-check
/// `expected.txt`.
const CORPUS_SEED: u64 = 42;

struct Row {
    /// Circuit name; QUEKO names follow the source tables (`queko-DxG` on
    /// small grids as in `BENCH_solver.json`, `queko-QxG` on real devices
    /// as in the paper), the depth is in `family`.
    name: &'static str,
    family: Family,
    tool: Tool,
    device: &'static str,
    swap_duration: usize,
}

const fn row(
    name: &'static str,
    family: Family,
    tool: Tool,
    device: &'static str,
    swap_duration: usize,
) -> Row {
    Row {
        name,
        family,
        tool,
        device,
        swap_duration,
    }
}

const fn qaoa(qubits: usize) -> Family {
    Family::Qaoa {
        qubits,
        graph_seed: CORPUS_SEED,
    }
}

const fn queko(depth: usize, gates: usize, construction_seed: u64) -> Family {
    Family::Queko {
        depth,
        gates,
        construction_seed,
    }
}

use Family::{Qft, Tof};
use Tool::{Depth, Swaps, TbSwaps};

const DEPTH_ROWS: &[Row] = &[
    row("qft-4", Qft(4), Depth, "line4", 3),
    row("tof-3", Tof(3), Depth, "line5", 3),
    row("qaoa-8", qaoa(8), Depth, "aspen4", 1),
    row("qaoa-8", qaoa(8), Depth, "sycamore", 1),
    row("qaoa-8", qaoa(8), Depth, "grid3x3", 1),
    row("qaoa-10", qaoa(10), Depth, "grid4x3", 1),
    row("queko-5x16", queko(5, 16, CORPUS_SEED), Depth, "grid2x3", 3),
    row("queko-4x12", queko(4, 12, CORPUS_SEED), Depth, "grid3x3", 3),
];

const SWAPS_ROWS: &[Row] = &[
    row("qaoa-4", qaoa(4), Swaps, "line4", 1),
    row("qaoa-6", qaoa(6), Swaps, "grid2x3", 1),
    row("qft-4", Qft(4), Swaps, "line4", 3),
    row("qaoa-6", qaoa(6), TbSwaps, "grid2x3", 1),
    row("tof-3", Tof(3), TbSwaps, "line5", 3),
    row("qft-5", Qft(5), TbSwaps, "line5", 3),
    row(
        "queko-16x37",
        queko(5, 37, CORPUS_SEED),
        TbSwaps,
        "aspen4",
        3,
    ),
    row(
        "queko-16x73",
        queko(10, 73, CORPUS_SEED),
        TbSwaps,
        "aspen4",
        3,
    ),
];

const DEVICE_SCALE_ROWS: &[Row] = &[
    row("qft-4", Qft(4), Depth, "sycamore", 3),
    // The draw of seed 42 does not finish its first probe in 20 s; seed 5
    // is the first whose first probe (SAT at T_LB) takes under a second.
    row("queko-54x60", queko(3, 60, 5), Depth, "sycamore", 3),
    row("queko-16x37", queko(5, 37, CORPUS_SEED), Depth, "aspen4", 3),
    row(
        "queko-16x73",
        queko(10, 73, CORPUS_SEED),
        Depth,
        "aspen4",
        3,
    ),
    row(
        "queko-16x109",
        queko(15, 109, CORPUS_SEED),
        Depth,
        "aspen4",
        3,
    ),
];

/// One benchmark input: the text the program receives and how to check
/// its answer.
#[derive(Debug, Clone)]
pub struct Instance {
    /// `circuit/device`, the key into `expected.txt` together with `tool`.
    pub label: String,
    pub tool: Tool,
    /// The circuit as OpenQASM 2.0 text.
    pub qasm: String,
    pub device: CouplingGraph,
    pub swap_duration: usize,
    /// The optimal depth QUEKO built the circuit for, if it is a QUEKO row.
    pub queko_depth: Option<usize>,
}

/// A deterministic stream per `(seed, stream)` pair.
fn rng(seed: u64, stream: u64) -> Rng {
    Rng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniform angle in `[0, 2π)`.
fn angle(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU
}

/// `circuit` with every rotation angle redrawn: another program, the same
/// layout problem.
fn redraw_angles(circuit: &Circuit, rng: &mut Rng) -> Circuit {
    let mut out = Circuit::with_name(circuit.num_qubits(), circuit.name());
    for g in circuit.gates() {
        let kind = match g.kind {
            GateKind::Rx(_) => GateKind::Rx(angle(rng)),
            GateKind::Ry(_) => GateKind::Ry(angle(rng)),
            GateKind::Rz(_) => GateKind::Rz(angle(rng)),
            GateKind::Cp(_) => GateKind::Cp(angle(rng)),
            GateKind::Zz(_) => GateKind::Zz(angle(rng)),
            GateKind::U(..) => GateKind::U(angle(rng), angle(rng), angle(rng)),
            ref other => other.clone(),
        };
        out.push(Gate::new(kind, g.operands));
    }
    out
}

fn relabeled(circuit: &Circuit, rng: &mut Rng) -> Circuit {
    let mut perm: Vec<u16> = (0..circuit.num_qubits() as u16).collect();
    rng.shuffle(&mut perm);
    circuit.permute_qubits(&perm)
}

/// OpenQASM text of `circuit` with a register name drawn from `rng`.
fn qasm_text(circuit: &Circuit, rng: &mut Rng) -> String {
    const REGISTERS: [&str; 6] = ["q", "qr", "reg", "data", "qubits", "p"];
    let name = rng.choose(&REGISTERS).expect("names");
    write_qasm(circuit).replace("q[", &format!("{name}["))
}

/// The circuit of `family` for `device` and, for QUEKO, its optimal depth.
fn circuit(family: Family, device: &CouplingGraph) -> (Circuit, Option<usize>) {
    match family {
        Family::Qft(n) => (qft_decomposed(n), None),
        Family::Tof(n) => (tof_circuit(n), None),
        Family::Qaoa { qubits, graph_seed } => (qaoa_circuit(qubits, graph_seed), None),
        Family::Queko {
            depth,
            gates,
            construction_seed,
        } => {
            let q = queko_circuit(
                device.num_qubits(),
                device.edges(),
                depth,
                gates,
                construction_seed,
            );
            (q.circuit, Some(q.optimal_depth))
        }
    }
}

fn label(name: &str, device: &str) -> String {
    format!("{name}/{device}")
}

/// The inputs of a synthesis workload for `seed`. Devices are built here,
/// so their construction counts as set-up.
pub fn synthesis_instances(workload: Workload, seed: u64) -> Vec<Instance> {
    let rows = match workload {
        Workload::Depth => DEPTH_ROWS,
        Workload::Swaps => SWAPS_ROWS,
        Workload::DeviceScale => DEVICE_SCALE_ROWS,
        Workload::Service => unreachable!("the service workload has jobs, not instances"),
    };
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let device = device_by_name(row.device).expect("corpus names known devices");
            let (circuit, queko_depth) = circuit(row.family, &device);
            let mut rng = rng(seed, i as u64);
            Instance {
                label: label(row.name, row.device),
                tool: row.tool,
                qasm: qasm_text(&redraw_angles(&circuit, &mut rng), &mut rng),
                device,
                swap_duration: row.swap_duration,
                queko_depth,
            }
        })
        .collect()
}

/// The service batch: every unique job once, then a relabeled twin of each
/// unique job except the last `TWIN_FREE_TAIL`. Jobs start in submission
/// order, so a twin can only miss the cache if its original is still
/// running while the other worker has finished every unique job queued
/// after it. Each twinned original takes at most a third of the time of
/// the unique jobs queued after it (measured on 2 workers), so each twin
/// finds its original's answer in the cache and the hit count repeats
/// exactly.
const TWIN_FREE_TAIL: usize = 8;

/// Unique service jobs, `(tool, family, device, swap duration)`: small
/// instances of every tool. Different graphs and QUEKO draws give
/// different gate lists, so no unique job relabels another and each one
/// misses the cache.
fn service_uniques() -> Vec<(Tool, Family, &'static str, usize)> {
    let qaoa = |qubits, graph_seed| Family::Qaoa { qubits, graph_seed };
    let mut uniques = Vec::new();
    for graph_seed in [CORPUS_SEED, 1, 2, 3, 4, 5, 6, 7] {
        uniques.push((Depth, qaoa(6, graph_seed), "grid2x3", 1));
    }
    // Graph 7 is left out: its TB SWAP optimum takes about 240 ms.
    for graph_seed in [CORPUS_SEED, 1, 2, 3, 4, 5, 6] {
        uniques.push((TbSwaps, qaoa(6, graph_seed), "grid2x3", 1));
    }
    for graph_seed in [CORPUS_SEED, 1, 2, 3, 4, 5] {
        uniques.push((Swaps, qaoa(4, graph_seed), "line4", 1));
    }
    for (depth, gates, device) in [(6, 24, "grid3x3"), (5, 20, "grid2x3")] {
        for construction_seed in [1, 2, 3, 4] {
            let family = Family::Queko {
                depth,
                gates,
                construction_seed,
            };
            uniques.push((Depth, family, device, 3));
        }
    }
    // A fixed interleaving of the tools, so both workers see a mix.
    rng(CORPUS_SEED, u64::MAX).shuffle(&mut uniques);
    uniques
}

/// The name of a generated circuit; seeds other than `CORPUS_SEED` are
/// part of it.
fn family_name(family: Family) -> String {
    let suffix = |seed: u64| {
        if seed == CORPUS_SEED {
            String::new()
        } else {
            format!(".s{seed}")
        }
    };
    match family {
        Family::Qft(n) => format!("qft-{n}"),
        Family::Tof(n) => format!("tof-{n}"),
        Family::Qaoa { qubits, graph_seed } => format!("qaoa-{qubits}{}", suffix(graph_seed)),
        Family::Queko {
            depth,
            gates,
            construction_seed,
        } => format!("queko-{depth}x{gates}{}", suffix(construction_seed)),
    }
}

/// One job of the service batch.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job's manifest name, unique within the batch.
    pub name: String,
    /// `circuit/device`, the key into `expected.txt` together with `tool`.
    pub label: String,
    pub tool: Tool,
    pub queko_depth: Option<usize>,
    /// Whether the job relabels an earlier job and must hit the cache.
    pub twin: bool,
}

fn manifest_line(name: &str, tool: Tool, device: &str, sd: usize, circuit: &Circuit) -> String {
    let gates: Vec<Json> = circuit
        .gates()
        .iter()
        .map(|g| {
            let mut parts: Vec<Json> = vec![g.kind.name().into()];
            match g.operands {
                Operands::One(q) => parts.push(usize::from(q).into()),
                Operands::Two(a, b) => {
                    parts.push(usize::from(a).into());
                    parts.push(usize::from(b).into());
                }
            }
            let params = g.kind.params();
            if !params.is_empty() {
                parts.push(Json::Array(params.into_iter().map(Json::from).collect()));
            }
            Json::Array(parts)
        })
        .collect();
    object([
        ("name", name.into()),
        ("device", device.into()),
        ("objective", tool.name().into()),
        ("swap_duration", sd.into()),
        ("budget_ms", 20_000u64.into()),
        (
            "circuit",
            object([
                ("num_qubits", circuit.num_qubits().into()),
                ("gates", Json::Array(gates)),
            ]),
        ),
    ])
    .to_string()
}

/// The service batch for `seed`: its jobs and the JSONL manifest text the
/// service parses. Devices are built when the service parses the manifest.
pub fn service_batch(seed: u64) -> (Vec<Job>, String) {
    let mut jobs = Vec::new();
    let mut manifest = String::new();
    let mut push = |job: Job, device: &str, sd: usize, circuit: &Circuit| {
        manifest.push_str(&manifest_line(&job.name, job.tool, device, sd, circuit));
        manifest.push('\n');
        jobs.push(job);
    };
    let uniques = service_uniques();
    let mut originals = Vec::with_capacity(uniques.len());
    for (i, &(tool, family, device, sd)) in uniques.iter().enumerate() {
        let graph = device_by_name(device).expect("corpus names known devices");
        let (circuit, queko_depth) = circuit(family, &graph);
        let circuit = redraw_angles(&circuit, &mut rng(seed, i as u64));
        let name = family_name(family);
        let job = Job {
            name: format!("{}-{name}", tool.name()),
            label: label(&name, device),
            tool,
            queko_depth,
            twin: false,
        };
        push(job.clone(), device, sd, &circuit);
        originals.push((job, circuit));
    }
    let twinned = uniques.len() - TWIN_FREE_TAIL;
    for (i, ((job, circuit), &(_, _, device, sd))) in
        originals.iter().zip(&uniques).take(twinned).enumerate()
    {
        let twin = Job {
            name: format!("{}-twin", job.name),
            twin: true,
            ..job.clone()
        };
        let relabeled = relabeled(circuit, &mut rng(seed, (uniques.len() + i) as u64));
        push(twin, device, sd, &relabeled);
    }
    (jobs, manifest)
}

/// Expected optima per `(tool, circuit/device)`, from `expected.txt`.
pub struct Expected(BTreeMap<(String, String), usize>);

impl Expected {
    pub fn load() -> Expected {
        let mut map = BTreeMap::new();
        for line in include_str!("../expected.txt").lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [tool, label, optimum] = fields[..] else {
                panic!("expected.txt: malformed line {line:?}");
            };
            let optimum = optimum
                .parse()
                .unwrap_or_else(|_| panic!("expected.txt: bad optimum in {line:?}"));
            let key = (tool.to_string(), label.to_string());
            assert!(
                map.insert(key, optimum).is_none(),
                "expected.txt: duplicate row {line:?}"
            );
        }
        Expected(map)
    }

    pub fn get(&self, tool: Tool, label: &str) -> Option<usize> {
        self.0
            .get(&(tool.name().to_string(), label.to_string()))
            .copied()
    }
}

/// Checks a proven, verified answer's optimum against `expected.txt` and,
/// for QUEKO depth rows, against the construction. `None` means correct.
pub fn check_optimum(
    expected: &Expected,
    tool: Tool,
    label: &str,
    queko_depth: Option<usize>,
    optimum: usize,
) -> Option<String> {
    if let (Tool::Depth, Some(d)) = (tool, queko_depth) {
        if optimum != d {
            return Some(format!("depth {optimum}, QUEKO construction optimum {d}"));
        }
    }
    match expected.get(tool, label) {
        Some(e) if e == optimum => None,
        Some(e) => Some(format!("optimum {optimum}, expected {e}")),
        None => Some(format!(
            "optimum {optimum}, but expected.txt has no {} {label} row",
            tool.name()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_service::cache::canonicalize;
    use olsq2_service::manifest::parse_manifest;
    use std::collections::HashSet;

    #[test]
    fn service_twins_and_only_twins_repeat_a_cache_key() {
        let (jobs, manifest) = service_batch(7);
        let requests = parse_manifest(&manifest).expect("manifest parses");
        assert_eq!(requests.len(), jobs.len());
        let mut seen = HashSet::new();
        for (job, r) in jobs.iter().zip(&requests) {
            let key = canonicalize(&r.circuit, &r.device, &r.config, r.objective).key;
            assert_eq!(!seen.insert(key), job.twin, "job {}", job.name);
        }
    }

    #[test]
    fn seeds_change_the_text_but_not_the_problem() {
        for workload in [Workload::Depth, Workload::Swaps, Workload::DeviceScale] {
            let a = synthesis_instances(workload, 1);
            let b = synthesis_instances(workload, 2);
            for (x, y) in a.iter().zip(&b) {
                let (cx, cy) = (
                    olsq2_circuit::parse_qasm(&x.qasm).expect("parses"),
                    olsq2_circuit::parse_qasm(&y.qasm).expect("parses"),
                );
                let operands =
                    |c: &Circuit| c.gates().iter().map(|g| g.operands).collect::<Vec<_>>();
                assert_eq!(operands(&cx), operands(&cy), "{}", x.label);
            }
            assert!(a.iter().zip(&b).any(|(x, y)| x.qasm != y.qasm));
        }
    }
}
