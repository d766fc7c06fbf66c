//! The synthesis workloads: each instance goes through the calls a user's
//! pipeline makes, QASM text in to verified layout out, on one thread.

use crate::corpus::{check_optimum, Expected, Instance, Tool};
use olsq2::{Olsq2Synthesizer, Recorder, SynthesisConfig, SynthesisError, TbOlsq2Synthesizer};
use olsq2_circuit::{parse_qasm, write_qasm, DependencyGraph};
use olsq2_layout::{emit_physical_circuit, verify, LayoutResult};
use std::time::{Duration, Instant};

/// Per-instance budget: generous for every row (the slowest takes about
/// 3 s), small enough that a run stays inside its time limit if a row
/// stops finishing.
pub const BUDGET: Duration = Duration::from_secs(20);

/// Solver counts that must repeat exactly on every run of an instance,
/// traced or not: conflicts and propagations of the final model's solver,
/// and that model's clause count.
pub type Counts = (u64, u64, usize);

/// One run of one instance.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seconds from QASM text in to verified layout and emitted QASM out.
    pub wall_s: f64,
    /// Depth (for `depth`) or SWAP count (otherwise) of the answer.
    pub optimum: Option<usize>,
    pub counts: Option<Counts>,
    /// Why the run failed, if it did.
    pub failure: Option<String>,
}

struct Answer {
    result: LayoutResult,
    proven: bool,
    counts: Counts,
}

fn synthesize(
    tool: Tool,
    config: SynthesisConfig,
    circuit: &olsq2_circuit::Circuit,
    device: &olsq2_arch::CouplingGraph,
) -> Result<Answer, SynthesisError> {
    let answer = |out: olsq2::SynthesisOutcome| Answer {
        counts: (
            out.solver_stats.conflicts,
            out.solver_stats.propagations,
            out.formula_size.1,
        ),
        result: out.result,
        proven: out.proven_optimal,
    };
    Ok(match tool {
        Tool::Depth => answer(Olsq2Synthesizer::new(config).optimize_depth(circuit, device)?),
        Tool::Swaps => answer(
            Olsq2Synthesizer::new(config)
                .optimize_swaps(circuit, device)?
                .best,
        ),
        Tool::TbSwaps => answer(
            TbOlsq2Synthesizer::new(config)
                .optimize_swaps(circuit, device)?
                .outcome,
        ),
    })
}

/// Runs one instance, timing it from outside, then checks the answer.
/// With an enabled `recorder`, the run is traced: the benchmark's spans
/// wrap each call and the drivers record into the same recorder.
pub fn run_instance(inst: &Instance, expected: &Expected, recorder: &Recorder) -> Run {
    let start = Instant::now();
    let root = recorder.span("instance");
    let parsed = {
        let _s = recorder.span("circuit.parse");
        parse_qasm(&inst.qasm)
    };
    let circuit = match parsed {
        Ok(c) => c,
        Err(e) => return failed(start, format!("parse_qasm: {e}")),
    };
    let t_lb = {
        let _s = recorder.span("circuit.dag");
        DependencyGraph::new(&circuit).longest_chain()
    };
    let mut config = SynthesisConfig::with_swap_duration(inst.swap_duration);
    config.time_budget = Some(BUDGET);
    config.recorder = recorder.clone();
    let answer = {
        let _s = recorder.span("synth");
        synthesize(inst.tool, config, &circuit, &inst.device)
    };
    let answer = match answer {
        Ok(a) => a,
        Err(e) => return failed(start, format!("{}: {e}", inst.tool.name())),
    };
    let verified = {
        let _s = recorder.span("layout.verify");
        verify(&circuit, &inst.device, &answer.result)
    };
    let emitted = {
        let _s = recorder.span("layout.emit");
        write_qasm(&emit_physical_circuit(
            &circuit,
            &inst.device,
            &answer.result,
        ))
    };
    drop(root);
    let wall_s = start.elapsed().as_secs_f64();

    let optimum = inst.tool.optimum(&answer.result);
    let failure = if let Err(violations) = verified {
        Some(format!("layout fails verify: {violations:?}"))
    } else if !answer.proven {
        Some("optimality not proven within budget".to_string())
    } else if answer.result.depth < t_lb {
        Some(format!(
            "depth {} below the DAG bound {t_lb}",
            answer.result.depth
        ))
    } else if !emitted.contains("qreg") {
        Some("emitted circuit is not QASM".to_string())
    } else {
        check_optimum(expected, inst.tool, &inst.label, inst.queko_depth, optimum)
    };
    Run {
        wall_s,
        optimum: Some(optimum),
        counts: Some(answer.counts),
        failure,
    }
}

fn failed(start: Instant, why: String) -> Run {
    Run {
        wall_s: start.elapsed().as_secs_f64(),
        optimum: None,
        counts: None,
        failure: Some(why),
    }
}
