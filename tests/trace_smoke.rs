//! Trace smoke test: a traced synthesis run must produce a JSONL trace
//! from which the per-iteration timing breakdown — (T, swap-bound) pairs
//! with encode/solve times — and the per-family clause counts can be
//! reconstructed offline. This is the acceptance contract of the
//! observability layer: everything `olsq2 trace-report` and the paper's
//! timing tables need is in the file, not only in the process.

use olsq2::{Olsq2Synthesizer, Recorder, SynthesisConfig};
use olsq2_arch::grid;
use olsq2_circuit::generators::qaoa_circuit;
use olsq2_service::json::{self, Json};

/// One reconstructed `iteration` span.
#[derive(Debug)]
struct Iteration {
    objective: String,
    t_bound: Option<u64>,
    swap_bound: Option<u64>,
    solve_us: u64,
    result: String,
}

#[test]
fn traced_qaoa_run_round_trips_through_jsonl() {
    let recorder = Recorder::new();
    let mut config = SynthesisConfig::with_swap_duration(1);
    config.recorder = recorder.clone();
    let circuit = qaoa_circuit(4, 3);
    let device = grid(2, 2);
    let out = Olsq2Synthesizer::new(config)
        .optimize_swaps(&circuit, &device)
        .expect("synthesis succeeds");

    let text = recorder.snapshot().to_jsonl();

    // Every line is valid JSON; the first is the versioned meta line.
    let lines: Vec<Json> = text
        .lines()
        .enumerate()
        .map(|(i, line)| json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1)))
        .collect();
    assert_eq!(
        lines[0].get("type").and_then(Json::as_str),
        Some("meta"),
        "first line is the meta header"
    );
    assert_eq!(lines[0].get("version").and_then(Json::as_u64), Some(1));

    let spans: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("type").and_then(Json::as_str) == Some("span"))
        .collect();

    // Reconstruct the iteration schedule from the trace alone.
    let iterations: Vec<Iteration> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("iteration"))
        .map(|s| {
            let fields = s.get("fields").expect("iteration has fields");
            let num = |key: &str| fields.get(key).and_then(Json::as_u64);
            Iteration {
                objective: fields
                    .get("objective")
                    .and_then(Json::as_str)
                    .expect("objective field")
                    .to_string(),
                t_bound: num("t_bound"),
                swap_bound: num("swap_bound"),
                solve_us: num("solve_us").expect("solve_us field"),
                result: fields
                    .get("result")
                    .and_then(Json::as_str)
                    .expect("result field")
                    .to_string(),
            }
        })
        .collect();
    assert!(!iterations.is_empty(), "trace contains iteration spans");
    for it in &iterations {
        assert!(
            matches!(it.result.as_str(), "sat" | "unsat" | "unknown"),
            "iteration result is a solver verdict: {it:?}"
        );
        assert!(it.t_bound.is_some(), "every iteration records T: {it:?}");
    }
    // The run optimized SWAPs after depth: both phases left iterations,
    // and the SWAP ones carry the (T, swap-bound) pair.
    assert!(iterations.iter().any(|it| it.objective == "depth"));
    let swap_iters: Vec<&Iteration> = iterations
        .iter()
        .filter(|it| it.objective == "swaps")
        .collect();
    assert!(!swap_iters.is_empty(), "SWAP descent traced");
    assert!(swap_iters.iter().all(|it| it.swap_bound.is_some()));
    // The last SWAP iteration to answer "unsat" proves the bound under
    // which the returned solution is optimal.
    if out.best.proven_optimal {
        assert!(swap_iters.iter().any(|it| it.result == "unsat"));
    }
    // Wall-time reconstruction: per-iteration solve times are present and
    // bounded by the parent optimize span's duration.
    let total_solve: u64 = iterations.iter().map(|it| it.solve_us).sum();
    let outer_total: u64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.get("name").and_then(Json::as_str),
                Some("optimize_depth" | "optimize_swaps")
            )
        })
        .filter_map(|s| s.get("dur_us").and_then(Json::as_u64))
        .sum();
    assert!(
        total_solve <= outer_total,
        "solve time ({total_solve}us) fits inside the optimize spans ({outer_total}us)"
    );

    // Per-family formula breakdown survives the round trip.
    let encode = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("encode"))
        .expect("encode span present");
    let fields = encode.get("fields").expect("encode has fields");
    let total_clauses = fields
        .get("clauses")
        .and_then(Json::as_u64)
        .expect("total clause count");
    let family_sum: u64 = ["mapping", "dependency", "swap", "scheduling", "transition"]
        .iter()
        .map(|fam| {
            fields
                .get(&format!("clauses.{fam}"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("clauses.{fam} present"))
        })
        .sum();
    assert!(family_sum > 0, "family clause counts are populated");
    assert!(
        family_sum <= total_clauses,
        "families partition the formula ({family_sum} <= {total_clauses})"
    );

    // Solver counters made it out too.
    let counters: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("type").and_then(Json::as_str) == Some("counter"))
        .collect();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|c| c.get("value"))
            .and_then(Json::as_u64)
    };
    assert!(counter("sat.solves").unwrap_or(0) >= iterations.len() as u64);
    assert!(counter("sat.decisions").unwrap_or(0) > 0);
}
