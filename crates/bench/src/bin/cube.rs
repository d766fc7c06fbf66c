//! A/B harness for the cube-and-conquer engine: `solve_cubes` over a
//! worker pool versus one `Solver::solve` call on raw UNSAT instances
//! (pigeonhole, XOR-chain parity), written to `BENCH_cube.json` at the
//! repo root. Workers are built the way `olsq2 sat --cube-workers` builds
//! them: one independent solver each. Each row also re-runs the cube
//! engine in prove mode (untimed) and checks the stitched refutation.
//!
//! Methodology: the JSON records the machine's available parallelism,
//! read at run time. With fewer cores than workers, a speedup here is
//! mostly **total-work reduction** — lemmas each worker's solver retains
//! from one cube to the next, plus assumption cores pruning sibling
//! cubes — not parallelism. The two strategies are interleaved per trial
//! (A, B, then again), and each row reports the **median of paired
//! per-trial ratios**, which cancels drift that would bias a mean of
//! separately-averaged times.

use olsq2_bench::BenchOpts;
use olsq2_cube::{solve_cubes, CubeConfig, SatCubeSolver, SplitGroup};
use olsq2_sat::{Lit, SolveResult, Solver, Var};
use std::fmt::Write as _;
use std::time::Instant;

const WORKERS: usize = 4;

fn lit(v: usize) -> Lit {
    Lit::positive(Var::from_index(v))
}

/// Pigeonhole principle with `holes + 1` pigeons: UNSAT, exponentially
/// hard for resolution, and carrying natural one-hot split groups (each
/// pigeon's hole assignment).
fn pigeonhole(holes: usize) -> (usize, Vec<Vec<Lit>>, Vec<SplitGroup>) {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| lit(p * holes + h);
    let mut clauses = Vec::new();
    let mut groups = Vec::new();
    for p in 0..pigeons {
        let group: Vec<Lit> = (0..holes).map(|h| var(p, h)).collect();
        clauses.push(group.clone());
        groups.push(SplitGroup {
            family: olsq2_encode::ConstraintFamily::Mapping,
            lits: group,
        });
    }
    for h in 0..holes {
        for a in 0..pigeons {
            for b in a + 1..pigeons {
                clauses.push(vec![!var(a, h), !var(b, h)]);
            }
        }
    }
    (pigeons * holes, clauses, groups)
}

/// An odd XOR chain: x0 ⊕ x1, x1 ⊕ x2, …, x_{n-1} ⊕ x0 with an odd
/// number of inversions — UNSAT, no short resolution refutation through
/// any single variable, so splitting genuinely decomposes the search.
fn xor_chain(n: usize) -> (usize, Vec<Vec<Lit>>, Vec<SplitGroup>) {
    let mut clauses = Vec::new();
    for i in 0..n {
        let a = lit(i);
        let b = lit((i + 1) % n);
        if i == 0 {
            // a == b
            clauses.push(vec![!a, b]);
            clauses.push(vec![a, !b]);
        } else {
            // a != b
            clauses.push(vec![a, b]);
            clauses.push(vec![!a, !b]);
        }
    }
    (n, clauses, Vec::new())
}

struct UnsatRow {
    case: String,
    single_us: Vec<u128>,
    cube_us: Vec<u128>,
    cubes_split: u64,
    pruned: u64,
    proof_checked: bool,
}

/// Median of the per-trial paired ratios `base[i] / this[i]`.
fn median_paired_ratio(base: &[u128], this: &[u128]) -> f64 {
    let mut ratios: Vec<f64> = base
        .iter()
        .zip(this)
        .map(|(&b, &t)| b as f64 / (t.max(1)) as f64)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let n = ratios.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let logs: Vec<f64> = values
        .filter(|v| v.is_finite() && *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return None;
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

fn unsat_case(
    case: &str,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    groups: &[SplitGroup],
    trials: usize,
    rows: &mut Vec<UnsatRow>,
) {
    let cube_cfg = CubeConfig {
        workers: WORKERS,
        depth: 3,
        conflict_budget: 5_000,
        ..CubeConfig::default()
    };
    let make_worker = |prove: bool| {
        let mut w = SatCubeSolver::new(num_vars, clauses, prove);
        for g in groups {
            w.add_hint(g.clone());
        }
        w
    };

    let mut single_us = Vec::new();
    let mut cube_us = Vec::new();
    let mut cubes_split = 0;
    let mut pruned = 0;
    for _ in 0..trials {
        // Interleaved: single first, then cube, each trial.
        let start = Instant::now();
        let mut solver = Solver::new();
        while solver.num_vars() < num_vars {
            solver.new_var();
        }
        for c in clauses {
            solver.add_clause(c.clone());
        }
        let single = solver.solve(&[]);
        single_us.push(start.elapsed().as_micros());
        assert_eq!(single, SolveResult::Unsat, "{case}: single not UNSAT");

        let start = Instant::now();
        let run = solve_cubes(
            |_| make_worker(false),
            &cube_cfg,
            &olsq2_obs::Recorder::disabled(),
        );
        cube_us.push(start.elapsed().as_micros());
        assert_eq!(run.result, SolveResult::Unsat, "{case}: cube not UNSAT");
        cubes_split = run.stats.cubes_split;
        pruned = run.stats.cubes_pruned_by_core;
    }

    // Untimed prove-mode run: the stitched refutation must check.
    let prove_cfg = CubeConfig {
        prove: true,
        ..cube_cfg
    };
    let run = solve_cubes(
        |_| make_worker(true),
        &prove_cfg,
        &olsq2_obs::Recorder::disabled(),
    );
    assert_eq!(
        run.result,
        SolveResult::Unsat,
        "{case}: prove-mode not UNSAT"
    );
    let proof = run.proof.expect("prove-mode UNSAT carries a proof");
    let checked = proof.check();
    assert!(
        checked.is_ok(),
        "{case}: stitched proof rejected: {checked:?}"
    );

    rows.push(UnsatRow {
        case: case.to_string(),
        single_us,
        cube_us,
        cubes_split,
        pruned,
        proof_checked: true,
    });
}

fn main() {
    let opts = BenchOpts::from_args();
    let trials = if opts.full { 5 } else { 3 };

    let mut unsat: Vec<UnsatRow> = Vec::new();

    // UNSAT rows: the cube engine against one solver on the same CNF.
    let php_sizes: &[usize] = if opts.full { &[7, 8, 9] } else { &[6, 7] };
    for &h in php_sizes {
        let (vars, clauses, groups) = pigeonhole(h);
        unsat_case(
            &format!("php-{h}"),
            vars,
            &clauses,
            &groups,
            trials,
            &mut unsat,
        );
    }
    let xor_sizes: &[usize] = if opts.full { &[24, 32] } else { &[16, 24] };
    for &n in xor_sizes {
        let (vars, clauses, groups) = xor_chain(n);
        unsat_case(
            &format!("xor-{n}"),
            vars,
            &clauses,
            &groups,
            trials,
            &mut unsat,
        );
    }

    println!("UNSAT instances: cube engine vs single solver ({WORKERS} workers, {trials} paired trials)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>7} {:>7} {:>7}",
        "case", "single", "cube", "speedup", "cubes", "pruned", "proof"
    );
    for r in &unsat {
        println!(
            "{:<10} {:>10}us {:>10}us {:>8.2}x {:>7} {:>7} {:>7}",
            r.case,
            r.single_us.iter().min().expect("trials"),
            r.cube_us.iter().min().expect("trials"),
            median_paired_ratio(&r.single_us, &r.cube_us),
            r.cubes_split,
            r.pruned,
            if r.proof_checked { "ok" } else { "FAIL" },
        );
    }
    // Sub-millisecond rows measure scheduler overhead, not solving:
    // the geomean covers rows where the single solver needed ≥ 1ms.
    let timed = |r: &&UnsatRow| *r.single_us.iter().min().expect("trials") >= 1000;
    let excluded = unsat.iter().filter(|r| !timed(r)).count();
    let unsat_geomean = geomean(
        unsat
            .iter()
            .filter(timed)
            .map(|r| median_paired_ratio(&r.single_us, &r.cube_us)),
    )
    .unwrap_or(f64::NAN);
    println!(
        "\ngeomean speedup vs single solver (rows with single >= 1ms): {unsat_geomean:.2}x \
         ({excluded} sub-ms row(s) excluded)"
    );

    let us_list = |xs: &[u128]| {
        let items: Vec<String> = xs.iter().map(u128::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"harness\": \"cube\",");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"full\": {},", opts.full);
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"unsat_geomean_speedup_vs_single\": {unsat_geomean:.4},"
    );
    let _ = writeln!(json, "  \"geomean_excludes_sub_ms_rows\": {excluded},");
    json.push_str("  \"unsat\": [\n");
    for (i, r) in unsat.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"single_us\": {}, \"cube_us\": {}, \
             \"median_paired_speedup\": {:.4}, \"cubes_split\": {}, \
             \"pruned_by_core\": {}, \"proof_checked\": {}}}{}",
            r.case,
            us_list(&r.single_us),
            us_list(&r.cube_us),
            median_paired_ratio(&r.single_us, &r.cube_us),
            r.cubes_split,
            r.pruned,
            r.proof_checked,
            if i + 1 < unsat.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cube.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\nfailed to write {out}: {e}"),
    }
}
