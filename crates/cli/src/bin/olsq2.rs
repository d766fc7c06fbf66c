//! `olsq2` — command-line layout synthesis.
//!
//! ```text
//! olsq2 --qasm <file|-> --device <name> [--objective depth|swaps|blocks]
//!       [--swap-duration N] [--budget SECS] [--encoding int|bv|euf]
//!       [--tool olsq2|tb|sabre|satmap|astar] [--output out.qasm]
//!       [--trace-out trace.jsonl] [--report]
//!       [--flight-out flight.jsonl] [--flight-every N] [--flight-capacity N]
//!
//! olsq2 serve-batch --manifest <file|-> [--output <file|->]
//!       [--workers N] [--queue N] [--cache N]
//!       [--trace-out trace.jsonl] [--prom-out metrics.prom] [--prom-every SECS]
//!       [--http ADDR] [--flight-dir DIR] [--flight-every N] [--flight-capacity N]
//!       [--report]
//!
//! olsq2 trace-report <trace.jsonl|->
//!
//! olsq2 trace-diff <a.jsonl> <b.jsonl> [--label-a NAME] [--label-b NAME]
//!
//! olsq2 sat <file.cnf|-> [--preprocess] [--assume LIT]...
//!       [--budget-conflicts N] [--stats]
//!       [--cube-workers N] [--cube-depth N]
//! ```
//!
//! The first form reads an OpenQASM 2.0 circuit, synthesizes a layout for
//! the chosen device, verifies it, reports depth/SWAP statistics, and
//! (optionally) writes the executable physical circuit back as QASM.
//!
//! The `sat` form solves a raw DIMACS CNF file with the embedded CDCL
//! solver, printing SAT-competition style `s`/`v` lines and exiting 10
//! (SAT), 20 (UNSAT), or 0 (unknown / budget exhausted). `--preprocess`
//! runs SatELite-style simplification (variable elimination, subsumption)
//! first; variables named by `--assume` are frozen so assumptions stay
//! meaningful, and reported models are reconstructed over the original
//! variables either way. `--cube-workers`/`--cube-depth` switch to the
//! cube-and-conquer engine: the instance is split into a tree of
//! assumption cubes solved on a work-stealing pool (any `--assume`
//! literals become the shared base of every cube).
//!
//! The `serve-batch` form reads a JSONL job manifest (see the
//! `olsq2-service` crate docs for the line format), drives the synthesis
//! service with a worker pool and canonicalizing result cache, and writes
//! one JSONL result line per job plus a final metrics summary line.
//!
//! Observability: `--trace-out` arms a recorder and dumps its JSONL trace
//! (spans, events, counters, histograms) to the given path; `--report`
//! prints the human-readable span tree instead of (or in addition to) the
//! raw trace. Both are written when synthesis fails, too; `--prom-out` writes service metrics plus recorder counters
//! in the Prometheus text format. `trace-report` re-renders a saved
//! JSONL trace as the span-tree report offline.
//!
//! `--flight-out` arms the search **flight recorder**: every SAT solver
//! the run builds records one sample per `--flight-every` conflicts
//! (default 128) into a lock-free ring of `--flight-capacity` slots
//! (default 4096), and the ring is dumped as versioned JSONL on exit —
//! including synthesis failure and panic — so the last moments of a
//! dying search are always recoverable.
//!
//! `trace-diff` aligns two saved traces by their (objective, bound)
//! iteration schedule and attributes every per-iteration time delta to
//! encode time, solve throughput, or search divergence — the offline
//! answer to "*why* is run B slower than run A on this circuit". Flight
//! lines embedded in (or dumped next to) either trace feed a post-mortem
//! footer per side.

use olsq2::{EncodingConfig, Olsq2Synthesizer, SynthesisConfig, TbOlsq2Synthesizer};
use olsq2_arch::device_by_name;
use olsq2_circuit::{parse_qasm, write_qasm};
use olsq2_layout::{emit_physical_circuit, verify, LayoutResult};
use olsq2_service::{manifest, ServiceConfig};
use std::io::Read;
use std::sync::OnceLock;
use std::time::Duration;

/// The armed flight recorder and its dump path, set once before synthesis
/// starts. Panics bypass the normal exit path entirely, so the panic hook
/// reaches the ring through this global rather than through scope.
static FLIGHT: OnceLock<(olsq2::Probe, String)> = OnceLock::new();

/// Dumps the armed flight ring (if any) as versioned JSONL. Idempotent:
/// later calls rewrite the same file with a superset of the samples.
fn emit_flight() {
    let Some((probe, path)) = FLIGHT.get() else {
        return;
    };
    match probe.write_jsonl(std::path::Path::new(path)) {
        Ok(()) if probe.emitted() > 0 => eprintln!(
            "wrote flight recording ({} sample(s)) to {path}",
            probe.emitted()
        ),
        Ok(()) => {}
        Err(e) => eprintln!("cannot write flight recording {path}: {e}"),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: olsq2 --qasm <file|-> --device <name> \\
          [--objective depth|swaps] [--tool olsq2|tb|sabre|satmap|astar] \\
          [--swap-duration N] [--budget SECS] [--encoding int|bv|euf] [--output out.qasm] \\
          [--trace-out trace.jsonl] [--report] \\
          [--flight-out flight.jsonl] [--flight-every N] [--flight-capacity N]
       olsq2 serve-batch --manifest <file|-> [--output <file|->] \\
          [--workers N] [--queue N] [--cache N] \\
          [--trace-out trace.jsonl] [--prom-out metrics.prom] [--prom-every SECS] \\
          [--http ADDR] [--flight-dir DIR] [--flight-every N] [--flight-capacity N] \\
          [--report]
       olsq2 trace-report <trace.jsonl|->
       olsq2 trace-diff <a.jsonl> <b.jsonl> [--label-a NAME] [--label-b NAME]
       olsq2 sat <file.cnf|-> [--preprocess] [--assume LIT]... \\
          [--budget-conflicts N] [--stats] \\
          [--cube-workers N] [--cube-depth N]

devices: qx2, qx5, tokyo, aspen4, sycamore, eagle, grid<WxH>, line<N>, complete<N>"
    );
    std::process::exit(2);
}

fn read_input(path: &str) -> String {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).expect("stdin");
        buf
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    }
}

fn serve_batch(args: impl Iterator<Item = String>) {
    let mut manifest_path = None;
    let mut output: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut prom_every_secs = 5u64;
    let mut http_addr: Option<String> = None;
    let mut flight_dir: Option<String> = None;
    let mut flight_every = 128u64;
    let mut flight_capacity = 1024usize;
    let mut flight = false;
    let mut report = false;
    let mut config = ServiceConfig::default();
    let mut args = args;
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--manifest" => manifest_path = Some(val(&mut args)),
            "--output" => output = Some(val(&mut args)),
            "--workers" => config.workers = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--queue" => config.queue_capacity = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--cache" => config.cache_capacity = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--trace-out" => trace_out = Some(val(&mut args)),
            "--prom-out" => prom_out = Some(val(&mut args)),
            "--prom-every" => {
                prom_every_secs = val(&mut args)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--http" => http_addr = Some(val(&mut args)),
            "--flight-dir" => {
                flight_dir = Some(val(&mut args));
                flight = true;
            }
            "--flight-every" => {
                flight_every = val(&mut args)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
                flight = true;
            }
            "--flight-capacity" => {
                flight_capacity = val(&mut args)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
                flight = true;
            }
            "--report" => report = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(manifest_path) = manifest_path else {
        usage()
    };
    let recorder = if trace_out.is_some() || report {
        olsq2::Recorder::new()
    } else {
        olsq2::Recorder::disabled()
    };
    config.recorder = recorder.clone();
    // Any --flight-* flag (or --http, whose /flight route needs rings)
    // arms per-job flight recorders.
    if flight || http_addr.is_some() {
        if let Some(dir) = &flight_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("cannot create flight dir {dir}: {e}");
                std::process::exit(2);
            });
        }
        config.flight = Some(olsq2_service::FlightSettings {
            capacity: flight_capacity,
            every: flight_every,
            dir: flight_dir.as_ref().map(std::path::PathBuf::from),
        });
    }
    let text = read_input(&manifest_path);
    let requests = manifest::parse_manifest(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let total = requests.len();
    eprintln!(
        "serve-batch: {total} job(s), {} worker(s), queue {}, cache {}",
        config.workers, config.queue_capacity, config.cache_capacity
    );

    let mut service = olsq2_service::SynthesisService::start(config);
    let intro = service.introspection();
    let mut http_server = http_addr.as_ref().map(|addr| {
        let server =
            olsq2_service::IntrospectionServer::start(addr, intro.clone()).unwrap_or_else(|e| {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(2);
            });
        eprintln!("introspection endpoint on http://{}/", server.local_addr());
        server
    });
    // Periodic Prometheus flush: scrape-style agents can tail the file
    // while the batch runs; the final write below flushes at shutdown.
    let flush_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flusher = prom_out.clone().map(|path| {
        let stop = flush_stop.clone();
        let intro = intro.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::fs::write(&path, intro.prometheus_text()).ok();
                // Sleep in short slices so shutdown is prompt.
                for _ in 0..prom_every_secs * 10 {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        })
    });

    let (statuses, metrics) = manifest::run_batch_on(&service, requests);

    flush_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(flusher) = flusher {
        let _ = flusher.join();
    }
    if let Some(path) = &prom_out {
        write_output(path, &olsq2_service::prometheus_text(&metrics, &recorder));
        eprintln!("wrote prometheus metrics to {path}");
    }
    emit_trace(&recorder, trace_out.as_deref(), report);
    let mut lines = String::new();
    for (name, tenant, status) in &statuses {
        lines.push_str(&manifest::status_to_json(name, tenant, status).to_string());
        lines.push('\n');
    }
    lines.push_str(&manifest::metrics_to_json(&metrics).to_string());
    lines.push('\n');
    match output.as_deref() {
        None | Some("-") => print!("{lines}"),
        Some(path) => {
            std::fs::write(path, &lines).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote {} result line(s) to {path}", statuses.len() + 1);
        }
    }
    eprintln!(
        "done: {} ok ({} degraded), {} failed, {} cancelled; cache {} hit(s) / {} miss(es); {} window extension(s); p50 {}ms p95 {}ms",
        metrics.done,
        metrics.degraded,
        metrics.failed,
        metrics.cancelled,
        metrics.cache.hits,
        metrics.cache.misses,
        metrics.window_extensions,
        metrics.p50_latency.as_millis(),
        metrics.p95_latency.as_millis()
    );
    if let Some(server) = &mut http_server {
        server.shutdown();
    }
    service.shutdown();
    let any_failed = statuses
        .iter()
        .any(|(_, _, s)| !matches!(s, olsq2_service::JobStatus::Done(_)));
    std::process::exit(if any_failed { 1 } else { 0 });
}

fn write_output(path: &str, text: &str) {
    if path == "-" {
        print!("{text}");
    } else {
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
    }
}

/// Dumps an armed recorder: the JSONL trace to `trace_out` (if given) and
/// the human-readable span tree to stderr (if `report`).
fn emit_trace(recorder: &olsq2::Recorder, trace_out: Option<&str>, report: bool) {
    if !recorder.is_enabled() {
        return;
    }
    let snapshot = recorder.snapshot();
    if let Some(path) = trace_out {
        write_output(path, &snapshot.to_jsonl());
        if path != "-" {
            eprintln!(
                "wrote trace ({} span(s), {} event(s)) to {path}",
                snapshot.spans.len(),
                snapshot.events.len()
            );
        }
    }
    if report {
        eprint!("{}", olsq2_obs::report::render(&snapshot.spans));
    }
}

fn json_to_field(value: &olsq2_service::json::Json) -> olsq2_obs::FieldValue {
    use olsq2_service::json::Json;
    match value {
        Json::Bool(b) => (*b).into(),
        Json::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
            (*n as u64).into()
        }
        Json::Number(n) if n.fract() == 0.0 && *n >= -(2f64.powi(53)) => (*n as i64).into(),
        Json::Number(n) => (*n).into(),
        Json::String(s) => s.as_str().into(),
        other => other.to_string().into(),
    }
}

/// Re-renders a saved JSONL trace (written by `--trace-out`) as the
/// span-tree report, on stdout.
fn trace_report(path: &str) {
    let text = read_input(path);
    let mut spans: Vec<olsq2_obs::SpanData> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value = olsq2_service::json::parse(trimmed).unwrap_or_else(|e| {
            eprintln!("trace line {}: {e}", i + 1);
            std::process::exit(2);
        });
        let kind = value.get("type").and_then(|t| t.as_str()).unwrap_or("");
        if kind == "meta" {
            if value.get("version").and_then(|v| v.as_u64()) != Some(1) {
                eprintln!("trace line {}: unsupported trace version", i + 1);
                std::process::exit(2);
            }
            continue;
        }
        if kind != "span" {
            continue; // events/counters/hists don't feed the span tree
        }
        let field = |key: &str| value.get(key).and_then(|v| v.as_u64());
        let (Some(id), Some(start_us)) = (field("id"), field("start_us")) else {
            eprintln!("trace line {}: span missing id/start_us", i + 1);
            std::process::exit(2);
        };
        let fields = value
            .get("fields")
            .and_then(|f| f.as_object())
            .map(|obj| {
                obj.iter()
                    .map(|(k, v)| (k.clone(), json_to_field(v)))
                    .collect()
            })
            .unwrap_or_default();
        spans.push(olsq2_obs::SpanData {
            id,
            parent: field("parent"),
            name: value
                .get("name")
                .and_then(|n| n.as_str())
                .unwrap_or("?")
                .to_string(),
            start_us,
            dur_us: field("dur_us"),
            fields,
        });
    }
    print!("{}", olsq2_obs::report::render(&spans));
}

/// `olsq2 trace-diff`: align two saved JSONL traces by their
/// (objective, bound) iteration schedule and print the per-iteration A/B
/// attribution table (encode vs solve time vs search divergence), plus a
/// flight-recorder post-mortem per side when flight lines are present.
fn trace_diff(args: impl Iterator<Item = String>) -> ! {
    let mut paths: Vec<String> = Vec::new();
    let mut label_a: Option<String> = None;
    let mut label_b: Option<String> = None;
    let mut args = args;
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--label-a" => label_a = Some(val(&mut args)),
            "--label-b" => label_b = Some(val(&mut args)),
            "--help" | "-h" => usage(),
            _ if paths.len() < 2 => paths.push(a),
            _ => usage(),
        }
    }
    if paths.len() != 2 {
        usage();
    }
    let a_text = read_input(&paths[0]);
    let b_text = read_input(&paths[1]);
    let report = olsq2_obs::diff::diff(
        &a_text,
        &b_text,
        label_a.as_deref().unwrap_or(&paths[0]),
        label_b.as_deref().unwrap_or(&paths[1]),
    )
    .unwrap_or_else(|e| {
        eprintln!("trace-diff: {e}");
        std::process::exit(2);
    });
    print!("{}", report.render());
    // No aligned iterations means the traces don't describe comparable
    // runs; exit non-zero so scripted A/B checks notice.
    std::process::exit(if report.matched() == 0 { 1 } else { 0 });
}

/// `olsq2 sat`: solve a raw DIMACS CNF with the embedded CDCL solver.
///
/// Exit codes follow the SAT-competition convention: 10 for SAT, 20 for
/// UNSAT, 0 when the conflict budget ran out before an answer.
fn sat_command(args: impl Iterator<Item = String>) -> ! {
    use olsq2_sat::{Lit, Preprocessor, SolveResult, Solver, Var};

    let mut cnf_path: Option<String> = None;
    let mut preprocess = false;
    let mut assumes: Vec<i64> = Vec::new();
    let mut budget: Option<u64> = None;
    let mut stats = false;
    let mut cube_workers: Option<usize> = None;
    let mut cube_depth: Option<usize> = None;
    let mut args = args;
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--preprocess" => preprocess = true,
            "--assume" => {
                let raw = val(&mut args);
                let dimacs: i64 = raw.parse().unwrap_or_else(|_| usage());
                if dimacs == 0 {
                    usage();
                }
                assumes.push(dimacs);
            }
            "--budget-conflicts" => {
                budget = Some(val(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--stats" => stats = true,
            "--cube-workers" => {
                cube_workers = Some(
                    val(&mut args)
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--cube-depth" => {
                cube_depth = Some(
                    val(&mut args)
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            _ if cnf_path.is_none() => cnf_path = Some(a),
            _ => usage(),
        }
    }
    let Some(cnf_path) = cnf_path else { usage() };
    let text = read_input(&cnf_path);
    let cnf = olsq2_encode::from_dimacs(&text).unwrap_or_else(|e| {
        eprintln!("DIMACS parse error: {e}");
        std::process::exit(2);
    });
    let lit_of = |dimacs: i64| -> Lit {
        let var = Var::from_index(dimacs.unsigned_abs() as usize - 1);
        if dimacs > 0 {
            Lit::positive(var)
        } else {
            Lit::negative(var)
        }
    };
    for &d in &assumes {
        if d.unsigned_abs() as usize > cnf.num_vars() {
            eprintln!(
                "--assume {d} names a variable beyond p cnf {}",
                cnf.num_vars()
            );
            std::process::exit(2);
        }
    }
    let assumptions: Vec<Lit> = assumes.iter().map(|&d| lit_of(d)).collect();

    // With --preprocess the solvers see the simplified formula; the model
    // is then reconstructed over the original variables. Assumption
    // variables are frozen so BVE cannot eliminate them out from under
    // the `solve(&assumptions)` call.
    let simplified = preprocess.then(|| {
        let mut pre = Preprocessor::new(cnf.num_vars(), cnf.clauses().iter().cloned());
        for &d in &assumes {
            pre.freeze(Var::from_index(d.unsigned_abs() as usize - 1));
        }
        let simplified = pre.run();
        eprintln!(
            "preprocess: {} -> {} clause(s), {} variable(s) eliminated",
            cnf.num_clauses(),
            simplified.clauses().len(),
            simplified.num_eliminated()
        );
        simplified
    });

    // Cube mode: split the instance into a tree of assumption cubes and
    // solve them on a work-stealing pool. Any `--assume` literals become
    // the shared base of every cube; with `--preprocess` the cubes run
    // over the simplified formula and the model is reconstructed.
    if cube_workers.is_some() || cube_depth.is_some() {
        use olsq2_cube::{solve_cubes, CubeConfig, SatCubeSolver};
        if budget.is_some() {
            eprintln!(
                "note: --budget-conflicts is ignored in cube mode \
                 (the per-cube budget triggers re-splits instead)"
            );
        }
        let clauses: Vec<Vec<Lit>> = match &simplified {
            Some(s) => s.clauses().to_vec(),
            None => cnf.clauses().to_vec(),
        };
        let num_vars = cnf.num_vars();
        let cube_cfg = CubeConfig {
            workers: cube_workers.unwrap_or(4),
            depth: cube_depth.unwrap_or(2),
            ..CubeConfig::default()
        };
        let run = solve_cubes(
            |_| {
                let mut w = SatCubeSolver::new(num_vars, &clauses, false);
                w.set_base(assumptions.clone());
                w
            },
            &cube_cfg,
            &olsq2_obs::Recorder::disabled(),
        );
        if stats {
            let (mut conflicts, mut decisions, mut propagations, mut restarts) =
                (0u64, 0u64, 0u64, 0u64);
            for w in &run.workers {
                let s = w.solver().stats();
                conflicts += s.conflicts;
                decisions += s.decisions;
                propagations += s.propagations;
                restarts += s.restarts;
            }
            eprintln!(
                "c conflicts {conflicts} decisions {decisions} propagations {propagations} \
                 restarts {restarts} (summed over {} cube worker(s))",
                run.workers.len()
            );
            let cs = &run.stats;
            eprintln!(
                "c cubes-split {} cubes-refuted {} pruned-by-core {} steals {} resplits {}",
                cs.cubes_split, cs.cubes_refuted, cs.cubes_pruned_by_core, cs.steals, cs.resplits
            );
        }
        match run.result {
            SolveResult::Sat => {
                let witness = run.witness().expect("SAT run names its witness");
                let mut model: Vec<bool> = (0..cnf.num_vars())
                    .map(|i| {
                        witness
                            .solver()
                            .model_value(Lit::positive(Var::from_index(i)))
                            .unwrap_or(false)
                    })
                    .collect();
                if let Some(simplified) = &simplified {
                    simplified.reconstruct(&mut model);
                }
                print_model_and_exit(&model);
            }
            SolveResult::Unsat => {
                println!("s UNSATISFIABLE");
                std::process::exit(20);
            }
            SolveResult::Unknown => {
                println!("s UNKNOWN");
                std::process::exit(0);
            }
        }
    }

    let mut solver = Solver::new();
    solver.set_conflict_budget(budget);
    match &simplified {
        Some(simplified) => simplified.load_into(&mut solver),
        None => cnf.load_into(&mut solver),
    }
    let verdict = solver.solve(&assumptions);
    if stats {
        let s = solver.stats();
        eprintln!(
            "c conflicts {} decisions {} propagations {} (binary {}) restarts {}",
            s.conflicts, s.decisions, s.propagations, s.binary_props, s.restarts
        );
        eprintln!(
            "c vivified {} strengthened {} tier-demotions {} rephases {}",
            s.vivified, s.strengthened, s.tier_demotions, s.rephases
        );
        eprintln!(
            "c chrono-backtracks {} blocked-restarts {} target-rephases {}",
            s.chrono_backtracks, s.blocked_restarts, s.target_rephases
        );
    }
    match verdict {
        SolveResult::Sat => {
            let mut model: Vec<bool> = (0..cnf.num_vars())
                .map(|i| {
                    solver
                        .model_value(Lit::positive(Var::from_index(i)))
                        .unwrap_or(false)
                })
                .collect();
            if let Some(simplified) = &simplified {
                simplified.reconstruct(&mut model);
            }
            print_model_and_exit(&model);
        }
        SolveResult::Unsat => {
            println!("s UNSATISFIABLE");
            std::process::exit(20);
        }
        SolveResult::Unknown => {
            println!("s UNKNOWN");
            std::process::exit(0);
        }
    }
}

/// Prints `s SATISFIABLE` plus the wrapped `v` lines and exits 10.
fn print_model_and_exit(model: &[bool]) -> ! {
    println!("s SATISFIABLE");
    let mut line = String::from("v");
    for (i, &value) in model.iter().enumerate() {
        line.push(' ');
        if !value {
            line.push('-');
        }
        line.push_str(&(i + 1).to_string());
        if line.len() > 72 {
            println!("{line}");
            line = String::from("v");
        }
    }
    line.push_str(" 0");
    println!("{line}");
    std::process::exit(10);
}

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("serve-batch") {
        raw.next();
        serve_batch(raw);
        return;
    }
    if raw.peek().map(String::as_str) == Some("sat") {
        raw.next();
        sat_command(raw);
    }
    if raw.peek().map(String::as_str) == Some("trace-report") {
        raw.next();
        let path = raw.next().unwrap_or_else(|| "-".to_string());
        if raw.next().is_some() {
            usage();
        }
        trace_report(&path);
        return;
    }
    if raw.peek().map(String::as_str) == Some("trace-diff") {
        raw.next();
        trace_diff(raw);
    }
    let mut qasm_path = None;
    let mut device_name = None;
    let mut objective = "swaps".to_string();
    let mut tool = "tb".to_string();
    let mut swap_duration = 3usize;
    let mut budget: Option<Duration> = None;
    let mut encoding = "int".to_string();
    let mut output: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut report = false;
    let mut flight_out: Option<String> = None;
    let mut flight_every = 128u64;
    let mut flight_capacity = 4096usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--qasm" => qasm_path = Some(val(&mut args)),
            "--device" => device_name = Some(val(&mut args)),
            "--objective" => objective = val(&mut args),
            "--tool" => tool = val(&mut args),
            "--swap-duration" => swap_duration = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--budget" => {
                budget = Some(Duration::from_secs(
                    val(&mut args).parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--encoding" => encoding = val(&mut args),
            "--output" => output = Some(val(&mut args)),
            "--trace-out" => trace_out = Some(val(&mut args)),
            "--report" => report = true,
            "--flight-out" => flight_out = Some(val(&mut args)),
            "--flight-every" => {
                flight_every = val(&mut args)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--flight-capacity" => {
                flight_capacity = val(&mut args)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let (Some(qasm_path), Some(device_name)) = (qasm_path, device_name) else {
        usage()
    };
    let source = if qasm_path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).expect("stdin");
        buf
    } else {
        std::fs::read_to_string(&qasm_path).unwrap_or_else(|e| {
            eprintln!("cannot read {qasm_path}: {e}");
            std::process::exit(2);
        })
    };
    let circuit = parse_qasm(&source).unwrap_or_else(|e| {
        eprintln!("QASM parse error: {e}");
        std::process::exit(2);
    });
    let device = device_by_name(&device_name).unwrap_or_else(|| {
        eprintln!("unknown device {device_name:?}");
        usage()
    });
    eprintln!(
        "circuit: {} gates over {} qubits; device: {device}",
        circuit.num_gates(),
        circuit.num_qubits()
    );

    let enc = match encoding.as_str() {
        "int" => EncodingConfig::int(),
        "bv" => EncodingConfig::bv(),
        "euf" => EncodingConfig::euf_int(),
        _ => usage(),
    };
    let recorder = if trace_out.is_some() || report {
        olsq2::Recorder::new()
    } else {
        olsq2::Recorder::disabled()
    };
    let probe = if flight_out.is_some() {
        olsq2::Probe::new(flight_capacity, flight_every)
    } else {
        olsq2::Probe::disabled()
    };
    if let Some(path) = &flight_out {
        // Arm the dump-on-panic path before synthesis starts: a panic in
        // the search would otherwise lose exactly the samples worth
        // reading.
        let _ = FLIGHT.set((probe.clone(), path.clone()));
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            emit_flight();
            default_hook(info);
        }));
    }
    let config = SynthesisConfig {
        encoding: enc,
        swap_duration,
        time_budget: budget,
        recorder: recorder.clone(),
        probe: probe.clone(),
        ..SynthesisConfig::default()
    };

    let outcome: Result<LayoutResult, String> = match (tool.as_str(), objective.as_str()) {
        ("olsq2", "depth") => Olsq2Synthesizer::new(config)
            .optimize_depth(&circuit, &device)
            .map(|out| {
                eprintln!(
                    "optimal: {} ({} solver calls, {} window extension(s))",
                    out.proven_optimal, out.iterations, out.extensions
                );
                out.result
            })
            .map_err(|e| e.to_string()),
        ("olsq2", "swaps") => Olsq2Synthesizer::new(config)
            .optimize_swaps(&circuit, &device)
            .map(|out| {
                eprintln!(
                    "optimal: {} (pareto points: {:?}, {} window extension(s))",
                    out.best.proven_optimal, out.pareto, out.best.extensions
                );
                out.best.result
            })
            .map_err(|e| e.to_string()),
        ("tb", "depth" | "blocks") => TbOlsq2Synthesizer::new(config)
            .optimize_blocks(&circuit, &device)
            .map(|out| {
                eprintln!(
                    "blocks: {} ({} window extension(s))",
                    out.block_count, out.outcome.extensions
                );
                out.outcome.result
            })
            .map_err(|e| e.to_string()),
        ("tb", "swaps") => TbOlsq2Synthesizer::new(config)
            .optimize_swaps(&circuit, &device)
            .map(|out| {
                eprintln!(
                    "optimal: {} ({} blocks, {} window extension(s))",
                    out.outcome.proven_optimal, out.block_count, out.outcome.extensions
                );
                out.outcome.result
            })
            .map_err(|e| e.to_string()),
        ("sabre", _) => {
            let cfg = olsq2_heuristic::SabreConfig {
                swap_duration,
                ..Default::default()
            };
            olsq2_heuristic::sabre_route(&circuit, &device, &cfg).map_err(|e| e.to_string())
        }
        ("satmap", _) => {
            let cfg = olsq2_heuristic::SatMapConfig {
                swap_duration,
                time_budget: budget,
                ..Default::default()
            };
            olsq2_heuristic::satmap_route(&circuit, &device, &cfg)
                .map(|out| out.result)
                .map_err(|e| e.to_string())
        }
        ("astar", _) => {
            let cfg = olsq2_heuristic::AstarConfig {
                swap_duration,
                ..Default::default()
            };
            olsq2_heuristic::astar_route(&circuit, &device, &cfg).map_err(|e| e.to_string())
        }
        _ => usage(),
    };

    // A failed run's trace and flight ring (deadline expiry, say) show how
    // far it got, so both are written before the outcome is looked at.
    emit_trace(&recorder, trace_out.as_deref(), report);
    emit_flight();
    let result = outcome.unwrap_or_else(|e| {
        eprintln!("synthesis failed: {e}");
        std::process::exit(1)
    });

    if let Err(violations) = verify(&circuit, &device, &result) {
        eprintln!("INTERNAL ERROR: result failed verification: {violations:?}");
        std::process::exit(1);
    }
    println!(
        "depth {}  swaps {}  (verified)",
        result.depth,
        result.swap_count()
    );
    if let Some(path) = output {
        let physical = emit_physical_circuit(&circuit, &device, &result).decompose_swaps();
        let text = write_qasm(&physical);
        if path == "-" {
            print!("{text}");
        } else {
            std::fs::write(&path, text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote physical circuit to {path}");
        }
    }
}
