//! The OLSQ2 performance ledger: one benchmark from QASM in to verified
//! optimal layout out.
//!
//! ```text
//! cargo run --release --manifest-path perf-ledger/Cargo.toml -- \
//!     --workload <depth|swaps|device-scale|service> [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Each workload drives its inputs through the public calls a user's
//! pipeline makes and times every call from outside. An untimed warm-up
//! pass comes first. With `--trace 0` the run then measures the end-to-end
//! metrics with tracing off; with `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics, the tracing overhead
//! and one row per instance. Every time is scaled to the reference host by
//! the yardstick walks around it (`yardstick.rs`). Every answer is
//! checked; the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod corpus;
mod environment;
mod layers;
mod service;
mod stats;
mod synth;
mod yardstick;

use corpus::{Expected, Instance, Workload};
use layers::{attribute, Layers};
use olsq2::Recorder;
use olsq2_service::json::{object, Json};
use stats::{geomean, median, quartiles, tail};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use yardstick::{Yardstick, REFERENCE_S};

const USAGE: &str = "usage: perf-ledger --workload <depth|swaps|device-scale|service> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Set-up runs at least `SETUP_REPEATS` times and for at least
/// `SETUP_MIN_S` seconds; its median is `setup_s`. Most repetitions then
/// run warm, so the slow first ones of a freshly started process do not
/// move the median.
const SETUP_REPEATS: usize = 15;
const SETUP_MIN_S: f64 = 0.2;

/// A tail percentile must leave at least this many samples beyond it.
const TAIL_BEYOND: usize = 10;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run found: operations attempted and failed, named problems, the
/// metrics in print order, and notes and rows that qualify them.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    problems: BTreeSet<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    rows: Vec<String>,
    workers: Option<usize>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts one operation, failed when `why` is set.
    fn count(&mut self, what: &str, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            self.problems.insert(format!("{what}: {why}"));
        }
    }

    /// Notes how far the yardstick scaled the run's times.
    fn note_scales(&mut self, scales: &[f64]) {
        let lo = scales.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scales.iter().copied().fold(0.0, f64::max);
        self.notes.push(format!(
            "times are scaled to a host where one yardstick walk takes {:.2} ms: \
             median factor {:.3}, from {lo:.3} to {hi:.3} over {} measurements",
            REFERENCE_S * 1e3,
            median(scales).unwrap_or(f64::NAN),
            scales.len()
        ));
    }
}

/// Runs `setup` repeatedly between two yardstick walks; returns the median
/// seconds, scaled, and the last result. Earlier results are dropped
/// outside the timed region.
fn timed_setup<T>(yard: &Yardstick, mut setup: impl FnMut() -> T) -> (f64, T) {
    let ((mid, last), scale) = yard.scaled(|| {
        let mut times = Vec::new();
        let mut last = None;
        while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_S {
            drop(last.take());
            let start = Instant::now();
            last = Some(setup());
            times.push(start.elapsed().as_secs_f64());
        }
        (median(&times).expect("set-up ran"), last.expect("set-up ran"))
    });
    (mid * scale, last)
}

/// Whether `pass` (counted from 0) runs traced: with `--trace 1` passes
/// alternate, starting untraced.
fn traced_pass(args: &Args, pass: usize) -> bool {
    args.trace && pass % 2 == 1
}

fn done(args: &Args, pass: usize, start: Instant) -> bool {
    let min_passes = if args.trace { 2 } else { 1 };
    pass >= min_passes && start.elapsed().as_secs_f64() >= args.seconds
}

/// The median, or 0 for no samples (a layer the run never entered).
fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The end-to-end latency metrics shared by every workload, from one
/// median time per instance (or job).
fn put_latencies(r: &mut Report, per_item: &[f64], total_s: f64, throughput: f64, what: &str) {
    let t = tail(per_item, TAIL_BEYOND).expect("at least one instance");
    r.put("total_s", total_s, "s");
    r.put("geomean_s", geomean(per_item).unwrap_or(f64::NAN), "s");
    r.put("jobs_per_s", throughput, "1/s");
    r.put("job_p50_s", median(per_item).expect("instances"), "s");
    r.put("job_tail_s", t.value, "s");
    r.notes.push(format!(
        "job_tail_s is p{:.2} of {} per-{what} medians (the highest percentile with {TAIL_BEYOND} beyond it, else the maximum)",
        t.percentile, t.samples
    ));
}

/// Per-layer metrics of a set of layer totals: `times` reduces one time
/// field over groups and traced passes, `counts` holds the summed count
/// fields of one traced pass.
fn put_layers(r: &mut Report, times: &dyn Fn(fn(&Layers) -> f64) -> f64, counts: &Layers) {
    let solve_s = times(|l| l.solve_s);
    r.put("circuit.parse_s", times(|l| l.parse_s), "s");
    r.put("circuit.dag_s", times(|l| l.dag_s), "s");
    r.put("encode.build_s", times(|l| l.build_s), "s");
    r.put("encode.builds", counts.builds as f64, "count");
    r.put("encode.extend_s", times(|l| l.extend_s), "s");
    r.put("encode.bound_s", times(|l| l.bound_s), "s");
    r.put("encode.vars", counts.vars as f64, "count");
    r.put("encode.clauses", counts.clauses as f64, "count");
    let family_metrics = [
        "encode.clauses.mapping",
        "encode.clauses.dependency",
        "encode.clauses.swap",
        "encode.clauses.scheduling",
        "encode.clauses.transition",
        "encode.clauses.cardinality",
    ];
    for (name, clauses) in family_metrics.into_iter().zip(counts.family_clauses) {
        r.put(name, clauses as f64, "count");
    }
    r.put("sat.solve_s", solve_s, "s");
    r.put("sat.unsat_s", times(|l| l.unsat_s), "s");
    r.put("sat.probes", counts.probes as f64, "count");
    r.put("sat.probes_unsat", counts.probes_unsat as f64, "count");
    r.put("sat.conflicts", counts.conflicts as f64, "count");
    r.put("sat.decisions", counts.decisions as f64, "count");
    r.put("sat.propagations", counts.propagations as f64, "count");
    let props_per_s = if solve_s > 0.0 {
        counts.propagations as f64 / solve_s
    } else {
        0.0
    };
    r.put("sat.props_per_s", props_per_s, "1/s");
    r.put("driver.self_s", times(|l| l.driver_s), "s");
    r.put("layout.verify_s", times(|l| l.verify_s), "s");
    r.put("layout.emit_s", times(|l| l.emit_s), "s");
}

/// Sums the count fields of several groups (instances or jobs).
fn sum_counts<'a>(groups: impl IntoIterator<Item = &'a Layers>) -> Layers {
    let mut s = Layers::default();
    for l in groups {
        s.builds += l.builds;
        s.probes += l.probes;
        s.probes_sat += l.probes_sat;
        s.probes_unsat += l.probes_unsat;
        s.conflicts += l.conflicts;
        s.decisions += l.decisions;
        s.propagations += l.propagations;
        s.vars += l.vars;
        s.clauses += l.clauses;
        for (a, b) in s.family_clauses.iter_mut().zip(l.family_clauses) {
            *a += b;
        }
    }
    s
}

/// The service-only per-layer metrics, zero on the synthesis workloads.
const SERVICE_LAYERS: [(&str, &str); 7] = [
    ("service.parse_s", "s"),
    ("service.serialize_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.hit_ratio", "fraction"),
    ("service.hit_s", "s"),
    ("service.miss_s", "s"),
    ("service.busy_frac", "fraction"),
];

fn layer_counts(l: &Layers) -> (u64, u64, u64) {
    (l.conflicts, l.propagations, l.clauses)
}

/// Runs one instance between two yardstick walks and scales its time.
/// Returns the run and the factor, for the layers of a traced run.
fn scaled_run(
    yard: &Yardstick,
    inst: &Instance,
    expected: &Expected,
    recorder: &Recorder,
) -> (synth::Run, f64) {
    let (mut run, scale) = yard.scaled(|| synth::run_instance(inst, expected, recorder));
    run.wall_s *= scale;
    (run, scale)
}

fn run_synthesis(args: &Args, expected: &Expected, yard: &Yardstick) -> Report {
    let (setup_s, instances) = timed_setup(yard, || {
        corpus::synthesis_instances(args.workload, args.seed)
    });
    let n = instances.len();
    // One untimed pass first, so caches and the allocator are warm when
    // timing starts; its runs are checked like all others.
    let warm: Vec<synth::Run> = instances
        .iter()
        .map(|inst| synth::run_instance(inst, expected, &Recorder::disabled()))
        .collect();
    let mut plain: Vec<Vec<synth::Run>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<(synth::Run, Layers)>> = vec![Vec::new(); n];
    let mut pass_totals = Vec::new();
    let mut raw_totals = Vec::new();
    let mut scales = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while !done(args, pass, start) {
        let tracing = traced_pass(args, pass);
        let recorder = if tracing {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let runs: Vec<(synth::Run, f64)> = instances
            .iter()
            .map(|inst| scaled_run(yard, inst, expected, &recorder))
            .collect();
        scales.extend(runs.iter().map(|&(_, s)| s));
        if tracing {
            let (groups, _) = attribute(&recorder.snapshot(), "instance");
            assert_eq!(groups.len(), n, "one instance span per instance");
            for (slot, ((run, scale), mut layers)) in
                traced.iter_mut().zip(runs.into_iter().zip(groups))
            {
                layers.scale(scale);
                slot.push((run, layers));
            }
        } else {
            pass_totals.push(runs.iter().map(|(r, _)| r.wall_s).sum::<f64>());
            raw_totals.push(runs.iter().map(|(r, s)| r.wall_s / s).sum::<f64>());
            for (slot, (run, _)) in plain.iter_mut().zip(runs) {
                slot.push(run);
            }
        }
        pass += 1;
    }

    let mut r = Report::default();
    for (i, inst) in instances.iter().enumerate() {
        let what = format!("{} {}", inst.tool.name(), inst.label);
        let first = warm[i].counts;
        let first_spans = traced[i].first().map(|(_, l)| layer_counts(l));
        let runs = std::iter::once(&warm[i])
            .chain(&plain[i])
            .map(|run| (run, None))
            .chain(
                traced[i]
                    .iter()
                    .map(|(run, l)| (run, Some(layer_counts(l)))),
            );
        for (run, spans) in runs {
            let why = run
                .failure
                .clone()
                .or_else(|| {
                    (run.counts != first).then(|| {
                        format!(
                            "solver counts {:?} differ from the first run's {first:?}",
                            run.counts
                        )
                    })
                })
                .or_else(|| {
                    (spans.is_some() && spans != first_spans).then(|| {
                        format!(
                            "traced counts {spans:?} differ from the first traced run's {first_spans:?}"
                        )
                    })
                });
            r.count(&what, why);
        }
    }

    let wall_medians: Vec<f64> = plain
        .iter()
        .map(|runs| med(runs.iter().map(|x| x.wall_s)))
        .collect();
    let total_s: f64 = wall_medians.iter().sum();
    if let Some((q1, q3)) = quartiles(&pass_totals) {
        r.notes.push(format!(
            "{} untraced passes after one warm-up pass; per-pass total q1 {q1:.4} s, q3 {q3:.4} s; unscaled median {:.4} s",
            pass_totals.len(),
            med(raw_totals)
        ));
    }
    r.note_scales(&scales);
    if !args.trace {
        r.rows.push(format!(
            "{:<22} {:<8} {:>10} {:>8} {:>5}",
            "instance", "tool", "median_s", "optimum", "runs"
        ));
        for (i, inst) in instances.iter().enumerate() {
            r.rows.push(format!(
                "{:<22} {:<8} {:>10.4} {:>8} {:>5}",
                inst.label,
                inst.tool.name(),
                wall_medians[i],
                warm[i].optimum.map_or("-".to_string(), |o| o.to_string()),
                plain[i].len()
            ));
        }
        put_latencies(
            &mut r,
            &wall_medians,
            total_s,
            n as f64 / total_s,
            "instance",
        );
        let solved = (r.attempted - r.failed) as f64 / r.attempted as f64;
        r.put("solved_frac", solved, "fraction");
        r.put("peak_rss_mb", environment::peak_rss_mb(), "MiB");
        r.put("setup_s", setup_s, "s");
        return r;
    }

    // Per-layer metrics: each instance's median over its traced passes,
    // summed over instances.
    let times = |f: fn(&Layers) -> f64| -> f64 {
        traced
            .iter()
            .map(|runs| med(runs.iter().map(|(_, l)| f(l))))
            .sum()
    };
    let counts = sum_counts(traced.iter().map(|runs| &runs[0].1));
    put_layers(&mut r, &times, &counts);
    for (name, unit) in SERVICE_LAYERS {
        r.put(name, 0.0, unit);
    }
    let traced_total: f64 = traced
        .iter()
        .map(|runs| med(runs.iter().map(|(run, _)| run.wall_s)))
        .sum();
    r.put(
        "trace.overhead_frac",
        (traced_total - total_s) / total_s,
        "fraction",
    );
    let coverage: Vec<f64> = traced
        .iter()
        .map(|runs| med(runs.iter().map(|(_, l)| l.coverage())))
        .collect();
    r.put(
        "trace.coverage_frac",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
        "fraction",
    );
    r.notes.push(format!(
        "{} traced passes; trace.coverage_frac is the lowest per-instance share of wall time the layers account for",
        traced[0].len()
    ));

    r.rows.push(format!(
        "{:<22} {:<8} {:>8} {:>4} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9} {:>6} {:>9} {:>10}",
        "instance",
        "tool",
        "wall_s",
        "opt",
        "probes",
        "builds",
        "encode_s",
        "unsat_s",
        "solve_s",
        "self_s",
        "cover",
        "clauses",
        "conflicts"
    ));
    for (i, inst) in instances.iter().enumerate() {
        let runs = &traced[i];
        let m = |f: fn(&Layers) -> f64| med(runs.iter().map(|(_, l)| f(l)));
        let (run, l) = &runs[0];
        let unknown = l.probes - l.probes_sat - l.probes_unsat;
        r.rows.push(format!(
            "{:<22} {:<8} {:>8.4} {:>4} {:>9} {:>6} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>5.1}% {:>9} {:>10}",
            inst.label,
            inst.tool.name(),
            m(|l| l.wall_s),
            run.optimum.map_or("-".to_string(), |o| o.to_string()),
            format!("{}/{}/{}", l.probes_sat, l.probes_unsat, unknown),
            l.builds,
            m(Layers::encode_s),
            m(|l| l.unsat_s),
            m(|l| l.solve_s),
            m(|l| l.driver_s),
            100.0 * coverage[i],
            l.clauses,
            l.conflicts,
        ));
        if coverage[i] < 0.95 {
            r.notes.push(format!(
                "{} {}: layers cover only {:.1}% of its wall time",
                inst.tool.name(),
                inst.label,
                100.0 * coverage[i]
            ));
        }
    }
    r.rows.push(
        "(probes are sat/unsat/unknown; encode_s is build + extend + bound; self_s is the driver's own time)"
            .to_string(),
    );
    r
}

/// A traced batch: its runs, the layers of each job, and the durations of
/// the benchmark's own top-level spans (`service.parse`, `service.serialize`).
type TracedBatch = (service::BatchRun, Vec<Layers>, Vec<(String, f64)>);

fn run_service(args: &Args, expected: &Expected, yard: &Yardstick) -> Report {
    let (setup_s, (jobs, manifest, service)) = timed_setup(yard, || {
        let (jobs, manifest) = corpus::service_batch(args.seed);
        (jobs, manifest, service::start(Recorder::disabled()))
    });
    // An untimed warm-up batch on the service set-up started; it is checked
    // like all others.
    let warm = service::run_batch(service, &manifest, &jobs, expected);
    let mut plain: Vec<service::BatchRun> = Vec::new();
    let mut traced: Vec<TracedBatch> = Vec::new();
    let mut scales = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while !done(args, pass, start) {
        let tracing = traced_pass(args, pass);
        let recorder = if tracing {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let svc = service::start(recorder.clone());
        let (mut batch, scale) =
            yard.scaled(|| service::run_batch(svc, &manifest, &jobs, expected));
        batch.scale(scale);
        scales.push(scale);
        if tracing {
            let (mut groups, mut others) = attribute(&recorder.snapshot(), "job");
            for layers in &mut groups {
                layers.scale(scale);
            }
            for (_, d) in &mut others {
                *d *= scale;
            }
            traced.push((batch, groups, others));
        } else {
            plain.push(batch);
        }
        pass += 1;
    }

    let mut r = Report::default();
    let workers = warm.workers;
    r.workers = Some(workers);
    let batches: Vec<&service::BatchRun> = std::iter::once(&warm)
        .chain(&plain)
        .chain(traced.iter().map(|(b, ..)| b))
        .collect();
    for (j, job) in jobs.iter().enumerate() {
        let first = batches[0].jobs[j].counts;
        for batch in &batches {
            let run = &batch.jobs[j];
            let drift = (run.counts != first).then(|| {
                format!(
                    "solver counts {:?} differ from the first run's {first:?}",
                    run.counts
                )
            });
            r.count(&format!("job {}", job.name), run.failure.clone().or(drift));
        }
    }
    let per_job = |batches: &[&service::BatchRun], f: fn(&service::JobRun) -> f64| -> Vec<f64> {
        (0..jobs.len())
            .map(|j| med(batches.iter().map(|b| f(&b.jobs[j]))))
            .collect()
    };
    let plain_refs: Vec<&service::BatchRun> = plain.iter().collect();
    let total_s: f64 = per_job(&plain_refs, |j| j.service_s).iter().sum();
    let twins = jobs.iter().filter(|j| j.twin).count();
    r.notes.push(format!(
        "{} jobs per batch ({twins} relabeled twins), {workers} workers, {} untraced batches \
         after one warm-up batch; total_s sums per-job median service time",
        jobs.len(),
        plain.len()
    ));
    r.note_scales(&scales);

    if !args.trace {
        let makespan = med(plain.iter().map(|b| b.makespan_s));
        let latencies = per_job(&plain_refs, |j| j.latency_s);
        put_latencies(
            &mut r,
            &latencies,
            total_s,
            jobs.len() as f64 / makespan,
            "job",
        );
        r.notes.push(format!(
            "jobs_per_s is {} jobs over the median batch makespan {makespan:.4} s",
            jobs.len()
        ));
        let solved = (r.attempted - r.failed) as f64 / r.attempted as f64;
        r.put("solved_frac", solved, "fraction");
        r.put("peak_rss_mb", environment::peak_rss_mb(), "MiB");
        r.put("setup_s", setup_s, "s");
        return r;
    }

    // Per-layer metrics: per traced batch, summed over its jobs; the
    // median over traced batches.
    let times = |f: fn(&Layers) -> f64| -> f64 {
        med(traced
            .iter()
            .map(|(_, groups, _)| groups.iter().map(f).sum::<f64>()))
    };
    let counts = sum_counts(&traced[0].1);
    put_layers(&mut r, &times, &counts);
    let span_s = |name: &str| {
        med(traced.iter().map(|(_, _, others)| {
            others
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, d)| d)
                .sum::<f64>()
        }))
    };
    r.put("service.parse_s", span_s("service.parse"), "s");
    r.put("service.serialize_s", span_s("service.serialize"), "s");
    let traced_jobs = || traced.iter().flat_map(|(b, ..)| b.jobs.iter());
    r.put(
        "service.queue_wait_s",
        med(traced_jobs().map(|j| j.wait_s)),
        "s",
    );
    let hits = traced[0].0.jobs.iter().filter(|j| j.cache_hit).count();
    r.put(
        "service.hit_ratio",
        hits as f64 / jobs.len() as f64,
        "fraction",
    );
    r.notes.push(format!(
        "service.hit_ratio is {hits} hits over {} jobs",
        jobs.len()
    ));
    r.put(
        "service.hit_s",
        med(traced_jobs().filter(|j| j.cache_hit).map(|j| j.service_s)),
        "s",
    );
    r.put(
        "service.miss_s",
        med(traced.iter().map(|(b, ..)| {
            b.jobs
                .iter()
                .filter(|j| !j.cache_hit)
                .map(|j| j.service_s)
                .sum::<f64>()
        })),
        "s",
    );
    r.put(
        "service.busy_frac",
        med(traced.iter().map(|(b, ..)| {
            b.jobs.iter().map(|j| j.service_s).sum::<f64>() / (b.workers as f64 * b.makespan_s)
        })),
        "fraction",
    );
    let traced_refs: Vec<&service::BatchRun> = traced.iter().map(|(b, ..)| b).collect();
    let traced_total: f64 = per_job(&traced_refs, |j| j.service_s).iter().sum();
    r.put(
        "trace.overhead_frac",
        (traced_total - total_s) / total_s,
        "fraction",
    );
    r.put(
        "trace.coverage_frac",
        med(traced.iter().map(|(_, groups, _)| {
            let wall: f64 = groups.iter().map(|l| l.wall_s).sum();
            let own: f64 = groups.iter().map(|l| l.root_self_s).sum();
            1.0 - own / wall
        })),
        "fraction",
    );
    r.notes.push(format!(
        "{} traced batches; trace.coverage_frac is the share of job time inside synthesis layers",
        traced.len()
    ));
    let waits = per_job(&traced_refs, |j| j.wait_s);
    let services = per_job(&traced_refs, |j| j.service_s);
    r.rows.push(format!(
        "{:<34} {:>5} {:>10} {:>10}",
        "job", "hit", "wait_s", "service_s"
    ));
    for (j, job) in jobs.iter().enumerate() {
        r.rows.push(format!(
            "{:<34} {:>5} {:>10.4} {:>10.4}",
            job.name, traced[0].0.jobs[j].cache_hit, waits[j], services[j]
        ));
    }
    r
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let expected = Expected::load();
    let yard = Yardstick::build();
    let report = match args.workload {
        Workload::Service => run_service(&args, &expected, &yard),
        _ => run_synthesis(&args, &expected, &yard),
    };

    for row in &report.rows {
        println!("{row}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for problem in &report.problems {
        println!("FAILED {problem}");
    }
    println!("env {}", environment::record(&args, report.workers));

    let finite = report.metrics.iter().all(|(_, v, _)| v.is_finite());
    let metrics: BTreeMap<String, Json> = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                object([("value", value.into()), ("unit", unit.into())]),
            )
        })
        .collect();
    let correct = report.failed == 0 && report.problems.is_empty() && finite;
    let result = object([
        ("correct", correct.into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{result}");
}
