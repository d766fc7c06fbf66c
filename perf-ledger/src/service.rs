//! The service workload: one batch of jobs through `SynthesisService`, the
//! way `olsq2 serve-batch` drives it: parse the manifest, submit every job
//! at once, await them all, render one result line per job.

use crate::corpus::{check_optimum, Expected, Job};
use olsq2_service::json::{self, Json};
use olsq2_service::manifest::{parse_manifest, status_to_json};
use olsq2_service::{JobStatus, ServiceConfig, SynthesisService};
use std::time::Instant;

/// One job's run within a batch.
#[derive(Debug, Clone, Default)]
pub struct JobRun {
    /// Submit to terminal status, as the service measured it.
    pub latency_s: f64,
    /// Submit to dequeue.
    pub wait_s: f64,
    /// Dequeue to terminal status.
    pub service_s: f64,
    pub cache_hit: bool,
    /// Conflicts and propagations of the job's final solver (cache misses).
    pub counts: Option<(u64, u64)>,
    pub failure: Option<String>,
}

/// One batch: the jobs' runs and the batch-level times.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// First submit to the last job's terminal status.
    pub makespan_s: f64,
    pub workers: usize,
    pub jobs: Vec<JobRun>,
}

impl BatchRun {
    /// Multiplies every time by `factor`.
    pub fn scale(&mut self, factor: f64) {
        self.makespan_s *= factor;
        for job in &mut self.jobs {
            job.latency_s *= factor;
            job.wait_s *= factor;
            job.service_s *= factor;
        }
    }
}

/// Starts a service with default sizing, recording into `recorder`.
pub fn start(recorder: olsq2::Recorder) -> SynthesisService {
    SynthesisService::start(ServiceConfig {
        recorder,
        ..ServiceConfig::default()
    })
}

/// Runs the batch on `service`, then shuts it down and checks every answer.
pub fn run_batch(
    mut service: SynthesisService,
    manifest: &str,
    jobs: &[Job],
    expected: &Expected,
) -> BatchRun {
    let recorder = service.recorder().clone();
    let workers = service.num_workers();
    let parsed = {
        let _s = recorder.span("service.parse");
        parse_manifest(manifest)
    };
    let requests = match parsed {
        Ok(r) if r.len() == jobs.len() => r,
        other => {
            let why = match other {
                Ok(r) => format!("manifest parsed to {} jobs, not {}", r.len(), jobs.len()),
                Err(e) => format!("parse_manifest: {e}"),
            };
            return BatchRun {
                makespan_s: 0.0,
                workers,
                jobs: vec![
                    JobRun {
                        failure: Some(why),
                        ..JobRun::default()
                    };
                    jobs.len()
                ],
            };
        }
    };
    let inputs: Vec<_> = requests
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.tenant.clone(),
                r.circuit.clone(),
                r.device.clone(),
            )
        })
        .collect();

    let submitted = Instant::now();
    let handles: Vec<_> = requests.into_iter().map(|r| service.submit(r)).collect();
    let statuses: Vec<Option<JobStatus>> = handles
        .iter()
        .map(|h| h.as_ref().ok().map(|h| h.wait()))
        .collect();
    let makespan_s = submitted.elapsed().as_secs_f64();
    let lines: Vec<String> = {
        let _s = recorder.span("service.serialize");
        statuses
            .iter()
            .zip(&inputs)
            .map(|(status, (name, tenant, ..))| match status {
                Some(s) => status_to_json(name, tenant, s).to_string(),
                None => String::new(),
            })
            .collect()
    };
    service.shutdown();

    let runs = jobs
        .iter()
        .zip(&inputs)
        .zip(statuses.iter().zip(&lines))
        .map(|((job, (name, _, circuit, device)), (status, line))| {
            let mut run = JobRun::default();
            let out = match status {
                Some(JobStatus::Done(out)) => out,
                Some(other) => {
                    run.failure = Some(format!("job ended {other:?}"));
                    return run;
                }
                None => {
                    run.failure = Some("submit rejected".to_string());
                    return run;
                }
            };
            run.wait_s = out.wait.as_secs_f64();
            run.service_s = out.service_time.as_secs_f64();
            run.latency_s = run.wait_s + run.service_s;
            run.cache_hit = out.cache_hit;
            run.counts = out
                .solver_stats
                .as_ref()
                .map(|s| (s.conflicts, s.propagations));
            let optimum = job.tool.optimum(&out.result);
            let rendered = json::parse(line).ok();
            let field = |k: &str| rendered.as_ref().and_then(|j| j.get(k)).cloned();
            run.failure = if let Err(v) = olsq2_layout::verify(circuit, device, &out.result) {
                Some(format!("layout fails verify: {v:?}"))
            } else if !out.proven_optimal || out.degraded {
                Some("optimality not proven within budget".to_string())
            } else if out.cache_hit != job.twin {
                Some(format!(
                    "cache_hit {} but the job is {}",
                    out.cache_hit,
                    if job.twin { "a twin" } else { "unique" }
                ))
            } else if field("name") != Some(Json::from(name.as_str()))
                || field("status") != Some(Json::from("done"))
            {
                Some(format!("result line does not render the job: {line}"))
            } else {
                check_optimum(expected, job.tool, &job.label, job.queko_depth, optimum)
            };
            run
        })
        .collect();
    BatchRun {
        makespan_s,
        workers,
        jobs: runs,
    }
}
