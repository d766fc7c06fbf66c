//! The synthesis service: a bounded priority queue feeding a fixed pool
//! of worker threads, with per-job deadlines, cooperative cancellation,
//! a canonicalizing result cache, and metrics.
//!
//! No async runtime is involved: workers are plain `std::thread`s, the
//! queue is a mutex-protected ordered map, and job completion is signalled
//! through a condvar on each job's shared state. This matches the
//! synchronous, CPU-bound nature of SAT solving — a solver thread cannot
//! yield anyway, so threads *are* the unit of concurrency.

use crate::cache::{self, CacheStats, CachedResult, ResultCache};
use crate::metrics::{MetricsCollector, ServiceMetrics};
use crate::request::{
    JobHandle, JobOutput, JobShared, JobStatus, Objective, Priority, SynthesisRequest,
};
use olsq2::{
    IncumbentSlot, ModelSeed, Olsq2Synthesizer, SnapshotSlot, SynthesisError, TbOlsq2Synthesizer,
};
use olsq2_layout::LayoutResult;
use olsq2_sat::Stats;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Sizing knobs for a [`SynthesisService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads (minimum 1).
    pub workers: usize,
    /// Maximum number of jobs waiting in the queue; submissions beyond
    /// this are rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Telemetry sink shared by every job the service runs: each job gets
    /// one span (tagged with its id, objective, and queue wait) and, unless
    /// the request carries its own recorder, has this one injected into its
    /// [`olsq2::SynthesisConfig`] so synthesizer iteration spans nest under
    /// the job span. The default disabled recorder records nothing.
    pub recorder: olsq2::Recorder,
    /// Whether jobs may extend encoding windows in place
    /// ([`olsq2::SynthesisConfig::incremental`]). `false` forces every job
    /// onto the rebuild-from-scratch path regardless of its own config.
    pub incremental: bool,
    /// When set, every job gets its own search flight recorder
    /// ([`olsq2::Probe`]): live rings are served over
    /// [`IntrospectionHandle::flight_jsonl`] (and the HTTP
    /// `/flight/<job-id>` route), and jobs that end degraded, cancelled,
    /// or failed dump their ring to [`FlightSettings::dir`].
    pub flight: Option<FlightSettings>,
    /// Opt-in warm restarts for preempted jobs. When `true`, a job cut
    /// short by its deadline or conflict budget publishes an O(memcpy)
    /// snapshot of its solver ([`olsq2::ModelSeed`], captured at the last
    /// root settle) into a per-service store keyed by the *exact*
    /// instance fingerprint — deliberately not the relabeling-invariant
    /// cache key, since a fork replays the template's variable numbering
    /// verbatim. A resubmission of the same instance forks the snapshot
    /// instead of re-encoding, resuming with all learned clauses and
    /// phase/activity state intact. Default `false`.
    pub snapshot_on_preempt: bool,
}

/// Per-job flight-recorder sizing for a service (see
/// [`ServiceConfig::flight`]).
#[derive(Debug, Clone)]
pub struct FlightSettings {
    /// Ring capacity in samples per job.
    pub capacity: usize,
    /// Sampling cadence in conflicts.
    pub every: u64,
    /// Directory for post-mortem dumps (`job-<id>.flight.jsonl`). Jobs
    /// that finish degraded (deadline), cancelled, or failed dump their
    /// ring here; `None` keeps rings in memory only.
    pub dir: Option<std::path::PathBuf>,
}

impl Default for FlightSettings {
    fn default() -> Self {
        FlightSettings {
            capacity: 1024,
            every: 128,
            dir: None,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2);
        ServiceConfig {
            workers,
            queue_capacity: 256,
            cache_capacity: 512,
            recorder: olsq2::Recorder::disabled(),
            incremental: true,
            flight: None,
            snapshot_on_preempt: false,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after jobs drain.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct QueuedJob {
    request: SynthesisRequest,
    shared: Arc<JobShared>,
    submitted_at: Instant,
}

#[derive(Default)]
struct QueueState {
    /// Keyed by `(priority, sequence)`: the first entry is the next job.
    jobs: BTreeMap<(Priority, u64), QueuedJob>,
}

struct ServiceState {
    queue: Mutex<QueueState>,
    available: Condvar,
    metrics: MetricsCollector,
    cache: Option<Mutex<ResultCache>>,
    shutdown: AtomicBool,
    /// Cancel flags of currently running jobs, so shutdown can interrupt
    /// in-flight solves.
    running_flags: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    recorder: olsq2::Recorder,
    incremental: bool,
    flight: Option<FlightSettings>,
    /// Per-job flight rings, keyed by job id; populated only when
    /// [`ServiceConfig::flight`] is set. Rings stay readable after their
    /// job completes (the service instance bounds their lifetime).
    flights: Mutex<HashMap<u64, olsq2::Probe>>,
    snapshot_on_preempt: bool,
    /// Solver snapshots of preempted jobs, keyed by the exact instance
    /// fingerprint ([`ModelSeed::instance_fingerprint`]), bounded by
    /// [`SNAPSHOT_CAPACITY`]. A resubmitted instance forks its entry
    /// instead of re-encoding; a proven-optimal completion retires it.
    snapshots: Mutex<HashMap<u64, ModelSeed>>,
}

/// Entry cap of the preemption-snapshot store; an arbitrary entry is
/// evicted when a new instance arrives at capacity.
const SNAPSHOT_CAPACITY: usize = 32;

/// A synthesis service instance owning its worker pool.
///
/// See the crate docs for an end-to-end example. Dropping the service
/// shuts it down: queued jobs are cancelled, running jobs are interrupted
/// through the solver's stop flag, and all workers are joined.
pub struct SynthesisService {
    state: Arc<ServiceState>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
    queue_capacity: usize,
}

impl std::fmt::Debug for SynthesisService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisService")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.queue_capacity)
            .finish()
    }
}

impl SynthesisService {
    /// Starts a service with the given sizing.
    pub fn start(config: ServiceConfig) -> SynthesisService {
        let state = Arc::new(ServiceState {
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            metrics: MetricsCollector::new(),
            cache: if config.cache_capacity > 0 {
                Some(Mutex::new(ResultCache::new(config.cache_capacity)))
            } else {
                None
            },
            shutdown: AtomicBool::new(false),
            running_flags: Mutex::new(HashMap::new()),
            recorder: config.recorder,
            incremental: config.incremental,
            flight: config.flight,
            flights: Mutex::new(HashMap::new()),
            snapshot_on_preempt: config.snapshot_on_preempt,
            snapshots: Mutex::new(HashMap::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("olsq2-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker thread")
            })
            .collect();
        SynthesisService {
            state,
            workers,
            next_id: AtomicU64::new(0),
            queue_capacity: config.queue_capacity.max(1),
        }
    }

    /// Starts a service with default sizing.
    pub fn start_default() -> SynthesisService {
        SynthesisService::start(ServiceConfig::default())
    }

    /// Submits a request; returns a handle to poll, await, or cancel it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after [`SynthesisService::shutdown`].
    pub fn submit(&self, request: SynthesisRequest) -> Result<JobHandle, SubmitError> {
        if self.state.shutdown.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = request.tenant.clone();
        let shared = JobShared::new();
        let handle = JobHandle {
            id,
            name: request.name.clone(),
            shared: shared.clone(),
        };
        {
            let mut queue = self.state.queue.lock().expect("queue lock");
            if queue.jobs.len() >= self.queue_capacity {
                return Err(SubmitError::QueueFull);
            }
            queue.jobs.insert(
                (request.priority, id),
                QueuedJob {
                    request,
                    shared,
                    submitted_at: Instant::now(),
                },
            );
        }
        self.state.metrics.on_submit(&tenant);
        self.state.available.notify_one();
        Ok(handle)
    }

    /// A metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        let mut m = snapshot_metrics(&self.state);
        m.workers = self.workers.len() as u64;
        m
    }

    /// A cheaply cloneable handle for out-of-band introspection (the HTTP
    /// listener, periodic Prometheus flushers): it reads metrics and
    /// per-job flight rings without borrowing the service, so it can live
    /// on other threads while jobs run.
    pub fn introspection(&self) -> IntrospectionHandle {
        IntrospectionHandle {
            state: self.state.clone(),
            workers: self.workers.len() as u64,
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The service's shared telemetry recorder (the one passed in through
    /// [`ServiceConfig::recorder`]); disabled unless the caller enabled it.
    pub fn recorder(&self) -> &olsq2::Recorder {
        &self.state.recorder
    }

    /// The current metrics snapshot plus recorder counters in Prometheus
    /// text exposition format. See [`crate::metrics::prometheus_text`].
    pub fn prometheus_text(&self) -> String {
        crate::metrics::prometheus_text(&self.metrics(), &self.state.recorder)
    }

    /// Stops the service: rejects new submissions, cancels queued jobs,
    /// interrupts running jobs through the solver stop flag, and joins the
    /// workers. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.state.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        {
            let mut queue = self.state.queue.lock().expect("queue lock");
            for (_, job) in std::mem::take(&mut queue.jobs) {
                self.state.metrics.on_cancel_queued(&job.request.tenant);
                job.shared.set_status(JobStatus::Cancelled);
            }
        }
        for flag in self
            .state
            .running_flags
            .lock()
            .expect("running flags lock")
            .values()
        {
            flag.store(true, Ordering::Relaxed);
        }
        self.state.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for SynthesisService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads service metrics and per-job flight rings without borrowing the
/// service; see [`SynthesisService::introspection`].
#[derive(Clone)]
pub struct IntrospectionHandle {
    state: Arc<ServiceState>,
    workers: u64,
}

impl std::fmt::Debug for IntrospectionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntrospectionHandle")
            .field("workers", &self.workers)
            .finish()
    }
}

impl IntrospectionHandle {
    /// A metrics snapshot, sampled at call time.
    pub fn metrics(&self) -> ServiceMetrics {
        let mut m = snapshot_metrics(&self.state);
        m.workers = self.workers;
        m
    }

    /// The metrics snapshot plus recorder counters/histograms in
    /// Prometheus text exposition format, sampled at call time.
    pub fn prometheus_text(&self) -> String {
        crate::metrics::prometheus_text(&self.metrics(), &self.state.recorder)
    }

    /// The flight ring of the given job as versioned JSONL; `None` when
    /// the job is unknown or the service runs without
    /// [`ServiceConfig::flight`].
    pub fn flight_jsonl(&self, job_id: u64) -> Option<String> {
        let probe = self
            .state
            .flights
            .lock()
            .expect("flights lock")
            .get(&job_id)
            .cloned()?;
        Some(probe.to_jsonl())
    }
}

fn snapshot_metrics(state: &ServiceState) -> ServiceMetrics {
    let cache_stats = match &state.cache {
        Some(cache) => cache.lock().expect("cache lock").stats(),
        None => CacheStats::default(),
    };
    state.metrics.snapshot(cache_stats)
}

fn worker_loop(state: &ServiceState) {
    loop {
        let (id, job) = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if state.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some((&key, _)) = queue.jobs.iter().next() {
                    let job = queue.jobs.remove(&key).expect("present");
                    break (key.1, job);
                }
                queue = state.available.wait(queue).expect("queue lock");
            }
        };
        if job.shared.cancel.load(Ordering::Relaxed) {
            // Metrics before status: `wait()` returns the moment the
            // status turns terminal, and callers may read metrics then.
            state.metrics.on_cancel_queued(&job.request.tenant);
            job.shared.set_status(JobStatus::Cancelled);
            continue;
        }
        state.metrics.on_dequeue();
        state
            .running_flags
            .lock()
            .expect("running flags lock")
            .insert(id, job.shared.cancel.clone());
        run_job(state, id, &job);
        state
            .running_flags
            .lock()
            .expect("running flags lock")
            .remove(&id);
    }
}

fn run_job(state: &ServiceState, id: u64, job: &QueuedJob) {
    let picked_at = Instant::now();
    let wait = picked_at - job.submitted_at;
    job.shared.set_status(JobStatus::Running);
    let request = &job.request;
    let tenant = request.tenant.as_str();

    // Arm the job's flight recorder before any solver exists, so the ring
    // is registered (and scrapeable over `/flight/<job-id>`) for the
    // job's whole run.
    let flight_probe = state.flight.as_ref().map(|settings| {
        let probe = olsq2::Probe::new(settings.capacity, settings.every);
        state
            .flights
            .lock()
            .expect("flights lock")
            .insert(id, probe.clone());
        probe
    });
    // Post-mortem dump for jobs that did not complete cleanly: deadline
    // degradation, cancellation, and failure all leave the ring's last
    // window on disk when a dump directory is configured.
    let dump_flight = |why: &str| {
        let (Some(probe), Some(settings)) = (&flight_probe, &state.flight) else {
            return;
        };
        let Some(dir) = &settings.dir else { return };
        let path = dir.join(format!("job-{id}.flight.jsonl"));
        if let Err(e) = probe.write_jsonl(&path) {
            eprintln!("cannot write flight dump for {why} job {id}: {e}");
        }
    };

    // One span per job; synthesizer spans opened on this worker thread
    // nest under it automatically.
    let span = state.recorder.span("job");
    span.set("job_id", id);
    span.set("name", request.name.as_str());
    span.set("objective", request.objective.name());
    span.set("priority", request.priority.name());
    span.set("queue_wait_us", wait.as_micros() as u64);

    // Cache lookup under the canonical key.
    let canonical = state.cache.as_ref().map(|_| {
        cache::canonicalize(
            &request.circuit,
            &request.device,
            &request.config,
            request.objective,
        )
    });
    if let (Some(cache_mutex), Some(canonical)) = (&state.cache, &canonical) {
        let hit = cache_mutex.lock().expect("cache lock").get(&canonical.key);
        if let Some(entry) = hit {
            let result = cache::translate_hit(&entry.result, &canonical.relabel);
            let output = JobOutput {
                result,
                proven_optimal: entry.proven_optimal,
                degraded: false,
                cache_hit: true,
                wait,
                service_time: picked_at.elapsed(),
                solver_stats: None,
            };
            state
                .metrics
                .on_done(job.submitted_at.elapsed(), false, None, tenant);
            span.set("cache_hit", true);
            span.set("status", "done");
            // Close the span before the status turns terminal: `wait()`
            // returns the instant it does, and the caller may snapshot
            // the recorder right away.
            drop(span);
            job.shared.set_status(JobStatus::Done(Box::new(output)));
            return;
        }
    }

    // Arm the per-job budget and reporting hooks.
    let mut config = request.config.clone();
    config.incremental = config.incremental && state.incremental;
    config.stop_flag = Some(job.shared.cancel.clone());
    if !config.recorder.is_enabled() {
        config.recorder = state.recorder.clone();
    }
    let incumbent = IncumbentSlot::new();
    config.incumbent = Some(incumbent.clone());
    if let Some(probe) = &flight_probe {
        config.probe = probe.clone();
    }
    config.time_budget = match (config.time_budget, request.deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    // Snapshot-on-preempt: resume this instance from a prior preempted
    // run's solver fork if one is stored, and arm a slot so this run can
    // publish its own snapshot if it too gets cut short. Keyed by the
    // exact instance fingerprint, not the relabeling-invariant cache key
    // — forks replay the template's variable numbering verbatim.
    let snapshot_key = state
        .snapshot_on_preempt
        .then(|| ModelSeed::instance_fingerprint(&request.circuit, &request.device, &config));
    let snapshot_slot = snapshot_key.map(|key| {
        let stored = state
            .snapshots
            .lock()
            .expect("snapshots lock")
            .get(&key)
            .cloned();
        if let Some(seed) = stored {
            span.set("snapshot_resume", true);
            config.model_seed = Some(seed);
        }
        let slot = SnapshotSlot::new();
        config.snapshot_slot = Some(slot.clone());
        slot
    });
    let stash_snapshot = |retire: bool| {
        let (Some(slot), Some(key)) = (&snapshot_slot, snapshot_key) else {
            return;
        };
        let mut store = state.snapshots.lock().expect("snapshots lock");
        if retire {
            store.remove(&key);
            return;
        }
        if let Some(seed) = slot.take() {
            if store.len() >= SNAPSHOT_CAPACITY && !store.contains_key(&key) {
                if let Some(evict) = store.keys().next().copied() {
                    store.remove(&evict);
                }
            }
            store.insert(key, seed);
        }
    };

    let solved = solve(request, config);
    let latency = job.submitted_at.elapsed();
    let service_time = picked_at.elapsed();

    match solved {
        Ok((result, proven_optimal, stats, extensions)) => {
            // A proven-optimal completion retires the instance's stored
            // snapshot; a degraded one publishes the fresher state the
            // budget hooks captured at the last root settle.
            stash_snapshot(proven_optimal);
            state.metrics.on_extensions(extensions as u64);
            // `proven_optimal == false` on an Ok outcome means the budget
            // machinery (deadline, conflict budget, or cancel) cut the
            // optimization short and the loop kept its best-so-far — the
            // graceful-degradation contract.
            let degraded = !proven_optimal;
            if proven_optimal {
                if let (Some(cache_mutex), Some(canonical)) = (&state.cache, &canonical) {
                    // Store in canonical qubit space: canonical qubit
                    // `relabel[q]` sits where request qubit `q` was mapped.
                    let mut canon_mapping = vec![0u16; result.initial_mapping.len()];
                    for (q, &c) in canonical.relabel.iter().enumerate() {
                        canon_mapping[c as usize] = result.initial_mapping[q];
                    }
                    let mut canon_result = result.clone();
                    canon_result.initial_mapping = canon_mapping;
                    cache_mutex.lock().expect("cache lock").insert(
                        canonical.key.clone(),
                        CachedResult {
                            result: canon_result,
                            proven_optimal,
                        },
                    );
                }
            }
            let output = JobOutput {
                result,
                proven_optimal,
                degraded,
                cache_hit: false,
                wait,
                service_time,
                solver_stats: Some(stats),
            };
            state
                .metrics
                .on_done(latency, degraded, output.solver_stats.as_ref(), tenant);
            span.set("status", "done");
            span.set("degraded", degraded);
            drop(span);
            if degraded {
                dump_flight("degraded");
            }
            job.shared.set_status(JobStatus::Done(Box::new(output)));
        }
        Err(SynthesisError::BudgetExhausted) => {
            stash_snapshot(false);
            if job.shared.cancel.load(Ordering::Relaxed) {
                state.metrics.on_cancel_running(tenant);
                span.set("status", "cancelled");
                drop(span);
                dump_flight("cancelled");
                job.shared.set_status(JobStatus::Cancelled);
            } else if let Some(best) = incumbent.take() {
                // Deadline degradation: return the best-so-far incumbent,
                // tagged non-optimal, instead of an error. Not cached —
                // a degraded answer depends on the deadline, not only on
                // the instance.
                let output = JobOutput {
                    result: best,
                    proven_optimal: false,
                    degraded: true,
                    cache_hit: false,
                    wait,
                    service_time,
                    solver_stats: None,
                };
                state.metrics.on_done(latency, true, None, tenant);
                span.set("status", "done");
                span.set("degraded", true);
                drop(span);
                dump_flight("degraded");
                job.shared.set_status(JobStatus::Done(Box::new(output)));
            } else {
                state.metrics.on_failed(latency, tenant);
                span.set("status", "failed");
                drop(span);
                dump_flight("failed");
                job.shared
                    .set_status(JobStatus::Failed(SynthesisError::BudgetExhausted));
            }
        }
        Err(e) => {
            state.metrics.on_failed(latency, tenant);
            span.set("status", "failed");
            drop(span);
            dump_flight("failed");
            job.shared.set_status(JobStatus::Failed(e));
        }
    }
}

fn solve(
    request: &SynthesisRequest,
    config: olsq2::SynthesisConfig,
) -> Result<(LayoutResult, bool, Stats, usize), SynthesisError> {
    match request.objective {
        Objective::Depth => {
            let out =
                Olsq2Synthesizer::new(config).optimize_depth(&request.circuit, &request.device)?;
            Ok((
                out.result,
                out.proven_optimal,
                out.solver_stats,
                out.extensions,
            ))
        }
        Objective::Swaps => {
            let out =
                Olsq2Synthesizer::new(config).optimize_swaps(&request.circuit, &request.device)?;
            Ok((
                out.best.result,
                out.best.proven_optimal,
                out.best.solver_stats,
                out.best.extensions,
            ))
        }
        Objective::TransitionSwaps => {
            let out = TbOlsq2Synthesizer::new(config)
                .optimize_swaps(&request.circuit, &request.device)?;
            Ok((
                out.outcome.result,
                out.outcome.proven_optimal,
                out.outcome.solver_stats,
                out.outcome.extensions,
            ))
        }
    }
}
