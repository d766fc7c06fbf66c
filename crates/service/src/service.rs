//! The synthesis service: a bounded priority queue feeding a fixed pool
//! of worker threads, with per-job deadlines, cooperative cancellation,
//! a canonicalizing result cache, single-flight admission, and metrics.
//!
//! No async runtime is involved: workers are plain `std::thread`s, the
//! queue is a mutex-protected ordered map, and job completion is signalled
//! through a condvar on each job's shared state. This matches the
//! synchronous, CPU-bound nature of SAT solving — a solver thread cannot
//! yield anyway, so threads *are* the unit of concurrency.
//!
//! # Admission
//!
//! `submit` canonicalizes a request once ([`cache::canonicalize`]) and
//! routes it one of three ways:
//!
//! * **hit** — the cache holds the answer: the job completes at once;
//! * **follower** — a job of the same key is queued or running: the job
//!   waits for that *leader*. When the leader ends with a proven-optimal
//!   answer, every follower completes from it, translated to its own
//!   qubit labels ([`cache::translate_hit`]), without running the solver;
//! * **leader** — otherwise the job is queued and leads its key.
//!
//! The rules around that:
//!
//! * A leader counts one cache miss; a hit, or a follower completed from
//!   its leader, counts one hit.
//! * A leader that ends without a cacheable answer (degraded, failed,
//!   cancelled or panicked) re-admits its followers in submission order,
//!   so the first becomes the key's new leader. A follower cancelled while
//!   waiting ends `Cancelled` at release; shutdown cancels every follower.
//! * A request with a deadline runs its own solve: it neither follows nor
//!   leads. Its deadline bounds its own solve, not someone else's. A time
//!   or conflict budget in the config is no deadline: it caps the solver
//!   work a job may spend, and a follower spends none.
//! * `cache_capacity: 0` turns coalescing off along with the cache.
//! * Followers count against `queue_capacity` and stay in the `queued`
//!   gauge until released. A follower of higher priority than its
//!   still-queued leader promotes the leader to that priority.
//! * Lock order is `inflight` → `cache` → `queue`; the metrics and job
//!   status locks are leaves. No lock is held while solving.
//!
//! # Panics
//!
//! A panic anywhere in a job's run is caught on its worker: the job ends
//! [`JobStatus::Failed`] with [`SynthesisError::Internal`], its followers
//! are re-admitted, and the worker keeps serving. Every service mutex
//! recovers from poisoning: each update under them leaves the data
//! valid.

use crate::cache::{self, CacheKey, CacheStats, CachedResult, CanonicalRequest, ResultCache};
use crate::metrics::{MetricsCollector, ServiceMetrics};
use crate::request::{
    JobHandle, JobOutput, JobShared, JobStatus, Objective, Priority, SynthesisRequest,
};
use olsq2::{IncumbentSlot, Olsq2Synthesizer, SynthesisError, TbOlsq2Synthesizer};
use olsq2_layout::LayoutResult;
use olsq2_sat::Stats;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Sizing knobs for a [`SynthesisService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads (minimum 1).
    pub workers: usize,
    /// Maximum number of jobs waiting, in the queue or as followers of an
    /// in-flight duplicate; submissions beyond this are rejected with
    /// [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; `0` disables caching and, with
    /// it, the coalescing of in-flight duplicates.
    pub cache_capacity: usize,
    /// Telemetry sink shared by every job the service runs: each job gets
    /// one span (tagged with its id, objective, and queue wait) and, unless
    /// the request carries its own recorder, has this one injected into its
    /// [`olsq2::SynthesisConfig`] so synthesizer iteration spans nest under
    /// the job span. The default disabled recorder records nothing.
    pub recorder: olsq2::Recorder,
    /// When set, every job gets its own search flight recorder
    /// ([`olsq2::Probe`]): live rings are served over
    /// [`IntrospectionHandle::flight_jsonl`] (and the HTTP
    /// `/flight/<job-id>` route), and jobs that end degraded, cancelled,
    /// failed, or panicked dump their ring to [`FlightSettings::dir`].
    pub flight: Option<FlightSettings>,
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
    /// that finish degraded (deadline), cancelled, failed, or panicked
    /// dump their ring here; `None` keeps rings in memory only.
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
            flight: None,
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

/// Locks a service mutex, recovering it if a panicking thread poisoned
/// it: every update the service makes under its locks leaves the data
/// valid, so the guarded value is usable as it stands.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job waiting for a worker or for its leader.
struct QueuedJob {
    id: u64,
    request: SynthesisRequest,
    shared: Arc<JobShared>,
    submitted_at: Instant,
    /// The request's canonical form, computed once at submit; `None`
    /// when the cache is off.
    canonical: Option<CanonicalRequest>,
}

impl QueuedJob {
    /// The key this job leads or follows a solve under: `None` when the
    /// cache is off or the request has a deadline.
    fn flight_key(&self) -> Option<&CacheKey> {
        match &self.canonical {
            Some(canonical) if self.request.deadline.is_none() => Some(&canonical.key),
            _ => None,
        }
    }
}

/// The in-flight solve of one cache key.
struct Flight {
    /// The leader's queue slot; stale once a worker has dequeued it.
    leader: (Priority, u64),
    /// Jobs waiting for the leader's answer, in submission order.
    followers: Vec<QueuedJob>,
}

#[derive(Default)]
struct QueueState {
    /// Keyed by `(priority, id)`: the first entry is the next job.
    jobs: BTreeMap<(Priority, u64), QueuedJob>,
    /// Followers parked in [`ServiceState::inflight`]; together with
    /// `jobs` they fill the queue capacity.
    followers: usize,
}

struct ServiceState {
    /// In-flight solves by cache key, one entry per queued or running
    /// leader.
    inflight: Mutex<HashMap<CacheKey, Flight>>,
    cache: Option<Mutex<ResultCache>>,
    queue: Mutex<QueueState>,
    queue_capacity: usize,
    available: Condvar,
    next_id: AtomicU64,
    metrics: MetricsCollector,
    shutdown: AtomicBool,
    /// Cancel flags of currently running jobs, so shutdown can interrupt
    /// in-flight solves.
    running_flags: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    recorder: olsq2::Recorder,
    flight: Option<FlightSettings>,
    /// Per-job flight rings, keyed by job id; populated only when
    /// [`ServiceConfig::flight`] is set. Rings stay readable after their
    /// job completes (the service instance bounds their lifetime).
    flights: Mutex<HashMap<u64, olsq2::Probe>>,
}

/// A synthesis service instance owning its worker pool.
///
/// See the crate docs for an end-to-end example. Dropping the service
/// shuts it down: queued jobs are cancelled, running jobs are interrupted
/// through the solver's stop flag, and all workers are joined.
pub struct SynthesisService {
    state: Arc<ServiceState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SynthesisService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisService")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.state.queue_capacity)
            .finish()
    }
}

impl SynthesisService {
    /// Starts a service with the given sizing.
    pub fn start(config: ServiceConfig) -> SynthesisService {
        let workers = config.workers.max(1);
        let state = Arc::new(ServiceState::new(config));
        let workers = (0..workers)
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("olsq2-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = state.next_job() {
                            state.execute(job);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        SynthesisService { state, workers }
    }

    /// Starts a service with default sizing.
    pub fn start_default() -> SynthesisService {
        SynthesisService::start(ServiceConfig::default())
    }

    /// Submits a request; returns a handle to poll, await, or cancel it.
    /// The job may complete before this returns (a cache hit).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after [`SynthesisService::shutdown`].
    pub fn submit(&self, request: SynthesisRequest) -> Result<JobHandle, SubmitError> {
        self.state.submit(request)
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

    /// Stops the service: rejects new submissions, cancels queued jobs
    /// and followers, interrupts running jobs through the solver stop
    /// flag, and joins the workers. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.state.stop();
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
    /// the job is unknown, never ran a solve, or the service runs without
    /// [`ServiceConfig::flight`].
    pub fn flight_jsonl(&self, job_id: u64) -> Option<String> {
        let probe = lock(&self.state.flights).get(&job_id).cloned()?;
        Some(probe.to_jsonl())
    }
}

fn snapshot_metrics(state: &ServiceState) -> ServiceMetrics {
    let cache_stats = match &state.cache {
        Some(cache) => lock(cache).stats(),
        None => CacheStats::default(),
    };
    state.metrics.snapshot(cache_stats)
}

impl ServiceState {
    fn new(config: ServiceConfig) -> ServiceState {
        ServiceState {
            inflight: Mutex::new(HashMap::new()),
            cache: (config.cache_capacity > 0)
                .then(|| Mutex::new(ResultCache::new(config.cache_capacity))),
            queue: Mutex::new(QueueState::default()),
            queue_capacity: config.queue_capacity.max(1),
            available: Condvar::new(),
            next_id: AtomicU64::new(0),
            metrics: MetricsCollector::new(),
            shutdown: AtomicBool::new(false),
            running_flags: Mutex::new(HashMap::new()),
            recorder: config.recorder,
            flight: config.flight,
            flights: Mutex::new(HashMap::new()),
        }
    }

    fn submit(&self, request: SynthesisRequest) -> Result<JobHandle, SubmitError> {
        let submitted_at = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let canonical = self.cache.as_ref().map(|_| {
            cache::canonicalize(
                &request.circuit,
                &request.device,
                &request.config,
                request.objective,
            )
        });
        let shared = JobShared::new();
        let handle = JobHandle {
            id,
            name: request.name.clone(),
            shared: shared.clone(),
        };
        let job = QueuedJob {
            id,
            request,
            shared,
            submitted_at,
            canonical,
        };
        self.admit(job, true)?;
        Ok(handle)
    }

    /// Routes a job: answers it from the cache, parks it as a follower of
    /// the in-flight solve of its key, or queues it (as the key's leader
    /// when it has a flight key). A `fresh` job comes from `submit`: it is
    /// checked against the queue capacity and counted by `on_submit`. Any
    /// other job is a follower re-admitted by a leader that ended without
    /// an answer: it still holds a parking slot in
    /// [`QueueState::followers`], and it ends `Cancelled` if it was
    /// cancelled or the service is stopping.
    fn admit(&self, job: QueuedJob, fresh: bool) -> Result<(), SubmitError> {
        let mut inflight = lock(&self.inflight);
        let mut cache = self.cache.as_ref().map(lock);
        let mut queue = lock(&self.queue);
        let stopping = self.shutdown.load(Ordering::Relaxed);
        if fresh && stopping {
            return Err(SubmitError::ShuttingDown);
        }
        let cancelled = !fresh && (stopping || job.shared.cancel.load(Ordering::Relaxed));
        let hit = match (&mut cache, &job.canonical) {
            (Some(cache), Some(canonical)) if !cancelled => cache.lookup(&canonical.key),
            _ => None,
        };
        if fresh && hit.is_none() && queue.jobs.len() + queue.followers >= self.queue_capacity {
            return Err(SubmitError::QueueFull);
        }
        if fresh {
            // Counted before any other thread can see the job, so no
            // completion precedes its submission in the gauges.
            self.metrics.on_submit(&job.request.tenant);
        }

        let flight = match job.flight_key() {
            Some(key) if !cancelled && hit.is_none() => inflight.get_mut(key),
            _ => None,
        };
        // Parking slots: a fresh follower takes one, and a re-admitted
        // follower that does not park again gives its slot back.
        match (fresh, flight.is_some()) {
            (true, true) => queue.followers += 1,
            (false, false) => queue.followers -= 1,
            _ => {}
        }

        if let Some(flight) = flight {
            let priority = job.request.priority;
            if priority < flight.leader.0 {
                // Promote the still-queued leader to its follower's
                // priority; a dequeued leader's slot is simply gone.
                if let Some(mut leader) = queue.jobs.remove(&flight.leader) {
                    leader.request.priority = priority;
                    queue.jobs.insert((priority, flight.leader.1), leader);
                }
                flight.leader.0 = priority;
            }
            flight.followers.push(job);
            return Ok(());
        }
        if let Some(answer) = hit {
            if let Some(cache) = cache.as_mut() {
                cache.record(true);
            }
            drop((queue, cache, inflight));
            self.answer(job, &answer, None);
            return Ok(());
        }
        if cancelled {
            drop((queue, cache, inflight));
            self.cancel_waiting(job);
            return Ok(());
        }

        if let (Some(cache), Some(_)) = (cache.as_mut(), &job.canonical) {
            cache.record(false);
        }
        let slot = (job.request.priority, job.id);
        if let Some(key) = job.flight_key() {
            let flight = Flight {
                leader: slot,
                followers: Vec::new(),
            };
            inflight.insert(key.clone(), flight);
        }
        queue.jobs.insert(slot, job);
        drop((queue, cache, inflight));
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is queued and takes it; `None` once the service
    /// shuts down.
    fn next_job(&self) -> Option<QueuedJob> {
        let mut queue = lock(&self.queue);
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some((_, job)) = queue.jobs.pop_first() {
                return Some(job);
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Runs a dequeued job and publishes its end. A panic anywhere in the
    /// run fails this job only; the calling worker keeps serving.
    fn execute(&self, job: QueuedJob) {
        let tenant = job.request.tenant.as_str();
        if job.shared.cancel.load(Ordering::Relaxed) {
            // Metrics before status: `wait()` returns the moment the
            // status turns terminal, and callers may read metrics then.
            self.metrics.on_cancel_queued(tenant);
            self.finish(job, JobStatus::Cancelled, None);
            return;
        }
        self.metrics.on_dequeue();
        lock(&self.running_flags).insert(job.id, job.shared.cancel.clone());
        let picked_at = Instant::now();
        let wait = picked_at - job.submitted_at;
        job.shared.set_status(JobStatus::Running);
        // Arm the job's flight recorder before any solver exists, so the
        // ring is registered (and scrapeable over `/flight/<job-id>`) for
        // the job's whole run.
        let probe = self.flight.as_ref().map(|settings| {
            let probe = olsq2::Probe::new(settings.capacity, settings.every);
            lock(&self.flights).insert(job.id, probe.clone());
            probe
        });
        // One span per job; synthesizer spans opened on this worker
        // thread nest under it automatically.
        let span = self.job_span(&job, wait);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_job(self, &job, picked_at, wait, &span, probe.as_ref())
        }));
        lock(&self.running_flags).remove(&job.id);
        let (status, answer) = run.unwrap_or_else(|payload| {
            let message = panic_message(payload.as_ref());
            self.metrics.on_failed(job.submitted_at.elapsed(), tenant);
            span.set("status", "failed");
            span.set("panic", message.as_str());
            self.dump_flight(job.id, probe.as_ref(), "panicked");
            (JobStatus::Failed(SynthesisError::Internal(message)), None)
        });
        // Close the span before the status turns terminal: `wait()`
        // returns the instant it does, and the caller may snapshot the
        // recorder right away.
        drop(span);
        self.finish(job, status, answer);
    }

    /// Publishes the end of a dequeued job: retires its flight, caches
    /// its proven-optimal answer (in canonical qubit space), sets its
    /// status, then releases its followers.
    fn finish(&self, job: QueuedJob, status: JobStatus, answer: Option<CachedResult>) {
        let followers = match &job.canonical {
            None => Vec::new(),
            Some(canonical) => {
                // Retire the flight and publish the answer under one
                // in-flight lock: a duplicate admitted meanwhile either
                // joins this flight or hits the cache.
                let mut inflight = lock(&self.inflight);
                let followers = job
                    .flight_key()
                    .and_then(|key| inflight.remove(key))
                    .map_or_else(Vec::new, |flight| flight.followers);
                if let (Some(cache), Some(answer)) = (&self.cache, &answer) {
                    lock(cache).insert(canonical.key.clone(), answer.clone());
                }
                followers
            }
        };
        job.shared.set_status(status);
        let Some(answer) = answer else {
            for follower in followers {
                // A re-admitted follower never errs: it was accepted once.
                let _ = self.admit(follower, false);
            }
            return;
        };
        lock(&self.queue).followers -= followers.len();
        for follower in followers {
            if follower.shared.cancel.load(Ordering::Relaxed) {
                self.cancel_waiting(follower);
            } else {
                if let Some(cache) = &self.cache {
                    lock(cache).record(true);
                }
                self.answer(follower, &answer, Some(job.id));
            }
        }
    }

    /// Completes a job without a solve from a proven-optimal answer in
    /// canonical qubit space: a cache hit at submit (`leader: None`) or a
    /// follower released by its leader.
    fn answer(&self, job: QueuedJob, answer: &CachedResult, leader: Option<u64>) {
        let released = Instant::now();
        let wait = released - job.submitted_at;
        let span = self.job_span(&job, wait);
        if let Some(leader) = leader {
            span.set("leader", leader);
        }
        let relabel = &job.canonical.as_ref().expect("answers need a key").relabel;
        let output = JobOutput {
            result: cache::translate_hit(&answer.result, relabel),
            proven_optimal: answer.proven_optimal,
            degraded: false,
            cache_hit: true,
            wait,
            service_time: released.elapsed(),
            solver_stats: None,
        };
        self.metrics
            .on_release(job.submitted_at.elapsed(), &job.request.tenant);
        span.set("cache_hit", true);
        span.set("status", "done");
        drop(span);
        job.shared.set_status(JobStatus::Done(Box::new(output)));
    }

    /// Ends a job that never ran as `Cancelled`.
    fn cancel_waiting(&self, job: QueuedJob) {
        self.metrics.on_cancel_queued(&job.request.tenant);
        job.shared.set_status(JobStatus::Cancelled);
    }

    /// Rejects new submissions, cancels every waiting job (followers,
    /// then the queue) and raises the stop flag of every running one.
    /// Idempotent.
    fn stop(&self) {
        if self.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        let followers: Vec<QueuedJob> = lock(&self.inflight)
            .drain()
            .flat_map(|(_, flight)| flight.followers)
            .collect();
        // Taking the queue lock after raising the flag also orders this
        // against a worker about to wait: it either sees the flag or is
        // already waiting for the `notify_all` below.
        let queued = {
            let mut queue = lock(&self.queue);
            queue.followers -= followers.len();
            std::mem::take(&mut queue.jobs)
        };
        for job in followers.into_iter().chain(queued.into_values()) {
            self.cancel_waiting(job);
        }
        for flag in lock(&self.running_flags).values() {
            flag.store(true, Ordering::Relaxed);
        }
        self.available.notify_all();
    }

    /// Opens a job's span, tagged with what every job reports.
    fn job_span(&self, job: &QueuedJob, wait: std::time::Duration) -> olsq2_obs::SpanGuard {
        let span = self.recorder.span("job");
        span.set("job_id", job.id);
        span.set("name", job.request.name.as_str());
        span.set("objective", job.request.objective.name());
        span.set("priority", job.request.priority.name());
        span.set("queue_wait_us", wait.as_micros() as u64);
        span
    }

    /// Post-mortem dump of a job's flight ring for a run that did not
    /// complete cleanly, when a dump directory is configured.
    fn dump_flight(&self, id: u64, probe: Option<&olsq2::Probe>, why: &str) {
        let (Some(probe), Some(settings)) = (probe, &self.flight) else {
            return;
        };
        let Some(dir) = &settings.dir else { return };
        let path = dir.join(format!("job-{id}.flight.jsonl"));
        if let Err(e) = probe.write_jsonl(&path) {
            eprintln!("cannot write flight dump for {why} job {id}: {e}");
        }
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "panic with a non-string payload".to_string()),
    }
}

/// Solves a dequeued job and records its end in the metrics and its
/// span. Returns the job's terminal status and, for a proven-optimal
/// answer, that answer in canonical qubit space for the cache and the
/// job's followers.
fn run_job(
    state: &ServiceState,
    job: &QueuedJob,
    picked_at: Instant,
    wait: std::time::Duration,
    span: &olsq2_obs::SpanGuard,
    probe: Option<&olsq2::Probe>,
) -> (JobStatus, Option<CachedResult>) {
    let request = &job.request;
    let tenant = request.tenant.as_str();

    // Arm the per-job budget and reporting hooks.
    let mut config = request.config.clone();
    config.stop_flag = Some(job.shared.cancel.clone());
    if !config.recorder.is_enabled() {
        config.recorder = state.recorder.clone();
    }
    let incumbent = IncumbentSlot::new();
    config.incumbent = Some(incumbent.clone());
    if let Some(probe) = probe {
        config.probe = probe.clone();
    }
    config.time_budget = match (config.time_budget, request.deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    let solved = solve(request, config);
    #[cfg(test)]
    let solved = tests::inject_fault(&request.name, solved);
    let latency = job.submitted_at.elapsed();
    let service_time = picked_at.elapsed();

    match solved {
        Ok((result, proven_optimal, stats, extensions)) => {
            state.metrics.on_extensions(extensions as u64);
            // `proven_optimal == false` on an Ok outcome means the budget
            // machinery (deadline, conflict budget, or cancel) cut the
            // optimization short and the loop kept its best-so-far — the
            // graceful-degradation contract.
            let degraded = !proven_optimal;
            // Only proven optima are shared: stored in canonical qubit
            // space, where canonical qubit `relabel[q]` sits where request
            // qubit `q` was mapped.
            let answer = job
                .canonical
                .as_ref()
                .filter(|_| proven_optimal)
                .map(|canonical| {
                    let mut canon_result = result.clone();
                    for (q, &c) in canonical.relabel.iter().enumerate() {
                        canon_result.initial_mapping[c as usize] = result.initial_mapping[q];
                    }
                    CachedResult {
                        result: canon_result,
                        proven_optimal,
                    }
                });
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
            if degraded {
                state.dump_flight(job.id, probe, "degraded");
            }
            (JobStatus::Done(Box::new(output)), answer)
        }
        Err(SynthesisError::BudgetExhausted) => {
            if job.shared.cancel.load(Ordering::Relaxed) {
                state.metrics.on_cancel_running(tenant);
                span.set("status", "cancelled");
                state.dump_flight(job.id, probe, "cancelled");
                (JobStatus::Cancelled, None)
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
                state.dump_flight(job.id, probe, "degraded");
                (JobStatus::Done(Box::new(output)), None)
            } else {
                state.metrics.on_failed(latency, tenant);
                span.set("status", "failed");
                state.dump_flight(job.id, probe, "failed");
                (JobStatus::Failed(SynthesisError::BudgetExhausted), None)
            }
        }
        Err(e) => {
            state.metrics.on_failed(latency, tenant);
            span.set("status", "failed");
            state.dump_flight(job.id, probe, "failed");
            (JobStatus::Failed(e), None)
        }
    }
}

/// A solve's layout, optimality proof flag, final solver statistics and
/// window extensions.
type Solved = Result<(LayoutResult, bool, Stats, usize), SynthesisError>;

fn solve(request: &SynthesisRequest, config: olsq2::SynthesisConfig) -> Solved {
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

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_arch::line;
    use olsq2_circuit::{Circuit, Gate, GateKind};
    use olsq2_layout::verify;
    use std::time::Duration;

    /// Fault injection into every solve's outcome, keyed by the request
    /// name so it reaches worker threads too: `panic…` panics, `fail…`
    /// fails, and `degrade…` drops the optimality proof.
    pub(super) fn inject_fault(name: &str, solved: Solved) -> Solved {
        if name.starts_with("panic") {
            panic!("injected fault in {name}");
        }
        if name.starts_with("fail") {
            return Err(SynthesisError::WindowExhausted);
        }
        if name.starts_with("degrade") {
            return solved.map(|(result, _, stats, extensions)| (result, false, stats, extensions));
        }
        solved
    }

    const ORIGINAL: &[(u16, u16)] = &[(0, 1), (1, 2)];
    /// `ORIGINAL` under the relabeling 0→2, 1→0, 2→1: the same cache key.
    const TWIN: &[(u16, u16)] = &[(2, 0), (0, 1)];
    const OTHER: &[(u16, u16)] = &[(0, 1), (1, 2), (0, 2)];

    fn chain(pairs: &[(u16, u16)]) -> Circuit {
        let mut c = Circuit::new(3);
        for &(a, b) in pairs {
            c.push(Gate::two(GateKind::Cx, a, b));
        }
        c
    }

    fn request(name: &str, pairs: &[(u16, u16)]) -> SynthesisRequest {
        let mut r = SynthesisRequest::new(name, chain(pairs), line(3), Objective::Depth);
        r.config.swap_duration = 1;
        r
    }

    /// A service state without workers: each test dequeues and runs jobs
    /// itself, so every interleaving is forced rather than timed.
    fn idle_state(queue_capacity: usize, cache_capacity: usize) -> ServiceState {
        ServiceState::new(ServiceConfig {
            workers: 1,
            queue_capacity,
            cache_capacity,
            ..ServiceConfig::default()
        })
    }

    /// Dequeues the next job and runs it on this thread.
    fn run_next(state: &ServiceState) {
        let (_, job) = lock(&state.queue).jobs.pop_first().expect("a queued job");
        state.execute(job);
    }

    /// `(queued jobs, parked followers)`.
    fn waiting(state: &ServiceState) -> (usize, usize) {
        let queue = lock(&state.queue);
        (queue.jobs.len(), queue.followers)
    }

    fn done(handle: &JobHandle) -> Box<JobOutput> {
        match handle.poll() {
            JobStatus::Done(out) => out,
            other => panic!("{}: expected Done, got {other:?}", handle.name()),
        }
    }

    #[test]
    fn follower_completes_from_its_leaders_answer() {
        let state = idle_state(8, 8);
        let leader = state.submit(request("orig", ORIGINAL)).unwrap();
        let twin = state.submit(request("twin", TWIN)).unwrap();
        assert_eq!(
            waiting(&state),
            (1, 1),
            "the twin follows instead of queueing"
        );
        assert!(matches!(twin.poll(), JobStatus::Queued));
        assert_eq!(snapshot_metrics(&state).queued, 2);

        run_next(&state);
        let (a, b) = (done(&leader), done(&twin));
        assert!(!a.cache_hit && a.solver_stats.is_some());
        assert!(b.cache_hit && b.proven_optimal && !b.degraded);
        assert!(b.solver_stats.is_none(), "a follower runs no solver");
        assert_eq!(b.result.depth, a.result.depth);
        assert_eq!(verify(&chain(TWIN), &line(3), &b.result), Ok(()));
        let m = snapshot_metrics(&state);
        assert_eq!((m.cache.hits, m.cache.misses), (1, 1));
        assert_eq!((m.queued, m.running, m.done), (0, 0, 2));
        assert_eq!(waiting(&state), (0, 0));
        assert!(lock(&state.inflight).is_empty());

        // Once the leader is done, a twin is answered at submit.
        let late = state.submit(request("late", TWIN)).unwrap();
        assert!(done(&late).cache_hit);
        assert_eq!(snapshot_metrics(&state).cache.hits, 2);
    }

    #[test]
    fn leader_without_an_answer_readmits_its_followers() {
        for leader_name in ["degrade", "fail", "panic", "cancel"] {
            let state = idle_state(8, 8);
            let leader = state.submit(request(leader_name, ORIGINAL)).unwrap();
            let first = state.submit(request("first", TWIN)).unwrap();
            let second = state.submit(request("second", ORIGINAL)).unwrap();
            assert_eq!(waiting(&state), (1, 2));
            if leader_name == "cancel" {
                leader.cancel();
            }
            run_next(&state);
            match leader.poll() {
                JobStatus::Done(out) if leader_name == "degrade" => assert!(out.degraded),
                JobStatus::Failed(SynthesisError::WindowExhausted) if leader_name == "fail" => {}
                JobStatus::Failed(SynthesisError::Internal(msg)) if leader_name == "panic" => {
                    assert!(msg.contains("injected fault"), "{msg}")
                }
                JobStatus::Cancelled if leader_name == "cancel" => {}
                other => panic!("{leader_name}: unexpected leader end {other:?}"),
            }
            // The first follower leads now, and the second follows it.
            assert_eq!(waiting(&state), (1, 1), "{leader_name}");
            assert!(matches!(first.poll(), JobStatus::Queued));
            run_next(&state);
            let (a, b) = (done(&first), done(&second));
            assert!(!a.cache_hit && b.cache_hit, "{leader_name}");
            assert_eq!(verify(&chain(TWIN), &line(3), &a.result), Ok(()));
            assert_eq!(verify(&chain(ORIGINAL), &line(3), &b.result), Ok(()));
            let m = snapshot_metrics(&state);
            assert_eq!((m.cache.hits, m.cache.misses), (1, 2), "{leader_name}");
            assert_eq!((m.queued, m.running), (0, 0), "{leader_name}");
            assert_eq!(m.done + m.failed + m.cancelled, 3, "{leader_name}");
        }
    }

    #[test]
    fn cancelled_follower_ends_cancelled_at_release() {
        // Released with an answer, and re-admitted after a failure.
        for leader_name in ["orig", "fail"] {
            let state = idle_state(8, 8);
            let leader = state.submit(request(leader_name, ORIGINAL)).unwrap();
            let twin = state.submit(request("twin", TWIN)).unwrap();
            twin.cancel();
            assert!(matches!(twin.poll(), JobStatus::Queued), "ends at release");
            run_next(&state);
            assert!(leader.poll().is_terminal());
            assert!(matches!(twin.poll(), JobStatus::Cancelled), "{leader_name}");
            assert_eq!(
                waiting(&state),
                (0, 0),
                "{leader_name}: nothing left to run"
            );
            let m = snapshot_metrics(&state);
            assert_eq!((m.cancelled, m.queued), (1, 0), "{leader_name}");
            assert_eq!((m.cache.hits, m.cache.misses), (0, 1), "{leader_name}");
        }
    }

    #[test]
    fn shutdown_cancels_followers_and_queued_jobs() {
        let state = idle_state(8, 8);
        let running = state.submit(request("fail-running", OTHER)).unwrap();
        let (_, taken) = lock(&state.queue).jobs.pop_first().expect("queued");
        let leader = state.submit(request("orig", ORIGINAL)).unwrap();
        let twin = state.submit(request("twin", TWIN)).unwrap();
        let running_twin = state.submit(request("other-twin", OTHER)).unwrap();
        assert_eq!(waiting(&state), (1, 2));
        state.stop();
        for handle in [&leader, &twin, &running_twin] {
            assert!(
                matches!(handle.poll(), JobStatus::Cancelled),
                "{}",
                handle.name()
            );
        }
        assert_eq!(waiting(&state), (0, 0));
        assert!(lock(&state.inflight).is_empty());
        // A leader that ends after shutdown has no one left to release.
        state.execute(taken);
        assert!(matches!(running.poll(), JobStatus::Failed(_)));
        let m = snapshot_metrics(&state);
        assert_eq!((m.queued, m.running, m.cancelled, m.failed), (0, 0, 3, 1));
        assert_eq!(
            state.submit(request("late", TWIN)).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn follower_promotes_its_queued_leader() {
        let state = idle_state(8, 8);
        let mut low = request("orig", ORIGINAL);
        low.priority = Priority::Low;
        let leader = state.submit(low).unwrap();
        let other = state.submit(request("other", OTHER)).unwrap();
        let mut low_twin = request("other-twin", OTHER);
        low_twin.priority = Priority::Low;
        state.submit(low_twin).unwrap();
        let mut high = request("twin", TWIN);
        high.priority = Priority::High;
        let twin = state.submit(high).unwrap();
        let slots: Vec<_> = lock(&state.queue).jobs.keys().copied().collect();
        assert_eq!(
            slots,
            vec![
                (Priority::High, leader.id()),
                (Priority::Normal, other.id())
            ],
            "the high follower promotes its leader; the low one leaves its leader alone"
        );
        run_next(&state);
        assert!(done(&twin).cache_hit);
        assert!(matches!(other.poll(), JobStatus::Queued));
    }

    #[test]
    fn followers_count_against_the_queue_capacity() {
        let state = idle_state(2, 8);
        state.submit(request("orig", ORIGINAL)).unwrap();
        let twin = state.submit(request("twin", TWIN)).unwrap();
        let full = |name, pairs| state.submit(request(name, pairs)).unwrap_err();
        assert_eq!(full("twin-2", TWIN), SubmitError::QueueFull);
        assert_eq!(full("other", OTHER), SubmitError::QueueFull);
        run_next(&state);
        assert!(done(&twin).cache_hit);
        // A hit takes no slot: with the queue full again, a twin is still
        // answered at once.
        state.submit(request("other", OTHER)).unwrap();
        state.submit(request("single", &[(0, 2)])).unwrap();
        assert_eq!(waiting(&state), (2, 0));
        let hit = state.submit(request("twin-3", TWIN)).unwrap();
        assert!(done(&hit).cache_hit);
        let m = snapshot_metrics(&state);
        assert_eq!((m.submitted, m.queued), (5, 2));
    }

    #[test]
    fn deadlines_and_a_disabled_cache_opt_out_of_coalescing() {
        let state = idle_state(8, 8);
        let timed = |name, pairs| {
            let mut r = request(name, pairs);
            r.deadline = Some(Duration::from_secs(60));
            r
        };
        state.submit(timed("timed", ORIGINAL)).unwrap();
        // Nothing follows a job with a deadline, so the twin leads its
        // key, and a job with a deadline does not follow that leader...
        state.submit(request("twin", TWIN)).unwrap();
        state.submit(timed("timed-twin", TWIN)).unwrap();
        assert_eq!(waiting(&state), (3, 0));
        // ...while a solver budget in the config is no deadline.
        let mut budgeted = request("budgeted", ORIGINAL);
        budgeted.config.time_budget = Some(Duration::from_secs(60));
        budgeted.config.conflict_budget = Some(1 << 40);
        state.submit(budgeted).unwrap();
        assert_eq!(waiting(&state), (3, 1));
        assert_eq!(lock(&state.inflight).len(), 1);

        let state = idle_state(8, 0);
        state.submit(request("orig", ORIGINAL)).unwrap();
        state.submit(request("twin", TWIN)).unwrap();
        assert_eq!(waiting(&state), (2, 0));
        assert!(lock(&state.inflight).is_empty());
    }

    #[test]
    fn panicking_job_fails_and_its_worker_keeps_serving() {
        let mut service = SynthesisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let doomed = service.submit(request("panic-job", ORIGINAL)).unwrap();
        match doomed.wait() {
            JobStatus::Failed(SynthesisError::Internal(msg)) => {
                assert!(msg.contains("injected fault in panic-job"), "{msg}")
            }
            other => panic!("expected an internal failure, got {other:?}"),
        }
        let next = service.submit(request("after", TWIN)).unwrap();
        next.wait();
        assert!(!done(&next).cache_hit, "nothing was cached");
        let m = service.metrics();
        assert_eq!((m.failed, m.done, m.running, m.queued), (1, 1, 0, 0));
        service.shutdown();
    }

    #[test]
    fn poisoned_service_locks_recover() {
        let state = idle_state(8, 8);
        let poison = |f: &dyn Fn()| assert!(catch_unwind(AssertUnwindSafe(f)).is_err());
        poison(&|| {
            let _queue = lock(&state.queue);
            panic!("poison the queue");
        });
        poison(&|| {
            let _cache = lock(state.cache.as_ref().expect("cache on"));
            panic!("poison the cache");
        });
        assert!(state.queue.is_poisoned());
        let leader = state.submit(request("orig", ORIGINAL)).unwrap();
        run_next(&state);
        assert!(!done(&leader).cache_hit);
        assert_eq!(snapshot_metrics(&state).cache.misses, 1);
    }
}
