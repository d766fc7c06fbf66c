//! Request and job types of the synthesis service.

use crate::service::lock;
use olsq2::{SynthesisConfig, SynthesisError};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::Circuit;
use olsq2_layout::LayoutResult;
use olsq2_sat::Stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// What the service should optimize for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Depth optimization (§III-B-1), exact time-resolved model.
    Depth,
    /// SWAP-count optimization (§III-B-2), exact model, Pareto descent.
    Swaps,
    /// SWAP-count optimization over the transition-based model (§III-D):
    /// near-optimal and much faster on deep circuits.
    TransitionSwaps,
}

impl Objective {
    /// The manifest/result wire name.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Depth => "depth",
            Objective::Swaps => "swaps",
            Objective::TransitionSwaps => "tb-swaps",
        }
    }

    /// Parses a manifest objective name.
    pub fn parse(name: &str) -> Option<Objective> {
        match name {
            "depth" => Some(Objective::Depth),
            "swaps" => Some(Objective::Swaps),
            "tb-swaps" | "tb" | "transition" => Some(Objective::TransitionSwaps),
            _ => None,
        }
    }
}

/// Scheduling priority of a job. Higher priorities are dequeued first;
/// within one priority jobs run in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default.
    #[default]
    Normal,
    /// Served only when nothing else waits.
    Low,
}

impl Priority {
    /// The manifest wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a manifest priority name.
    pub fn parse(name: &str) -> Option<Priority> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// One unit of work for the service: a circuit to lay out on a device.
#[derive(Debug, Clone)]
pub struct SynthesisRequest {
    /// A caller-chosen label, echoed in results and logs.
    pub name: String,
    /// The tenant (team, pipeline, customer) the job is accounted to.
    /// Per-tenant job counters and latency series appear in
    /// [`crate::ServiceMetrics::tenants`] and as `tenant="..."` labels in
    /// the Prometheus exposition. Defaults to `"default"`.
    pub tenant: String,
    /// The logical circuit.
    pub circuit: Circuit,
    /// The target device.
    pub device: CouplingGraph,
    /// Synthesis configuration (encoding, SWAP duration, …). The service
    /// overrides the budget/reporting hooks (`time_budget` is combined
    /// with [`SynthesisRequest::deadline`], `stop_flag` and `incumbent`
    /// are installed per job).
    pub config: SynthesisConfig,
    /// What to optimize.
    pub objective: Objective,
    /// Per-job wall-clock deadline, measured from the moment a worker
    /// picks the job up. On expiry the job degrades to the best incumbent
    /// found so far (tagged non-optimal) instead of failing, if any
    /// solution was reached. A job with a deadline always runs its own
    /// solve: it never waits for an in-flight duplicate, and none waits
    /// for it.
    pub deadline: Option<Duration>,
    /// Queue priority.
    pub priority: Priority,
}

impl SynthesisRequest {
    /// A request with default configuration, normal priority, no deadline.
    pub fn new(
        name: impl Into<String>,
        circuit: Circuit,
        device: CouplingGraph,
        objective: Objective,
    ) -> SynthesisRequest {
        SynthesisRequest {
            name: name.into(),
            tenant: "default".to_string(),
            circuit,
            device,
            config: SynthesisConfig::default(),
            objective,
            deadline: None,
            priority: Priority::Normal,
        }
    }

    /// Accounts the job to the given tenant (see
    /// [`SynthesisRequest::tenant`]).
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> SynthesisRequest {
        self.tenant = tenant.into();
        self
    }
}

/// The completed payload of a successful (or degraded) job.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The synthesized layout, in the request's qubit naming.
    pub result: LayoutResult,
    /// Whether the result is proven optimal for its objective.
    pub proven_optimal: bool,
    /// `true` when the deadline cut the run short and this is the
    /// best-so-far incumbent rather than a completed optimization.
    pub degraded: bool,
    /// `true` when answered without a solve: from the canonicalizing
    /// cache, or from the in-flight solve of a relabeled duplicate.
    pub cache_hit: bool,
    /// Queue wait, from submission to a worker picking the job up. For a
    /// job answered without a solve it runs from submission to release:
    /// the moment its answer was at hand (at once for a cache hit, when
    /// its leader finished for a follower of an in-flight duplicate).
    pub wait: Duration,
    /// Service time, from pickup (or release) to completion.
    pub service_time: Duration,
    /// Solver statistics (absent on cache hits).
    pub solver_stats: Option<Stats>,
}

/// Observable state of a job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the queue, or for the in-flight solve of a duplicate.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a result (possibly degraded; see
    /// [`JobOutput::degraded`]). Boxed: the payload (layout + solver
    /// stats) dwarfs the other variants.
    Done(Box<JobOutput>),
    /// Synthesis failed.
    Failed(SynthesisError),
    /// Cancelled before completion.
    Cancelled,
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Cancelled
        )
    }
}

pub(crate) struct JobShared {
    pub(crate) status: Mutex<JobStatus>,
    pub(crate) done: Condvar,
    /// Raised by [`JobHandle::cancel`] and by service shutdown; doubles as
    /// the solver's cooperative stop flag while the job runs.
    pub(crate) cancel: Arc<AtomicBool>,
}

impl JobShared {
    pub(crate) fn new() -> Arc<JobShared> {
        Arc::new(JobShared {
            status: Mutex::new(JobStatus::Queued),
            done: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
        })
    }

    pub(crate) fn set_status(&self, status: JobStatus) {
        let mut guard = lock(&self.status);
        *guard = status;
        self.done.notify_all();
    }
}

/// A handle to a submitted job: poll, await, or cancel it.
///
/// Dropping the handle does not cancel the job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) name: String,
    pub(crate) shared: Arc<JobShared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

impl JobHandle {
    /// The service-assigned job id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's current status, without blocking.
    pub fn poll(&self) -> JobStatus {
        lock(&self.shared.status).clone()
    }

    /// Blocks until the job reaches a terminal status and returns it.
    pub fn wait(&self) -> JobStatus {
        let mut guard = lock(&self.shared.status);
        while !guard.is_terminal() {
            guard = self
                .shared
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        guard.clone()
    }

    /// Requests cancellation. A queued job is dropped before it runs, a
    /// follower of an in-flight duplicate when its leader ends; a
    /// running job aborts at the solver's next check point, surfacing as
    /// [`JobStatus::Cancelled`] (or as a degraded [`JobStatus::Done`] if
    /// an incumbent was already found).
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }
}
