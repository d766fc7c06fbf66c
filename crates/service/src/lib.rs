//! # olsq2-service
//!
//! Synthesis-as-a-service over the OLSQ2 core: a bounded job queue feeding
//! a fixed worker pool of plain `std` threads (no async runtime), a
//! canonicalizing result cache, per-job deadlines with graceful
//! degradation, and service-level metrics.
//!
//! The paper solves one instance at a time; a compilation service sees
//! *streams* of instances — many of them repeats of each other up to a
//! renaming of program qubits. This crate adds the serving layer:
//!
//! * [`SynthesisService`] — submit [`SynthesisRequest`]s, get
//!   [`JobHandle`]s that can be polled, awaited, or cancelled;
//! * [`ResultCache`] — keyed by a structural hash of the circuit *up to
//!   qubit relabeling*, the device coupling graph, and the
//!   result-relevant configuration, with LRU eviction;
//! * single-flight admission — a request whose key is already queued or
//!   running waits for that solve and completes from its answer instead
//!   of solving again (see [`service`]);
//! * panic containment — a panicking job fails alone, and its worker
//!   keeps serving;
//! * per-job deadlines enforced through the solver's cooperative budget
//!   machinery; on expiry the job returns the best-so-far incumbent
//!   (published by the optimization loops via [`olsq2::IncumbentSlot`])
//!   tagged non-optimal, instead of erroring;
//! * [`ServiceMetrics`] — queue/running/done counters, cache hit rates,
//!   latency percentiles, aggregated solver statistics;
//! * the JSONL manifest format of `olsq2 serve-batch` ([`manifest`]).
//!
//! ## Example
//!
//! ```
//! use olsq2_service::{Objective, ServiceConfig, SynthesisRequest, SynthesisService, JobStatus};
//! use olsq2_arch::line;
//! use olsq2_circuit::{Circuit, Gate, GateKind};
//!
//! let mut service = SynthesisService::start(ServiceConfig {
//!     workers: 2,
//!     ..ServiceConfig::default()
//! });
//!
//! let mut circuit = Circuit::new(3);
//! circuit.push(Gate::two(GateKind::Cx, 0, 1));
//! circuit.push(Gate::two(GateKind::Cx, 1, 2));
//! let mut request =
//!     SynthesisRequest::new("demo", circuit.clone(), line(3), Objective::Depth);
//! request.config.swap_duration = 1;
//!
//! // Submit the job twice: the second run is answered from the cache.
//! let first = service.submit(request.clone()).unwrap().wait();
//! let second = service.submit(request).unwrap().wait();
//! let (JobStatus::Done(a), JobStatus::Done(b)) = (first, second) else {
//!     panic!("both jobs complete")
//! };
//! assert!(!a.cache_hit);
//! assert!(b.cache_hit);
//! assert_eq!(a.result.depth, b.result.depth);
//! assert_eq!(service.metrics().cache.hits, 1);
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod http;
pub mod manifest;
pub mod metrics;
pub mod request;
pub mod service;

/// The JSON reader/writer of manifest and result lines, shared with the
/// trace and flight-dump readers of `olsq2-obs`.
pub use olsq2_obs::json;

pub use cache::{CacheKey, CacheStats, CachedResult, ResultCache};
pub use http::IntrospectionServer;
pub use metrics::{prometheus_text, ServiceMetrics, SolverTotals, TenantStats};
pub use request::{JobHandle, JobOutput, JobStatus, Objective, Priority, SynthesisRequest};
pub use service::{
    FlightSettings, IntrospectionHandle, ServiceConfig, SubmitError, SynthesisService,
};
