//! # olsq2-obs
//!
//! Zero-dependency observability substrate for the OLSQ2 reproduction.
//!
//! The paper's central evidence is *where time goes*: per-iteration SAT
//! solve times under iterative deepening, clause/variable counts per
//! encoding choice, and the split between the refinement loop and the
//! final optimality proof. This crate provides the recording machinery
//! every layer shares:
//!
//! * [`Recorder`] — a cheap-to-clone handle. The default (disabled)
//!   recorder is a `None` behind the handle, so instrumented hot paths
//!   pay a single branch; an enabled recorder buffers everything
//!   in-memory behind one mutex.
//! * **Spans** ([`SpanGuard`]) — named wall-clock intervals with
//!   parent/child hierarchy (per-thread, maintained automatically) and
//!   attached key/value fields.
//! * **Events** — point-in-time structured records (solver restarts,
//!   clause-database reductions), attached to the enclosing span.
//! * **Counters** and **histograms** — monotonic totals and log₂-bucketed
//!   distributions.
//! * [`TraceSnapshot`] — a point-in-time copy of everything recorded,
//!   serializable as JSONL ([`TraceSnapshot::to_jsonl`]) and renderable
//!   as a span-tree report ([`report::render`]).
//! * [`PromText`] — a tiny Prometheus text-format (version 0.0.4) writer
//!   used by the service layer's metrics exposition.
//! * [`Probe`] / [`SearchSample`] — the search **flight recorder**: a
//!   fixed-capacity lock-free ring the SAT solver and cube scheduler
//!   sample into every K conflicts, dumped as
//!   versioned JSONL when a run dies (see [`flight`]).
//! * [`diff`] — A/B trace attribution: align two JSONL traces by their
//!   iteration schedule and classify every per-iteration delta as
//!   encode / solve-throughput / search-divergence (the engine behind
//!   `olsq2 trace-diff`).
//!
//! ## Example
//!
//! ```
//! use olsq2_obs::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let span = rec.span("iteration");
//!     span.set("t_bound", 5u64);
//!     rec.add("solver.conflicts", 42);
//!     rec.event("restart", &[("conflicts", 42u64.into())]);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! assert_eq!(snap.counters["solver.conflicts"], 42);
//! let jsonl = snap.to_jsonl();
//! assert!(jsonl.lines().any(|l| l.contains("\"iteration\"")));
//! ```
//!
//! A disabled recorder records nothing and costs one branch per call:
//!
//! ```
//! use olsq2_obs::Recorder;
//! let rec = Recorder::disabled();
//! let span = rec.span("hot-path");
//! span.set("ignored", 1u64);
//! assert!(rec.snapshot().spans.is_empty());
//! ```
//!
//! ## Well-known counter names
//!
//! Counters are name-keyed and free-form, but the stack agrees on these
//! prefixes so traces from different layers line up:
//!
//! * `sat.*` — per-solve deltas from the CDCL solver: `solves`,
//!   `conflicts`, `decisions`, `propagations`, `restarts`, `reduces`,
//!   `minimized_lits`, and the inprocessing/kernel
//!   telemetry `vivified` (clauses shortened by distillation),
//!   `strengthened` (self-subsumption rewrites applied at level-0
//!   boundaries), `binary_props` (propagations served by the dedicated
//!   binary watch lists), `tier_demotions` (mid-tier learnts demoted to
//!   the deletion pool), and `rephases` (saved-phase resets from the
//!   best trail).
//! * `service.*` — job queue and cache metrics from the service layer.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod flight;
pub mod json;
mod prom;
mod recorder;
pub mod report;
mod trace;

pub use flight::{FlightDump, Probe, SampleSource, SearchSample, FLIGHT_VERSION};
pub use prom::PromText;
pub use recorder::{FieldValue, Recorder, SpanGuard};
pub use trace::{EventData, HistogramSummary, SpanData, TraceSnapshot};
