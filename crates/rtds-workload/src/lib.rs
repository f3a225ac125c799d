//! # rtds-workload — streaming open-loop workloads with trace record/replay
//!
//! The paper's evaluation feeds RTDS a fixed batch of DAG jobs; production
//! traffic is a *stream*. This crate decouples workload generation from the
//! engine so run length is bounded by time, not by how many jobs fit in
//! memory:
//!
//! * [`source`] — composable open-loop arrival processes emitting
//!   `(arrival_time, JobSpec)` lazily from the [`WorkloadSource`] trait:
//!   seeded Poisson, bursty on/off (a two-state Markov-modulated Poisson
//!   process), diurnal rate curves sampled by exact thinning, plus a
//!   time-ordered [`MergedSource`] combinator,
//! * [`spec`] — the compact per-arrival [`JobSpec`] (site, task count,
//!   per-job seed) and heavy-tail [`SizeMix`]es (fixed / uniform / Pareto),
//! * [`trace`] — a deterministic JSONL trace format with `TraceWriter`
//!   (record), [`TraceReader`] (replay) and the [`RecordingSource`] tee;
//!   replaying a recorded trace reproduces the live run's report
//!   byte-for-byte, and re-recording a replay reproduces the trace itself,
//! * [`factory`] — [`JobFactory`]: expands specs into concrete
//!   [`rtds_graph::Job`]s through one reused, per-job-reseeded generator
//!   and feeds them to [`rtds_core::RtdsSystem::run_streaming`], the
//!   bounded-memory execution path (a million-job run keeps only the
//!   in-flight jobs resident).
//!
//! Scenario wiring (the `stream` field on `rtds_scenarios::Scenario` and
//! the diurnal-wave / pareto-burst / replayed-trace registry entries) lives
//! in `rtds-scenarios`; `rtds-exp workloads` (the `rtds-bench` binary) drives
//! million-job runs with `--record`/`--replay`. See `docs/WORKLOADS.md`.
//!
//! The workload trace records *arrivals* (what enters the system); the
//! protocol *span* trace (`rtds-trace`, `docs/TRACING.md`) records what the
//! protocol then did with them. The two compose: `rtds-exp workloads --replay
//! t.jsonl --trace-out spans.jsonl` replays a recorded workload while
//! streaming the causal span trace of its execution.
//!
//! ## Quickstart
//!
//! ```
//! use rtds_workload::{JobFactory, JobTemplate, OpenLoopSpec, RateProcess, SizeMix};
//! use rtds_core::{RtdsConfig, RtdsSystem, StreamOptions};
//! use rtds_net::generators::{grid, DelayDistribution};
//!
//! let spec = OpenLoopSpec {
//!     process: RateProcess::Poisson { rate: 0.4 },
//!     sizes: SizeMix::Uniform { min: 4, max: 10 },
//!     hotspots: 0,
//!     horizon: 120.0,
//!     max_jobs: 0,
//! };
//! let network = grid(3, 3, false, DelayDistribution::Constant(1.0), 1);
//! let mut system = RtdsSystem::new(network, RtdsConfig::default(), 7);
//! let mut jobs = JobFactory::new(spec.build(9, 42), JobTemplate::default());
//! let report = system.run_streaming(&mut jobs, &StreamOptions::default());
//! assert_eq!(report.deadline_misses(), 0);
//! assert!(report.guarantee.submitted > 0);
//! ```

pub mod factory;
pub mod source;
pub mod spec;
pub mod trace;

pub use factory::{materialize, JobFactory, JobTemplate};
pub use source::{MergedSource, OpenLoopSource, OpenLoopSpec, RateProcess, WorkloadSource};
pub use spec::{JobSpec, SizeMix};
pub use trace::{reader_from_string, record_to_string, RecordingSource, TraceReader};
