//! # rtds — Real-Time Distributed Scheduling of Precedence Graphs on Arbitrary Wide Networks
//!
//! Facade crate re-exporting the whole RTDS reproduction workspace
//! (Butelle, Finta, Hakem — IPPS 2007). See the individual crates for the
//! detailed documentation:
//!
//! * [`graph`] — the DAG job model (tasks, precedence, critical paths,
//!   workload generators, the paper's Fig. 2 instance),
//! * [`net`] — network topologies, routing tables, the phased distributed
//!   Bellman–Ford of §7 and hop-bounded spheres; links carry a bandwidth
//!   capacity alongside their delay,
//! * [`flow`] — the shared-bandwidth flow-level network model: a
//!   dependency-free max-min fair-share rate solver with event-driven
//!   recomputation, driven by the engine's `FlowStart`/`FlowFinish`
//!   events (see `docs/NETWORK.md`),
//! * [`sim`] — the deterministic discrete-event simulation engine (sites,
//!   messages, sporadic arrivals, statistics),
//! * [`metrics`] — deterministic streaming telemetry: counters, gauges and
//!   log-bucketed histograms whose percentile summaries are byte-identical
//!   across runs and thread counts; every report format renders a registry
//!   as its `metrics` section (see `docs/METRICS.md`),
//! * [`trace`] — causal span tracing: deterministic derived span ids,
//!   typed protocol event payloads, bounded-ring / streaming-JSONL sinks
//!   (`rtds-trace/1`) and a Chrome `about:tracing` exporter; the engine can
//!   also self-profile per-event-class dispatch into the metrics registry
//!   (see `docs/TRACING.md`),
//! * [`sched`] — the per-site local scheduler (§5): reservation plans, idle
//!   intervals, admission tests and surplus, plus the multicore resource
//!   model (`SiteResources`, per-task speedup laws) and the pluggable
//!   `Scheduler` trait with protocol / HEFT / lookahead policies (see
//!   `docs/SCHEDULING.md`),
//! * [`core`] — the RTDS protocol itself: Potential/Available Computing
//!   Spheres, the Mapper, release/deadline adjustment, Trial-Mapping
//!   validation by maximum matching and distributed execution,
//! * [`baselines`] — the comparison policies (local-only, random offload,
//!   broadcast bidding à la focused addressing, global HEFT, centralized
//!   oracle), listed by name in the `BASELINES` table,
//! * [`scenarios`] — the declarative scenario engine: named seeded
//!   scenarios composing topology, workload and fault-injection recipes
//!   (link jitter/failure, partitions, site crashes, message loss), a
//!   built-in registry and a sharded deterministic sweep runner,
//! * [`workload`] — the streaming open-loop workload subsystem: composable
//!   seeded arrival processes (Poisson, bursty on/off, diurnal, heavy-tail
//!   Pareto size mixes), a deterministic JSONL trace format with
//!   record/replay, and the job factory feeding the bounded-memory
//!   streaming execution path (`rtds::core::RtdsSystem::run_streaming`) —
//!   a million-job run keeps only the in-flight jobs resident.
//!
//! Architecture notes with protocol state-machine diagrams live in
//! `docs/ARCHITECTURE.md`; the cost ledger that pins what a fixed suite of
//! runs computes and allocates, and the measurement history, live in
//! `docs/PERFORMANCE.md`; the workload trace format and replay semantics
//! live in `docs/WORKLOADS.md`.
//!
//! ## Quickstart
//!
//! ```
//! use rtds::core::{RtdsConfig, RtdsSystem};
//! use rtds::graph::paper_instance::paper_job;
//! use rtds::graph::JobId;
//! use rtds::net::generators::{ring, DelayDistribution};
//!
//! // A nine-site ring with unit link delays and a sphere radius of 2 hops.
//! let network = ring(9, DelayDistribution::Constant(1.0), 1);
//! let config = RtdsConfig { sphere_radius: 2, ..RtdsConfig::default() };
//! let mut system = RtdsSystem::new(network, config, 7);
//!
//! // Run the paper's worked-example job, arriving at site 0, to quiescence.
//! let (report, jobs) = system.run(vec![paper_job(JobId(1), 0)]);
//! assert_eq!(report.guarantee.submitted, 1);
//! assert!(jobs[0].met_deadline);
//! ```

pub use rtds_baselines as baselines;
pub use rtds_core as core;
pub use rtds_flow as flow;
pub use rtds_graph as graph;
pub use rtds_metrics as metrics;
pub use rtds_net as net;
pub use rtds_scenarios as scenarios;
pub use rtds_sched as sched;
pub use rtds_sim as sim;
pub use rtds_trace as trace;
pub use rtds_workload as workload;
