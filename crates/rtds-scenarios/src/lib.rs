//! # rtds-scenarios — declarative scenarios, fault injection and sweeps
//!
//! The paper evaluates RTDS on static networks with hand-built workloads;
//! its §13 sketches dynamic networks and sporadic overload without
//! evaluating them. This crate closes that gap with a declarative scenario
//! layer over the simulation engine:
//!
//! * [`spec`] — the [`Scenario`] type: a named, seeded composition of a
//!   topology recipe ([`TopologyRecipe`] + delays + site speeds), a workload
//!   recipe ([`WorkloadRecipe`]: arrival process, DAG family, laxity
//!   tightness) and a protocol configuration,
//! * [`perturb`] — [`PerturbationPlan`]s: link latency jitter, link
//!   failure/recovery, network partitions, site crashes and message loss,
//!   expanded deterministically into the engine's fault hooks
//!   ([`rtds_sim::faults`]),
//! * [`registry`] — ten built-in named scenarios, from the paper baseline
//!   to partition-and-heal and tight-laxity storms,
//! * [`runner`] — a sharded parallel sweep runner: `scenarios × seeds`
//!   fan out over worker threads, and the aggregate guarantee-ratio /
//!   message-overhead / slack report (with its JSON rendering) is
//!   byte-identical for any thread count,
//! * streaming scenarios — a [`Scenario`] may carry a [`StreamRecipe`]
//!   instead of a pre-materialized workload: arrivals are then pulled from
//!   an open-loop `rtds-workload` source (optionally via an in-memory
//!   record/replay round-trip) through the bounded-memory streaming
//!   execution path of `rtds-core`.
//!
//! The deterministic JSON writer behind the reports lives in
//! [`rtds_sim::json`] ([`Json`] is re-exported here).
//!
//! ## Quickstart
//!
//! ```
//! use rtds_scenarios::registry::find_scenario;
//! use rtds_scenarios::runner::{run_sweep, SweepConfig};
//!
//! let scenario = find_scenario("paper-baseline").unwrap();
//! let report = run_sweep(&[scenario], &SweepConfig::new(1, 2, 2));
//! let summary = report.scenario("paper-baseline").unwrap();
//! assert_eq!(summary.total_deadline_misses, 0);
//! assert!(summary.mean_guarantee_ratio > 0.0);
//! ```

pub mod perturb;
pub mod registry;
pub mod runner;
pub mod spec;

pub use perturb::{Perturbation, PerturbationPlan};
pub use registry::{builtin_scenarios, find_scenario};
// Sweep reports render as `Json`; re-exported so their readers need not
// name the engine crate.
pub use rtds_sim::json::Json;
pub use runner::{
    parallel_sweep_sharded, run_cell, run_cell_traced, run_sweep, run_sweep_with, CellReport,
    ScenarioSummary, SweepConfig, SweepReport,
};
pub use spec::{
    mix_seed, ResourceRecipe, Scenario, SpeedRecipe, StreamRecipe, TopologyRecipe, TopologySpec,
    WorkloadRecipe,
};
