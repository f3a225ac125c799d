//! # rtds-graph — the job model of the RTDS paper
//!
//! A *job* in the RTDS paper (Butelle, Finta, Hakem, IPPS 2007) is a Directed
//! Acyclic Graph `G = (T, E)` of tasks with arbitrary precedence relations.
//! Every task `t` carries a *Computational Complexity* `c(t)` (its execution
//! time on an idle, unit-speed site) and the job as a whole carries a release
//! `r` and a deadline `d`.
//!
//! This crate provides:
//!
//! * [`TaskGraph`] — the precedence structure with cycle detection,
//!   topological orders and structural queries. A graph is built once and
//!   then only read, so its layout is flat: one vector of tasks, one arena
//!   of edges threaded onto both endpoints' lists — a constant number of
//!   allocations whatever the task count, per-task insertion orders kept,
//! * [`critical_path`] — upward/downward ranks and critical-path extraction
//!   (node weights only, exactly as §12 of the paper prescribes for the
//!   Mapper's list-scheduling priority). The orders and ranks a whole
//!   admission or Mapper → Adjust run shares come in `*_into` forms that
//!   fill caller-owned buffers ([`TaskGraph::topological_order_into`],
//!   [`critical_path::upward_ranks_into`]),
//! * [`Job`] — a DAG plus real-time parameters and arrival metadata,
//! * [`generators`] — synthetic workload generators (layered random DAGs,
//!   Erdős–Rényi DAGs, chains, fork-joins, diamonds, trees, Gaussian
//!   elimination, FFT butterflies) with configurable cost, data-volume and
//!   deadline-laxity distributions,
//! * [`paper_instance`] — the exact five-task instance of the paper's Fig. 2,
//!   reconstructed from the published schedules and Table 1.
//!
//! The crate is deliberately free of any scheduling or networking logic so it
//! can be reused by the local scheduler ([`rtds_sched`](../rtds_sched/index.html)),
//! the Mapper and protocol ([`rtds_core`](../rtds_core/index.html)) and the
//! baselines ([`rtds_baselines`](../rtds_baselines/index.html)) alike; the
//! scenario layer ([`rtds_scenarios`](../rtds_scenarios/index.html)) drives
//! [`generators`] to synthesize whole workloads.

pub mod critical_path;
pub mod dag;
pub mod generators;
pub mod job;
pub mod paper_instance;
pub mod task;

pub use critical_path::{
    critical_path_length, critical_path_tasks, downward_ranks, upward_ranks, CriticalPathInfo,
};
pub use dag::{EdgeData, TaskGraph};
pub use generators::DagGenerator;
pub use job::{Job, JobId, JobParams};
pub use task::{Task, TaskId};
