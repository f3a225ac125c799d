//! # rtds-core — the RTDS protocol (the paper's contribution)
//!
//! This crate implements the Real-Time Distributed Scheduling algorithm of
//! Butelle, Finta and Hakem (IPPS 2007) on top of the substrates provided by
//! the sibling crates (`rtds-graph`, `rtds-net`, `rtds-sim`, `rtds-sched`):
//!
//! * [`pcs`] — §7: distributed construction of the **Potential Computing
//!   Sphere** by an interrupted, phase-synchronous Bellman–Ford exchange,
//! * [`acs`] — §8: enrollment of the **Available Computing Sphere** with
//!   per-site locks and surplus collection,
//! * [`mapper`] — §9/§12: the list-scheduling **Mapper** (critical-path
//!   priority, earliest-finish-time processor selection, surplus-scaled
//!   durations, diameter-over-estimated communication delays), producing the
//!   schedules `S` and `S*`,
//! * [`adjust`] — §12.2: derivation and adjustment of per-task releases and
//!   deadlines (equations (1)–(5), cases (i)–(iii), laxity scattering and the
//!   §13 busyness-weighted variant),
//! * [`matching`] — §10: Hopcroft–Karp maximum bipartite matching used to
//!   compute the validation *coupling*,
//! * [`validate`] — §10: per-site validation of logical-processor task sets
//!   and extraction of the execution permutation,
//! * [`node`] — the per-site protocol state machine tying it all together
//!   over the discrete-event simulator,
//! * [`system`] — [`RtdsSystem`]: a one-call deployment used by the examples,
//!   integration tests and the experiment harness,
//! * [`streaming`] — the one run loop: jobs pulled on demand from a
//!   [`streaming::JobSource`], committed reservations pruned behind the
//!   clock, an aggregate [`streaming::StreamReport`] — memory bounded by
//!   in-flight work (the workload generators and trace record/replay live
//!   in the `rtds-workload` crate); a batch run is a stream of the
//!   submitted jobs plus a per-job sink,
//! * [`analysis`] — Gantt/Table extraction used to regenerate the paper's
//!   Figs. 3–4 and Table 1.

pub mod acs;
pub mod adjust;
pub mod analysis;
pub mod config;
pub mod mapper;
pub mod matching;
pub mod messages;
pub mod node;
pub mod pcs;
pub mod snapshot;
pub mod streaming;
pub mod system;
pub mod validate;
mod workspace;

pub use adjust::{adjust_mapping, AdjustCase, AdjustOutcome};
pub use analysis::{gantt_rows, table1_rows, GanttRow, Table1Row};
pub use config::{DemandRule, LaxityDispatch, RtdsConfig};
pub use mapper::{map_dag, MapperInput, MapperResult, ProcessorSpec};
pub use matching::{BipartiteCsr, MatchScratch};
pub use messages::{RtdsMsg, TaskSpec};
pub use node::{NodeBuilder, RtdsNode};
pub use streaming::{JobSource, StreamOptions, StreamPause, StreamReport, StreamRun};
pub use system::{JobOutcomeKind, JobReport, RtdsSystem};
