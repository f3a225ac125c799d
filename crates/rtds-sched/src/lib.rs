//! # rtds-sched — the per-site local scheduler of the RTDS paper
//!
//! Every site runs its own local scheduler (§1, §5): it keeps a *scheduling
//! plan* of task reservations already accepted, answers the §5 local
//! guarantee test ("can all tasks of this DAG be scheduled in-between tasks
//! already accepted, before the deadline?"), answers the §10 validation
//! question ("is this set of tasks with releases and deadlines locally
//! satisfiable?"), and exposes the §2 *surplus* (idle time over an
//! observation window) used by the Mapper to estimate execution durations on
//! remote sites.
//!
//! Modules:
//!
//! * [`interval`] — closed-open time intervals, and the materialising
//!   idle-window subtraction kept as the test oracle of the plan queries,
//! * [`plan`] — [`plan::SchedulePlan`]: committed reservations kept sorted
//!   and disjoint, answered by one lazy idle-gap walk (`O(log R + gaps
//!   walked)`, no allocation): non-preemptive and preemptive insertion,
//!   idle windows, surplus,
//! * [`admission`] — the list-scheduling order of the §5 whole-DAG local
//!   guarantee test,
//! * [`feasibility`] — the §10 per-logical-processor satisfiability test:
//!   its [`feasibility::TaskRequest`] and the EDF placement rule,
//! * [`executor`] — folds committed reservations into per-job completion
//!   times and deadline-miss checks (the run-time side of the computation
//!   processor),
//! * [`resources`] — the multicore site resource model
//!   ([`resources::SiteResources`], per-task [`resources::TaskDemand`] with
//!   amdahl/linear/flat [`resources::SpeedupFn`] laws),
//! * [`scheduler`] — the [`scheduler::Scheduler`] trait over per-core plans
//!   and its one implementation, [`scheduler::SiteScheduler`], in three
//!   kinds: the paper's protocol policy plus HEFT-style and
//!   one-step-lookahead baselines. It is the only way to ask a site the §5
//!   or the §10 question, and there is one placement path behind it: the
//!   `cores = 1, memory = ∞` case *is* the paper's single-plan rule.
//!
//! Trial placements (admission, validation) never copy a plan: they layer a
//! short per-core list of tentative reservations over the committed ones
//! (the private `trial` module) and reuse one per-thread set of buffers.
//!
//! Jobs and task graphs come from [`rtds_graph`]; the admission and
//! satisfiability answers computed here feed the protocol node of
//! [`rtds_core`](../rtds_core/index.html) (§5 local test, §10 validation)
//! and every baseline in
//! [`rtds_baselines`](../rtds_baselines/index.html).

pub mod admission;
pub mod executor;
pub mod feasibility;
pub mod interval;
pub mod plan;
pub mod resources;
pub mod scheduler;
mod trial;

pub use feasibility::TaskRequest;
pub use interval::TimeInterval;
pub use plan::{PlanError, Reservation, SchedulePlan};
pub use resources::{SiteResources, SpeedupFn, TaskDemand};
pub use scheduler::{
    heft_upward_rank, CoreId, DagSchedule, MemHold, Placement, Scheduler, SchedulerKind,
    SiteScheduler,
};
