//! The per-thread workspace behind the §5 local test and the §9–§12 chain.
//!
//! Enrolment, the Mapper, the adjustment and the dispatch all compute over
//! vectors sized by the job or by the sphere. Those vectors live here, once
//! per thread, next to the two workspaces of the same kind that already
//! exist ([`crate::matching::with_matching_workspace`] for the §10 coupling,
//! `rtds_sched`'s scratch for the §5/§10 placement): after warm-up a
//! distribution allocates what it keeps — the in-flight record, the shared
//! `T_i` and the message payloads — and nothing it merely computes.
//!
//! Two rules keep this sound. Workspaces are **per thread, never per site**:
//! a simulation runs on one thread however wide the network is, and a buffer
//! per site is memory that grows with the width for no benefit. And
//! **nothing in a workspace is simulation state**: every user overwrites what
//! it reads, and nothing is carried from one handler to the next.

use crate::acs::AcsMember;
use crate::adjust::Adjustment;
use crate::mapper::{Mapping, ProcessorSpec};
use rtds_net::SiteId;
use rtds_sched::TaskDemand;
use std::cell::RefCell;

/// The buffers of one thread.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// The Mapper's working vectors and its result.
    pub(crate) mapping: Mapping,
    /// The adjustment's working vectors and the adjusted windows.
    pub(crate) adjustment: Adjustment,
    /// The enrolment candidates of a sphere, nearest first.
    pub(crate) peers: Vec<(SiteId, f64)>,
    /// The ACS in Mapper order, and the logical processors it offers.
    pub(crate) members: Vec<AcsMember>,
    pub(crate) processors: Vec<ProcessorSpec>,
    /// The logical processor each task of a mapping runs on.
    pub(crate) logical_of_task: Vec<usize>,
    /// The per-task demands of the §5 local test.
    pub(crate) demands: Vec<TaskDemand>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Runs `f` with this thread's [`Workspace`]. Not re-entrant: `f` receives
/// the only handle, and must return before anything that may start another
/// distribution (releasing a lock re-examines the deferred arrivals) runs.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|workspace| f(&mut workspace.borrow_mut()))
}
