//! The RTDS wire protocol.
//!
//! Messages exchanged between the system-management processors of the sites.
//! Each variant corresponds to one arrow of the paper's protocol (§4, §7–§11
//! and Fig. 1):
//!
//! * `RoutingUpdate` — the §7 PCS construction (interrupted Bellman–Ford),
//! * `JobArrival` — a sporadic job arriving at a site (injected externally),
//! * `Enroll` / `EnrollAck` / `EnrollBusy` — the §8 ACS construction.
//!   The paper says a locked site *ignores* further enrollment messages; we
//!   send an explicit negative acknowledgement instead so the initiator can
//!   close its collection round deterministically without a timeout. This is
//!   functionally equivalent (the initiator proceeds with whoever accepted)
//!   and documented in DESIGN.md,
//! * `TrialMapping` / `ValidationReply` — the §10 validation round,
//! * `Permutation` — the §11 dispatch of the selected assignment together
//!   with the task "codes" (here: the task specs to reserve),
//! * `Unlock` — release of the §8 lock, sent to ACS members that were not
//!   selected or whenever the job is rejected after enrollment.

use rtds_graph::{Job, JobId, TaskId};
use rtds_net::routing::RouteEntry;
use rtds_net::SiteId;
use std::sync::Arc;

/// Description of one task of a trial mapping as shipped to a validating /
/// executing site. Durations are *not* included: the receiving site derives
/// the execution time from the raw computational complexity and its own
/// computing power, because the actual occupancy of its computation processor
/// is `cost / speed` regardless of the surplus the Mapper assumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Task id within the job.
    pub task: TaskId,
    /// Adjusted release `r(t)` (absolute time).
    pub release: f64,
    /// Adjusted deadline `d(t)` (absolute time).
    pub deadline: f64,
    /// Raw computational complexity `c(t)`.
    pub cost: f64,
}

/// The protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum RtdsMsg {
    /// One phase of the §7 routing exchange.
    RoutingUpdate {
        /// Phase number (1-based).
        phase: usize,
        /// The sender's current routing-table lines. Shared (`Arc`) because
        /// one phase broadcast sends the *same* snapshot to every neighbor —
        /// cloning the message clones a pointer, not `O(n)` route lines.
        lines: Arc<[RouteEntry]>,
    },
    /// A job arrives at the receiving site (external injection).
    JobArrival {
        /// The job, including its task graph and window.
        job: Job,
    },
    /// The initiator asks a PCS member to join the ACS for a job.
    Enroll {
        /// The initiating site `k`.
        initiator: SiteId,
        /// The job being distributed.
        job: JobId,
    },
    /// Positive enrollment answer, carrying the §2 surplus of the member.
    EnrollAck {
        /// The job the enrollment refers to.
        job: JobId,
        /// Surplus of the answering site over its observation window.
        surplus: f64,
        /// Relative computing power of the answering site (§13).
        speed: f64,
    },
    /// Negative enrollment answer (the site is locked by another initiator).
    EnrollBusy {
        /// The job the enrollment refers to.
        job: JobId,
    },
    /// The §10 trial mapping broadcast to every ACS member: for each logical
    /// processor, the list of task specs assigned to it.
    TrialMapping {
        /// The job being distributed.
        job: JobId,
        /// `tasks_per_logical[i]` is `T_i`, the task set of logical
        /// processor `i`. Shared (`Arc`) at both levels: the §10 broadcast
        /// ships one mapping to every ACS member, and the §11 permutation
        /// then ships each selected member the same `T_i` again.
        tasks_per_logical: Arc<[Arc<[TaskSpec]>]>,
    },
    /// A member's answer: the logical processors whose task set it could
    /// satisfy locally.
    ValidationReply {
        /// The job the validation refers to.
        job: JobId,
        /// Indices of satisfiable logical processors.
        endorsable: Vec<usize>,
    },
    /// The §11 dispatch: the receiving site learns which logical processor it
    /// must endorse (if any) and receives the corresponding task specs.
    Permutation {
        /// The job.
        job: JobId,
        /// The logical processor assigned to the receiver with its task
        /// specs `T_i` (shared with the `TrialMapping` broadcast), or `None`
        /// if the receiver is not part of the selected permutation (it must
        /// simply unlock).
        endorse: Option<(usize, Arc<[TaskSpec]>)>,
    },
    /// Release of the §8 lock without selection (job rejected or member not
    /// needed).
    Unlock {
        /// The job the lock was held for.
        job: JobId,
    },
    /// The job's input data for an executing member, shipped alongside the
    /// §11 permutation through the engine's shared-bandwidth flow plane
    /// (`Context::transfer`) instead of a routed send. Only produced when
    /// `RtdsConfig::flow_transfers` is enabled and the member's logical
    /// processor consumes a positive cross-processor data volume; it arrives
    /// when the flow completes, i.e. after contending for link bandwidth
    /// with every concurrent transfer.
    TaskData {
        /// The job the data belongs to.
        job: JobId,
        /// Total input volume shipped to the member (graph data-volume
        /// units).
        volume: f64,
    },
}

impl RtdsMsg {
    /// Short label used by the statistics counters and the Fig. 1 trace.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            RtdsMsg::RoutingUpdate { .. } => "routing_update",
            RtdsMsg::JobArrival { .. } => "job_arrival",
            RtdsMsg::Enroll { .. } => "enroll",
            RtdsMsg::EnrollAck { .. } => "enroll_ack",
            RtdsMsg::EnrollBusy { .. } => "enroll_busy",
            RtdsMsg::TrialMapping { .. } => "trial_mapping",
            RtdsMsg::ValidationReply { .. } => "validation_reply",
            RtdsMsg::Permutation { .. } => "permutation",
            RtdsMsg::Unlock { .. } => "unlock",
            RtdsMsg::TaskData { .. } => "task_data",
        }
    }

    /// Returns `true` for messages that belong to the distribution of a job
    /// (everything except the initial routing exchange and external
    /// arrivals) — the quantity the paper's overhead claim is about.
    pub(crate) fn is_distribution_message(&self) -> bool {
        !matches!(
            self,
            RtdsMsg::RoutingUpdate { .. } | RtdsMsg::JobArrival { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_classification() {
        let m = RtdsMsg::Enroll {
            initiator: SiteId(0),
            job: JobId(1),
        };
        assert_eq!(m.kind(), "enroll");
        assert!(m.is_distribution_message());
        let r = RtdsMsg::RoutingUpdate {
            phase: 1,
            lines: Vec::new().into(),
        };
        assert_eq!(r.kind(), "routing_update");
        assert!(!r.is_distribution_message());
        let u = RtdsMsg::Unlock { job: JobId(3) };
        assert_eq!(u.kind(), "unlock");
        assert!(u.is_distribution_message());
        let p = RtdsMsg::Permutation {
            job: JobId(3),
            endorse: None,
        };
        assert_eq!(p.kind(), "permutation");
        let v = RtdsMsg::ValidationReply {
            job: JobId(3),
            endorsable: vec![0, 2],
        };
        assert_eq!(v.kind(), "validation_reply");
        let t = RtdsMsg::TrialMapping {
            job: JobId(3),
            tasks_per_logical: vec![Vec::new().into()].into(),
        };
        assert_eq!(t.kind(), "trial_mapping");
        let a = RtdsMsg::EnrollAck {
            job: JobId(3),
            surplus: 0.5,
            speed: 1.0,
        };
        assert_eq!(a.kind(), "enroll_ack");
        let b = RtdsMsg::EnrollBusy { job: JobId(3) };
        assert_eq!(b.kind(), "enroll_busy");
        let d = RtdsMsg::TaskData {
            job: JobId(3),
            volume: 7.5,
        };
        assert_eq!(d.kind(), "task_data");
        assert!(d.is_distribution_message());
    }

    #[test]
    fn task_spec_round_trip() {
        let spec = TaskSpec {
            task: TaskId(2),
            release: 24.0,
            deadline: 42.0,
            cost: 4.0,
        };
        assert_eq!(spec.task, TaskId(2));
        assert!(spec.deadline - spec.release >= spec.cost);
    }
}
