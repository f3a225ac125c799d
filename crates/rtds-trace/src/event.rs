//! Typed trace events.
//!
//! A [`TraceEvent`] is a fixed-size `Copy` record: simulated time, site,
//! span/parent ids and a closed [`TracePayload`] enum with one variant per
//! protocol observation. Payloads carry numbers, never strings, so recording
//! an event allocates nothing — the human-readable form ([`TracePayload::describe`])
//! and the wire form (see [`crate::jsonl`]) are produced only on demand.

use crate::span::SpanId;
use std::fmt::Write as _;

/// Why a job arrival was deferred instead of examined immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeferReason {
    /// The site is locked for an in-flight distribution.
    SiteLocked,
    /// The one-time §7 PCS construction has not finished yet.
    PcsConstruction,
}

impl DeferReason {
    /// Stable wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DeferReason::SiteLocked => "site-locked",
            DeferReason::PcsConstruction => "pcs-under-construction",
        }
    }

    pub(crate) fn from_wire(s: &str) -> Option<Self> {
        match s {
            "site-locked" => Some(DeferReason::SiteLocked),
            "pcs-under-construction" => Some(DeferReason::PcsConstruction),
            _ => None,
        }
    }
}

/// Why a job was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The computing sphere has no peers to distribute over.
    EmptySphere,
    /// The §9 Mapper produced no mapping.
    MapperFailed,
    /// Adjustment case (i): `M*` exceeds the execution window.
    AdjustmentWindow,
    /// The §10 maximum coupling is smaller than the logical processor count.
    CouplingTooSmall {
        /// Size of the best coupling found.
        size: u32,
        /// Logical processors that needed endorsement (`|U|`).
        required: u32,
    },
}

impl RejectReason {
    /// Stable wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RejectReason::EmptySphere => "empty-sphere",
            RejectReason::MapperFailed => "mapper-failed",
            RejectReason::AdjustmentWindow => "adjustment-window",
            RejectReason::CouplingTooSmall { .. } => "coupling-too-small",
        }
    }
}

/// One typed observation. Every variant is `Copy` and numeric — see the
/// module docs. The wire field names are documented in `docs/TRACING.md`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TracePayload {
    /// A job arrived at its arrival site (root of the job's span tree).
    Arrival {
        /// Job id.
        job: u64,
        /// Tasks in the job's DAG.
        tasks: u32,
        /// Absolute deadline.
        deadline: f64,
    },
    /// The arrival was queued for later re-examination.
    ArrivalDeferred {
        /// Job id.
        job: u64,
        /// Why it was deferred.
        reason: DeferReason,
    },
    /// The §5 local guarantee test started.
    LocalTest {
        /// Job id.
        job: u64,
        /// Tasks in the job's DAG.
        tasks: u32,
        /// Absolute deadline.
        deadline: f64,
    },
    /// The local test succeeded; the job is guaranteed on the arrival site.
    LocalAccept {
        /// Job id.
        job: u64,
        /// Completion time of the local reservation.
        completion: f64,
    },
    /// The local test failed; distribution starts.
    LocalReject {
        /// Job id.
        job: u64,
    },
    /// The initiator contacted its PCS peers (§8 enrollment fan-out).
    AcsEnroll {
        /// Job id.
        job: u64,
        /// Peers contacted.
        peers: u32,
    },
    /// A member locked itself for the initiator and reported its surplus.
    AcsJoined {
        /// Job id.
        job: u64,
        /// Initiating site.
        initiator: u32,
        /// Surplus reported back.
        surplus: f64,
    },
    /// The §9 Mapper produced a trial mapping.
    TrialMapping {
        /// Job id.
        job: u64,
        /// Logical processors used (`|U|`).
        used: u32,
        /// Trial makespan `M`.
        makespan: f64,
        /// Critical-path bound `M*`.
        makespan_star: f64,
        /// Communication-delay over-estimate ω.
        omega: f64,
    },
    /// A member answered the §10 validation round.
    Validation {
        /// Job id.
        job: u64,
        /// Logical processors this member can endorse.
        endorsable: u32,
        /// Logical processors in the mapping.
        total: u32,
    },
    /// The initiator found a full coupling: the mapping is validated.
    MappingValidated {
        /// Job id.
        job: u64,
        /// Size of the coupling.
        coupling: u32,
    },
    /// Final verdict: the job is guaranteed.
    JobAccepted {
        /// Job id.
        job: u64,
        /// `true` if accepted after distribution (vs. locally).
        distributed: bool,
    },
    /// Final verdict: the job is rejected.
    Reject {
        /// Job id.
        job: u64,
        /// Why.
        reason: RejectReason,
    },
    /// A member was selected by the §11 permutation and commits tasks.
    Execute {
        /// Job id.
        job: u64,
        /// Logical processor this site plays.
        logical: u32,
    },
    /// A member enrolled but was not selected by the permutation.
    NotSelected {
        /// Job id.
        job: u64,
    },
    /// A committed placement failed (protocol-invariant violation counter).
    PlacementFailure {
        /// Job id.
        job: u64,
    },
    /// A member's lock was released by the initiator.
    Unlocked {
        /// Job id.
        job: u64,
    },
    /// One §7 PCS phase broadcast (per-site routing span, not job-scoped).
    RoutingFanout {
        /// Routing phase number.
        phase: u32,
        /// Messages sent in this phase batch.
        fanout: u32,
    },
    /// Protocol-agnostic marker (engine tests, custom protocols).
    Mark {
        /// Caller-defined tag.
        tag: u32,
        /// Caller-defined value.
        value: f64,
    },
}

/// A borrowed argument value, used when streaming an event's fields to a
/// sink or exporter without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Arg {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A static string (wire names only — payloads never carry owned text).
    Str(&'static str),
    /// A boolean.
    Bool(bool),
}

impl TracePayload {
    /// Stable machine-readable kind (also the JSONL `"kind"` field). The
    /// names match the historical free-form trace kinds so golden tests and
    /// the Fig. 1 walkthrough keep working unchanged.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TracePayload::Arrival { .. } => "arrival",
            TracePayload::ArrivalDeferred { .. } => "arrival-deferred",
            TracePayload::LocalTest { .. } => "local-test",
            TracePayload::LocalAccept { .. } => "local-accept",
            TracePayload::LocalReject { .. } => "local-reject",
            TracePayload::AcsEnroll { .. } => "acs-enroll",
            TracePayload::AcsJoined { .. } => "acs-joined",
            TracePayload::TrialMapping { .. } => "trial-mapping",
            TracePayload::Validation { .. } => "validation",
            TracePayload::MappingValidated { .. } => "mapping-validated",
            TracePayload::JobAccepted { .. } => "job-accepted",
            TracePayload::Reject { .. } => "reject",
            TracePayload::Execute { .. } => "execute",
            TracePayload::NotSelected { .. } => "not-selected",
            TracePayload::PlacementFailure { .. } => "placement-failure",
            TracePayload::Unlocked { .. } => "unlocked",
            TracePayload::RoutingFanout { .. } => "routing-fanout",
            TracePayload::Mark { .. } => "mark",
        }
    }

    /// Streams the payload's `(name, value)` fields in wire order.
    pub(crate) fn for_each_arg(&self, f: &mut dyn FnMut(&'static str, Arg)) {
        match *self {
            TracePayload::Arrival {
                job,
                tasks,
                deadline,
            }
            | TracePayload::LocalTest {
                job,
                tasks,
                deadline,
            } => {
                f("job", Arg::U64(job));
                f("tasks", Arg::U64(tasks as u64));
                f("deadline", Arg::F64(deadline));
            }
            TracePayload::ArrivalDeferred { job, reason } => {
                f("job", Arg::U64(job));
                f("reason", Arg::Str(reason.as_str()));
            }
            TracePayload::LocalAccept { job, completion } => {
                f("job", Arg::U64(job));
                f("completion", Arg::F64(completion));
            }
            TracePayload::LocalReject { job }
            | TracePayload::NotSelected { job }
            | TracePayload::PlacementFailure { job }
            | TracePayload::Unlocked { job } => {
                f("job", Arg::U64(job));
            }
            TracePayload::AcsEnroll { job, peers } => {
                f("job", Arg::U64(job));
                f("peers", Arg::U64(peers as u64));
            }
            TracePayload::AcsJoined {
                job,
                initiator,
                surplus,
            } => {
                f("job", Arg::U64(job));
                f("initiator", Arg::U64(initiator as u64));
                f("surplus", Arg::F64(surplus));
            }
            TracePayload::TrialMapping {
                job,
                used,
                makespan,
                makespan_star,
                omega,
            } => {
                f("job", Arg::U64(job));
                f("used", Arg::U64(used as u64));
                f("makespan", Arg::F64(makespan));
                f("makespan_star", Arg::F64(makespan_star));
                f("omega", Arg::F64(omega));
            }
            TracePayload::Validation {
                job,
                endorsable,
                total,
            } => {
                f("job", Arg::U64(job));
                f("endorsable", Arg::U64(endorsable as u64));
                f("total", Arg::U64(total as u64));
            }
            TracePayload::MappingValidated { job, coupling } => {
                f("job", Arg::U64(job));
                f("coupling", Arg::U64(coupling as u64));
            }
            TracePayload::JobAccepted { job, distributed } => {
                f("job", Arg::U64(job));
                f("distributed", Arg::Bool(distributed));
            }
            TracePayload::Reject { job, reason } => {
                f("job", Arg::U64(job));
                f("reason", Arg::Str(reason.as_str()));
                if let RejectReason::CouplingTooSmall { size, required } = reason {
                    f("size", Arg::U64(size as u64));
                    f("required", Arg::U64(required as u64));
                }
            }
            TracePayload::Execute { job, logical } => {
                f("job", Arg::U64(job));
                f("logical", Arg::U64(logical as u64));
            }
            TracePayload::RoutingFanout { phase, fanout } => {
                f("phase", Arg::U64(phase as u64));
                f("fanout", Arg::U64(fanout as u64));
            }
            TracePayload::Mark { tag, value } => {
                f("tag", Arg::U64(tag as u64));
                f("value", Arg::F64(value));
            }
        }
    }

    /// Human-readable one-line detail (allocates; render-time only).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        match *self {
            TracePayload::Arrival {
                job,
                tasks,
                deadline,
            } => {
                let _ = write!(out, "J{job} arrived ({tasks} tasks, d = {deadline:.1})");
            }
            TracePayload::ArrivalDeferred { job, reason } => {
                let _ = write!(out, "J{job} deferred ({})", reason.as_str());
            }
            TracePayload::LocalTest {
                job,
                tasks,
                deadline,
            } => {
                let _ = write!(out, "J{job} ({tasks} tasks, d = {deadline:.1})");
            }
            TracePayload::LocalAccept { job, completion } => {
                let _ = write!(out, "J{job} completes at {completion:.3}");
            }
            TracePayload::LocalReject { job } => {
                let _ = write!(out, "J{job}");
            }
            TracePayload::AcsEnroll { job, peers } => {
                let _ = write!(out, "J{job} contacting {peers} PCS peers");
            }
            TracePayload::AcsJoined {
                job,
                initiator,
                surplus,
            } => {
                let _ = write!(out, "J{job} locked for s{initiator}, surplus {surplus:.3}");
            }
            TracePayload::TrialMapping {
                job,
                used,
                makespan,
                makespan_star,
                omega,
            } => {
                let _ = write!(
                    out,
                    "J{job}: |U| = {used}, M = {makespan:.3}, M* = {makespan_star:.3}, omega = {omega:.3}"
                );
            }
            TracePayload::Validation {
                job,
                endorsable,
                total,
            } => {
                let _ = write!(
                    out,
                    "J{job}: can endorse {endorsable} of {total} logical processors"
                );
            }
            TracePayload::MappingValidated { job, coupling } => {
                let _ = write!(out, "J{job} coupling of size {coupling} found");
            }
            TracePayload::JobAccepted { job, distributed } => {
                let how = if distributed { "distributed" } else { "local" };
                let _ = write!(out, "J{job} ({how})");
            }
            TracePayload::Reject { job, reason } => {
                let _ = write!(out, "J{job} ({})", reason.as_str());
                if let RejectReason::CouplingTooSmall { size, required } = reason {
                    let _ = write!(out, ": coupling {size} < |U| = {required}");
                }
            }
            TracePayload::Execute { job, logical } => {
                let _ = write!(out, "J{job} as logical processor {logical}");
            }
            TracePayload::NotSelected { job } => {
                let _ = write!(out, "J{job}");
            }
            TracePayload::PlacementFailure { job } => {
                let _ = write!(out, "J{job}");
            }
            TracePayload::Unlocked { job } => {
                let _ = write!(out, "J{job}");
            }
            TracePayload::RoutingFanout { phase, fanout } => {
                let _ = write!(out, "phase {phase}: {fanout} updates");
            }
            TracePayload::Mark { tag, value } => {
                let _ = write!(out, "tag {tag} = {value}");
            }
        }
        out
    }
}

/// One recorded event. `Copy` and allocation-free, so the ring sink is a
/// flat buffer and the null sink costs one branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub time: f64,
    /// Site that recorded it.
    pub site: u32,
    /// Span this event belongs to (never [`SpanId::NONE`]).
    pub span: SpanId,
    /// Parent span ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// The typed observation.
    pub payload: TracePayload,
}

impl TraceEvent {
    /// Stable machine-readable kind of the payload.
    pub fn kind(&self) -> &'static str {
        self.payload.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_the_historical_trace_vocabulary() {
        let p = TracePayload::TrialMapping {
            job: 3,
            used: 2,
            makespan: 10.0,
            makespan_star: 8.0,
            omega: 1.5,
        };
        assert_eq!(p.kind(), "trial-mapping");
        assert!(p.describe().contains("|U| = 2"));
    }

    #[test]
    fn reject_reason_emits_coupling_fields_only_when_present() {
        let mut names = Vec::new();
        TracePayload::Reject {
            job: 1,
            reason: RejectReason::CouplingTooSmall {
                size: 1,
                required: 3,
            },
        }
        .for_each_arg(&mut |n, _| names.push(n));
        assert_eq!(names, vec!["job", "reason", "size", "required"]);
        names.clear();
        TracePayload::Reject {
            job: 1,
            reason: RejectReason::MapperFailed,
        }
        .for_each_arg(&mut |n, _| names.push(n));
        assert_eq!(names, vec!["job", "reason"]);
    }

    #[test]
    fn defer_reason_round_trips_through_its_wire_name() {
        for r in [DeferReason::SiteLocked, DeferReason::PcsConstruction] {
            assert_eq!(DeferReason::from_wire(r.as_str()), Some(r));
        }
        assert_eq!(DeferReason::from_wire("nope"), None);
    }
}
