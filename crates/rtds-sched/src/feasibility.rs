//! Local satisfiability of task sets (§10).
//!
//! During Trial-Mapping validation every site `j` of the ACS receives the
//! mapping `M` and, for each logical processor `i`, decides whether the set
//! `T_i` of tasks assigned to `i` is *locally satisfiable*: "each task `t` of
//! `T_i` may be executed with respect to its release `r(t)` and deadline
//! `d(t)`" — in-between the reservations `j` has already committed to.
//!
//! Non-preemptive single-machine feasibility with releases and deadlines is
//! NP-hard in general; like the paper (which leaves the local scheduler
//! unspecified beyond the insertion idea of §5) we use a deterministic
//! heuristic: earliest-deadline-first insertion into the idle windows, with
//! the duration of each task taken from the mapping. The preemptive variant
//! (§13) splits tasks across idle windows and is exact for the single-site
//! subproblem it solves.

use crate::plan::{Reservation, SchedulePlan, TIME_EPS};
use crate::trial::{Scratch, Trial};
use rtds_graph::{JobId, TaskId};

/// One task of a trial mapping, as seen by a validating site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRequest {
    /// Owning job.
    pub job: JobId,
    /// Task id within the job.
    pub task: TaskId,
    /// Release `r(t)` assigned by the Mapper (absolute time).
    pub release: f64,
    /// Deadline `d(t)` assigned by the Mapper (absolute time).
    pub deadline: f64,
    /// Execution duration budgeted by the Mapper for this task on this
    /// logical processor.
    pub duration: f64,
}

impl TaskRequest {
    /// Returns `true` if the request is internally consistent (its own window
    /// can hold its duration).
    pub fn is_well_formed(&self) -> bool {
        self.duration >= 0.0
            && self.release.is_finite()
            && self.deadline.is_finite()
            && self.release + self.duration <= self.deadline + TIME_EPS
    }
}

/// The §10 test over per-core plans: places every request on the core with
/// the earliest fit, leaving the placements in `scratch.placed` (not
/// committed; partially placed sets live only in the scratch trial, never in
/// `cores`). `None` if some request does not fit.
///
/// * Non-preemptive (`preemptive = false`): each task gets one contiguous
///   slot starting at the earliest idle instant after its release.
/// * Preemptive (`preemptive = true`): a task may be split across idle
///   windows; there is one placement per chunk.
///
/// Requests are processed in earliest-deadline-first order (ties broken by
/// release then task id), which is deterministic and matches the §5
/// "schedule in-between already accepted tasks" idea.
pub(crate) fn place_requests(
    cores: &[SchedulePlan],
    requests: &[TaskRequest],
    preemptive: bool,
    scratch: &mut Scratch,
) -> Option<()> {
    if requests.iter().any(|r| !r.is_well_formed()) {
        return None;
    }
    let Scratch {
        added,
        placed,
        order,
        chunks,
        best_chunks,
        ..
    } = scratch;
    order.clear();
    order.extend(0..requests.len());
    order.sort_by(|&a, &b| {
        let (a, b) = (&requests[a], &requests[b]);
        a.deadline
            .partial_cmp(&b.deadline)
            .unwrap()
            .then(a.release.partial_cmp(&b.release).unwrap())
            .then(a.task.0.cmp(&b.task.0))
            .then(a.job.0.cmp(&b.job.0))
    });
    placed.clear();
    let mut trial = Trial::new(cores, added);
    for req in order.iter().map(|&i| &requests[i]) {
        let reservation = |start: f64, end: f64| Reservation {
            job: req.job,
            task: req.task,
            start,
            end,
        };
        if preemptive {
            let (core, _) = trial.best_preemptive_fit(
                req.release,
                req.deadline,
                req.duration,
                chunks,
                best_chunks,
            )?;
            for chunk in best_chunks.iter() {
                trial.place(core, reservation(chunk.start, chunk.end), placed)?;
            }
        } else {
            let (core, start, finish) =
                trial.best_single_fit(req.release, req.deadline, req.duration)?;
            trial.place(core, reservation(start, finish), placed)?;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::SiteResources;
    use crate::scheduler::{Scheduler, SchedulerKind, SiteScheduler};

    /// The §10 test on the paper's one-core site holding `plan`: the
    /// reservations it would add.
    fn satisfiable_on(
        plan: &SchedulePlan,
        requests: &[TaskRequest],
        preemptive: bool,
    ) -> Option<Vec<Reservation>> {
        let site = SiteScheduler::from_parts(
            SchedulerKind::Protocol,
            SiteResources::default(),
            1.0,
            preemptive,
            vec![plan.clone()],
            vec![],
        )
        .unwrap();
        let placed = site.satisfiable(requests)?;
        Some(placed.iter().map(|p| p.reservation).collect())
    }

    fn req(task: usize, release: f64, deadline: f64, duration: f64) -> TaskRequest {
        TaskRequest {
            job: JobId(7),
            task: TaskId(task),
            release,
            deadline,
            duration,
        }
    }

    fn busy_plan() -> SchedulePlan {
        let mut plan = SchedulePlan::new();
        plan.insert(Reservation {
            job: JobId(1),
            task: TaskId(0),
            start: 10.0,
            end: 20.0,
        })
        .unwrap();
        plan.insert(Reservation {
            job: JobId(1),
            task: TaskId(1),
            start: 40.0,
            end: 50.0,
        })
        .unwrap();
        plan
    }

    #[test]
    fn empty_request_set_is_satisfiable() {
        let plan = SchedulePlan::new();
        assert_eq!(satisfiable_on(&plan, &[], false), Some(vec![]));
        assert_eq!(satisfiable_on(&plan, &[], true), Some(vec![]));
    }

    #[test]
    fn fits_around_existing_reservations() {
        let plan = busy_plan();
        let reqs = vec![req(0, 0.0, 10.0, 10.0), req(1, 0.0, 40.0, 20.0)];
        let placed = satisfiable_on(&plan, &reqs, false).unwrap();
        assert_eq!(placed.len(), 2);
        // Task 0 (earlier deadline) takes [0, 10), task 1 takes [20, 40).
        assert_eq!(placed[0].start, 0.0);
        assert_eq!(placed[0].end, 10.0);
        assert_eq!(placed[1].start, 20.0);
        assert_eq!(placed[1].end, 40.0);
        // The original plan is untouched.
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn rejects_when_the_window_is_too_tight() {
        let plan = busy_plan();
        // Needs 15 contiguous units before t = 30 but only [0,10) and [20,30)
        // are idle.
        assert!(satisfiable_on(&plan, &[req(0, 0.0, 30.0, 15.0)], false).is_none());
        // Preemption makes it feasible: 10 + 5 across the two windows.
        let chunks = satisfiable_on(&plan, &[req(0, 0.0, 30.0, 15.0)], true).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].start, 0.0);
        assert_eq!(chunks[0].end, 10.0);
        assert_eq!(chunks[1].start, 20.0);
        assert_eq!(chunks[1].end, 25.0);
    }

    #[test]
    fn edf_order_matters_and_is_used() {
        let plan = SchedulePlan::new();
        // Two tasks competing for the same early window: the tight-deadline
        // one must be placed first or the set is (wrongly) declared
        // infeasible.
        let reqs = vec![req(0, 0.0, 100.0, 10.0), req(1, 0.0, 10.0, 10.0)];
        let placed = satisfiable_on(&plan, &reqs, false).unwrap();
        // Task 1 (deadline 10) gets [0, 10), task 0 gets [10, 20).
        let t1 = placed.iter().find(|r| r.task == TaskId(1)).unwrap();
        let t0 = placed.iter().find(|r| r.task == TaskId(0)).unwrap();
        assert_eq!((t1.start, t1.end), (0.0, 10.0));
        assert_eq!((t0.start, t0.end), (10.0, 20.0));
    }

    #[test]
    fn genuinely_infeasible_sets_are_rejected() {
        let plan = SchedulePlan::new();
        // Three tasks of length 10 all due by 20: total demand 30 > 20.
        let reqs = vec![
            req(0, 0.0, 20.0, 10.0),
            req(1, 0.0, 20.0, 10.0),
            req(2, 0.0, 20.0, 10.0),
        ];
        assert!(satisfiable_on(&plan, &reqs, false).is_none());
        assert!(satisfiable_on(&plan, &reqs, true).is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let plan = SchedulePlan::new();
        // Duration longer than the task's own window.
        assert!(satisfiable_on(&plan, &[req(0, 10.0, 15.0, 6.0)], false).is_none());
        // Negative duration.
        assert!(satisfiable_on(&plan, &[req(0, 0.0, 10.0, -1.0)], true).is_none());
        assert!(!req(0, 10.0, 15.0, 6.0).is_well_formed());
        assert!(req(0, 10.0, 16.0, 6.0).is_well_formed());
    }

    #[test]
    fn releases_are_respected() {
        let plan = SchedulePlan::new();
        let placed = satisfiable_on(&plan, &[req(0, 25.0, 60.0, 10.0)], false).unwrap();
        assert_eq!(placed[0].start, 25.0);
        let chunks = satisfiable_on(&plan, &[req(0, 25.0, 60.0, 10.0)], true).unwrap();
        assert_eq!(chunks[0].start, 25.0);
    }
}
