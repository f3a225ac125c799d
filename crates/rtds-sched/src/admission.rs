//! The §5 local guarantee test: can a whole DAG be executed on this single
//! site, in-between the already-committed reservations, before its deadline?
//!
//! "When a new job arrives on site k, local test is performed. It consists on
//! verifying if all tasks of the job may be scheduled in-between tasks
//! already accepted to be scheduled on site k before deadline d."
//!
//! The test is constructive: on success it returns the reservations that
//! realise the local schedule, so the site can commit them immediately and
//! atomically. Tasks are considered in list-scheduling order driven by the
//! §12 critical-path priority (longest node-weight path to a sink), which
//! keeps the local test and the Mapper consistent with each other.

use crate::plan::{Reservation, SchedulePlan};
use crate::resources::SiteResources;
use crate::scheduler::{SchedulerKind, SiteView};
use crate::trial::with_scratch;
use rtds_graph::{Job, TaskId};
use serde::{Deserialize, Serialize};

/// Result of a successful local admission: the reservations to commit and the
/// completion time of the job on this site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagAdmission {
    /// Reservations realising the DAG on this site (one per task in
    /// non-preemptive mode, possibly several chunks per task in preemptive
    /// mode).
    pub reservations: Vec<Reservation>,
    /// Completion time of the last task.
    pub completion: f64,
}

/// Attempts to admit the whole DAG of `job` on a single site.
///
/// * `plan` — the site's committed schedule (not modified).
/// * `now` — current time; no task may start before `max(now, job release)`.
/// * `speed` — relative computing power of the site (1.0 for identical
///   machines; §13 uniform machines divide task costs by this factor).
/// * `preemptive` — whether tasks may be split across idle windows (§13).
///
/// Returns `None` if at least one task cannot be placed before the job
/// deadline. This is the protocol policy of [`crate::scheduler`] on the
/// paper's one-core site holding `plan`.
pub fn admit_dag_locally(
    plan: &SchedulePlan,
    job: &Job,
    now: f64,
    speed: f64,
    preemptive: bool,
) -> Option<DagAdmission> {
    assert!(speed > 0.0, "site speed must be positive");
    let site = SiteView {
        kind: SchedulerKind::Protocol,
        resources: SiteResources::default(),
        base_speed: speed,
        preemptive,
        cores: std::slice::from_ref(plan),
        holds: &[],
    };
    let schedule = with_scratch(|scratch| site.admit_dag(job, now, None, scratch))?;
    Some(DagAdmission {
        reservations: schedule.placements.iter().map(|p| p.reservation).collect(),
        completion: schedule.completion,
    })
}

/// List-scheduling order: repeatedly emit the ready task (all predecessors
/// already emitted) with the highest priority; ties broken by task id.
pub fn priority_order(graph: &rtds_graph::TaskGraph, priority: &[f64]) -> Vec<TaskId> {
    let n = graph.task_count();
    let mut remaining_preds: Vec<usize> = (0..n).map(|i| graph.in_degree(TaskId(i))).collect();
    let mut ready: Vec<TaskId> = graph
        .task_ids()
        .filter(|t| remaining_preds[t.0] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        // Highest priority first; ties by smallest id for determinism.
        let (idx, _) = ready
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                priority[a.0]
                    .partial_cmp(&priority[b.0])
                    .unwrap()
                    .then(b.0.cmp(&a.0))
            })
            .expect("ready list is non-empty");
        let t = ready.swap_remove(idx);
        order.push(t);
        for s in graph.successors(t) {
            remaining_preds[s.0] -= 1;
            if remaining_preds[s.0] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "graph must be acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::paper_instance::paper_job;
    use rtds_graph::{JobId, JobParams, TaskGraph};

    fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64) -> Job {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(release, deadline), 0)
    }

    #[test]
    fn empty_plan_accepts_a_feasible_chain() {
        let plan = SchedulePlan::new();
        let job = chain_job(1, &[2.0, 3.0, 5.0], 0.0, 20.0);
        let adm = admit_dag_locally(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(adm.reservations.len(), 3);
        assert_eq!(adm.completion, 10.0);
        // Precedence respected: each task starts after its predecessor ends.
        let by_task: Vec<&Reservation> = adm.reservations.iter().collect();
        assert!(by_task
            .windows(2)
            .all(|w| w[1].start + 1e-9 >= w[0].end || w[1].task.0 < w[0].task.0));
    }

    #[test]
    fn rejects_when_deadline_is_too_tight() {
        let plan = SchedulePlan::new();
        let job = chain_job(1, &[5.0, 5.0, 5.0], 0.0, 12.0);
        assert!(admit_dag_locally(&plan, &job, 0.0, 1.0, false).is_none());
        // The same chain with speed 2 halves the durations and fits.
        assert!(admit_dag_locally(&plan, &job, 0.0, 2.0, false).is_some());
    }

    #[test]
    fn respects_existing_reservations() {
        let mut plan = SchedulePlan::new();
        plan.insert(Reservation {
            job: JobId(99),
            task: TaskId(0),
            start: 0.0,
            end: 8.0,
        })
        .unwrap();
        let job = chain_job(2, &[4.0, 4.0], 0.0, 20.0);
        let adm = admit_dag_locally(&plan, &job, 0.0, 1.0, false).unwrap();
        // Both tasks must be placed after the existing reservation.
        assert!(adm.reservations.iter().all(|r| r.start >= 8.0));
        assert_eq!(adm.completion, 16.0);
        // With a deadline of 15 it no longer fits.
        let tight = chain_job(3, &[4.0, 4.0], 0.0, 15.0);
        assert!(admit_dag_locally(&plan, &tight, 0.0, 1.0, false).is_none());
        // ...unless preemption is allowed? (still contiguous chain on one
        // site, so preemption does not help here: total demand 8 in [8, 15)
        // is only 7 units of idle time).
        assert!(admit_dag_locally(&plan, &tight, 0.0, 1.0, true).is_none());
    }

    #[test]
    fn preemptive_admission_uses_split_windows() {
        let mut plan = SchedulePlan::new();
        plan.insert(Reservation {
            job: JobId(99),
            task: TaskId(0),
            start: 5.0,
            end: 10.0,
        })
        .unwrap();
        // One 8-unit task, deadline 20: non-preemptively it must wait for
        // [10, 18); preemptively it can use [0,5) + [10,13).
        let job = chain_job(4, &[8.0], 0.0, 20.0);
        let np = admit_dag_locally(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(np.completion, 18.0);
        let p = admit_dag_locally(&plan, &job, 0.0, 1.0, true).unwrap();
        assert_eq!(p.completion, 13.0);
        assert_eq!(p.reservations.len(), 2);
    }

    #[test]
    fn paper_example_is_locally_admissible_on_an_idle_unit_site() {
        // On a fully idle unit-speed site the Fig. 2 job (total cost 21,
        // deadline 66) is trivially guaranteed locally — which is why the
        // paper's distribution scenario presumes the arrival site is loaded.
        let plan = SchedulePlan::new();
        let job = paper_job(JobId(1), 0);
        let adm = admit_dag_locally(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(adm.reservations.len(), 5);
        assert!(adm.completion <= 21.0 + 1e-9);
        // A loaded site (busy until t = 40) can still fit the 21 units of
        // serial work before the deadline of 66...
        let mut busy = SchedulePlan::new();
        busy.insert(Reservation {
            job: JobId(50),
            task: TaskId(0),
            start: 0.0,
            end: 40.0,
        })
        .unwrap();
        let adm2 = admit_dag_locally(&busy, &job, 0.0, 1.0, false).unwrap();
        assert!(adm2.completion <= 66.0 + 1e-9);
        assert!(adm2.completion >= 61.0 - 1e-9);
        // ...but a site busy until t = 50 cannot (only 16 idle units remain).
        let mut very_busy = SchedulePlan::new();
        very_busy
            .insert(Reservation {
                job: JobId(50),
                task: TaskId(0),
                start: 0.0,
                end: 50.0,
            })
            .unwrap();
        assert!(admit_dag_locally(&very_busy, &job, 0.0, 1.0, false).is_none());
    }

    #[test]
    fn now_and_release_floors_are_respected() {
        let plan = SchedulePlan::new();
        let job = chain_job(1, &[2.0], 10.0, 30.0);
        // now < release: start at the release.
        let a = admit_dag_locally(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(a.reservations[0].start, 10.0);
        // now > release: start at now.
        let b = admit_dag_locally(&plan, &job, 15.0, 1.0, false).unwrap();
        assert_eq!(b.reservations[0].start, 15.0);
    }

    #[test]
    fn empty_graph_job_is_trivially_admitted() {
        let plan = SchedulePlan::new();
        let job = Job::new(JobId(1), TaskGraph::new(), JobParams::new(0.0, 5.0), 0);
        let adm = admit_dag_locally(&plan, &job, 2.0, 1.0, false).unwrap();
        assert!(adm.reservations.is_empty());
        assert_eq!(adm.completion, 2.0);
    }

    #[test]
    fn priority_order_prefers_critical_path() {
        let job = paper_job(JobId(1), 0);
        let order = priority_order(&job.graph, &rtds_graph::upward_ranks(&job.graph));
        // Priorities are 15, 13, 9, 7, 5 for tasks 0..4, so the order is
        // exactly 0, 1, 2, 3, 4.
        assert_eq!(
            order,
            vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3), TaskId(4)]
        );
    }
}
