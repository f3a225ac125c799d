//! The §5 local guarantee test: can a whole DAG be executed on this single
//! site, in-between the already-committed reservations, before its deadline?
//!
//! "When a new job arrives on site k, local test is performed. It consists on
//! verifying if all tasks of the job may be scheduled in-between tasks
//! already accepted to be scheduled on site k before deadline d."
//!
//! The test ([`crate::Scheduler::admit_dag`]) is constructive: on success it
//! returns the placements that realise the local schedule, so the site can
//! commit them immediately and atomically. Tasks are considered in
//! list-scheduling order ([`priority_order`]) driven by the §12
//! critical-path priority (longest node-weight path to a sink), which keeps
//! the local test and the Mapper consistent with each other.

use rtds_graph::TaskId;

/// List-scheduling order: repeatedly emit the ready task (all predecessors
/// already emitted) with the highest priority; ties broken by task id.
pub fn priority_order(graph: &rtds_graph::TaskGraph, priority: &[f64]) -> Vec<TaskId> {
    let mut order = Vec::new();
    priority_order_into(graph, priority, &mut order, &mut Vec::new());
    order
}

/// [`priority_order`] into caller-owned buffers: `order` receives the
/// result and `remaining_preds` is working space; neither allocates once it
/// has held a graph of this size.
pub fn priority_order_into(
    graph: &rtds_graph::TaskGraph,
    priority: &[f64],
    order: &mut Vec<TaskId>,
    remaining_preds: &mut Vec<usize>,
) {
    let n = graph.task_count();
    remaining_preds.clear();
    remaining_preds.extend(graph.task_ids().map(|t| graph.in_degree(t)));
    // `order[..emitted]` is the result so far and `order[emitted..]` the
    // ready set, in no particular order: the pick below is a strict maximum.
    order.clear();
    order.reserve(n);
    order.extend(graph.task_ids().filter(|t| remaining_preds[t.0] == 0));
    let mut emitted = 0;
    while emitted < order.len() {
        // Highest priority first; ties by smallest id for determinism.
        let (idx, _) = order[emitted..]
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                priority[a.0]
                    .partial_cmp(&priority[b.0])
                    .unwrap()
                    .then(b.0.cmp(&a.0))
            })
            .expect("ready set is non-empty");
        order.swap(emitted, emitted + idx);
        let t = order[emitted];
        emitted += 1;
        for s in graph.successors(t) {
            remaining_preds[s.0] -= 1;
            if remaining_preds[s.0] == 0 {
                order.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "graph must be acyclic");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Reservation, SchedulePlan};
    use crate::resources::SiteResources;
    use crate::scheduler::{DagSchedule, Scheduler, SchedulerKind, SiteScheduler};
    use rtds_graph::paper_instance::paper_job;
    use rtds_graph::{Job, JobId, JobParams, TaskGraph};

    fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64) -> Job {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(release, deadline), 0)
    }

    /// The §5 test on the paper's one-core site holding `plan`.
    fn admit(
        plan: &SchedulePlan,
        job: &Job,
        now: f64,
        speed: f64,
        preemptive: bool,
    ) -> Option<DagSchedule> {
        SiteScheduler::from_parts(
            SchedulerKind::Protocol,
            SiteResources::default(),
            speed,
            preemptive,
            vec![plan.clone()],
            vec![],
        )
        .unwrap()
        .admit_dag(job, now, None)
    }

    fn busy(start: f64, end: f64) -> SchedulePlan {
        let mut plan = SchedulePlan::new();
        plan.insert(Reservation {
            job: JobId(99),
            task: TaskId(0),
            start,
            end,
        })
        .unwrap();
        plan
    }

    #[test]
    fn empty_plan_accepts_a_feasible_chain() {
        let plan = SchedulePlan::new();
        let job = chain_job(1, &[2.0, 3.0, 5.0], 0.0, 20.0);
        let adm = admit(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(adm.placements.len(), 3);
        assert_eq!(adm.completion, 10.0);
        // Precedence respected: each task starts after its predecessor ends.
        let by_task: Vec<Reservation> = adm.placements.iter().map(|p| p.reservation).collect();
        assert!(by_task
            .windows(2)
            .all(|w| w[1].start + 1e-9 >= w[0].end || w[1].task.0 < w[0].task.0));
    }

    #[test]
    fn rejects_when_deadline_is_too_tight() {
        let plan = SchedulePlan::new();
        let job = chain_job(1, &[5.0, 5.0, 5.0], 0.0, 12.0);
        assert!(admit(&plan, &job, 0.0, 1.0, false).is_none());
        // The same chain with speed 2 halves the durations and fits.
        assert!(admit(&plan, &job, 0.0, 2.0, false).is_some());
    }

    #[test]
    fn respects_existing_reservations() {
        let plan = busy(0.0, 8.0);
        let job = chain_job(2, &[4.0, 4.0], 0.0, 20.0);
        let adm = admit(&plan, &job, 0.0, 1.0, false).unwrap();
        // Both tasks must be placed after the existing reservation.
        assert!(adm.placements.iter().all(|p| p.reservation.start >= 8.0));
        assert_eq!(adm.completion, 16.0);
        // With a deadline of 15 it no longer fits.
        let tight = chain_job(3, &[4.0, 4.0], 0.0, 15.0);
        assert!(admit(&plan, &tight, 0.0, 1.0, false).is_none());
        // ...unless preemption is allowed? (still contiguous chain on one
        // site, so preemption does not help here: total demand 8 in [8, 15)
        // is only 7 units of idle time).
        assert!(admit(&plan, &tight, 0.0, 1.0, true).is_none());
    }

    #[test]
    fn preemptive_admission_uses_split_windows() {
        let plan = busy(5.0, 10.0);
        // One 8-unit task, deadline 20: non-preemptively it must wait for
        // [10, 18); preemptively it can use [0,5) + [10,13).
        let job = chain_job(4, &[8.0], 0.0, 20.0);
        let np = admit(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(np.completion, 18.0);
        let p = admit(&plan, &job, 0.0, 1.0, true).unwrap();
        assert_eq!(p.completion, 13.0);
        assert_eq!(p.placements.len(), 2);
    }

    #[test]
    fn paper_example_is_locally_admissible_on_an_idle_unit_site() {
        // On a fully idle unit-speed site the Fig. 2 job (total cost 21,
        // deadline 66) is trivially guaranteed locally — which is why the
        // paper's distribution scenario presumes the arrival site is loaded.
        let plan = SchedulePlan::new();
        let job = paper_job(JobId(1), 0);
        let adm = admit(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(adm.placements.len(), 5);
        assert!(adm.completion <= 21.0 + 1e-9);
        // A loaded site (busy until t = 40) can still fit the 21 units of
        // serial work before the deadline of 66...
        let adm2 = admit(&busy(0.0, 40.0), &job, 0.0, 1.0, false).unwrap();
        assert!(adm2.completion <= 66.0 + 1e-9);
        assert!(adm2.completion >= 61.0 - 1e-9);
        // ...but a site busy until t = 50 cannot (only 16 idle units remain).
        assert!(admit(&busy(0.0, 50.0), &job, 0.0, 1.0, false).is_none());
    }

    #[test]
    fn now_and_release_floors_are_respected() {
        let plan = SchedulePlan::new();
        let job = chain_job(1, &[2.0], 10.0, 30.0);
        // now < release: start at the release.
        let a = admit(&plan, &job, 0.0, 1.0, false).unwrap();
        assert_eq!(a.placements[0].reservation.start, 10.0);
        // now > release: start at now.
        let b = admit(&plan, &job, 15.0, 1.0, false).unwrap();
        assert_eq!(b.placements[0].reservation.start, 15.0);
    }

    #[test]
    fn empty_graph_job_is_trivially_admitted() {
        let plan = SchedulePlan::new();
        let job = Job::new(JobId(1), TaskGraph::new(), JobParams::new(0.0, 5.0), 0);
        let adm = admit(&plan, &job, 2.0, 1.0, false).unwrap();
        assert!(adm.placements.is_empty());
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
