//! Global HEFT: centralized insertion-based list scheduling with
//! communication-inclusive upward ranks (Topcuoglu et al.).
//!
//! Like the [`crate::centralized`] oracle this policy has exact global
//! knowledge and zero protocol cost, but it schedules every job with the
//! classic HEFT heuristic instead of the whole-DAG-first strategy: tasks are
//! ordered by [`rtds_sched::heft_upward_rank`] — which folds per-edge data
//! volumes into the priority, unlike the compute-only critical path — and
//! each task is placed on the site minimising its earliest finish time over
//! the *exact* per-site plans (insertion-based: idle gaps between existing
//! reservations are candidates too). A job is accepted only if every task
//! fits before the deadline, so accepted jobs never miss.
//!
//! Inter-site data movement is charged at the exact pairwise propagation
//! delay: this is the list scheduler of the oracle's split phase under
//! another rank. Volumes shape the task order, not the link occupancy.

use crate::policy::PolicyReport;
use crate::sites::{place_across_sites, run_policy};
use rtds_graph::Job;
use rtds_net::dijkstra::all_pairs_shortest_paths;
use rtds_net::Network;
use rtds_sched::heft_upward_rank;

/// Runs global HEFT over a workload. HEFT places each task contiguously;
/// the preemptive flag is accepted for signature parity with the other
/// centralized baseline and changes nothing.
pub fn run_global_heft(network: &Network, jobs: &[Job], preemptive: bool) -> PolicyReport {
    let aps = all_pairs_shortest_paths(network);
    run_policy(network, jobs, preemptive, |sites, job, _| {
        place_across_sites(network, &aps, sites, job, &heft_upward_rank(&job.graph))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_only::run_local_only;
    use rtds_graph::{JobId, JobParams, TaskGraph, TaskId};
    use rtds_net::generators::{ring, DelayDistribution};

    fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64, site: usize) -> Job {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(release, deadline), site)
    }

    fn fork_job(id: u64, width: usize, cost: f64, deadline: f64, site: usize) -> Job {
        let mut g = TaskGraph::new();
        let src = g.add_task(1.0);
        let branches: Vec<_> = (0..width).map(|_| g.add_task(cost)).collect();
        let sink = g.add_task(1.0);
        for t in &branches {
            g.add_edge(src, *t).unwrap();
            g.add_edge(*t, sink).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(0.0, deadline), site)
    }

    #[test]
    fn heft_dominates_local_only_and_never_misses() {
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let jobs: Vec<Job> = (0..8)
            .map(|i| chain_job(i, &[30.0], (i / 2) as f64, (i / 2) as f64 + 40.0, 0))
            .collect();
        let local = run_local_only(&net, &jobs, false);
        let heft = run_global_heft(&net, &jobs, false);
        assert!(heft.accepted() > local.accepted());
        assert_eq!(heft.deadline_misses, 0);
        assert_eq!(heft.distribution_messages, 0);
    }

    #[test]
    fn heft_splits_wide_jobs_across_sites() {
        let net = ring(8, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![fork_job(1, 6, 30.0, 45.0, 0)];
        let heft = run_global_heft(&net, &jobs, false);
        assert_eq!(heft.accepted(), 1);
        assert_eq!(heft.accepted_remotely, 1);
        assert_eq!(heft.deadline_misses, 0);
    }

    #[test]
    fn infeasible_jobs_are_rejected() {
        let net = ring(4, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![chain_job(1, &[100.0], 0.0, 20.0, 0)];
        let heft = run_global_heft(&net, &jobs, false);
        assert_eq!(heft.rejected, 1);
        assert_eq!(heft.accepted(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let net = ring(7, DelayDistribution::Uniform { min: 0.5, max: 2.0 }, 3);
        let jobs: Vec<Job> = (0..12)
            .map(|i| chain_job(i, &[12.0, 8.0], i as f64, i as f64 + 50.0, (i % 7) as usize))
            .collect();
        assert_eq!(
            run_global_heft(&net, &jobs, false),
            run_global_heft(&net, &jobs, false)
        );
    }
}
