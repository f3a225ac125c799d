//! Centralized oracle: a greedy scheduler with exact knowledge.
//!
//! A scheduler with global, instantaneous knowledge of every site's exact
//! scheduling plan and of all pairwise communication delays, and with zero
//! protocol cost. For every arriving job it first tries to place the whole
//! DAG on the best single site, then falls back to a global list-scheduling
//! split across all sites (earliest-finish-time against the *exact* plans,
//! exact pairwise delays). Both steps are greedy and never revisit an
//! accepted job, so it is not a bound on the achievable guarantee ratio:
//! `global-heft` accepts more than it on some seeds of E1's heaviest load.

use crate::policy::PolicyReport;
use crate::sites::{place_across_sites, run_policy, Placed};
use rtds_graph::{upward_ranks, Job};
use rtds_net::dijkstra::all_pairs_shortest_paths;
use rtds_net::{Network, SiteId};
use rtds_sched::{DagSchedule, Scheduler};

/// Runs the centralized oracle over a workload.
pub(crate) fn run_centralized_oracle(
    network: &Network,
    jobs: &[Job],
    preemptive: bool,
) -> PolicyReport {
    let aps = all_pairs_shortest_paths(network);
    run_policy(network, jobs, preemptive, |sites, job, _| {
        let arrival = SiteId(job.arrival_site);
        // Whole-DAG placement: pick the single site with the earliest
        // completion, accounting for the one-way transfer delay from the
        // arrival site.
        let mut best: Option<(SiteId, DagSchedule)> = None;
        for s in network.sites() {
            let transfer = aps[arrival.0].dist[s.0];
            if !transfer.is_finite() {
                continue;
            }
            if let Some(adm) = sites[s.0].admit_dag(job, job.arrival_time + transfer, None) {
                let better = best
                    .as_ref()
                    .map_or(true, |(_, b)| adm.completion < b.completion - 1e-12);
                if better {
                    best = Some((s, adm));
                }
            }
        }
        if let Some((s, admission)) = best {
            sites[s.0]
                .reserve_dag(&admission)
                .expect("admission placements fit");
            return Some(if s == arrival {
                Placed::Locally
            } else {
                Placed::Remotely
            });
        }
        // Multi-site split with exact knowledge. It is conservative under
        // the preemptive flag: each task is still placed contiguously (the
        // split is written for the common non-preemptive configuration).
        place_across_sites(network, &aps, sites, job, &upward_ranks(&job.graph))
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
        let sink_costs: Vec<_> = (0..width).map(|_| g.add_task(cost)).collect();
        let sink = g.add_task(1.0);
        for t in &sink_costs {
            g.add_edge(src, *t).unwrap();
            g.add_edge(*t, sink).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(0.0, deadline), site)
    }

    #[test]
    fn oracle_dominates_local_only() {
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let jobs: Vec<Job> = (0..8)
            .map(|i| chain_job(i, &[30.0], (i / 2) as f64, (i / 2) as f64 + 40.0, 0))
            .collect();
        let local = run_local_only(&net, &jobs, false);
        let oracle = run_centralized_oracle(&net, &jobs, false);
        assert!(oracle.accepted() >= local.accepted());
        assert!(oracle.accepted() > local.accepted(), "oracle must offload");
        assert_eq!(oracle.deadline_misses, 0);
        assert_eq!(oracle.distribution_messages, 0);
    }

    #[test]
    fn oracle_splits_wide_jobs_across_sites() {
        // A fork-join of 6 branches of 30 units with a 45-unit window cannot
        // run on one site (182 serial units) but fits when split.
        let net = ring(8, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![fork_job(1, 6, 30.0, 45.0, 0)];
        let oracle = run_centralized_oracle(&net, &jobs, false);
        assert_eq!(oracle.accepted(), 1);
        assert_eq!(oracle.accepted_remotely, 1);
        assert_eq!(oracle.deadline_misses, 0);
        let local = run_local_only(&net, &jobs, false);
        assert_eq!(local.accepted(), 0);
    }

    #[test]
    fn impossible_jobs_are_still_rejected() {
        let net = ring(4, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![chain_job(1, &[100.0], 0.0, 20.0, 0)];
        let oracle = run_centralized_oracle(&net, &jobs, false);
        assert_eq!(oracle.rejected, 1);
        assert_eq!(oracle.accepted(), 0);
    }

    #[test]
    fn empty_graph_jobs_are_trivially_accepted() {
        let net = ring(3, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![Job::new(
            JobId(1),
            TaskGraph::new(),
            JobParams::new(0.0, 10.0),
            1,
        )];
        let oracle = run_centralized_oracle(&net, &jobs, false);
        assert_eq!(oracle.accepted(), 1);
    }
}
