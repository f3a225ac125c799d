//! Centralized omniscient oracle.
//!
//! A scheduler with global, instantaneous knowledge of every site's exact
//! scheduling plan and of all pairwise communication delays, and with zero
//! protocol cost. For every arriving job it first tries to place the whole
//! DAG on the best single site, then falls back to a global list-scheduling
//! split across all sites (earliest-finish-time against the *exact* plans,
//! exact pairwise delays). No on-line distributed policy can be expected to
//! beat it, so it upper-bounds the achievable guarantee ratio in the
//! comparison figures.

use crate::policy::PolicyReport;
use rtds_graph::{upward_ranks, Job};
use rtds_net::dijkstra::all_pairs_shortest_paths;
use rtds_net::{Network, SiteId};
use rtds_sched::admission::priority_order;
use rtds_sched::executor;
use rtds_sched::{ProtocolScheduler, Reservation, SchedulePlan, Scheduler, SiteResources};

/// Runs the centralized oracle over a workload.
pub fn run_centralized_oracle(network: &Network, jobs: &[Job], preemptive: bool) -> PolicyReport {
    let aps = all_pairs_shortest_paths(network);
    // Committed state lives in one single-core protocol scheduler per site;
    // the multi-site split explores scratch copies of their exact plans.
    let mut scheds: Vec<ProtocolScheduler> = network
        .sites()
        .map(|s| ProtocolScheduler::new(SiteResources::default(), network.speed(s), preemptive))
        .collect();
    let mut report = PolicyReport::default();
    let mut ordered: Vec<&Job> = jobs.iter().collect();
    ordered.sort_by(|a, b| {
        a.arrival_time
            .partial_cmp(&b.arrival_time)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    let mut accepted = Vec::new();
    for job in ordered {
        report.submitted += 1;
        let now = job.arrival_time;
        let arrival = SiteId(job.arrival_site);
        // Whole-DAG placement: pick the single site with the earliest
        // completion, accounting for the one-way transfer delay from the
        // arrival site.
        let mut best: Option<(SiteId, rtds_sched::DagSchedule)> = None;
        for s in network.sites() {
            let transfer = aps[arrival.0].dist[s.0];
            if !transfer.is_finite() {
                continue;
            }
            if let Some(adm) = scheds[s.0].admit_dag(job, now + transfer, None) {
                let better = best
                    .as_ref()
                    .map(|(_, b)| adm.completion < b.completion - 1e-12)
                    .unwrap_or(true);
                if better {
                    best = Some((s, adm));
                }
            }
        }
        if let Some((s, admission)) = best {
            scheds[s.0]
                .reserve_dag(&admission)
                .expect("admission placements fit");
            if s == arrival {
                report.accepted_locally += 1;
            } else {
                report.accepted_remotely += 1;
            }
            accepted.push((job.id, job.deadline()));
            continue;
        }
        // Multi-site split with exact knowledge.
        let exact_plans: Vec<SchedulePlan> =
            scheds.iter().map(|s| s.core_plans()[0].clone()).collect();
        if let Some(placements) =
            split_across_sites(network, &aps, &exact_plans, job, now, preemptive)
        {
            let remote = placements.iter().any(|(site, _)| *site != arrival);
            for (site, reservation) in &placements {
                scheds[site.0]
                    .reserve(&[rtds_sched::Placement {
                        core: 0,
                        reservation: *reservation,
                    }])
                    .expect("oracle placements fit");
            }
            if remote {
                report.accepted_remotely += 1;
            } else {
                report.accepted_locally += 1;
            }
            accepted.push((job.id, job.deadline()));
            continue;
        }
        report.rejected += 1;
    }
    let plan_refs: Vec<&SchedulePlan> = scheds.iter().flat_map(|s| s.core_plans()).collect();
    for (job, deadline) in accepted {
        if !executor::meets_deadline(&plan_refs, job, deadline) {
            report.deadline_misses += 1;
        }
    }
    report
}

/// Greedy global list scheduling of one DAG across all sites, using exact
/// plans and exact pairwise delays. Returns the per-site reservations if the
/// whole DAG fits before its deadline.
fn split_across_sites(
    network: &Network,
    aps: &[rtds_net::dijkstra::ShortestPaths],
    plans: &[SchedulePlan],
    job: &Job,
    now: f64,
    preemptive: bool,
) -> Option<Vec<(SiteId, Reservation)>> {
    let graph = &job.graph;
    let n_tasks = graph.task_count();
    if n_tasks == 0 {
        return Some(Vec::new());
    }
    let arrival = SiteId(job.arrival_site);
    let deadline = job.deadline();
    let order = priority_order(graph, &upward_ranks(graph));
    let mut scratch: Vec<SchedulePlan> = plans.to_vec();
    let mut placed_site = vec![SiteId(0); n_tasks];
    let mut finish = vec![0.0f64; n_tasks];
    let mut out = Vec::new();
    // The preemptive variant is conservative here: the oracle still places
    // each task contiguously (its purpose is an acceptance upper bound for
    // the common non-preemptive configuration).
    let _ = preemptive;
    for t in order {
        let cost = graph.cost(t);
        let mut best: Option<(SiteId, f64, f64)> = None;
        for s in network.sites() {
            let transfer = aps[arrival.0].dist[s.0];
            if !transfer.is_finite() {
                continue;
            }
            let mut ready = now.max(job.release()) + transfer;
            for p in graph.predecessors(t) {
                let delay = if placed_site[p.0] == s {
                    0.0
                } else {
                    aps[placed_site[p.0].0].dist[s.0]
                };
                ready = ready.max(finish[p.0] + delay);
            }
            let duration = cost / network.speed(s);
            if let Some(start) = scratch[s.0].earliest_fit(ready, deadline, duration) {
                let end = start + duration;
                let better = best.map(|(_, _, e)| end < e - 1e-12).unwrap_or(true);
                if better {
                    best = Some((s, start, end));
                }
            }
        }
        let (s, start, end) = best?;
        let reservation = Reservation {
            job: job.id,
            task: t,
            start,
            end,
        };
        scratch[s.0].insert(reservation).ok()?;
        placed_site[t.0] = s;
        finish[t.0] = end;
        out.push((s, reservation));
    }
    Some(out)
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
