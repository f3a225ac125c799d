//! Broadcast focused-addressing / bidding, in the style of Cheng, Stankovic
//! and Ramamritham \[4\].
//!
//! The paper singles out \[4\] as the only previous distributed scheme for
//! competitive DAGs and criticises it for broadcasting surplus information
//! over the entire network. This baseline reproduces that mechanism at the
//! level of detail the reference provides:
//!
//! 1. on local failure the initiator floods a *request for bids* over the
//!    whole network (cost: one message per link per direction, the classical
//!    flooding cost `2·|E|`),
//! 2. every other site answers with a bid carrying its surplus (cost: one
//!    message per site),
//! 3. the initiator offers the whole job to the best bidders in decreasing
//!    surplus order (one offer plus one answer per attempt) until a site
//!    accepts or the candidate list is exhausted.
//!
//! Acceptance quality is good — every site is consulted — but the message
//! cost grows linearly with the network, which is exactly the behaviour the
//! Computing Sphere bounds. Message accounting is analytic (the flood and the
//! bids are not individually simulated); acceptance decisions use the same
//! per-site scheduling plans and admission test as every other policy.

use crate::policy::PolicyReport;
use crate::sites::{admit_on, run_policy, Placed};
use rtds_graph::Job;
use rtds_net::dijkstra::shortest_paths;
use rtds_net::{Network, SiteId};
use rtds_sched::Scheduler;

/// Parameters of the broadcast-bidding policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiddingConfig {
    /// How many of the best bidders the initiator tries in turn.
    pub top_bidders: usize,
    /// Observation window used to compute the bid surpluses.
    pub observation_window: f64,
    /// Whether sites may split tasks across idle windows.
    pub preemptive: bool,
}

impl Default for BiddingConfig {
    fn default() -> Self {
        BiddingConfig {
            top_bidders: 3,
            observation_window: 200.0,
            preemptive: false,
        }
    }
}

/// Runs the broadcast-bidding policy over a workload.
pub fn run_broadcast_bidding(
    network: &Network,
    jobs: &[Job],
    config: BiddingConfig,
) -> PolicyReport {
    let n = network.site_count();
    run_policy(network, jobs, config.preemptive, |sites, job, messages| {
        let arrival = SiteId(job.arrival_site);
        let now = job.arrival_time;
        // Local attempt first.
        if admit_on(&mut sites[arrival.0], job, now) {
            return Some(Placed::Locally);
        }
        // Flood the request for bids over the whole network and collect one
        // bid per site.
        *messages += 2 * network.link_count() as u64;
        *messages += (n as u64).saturating_sub(1);
        // Sort candidate sites by decreasing surplus (ties by distance, then
        // id) — "focused addressing" towards the most promising sites.
        let sp = shortest_paths(network, arrival);
        let mut bidders: Vec<(SiteId, f64, f64)> = (0..n)
            .filter(|&s| s != arrival.0)
            .map(|s| {
                let surplus = sites[s].surplus(now, config.observation_window);
                (SiteId(s), surplus, sp.dist[s])
            })
            .collect();
        bidders.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap()
                .then(a.2.partial_cmp(&b.2).unwrap())
                .then(a.0 .0.cmp(&b.0 .0))
        });
        for &(site, _surplus, dist) in bidders.iter().take(config.top_bidders.max(1)) {
            // Offer + answer.
            *messages += 2;
            // The job (and later its results) must travel to the remote site:
            // its effective earliest start accounts for the transfer delay.
            if admit_on(&mut sites[site.0], job, now + dist) {
                return Some(Placed::Remotely);
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::{JobId, JobParams, TaskGraph, TaskId};
    use rtds_net::generators::{line, ring, DelayDistribution};

    fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64, site: usize) -> Job {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(release, deadline), site)
    }

    #[test]
    fn bidding_recovers_jobs_the_local_test_rejects() {
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![
            chain_job(1, &[35.0], 0.0, 40.0, 0),
            chain_job(2, &[35.0], 0.0, 45.0, 0),
            chain_job(3, &[35.0], 0.0, 45.0, 0),
        ];
        let report = run_broadcast_bidding(&net, &jobs, BiddingConfig::default());
        assert_eq!(report.submitted, 3);
        assert_eq!(report.accepted_locally, 1);
        assert_eq!(report.accepted_remotely, 2);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.deadline_misses, 0);
        // Two floods: 2 * (2*6 links + 5 bids + offers/answers).
        assert!(report.distribution_messages >= 2 * (2 * 6 + 5 + 2));
    }

    #[test]
    fn message_cost_grows_with_network_size() {
        let jobs = |site_count: usize| {
            vec![
                chain_job(1, &[35.0], 0.0, 40.0, 0),
                chain_job(2, &[35.0], 0.0, 45.0, 0),
            ]
            .into_iter()
            .map(|mut j| {
                j.arrival_site %= site_count;
                j
            })
            .collect::<Vec<_>>()
        };
        let small = run_broadcast_bidding(
            &ring(8, DelayDistribution::Constant(1.0), 0),
            &jobs(8),
            BiddingConfig::default(),
        );
        let big = run_broadcast_bidding(
            &ring(64, DelayDistribution::Constant(1.0), 0),
            &jobs(64),
            BiddingConfig::default(),
        );
        assert!(big.distribution_messages > 4 * small.distribution_messages);
    }

    #[test]
    fn transfer_delay_counts_against_the_deadline() {
        // A long line with delay 20 per hop: remote sites are reachable but
        // the transfer eats the whole window.
        let net = line(5, DelayDistribution::Constant(20.0), 0);
        let jobs = vec![
            chain_job(1, &[35.0], 0.0, 40.0, 0),
            chain_job(2, &[35.0], 0.0, 50.0, 0),
        ];
        let report = run_broadcast_bidding(&net, &jobs, BiddingConfig::default());
        assert_eq!(report.accepted_locally, 1);
        assert_eq!(report.accepted_remotely, 0);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn empty_workload_costs_nothing() {
        let net = ring(4, DelayDistribution::Constant(1.0), 0);
        let report = run_broadcast_bidding(&net, &[], BiddingConfig::default());
        assert_eq!(report.submitted, 0);
        assert_eq!(report.distribution_messages, 0);
    }
}
