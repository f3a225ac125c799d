//! Random-offload policy: on local failure, push the whole job to a random
//! neighbor and let it try, up to a bounded number of forwarding hops.
//!
//! This is the cheapest possible cooperation scheme (one message per
//! forwarding hop, no control structure at all) and serves as a middle point
//! between the local-only lower bound and RTDS: it shows that blind
//! cooperation recovers some acceptances but far fewer than a coordinated
//! Computing Sphere, at a comparable message cost.

use crate::policy::PolicyReport;
use crate::sites::{admit_on, run_policy, Placed};
use rand::prelude::*;
use rand::rngs::StdRng;
use rtds_graph::Job;
use rtds_net::{Network, SiteId};

/// Parameters of the random-offload policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RandomOffloadConfig {
    /// Maximum number of forwarding hops after the arrival site.
    pub(crate) max_hops: usize,
    /// RNG seed (forwarding decisions are random but reproducible).
    pub(crate) seed: u64,
    /// Whether sites may split tasks across idle windows.
    pub(crate) preemptive: bool,
}

impl Default for RandomOffloadConfig {
    fn default() -> Self {
        RandomOffloadConfig {
            max_hops: 3,
            seed: 0,
            preemptive: false,
        }
    }
}

/// Runs the random-offload policy over a workload.
pub(crate) fn run_random_offload(
    network: &Network,
    jobs: &[Job],
    config: RandomOffloadConfig,
) -> PolicyReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    run_policy(network, jobs, config.preemptive, |sites, job, messages| {
        let mut current = SiteId(job.arrival_site);
        let mut previous: Option<SiteId> = None;
        // The job experiences the forwarding latency: its effective earliest
        // start moves forward by each traversed link's delay.
        let mut now = job.arrival_time;
        for hop in 0..=config.max_hops {
            if admit_on(&mut sites[current.0], job, now) {
                return Some(if hop == 0 {
                    Placed::Locally
                } else {
                    Placed::Remotely
                });
            }
            if hop == config.max_hops {
                break;
            }
            // Forward to a random neighbor, avoiding an immediate bounce-back
            // when another choice exists.
            let neighbors: Vec<(SiteId, f64)> = network
                .neighbors(current)
                .iter()
                .copied()
                .filter(|(n, _)| Some(*n) != previous || network.degree(current) == 1)
                .collect();
            let &(next, delay) = neighbors.choose(&mut rng)?;
            *messages += 1;
            previous = Some(current);
            current = next;
            now += delay;
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::{JobId, JobParams, TaskGraph, TaskId};
    use rtds_net::generators::{ring, star, DelayDistribution};

    fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64, site: usize) -> Job {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(release, deadline), site)
    }

    #[test]
    fn offloads_when_the_arrival_site_is_full() {
        let net = ring(5, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![
            chain_job(1, &[35.0], 0.0, 40.0, 0),
            chain_job(2, &[35.0], 0.0, 45.0, 0),
        ];
        let report = run_random_offload(&net, &jobs, RandomOffloadConfig::default());
        assert_eq!(report.submitted, 2);
        assert_eq!(report.accepted_locally, 1);
        assert_eq!(report.accepted_remotely, 1);
        assert_eq!(report.rejected, 0);
        assert!(report.distribution_messages >= 1);
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn zero_hops_degenerates_to_local_only() {
        let net = ring(5, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![
            chain_job(1, &[35.0], 0.0, 40.0, 0),
            chain_job(2, &[35.0], 0.0, 45.0, 0),
        ];
        let cfg = RandomOffloadConfig {
            max_hops: 0,
            ..RandomOffloadConfig::default()
        };
        let report = run_random_offload(&net, &jobs, cfg);
        assert_eq!(report.accepted_locally, 1);
        assert_eq!(report.accepted_remotely, 0);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.distribution_messages, 0);
    }

    #[test]
    fn forwarding_latency_counts_against_the_deadline() {
        // Star with very slow spokes: after one forwarding hop (delay 50) the
        // remaining window is too small.
        let net = star(4, DelayDistribution::Constant(50.0), 0);
        let jobs = vec![
            chain_job(1, &[35.0], 0.0, 40.0, 0),
            chain_job(2, &[35.0], 0.0, 60.0, 0),
        ];
        let cfg = RandomOffloadConfig {
            max_hops: 2,
            ..RandomOffloadConfig::default()
        };
        let report = run_random_offload(&net, &jobs, cfg);
        assert_eq!(report.accepted_locally, 1);
        assert_eq!(report.accepted_remotely, 0);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let net = ring(8, DelayDistribution::Constant(1.0), 0);
        let jobs: Vec<Job> = (0..10)
            .map(|i| chain_job(i, &[30.0], i as f64, i as f64 + 35.0, (i % 8) as usize))
            .collect();
        let cfg = RandomOffloadConfig::default();
        let a = run_random_offload(&net, &jobs, cfg);
        let b = run_random_offload(&net, &jobs, cfg);
        assert_eq!(a, b);
    }
}
