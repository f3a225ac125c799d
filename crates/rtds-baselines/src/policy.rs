//! The report format and policy trait shared by every distribution policy.

use crate::broadcast_bidding::{run_broadcast_bidding, BiddingConfig};
use crate::centralized::run_centralized_oracle;
use crate::global_heft::run_global_heft;
use crate::local_only::run_local_only;
use crate::random_offload::{run_random_offload, RandomOffloadConfig};
use rtds_graph::Job;
use rtds_net::Network;

/// Outcome summary of running one policy over one workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyReport {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs accepted on their arrival site.
    pub accepted_locally: u64,
    /// Jobs accepted somewhere else (after offloading / bidding /
    /// distribution).
    pub accepted_remotely: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Accepted jobs that missed their deadline at run time (must stay 0 for
    /// every sound policy — reported as a safety check).
    pub deadline_misses: u64,
    /// Protocol messages exchanged to distribute jobs (excludes any one-time
    /// initialisation traffic).
    pub distribution_messages: u64,
}

impl PolicyReport {
    /// Total number of accepted jobs.
    pub fn accepted(&self) -> u64 {
        self.accepted_locally + self.accepted_remotely
    }

    /// Guarantee ratio, or `None` for an empty workload (a 0/0 ratio is
    /// undefined — report formats render it as `null`, not as a fake 1.0).
    pub fn guarantee_ratio(&self) -> Option<f64> {
        if self.submitted == 0 {
            None
        } else {
            Some(self.accepted() as f64 / self.submitted as f64)
        }
    }

    /// Average number of distribution messages per submitted job, or `None`
    /// for an empty workload.
    pub fn messages_per_job(&self) -> Option<f64> {
        if self.submitted == 0 {
            None
        } else {
            Some(self.distribution_messages as f64 / self.submitted as f64)
        }
    }
}

/// A distribution policy: given a network and a workload, decide which jobs
/// run where and report the outcome. Every baseline implements this trait so
/// harnesses can iterate over a uniform `Vec<Box<dyn DistributionPolicy>>`
/// instead of hand-wiring five differently-shaped entry points.
pub trait DistributionPolicy {
    /// Stable policy name used in report rows.
    fn name(&self) -> &'static str;
    /// Runs the policy over the workload and summarises the outcome.
    fn run(&self, network: &Network, jobs: &[Job]) -> PolicyReport;
}

/// [`crate::local_only`] behind the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalOnly {
    /// Whether sites may split tasks across idle windows.
    pub preemptive: bool,
}

impl DistributionPolicy for LocalOnly {
    fn name(&self) -> &'static str {
        "local-only"
    }
    fn run(&self, network: &Network, jobs: &[Job]) -> PolicyReport {
        run_local_only(network, jobs, self.preemptive)
    }
}

/// [`crate::random_offload`] behind the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomOffload {
    /// Forwarding parameters.
    pub config: RandomOffloadConfig,
}

impl DistributionPolicy for RandomOffload {
    fn name(&self) -> &'static str {
        "random-offload"
    }
    fn run(&self, network: &Network, jobs: &[Job]) -> PolicyReport {
        run_random_offload(network, jobs, self.config)
    }
}

/// [`crate::broadcast_bidding`] behind the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastBidding {
    /// Bidding parameters.
    pub config: BiddingConfig,
}

impl DistributionPolicy for BroadcastBidding {
    fn name(&self) -> &'static str {
        "broadcast-bidding"
    }
    fn run(&self, network: &Network, jobs: &[Job]) -> PolicyReport {
        run_broadcast_bidding(network, jobs, self.config)
    }
}

/// [`crate::centralized`] behind the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralizedOracle {
    /// Whether sites may split tasks across idle windows.
    pub preemptive: bool,
}

impl DistributionPolicy for CentralizedOracle {
    fn name(&self) -> &'static str {
        "centralized-oracle"
    }
    fn run(&self, network: &Network, jobs: &[Job]) -> PolicyReport {
        run_centralized_oracle(network, jobs, self.preemptive)
    }
}

/// [`crate::global_heft`] behind the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalHeft {
    /// Whether sites may split tasks across idle windows.
    pub preemptive: bool,
}

impl DistributionPolicy for GlobalHeft {
    fn name(&self) -> &'static str {
        "global-heft"
    }
    fn run(&self, network: &Network, jobs: &[Job]) -> PolicyReport {
        run_global_heft(network, jobs, self.preemptive)
    }
}

/// All five baselines with their default parameters, in comparison order.
pub fn all_policies() -> Vec<Box<dyn DistributionPolicy>> {
    vec![
        Box::new(LocalOnly::default()),
        Box::new(RandomOffload::default()),
        Box::new(BroadcastBidding::default()),
        Box::new(GlobalHeft::default()),
        Box::new(CentralizedOracle::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::{JobId, JobParams, TaskGraph};
    use rtds_net::generators::{ring, DelayDistribution};

    #[test]
    fn ratios() {
        let r = PolicyReport::default();
        assert_eq!(r.guarantee_ratio(), None);
        assert_eq!(r.messages_per_job(), None);
        let r = PolicyReport {
            submitted: 10,
            accepted_locally: 4,
            accepted_remotely: 3,
            rejected: 3,
            deadline_misses: 0,
            distribution_messages: 50,
        };
        assert_eq!(r.accepted(), 7);
        assert!((r.guarantee_ratio().unwrap() - 0.7).abs() < 1e-12);
        assert!((r.messages_per_job().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn the_trait_covers_all_five_baselines() {
        let policies = all_policies();
        assert_eq!(policies.len(), 5);
        let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "local-only",
                "random-offload",
                "broadcast-bidding",
                "global-heft",
                "centralized-oracle",
            ]
        );
        // Every policy runs the same tiny workload and accounts for every
        // submitted job.
        let net = ring(4, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![Job::new(
            JobId(1),
            TaskGraph::from_costs(&[3.0]),
            JobParams::new(0.0, 20.0),
            0,
        )];
        for policy in &policies {
            let report = policy.run(&net, &jobs);
            assert_eq!(report.submitted, 1, "{}", policy.name());
            assert_eq!(report.accepted() + report.rejected, 1, "{}", policy.name());
            assert_eq!(report.deadline_misses, 0, "{}", policy.name());
        }
    }

    #[test]
    fn trait_calls_match_the_free_functions() {
        let net = ring(5, DelayDistribution::Constant(1.0), 0);
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                Job::new(
                    JobId(i),
                    TaskGraph::from_costs(&[25.0]),
                    JobParams::new(i as f64, i as f64 + 30.0),
                    (i % 5) as usize,
                )
            })
            .collect();
        assert_eq!(
            LocalOnly::default().run(&net, &jobs),
            run_local_only(&net, &jobs, false)
        );
        assert_eq!(
            RandomOffload::default().run(&net, &jobs),
            run_random_offload(&net, &jobs, RandomOffloadConfig::default())
        );
        assert_eq!(
            BroadcastBidding::default().run(&net, &jobs),
            run_broadcast_bidding(&net, &jobs, BiddingConfig::default())
        );
        assert_eq!(
            GlobalHeft::default().run(&net, &jobs),
            run_global_heft(&net, &jobs, false)
        );
        assert_eq!(
            CentralizedOracle::default().run(&net, &jobs),
            run_centralized_oracle(&net, &jobs, false)
        );
    }
}
