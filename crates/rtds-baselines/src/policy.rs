//! The report format shared by every distribution policy, and the table of
//! their entry points.

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

/// A baseline's entry point: the network, the jobs in arrival order,
/// whether sites may split tasks across idle windows, and the seed of the
/// policy's own random choices (only random offload makes any). Every other
/// parameter is the policy's default.
pub type Baseline = fn(&Network, &[Job], bool, u64) -> PolicyReport;

/// The five baselines by report name, in comparison order.
pub const BASELINES: [(&str, Baseline); 5] = [
    ("local-only", |network, jobs, preemptive, _| {
        run_local_only(network, jobs, preemptive)
    }),
    ("random-offload", |network, jobs, preemptive, seed| {
        let config = RandomOffloadConfig {
            seed,
            preemptive,
            ..RandomOffloadConfig::default()
        };
        run_random_offload(network, jobs, config)
    }),
    ("broadcast-bidding", |network, jobs, preemptive, _| {
        let config = BiddingConfig {
            preemptive,
            ..BiddingConfig::default()
        };
        run_broadcast_bidding(network, jobs, config)
    }),
    ("global-heft", |network, jobs, preemptive, _| {
        run_global_heft(network, jobs, preemptive)
    }),
    ("centralized-oracle", |network, jobs, preemptive, _| {
        run_centralized_oracle(network, jobs, preemptive)
    }),
];

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
    fn the_table_covers_all_five_baselines() {
        let names: Vec<&str> = BASELINES.iter().map(|(name, _)| *name).collect();
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
        for (name, run) in BASELINES {
            let report = run(&net, &jobs, false, 0);
            assert_eq!(report.submitted, 1, "{name}");
            assert_eq!(report.accepted() + report.rejected, 1, "{name}");
            assert_eq!(report.deadline_misses, 0, "{name}");
        }
    }

    #[test]
    fn table_entries_match_the_free_functions() {
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
        let offload = RandomOffloadConfig {
            seed: 9,
            preemptive: true,
            ..RandomOffloadConfig::default()
        };
        let bidding = BiddingConfig {
            preemptive: true,
            ..BiddingConfig::default()
        };
        let direct = [
            run_local_only(&net, &jobs, true),
            run_random_offload(&net, &jobs, offload),
            run_broadcast_bidding(&net, &jobs, bidding),
            run_global_heft(&net, &jobs, true),
            run_centralized_oracle(&net, &jobs, true),
        ];
        for ((name, run), want) in BASELINES.iter().zip(direct) {
            assert_eq!(run(&net, &jobs, true, 9), want, "{name}");
        }
    }
}
