//! Local-only policy: no cooperation between sites.
//!
//! Every job is accepted if and only if its arrival site can guarantee it
//! locally (§5 test). This is the natural lower bound on the guarantee ratio
//! and costs zero messages; the gap between this policy and RTDS quantifies
//! the paper's "increase of the number of accepted (executed) jobs".

use crate::policy::PolicyReport;
use crate::sites::{admit_on, run_policy, Placed};
use rtds_graph::Job;
use rtds_net::Network;

/// Runs the local-only policy over a workload: each job is offered only to
/// its arrival site.
pub fn run_local_only(network: &Network, jobs: &[Job], preemptive: bool) -> PolicyReport {
    run_policy(network, jobs, preemptive, |sites, job, _| {
        admit_on(&mut sites[job.arrival_site], job, job.arrival_time).then_some(Placed::Locally)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::{JobId, JobParams, TaskGraph, TaskId};
    use rtds_net::generators::{ring, DelayDistribution};

    fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64, site: usize) -> Job {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(release, deadline), site)
    }

    #[test]
    fn accepts_feasible_and_rejects_overload() {
        let net = ring(4, DelayDistribution::Constant(1.0), 0);
        let jobs = vec![
            chain_job(1, &[30.0], 0.0, 40.0, 0),
            chain_job(2, &[30.0], 0.0, 40.0, 0), // overloads site 0
            chain_job(3, &[30.0], 0.0, 40.0, 1), // fine on site 1
        ];
        let report = run_local_only(&net, &jobs, false);
        assert_eq!(report.submitted, 3);
        assert_eq!(report.accepted_locally, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.accepted_remotely, 0);
        assert_eq!(report.distribution_messages, 0);
        assert_eq!(report.deadline_misses, 0);
        assert!((report.guarantee_ratio().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn arrival_order_is_respected() {
        let net = ring(2, DelayDistribution::Constant(1.0), 0);
        // The later job would fit if processed first, but arrival order says
        // the big one comes first.
        let jobs = vec![
            chain_job(2, &[5.0], 10.0, 40.0, 0),
            chain_job(1, &[35.0], 0.0, 40.0, 0),
        ];
        let report = run_local_only(&net, &jobs, false);
        assert_eq!(report.accepted_locally, 2);
        let tight = vec![
            chain_job(1, &[40.0], 0.0, 41.0, 0),
            chain_job(2, &[5.0], 10.0, 20.0, 0),
        ];
        let report = run_local_only(&net, &tight, false);
        assert_eq!(report.accepted_locally, 1);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn empty_workload() {
        let net = ring(3, DelayDistribution::Constant(1.0), 0);
        let report = run_local_only(&net, &[], false);
        assert_eq!(report.submitted, 0);
        assert_eq!(report.guarantee_ratio(), None);
    }
}
