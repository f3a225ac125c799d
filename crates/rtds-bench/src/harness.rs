//! Shared experiment utilities: workload construction, policy comparison and
//! the report-field renderers several experiments share.

use rtds_baselines::{
    BiddingConfig, BroadcastBidding, CentralizedOracle, DistributionPolicy, GlobalHeft, LocalOnly,
    PolicyReport, RandomOffload, RandomOffloadConfig,
};
use rtds_core::{RtdsConfig, RtdsSystem, StreamReport};
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::Job;
use rtds_net::{Network, SiteId};
use rtds_scenarios::{CellReport, Json};
use rtds_sim::arrivals::{ArrivalProcess, ArrivalSchedule};

/// Description of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Per-site Poisson arrival rate (jobs per time unit).
    pub rate: f64,
    /// Simulation horizon for arrivals.
    pub horizon: f64,
    /// Tasks per job.
    pub tasks_per_job: usize,
    /// Deadline laxity factor range.
    pub laxity: (f64, f64),
    /// Restrict arrivals to the first `hotspots` sites (0 = all sites).
    pub hotspots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            rate: 0.01,
            horizon: 300.0,
            tasks_per_job: 8,
            laxity: (1.6, 2.6),
            hotspots: 0,
            seed: 1,
        }
    }
}

/// Builds the workload described by `spec` for the given network.
pub fn workload(network: &Network, spec: WorkloadSpec) -> Vec<Job> {
    let schedule = if spec.hotspots == 0 {
        ArrivalSchedule::generate(
            ArrivalProcess::Poisson { rate: spec.rate },
            network.site_count(),
            spec.horizon,
            spec.seed,
        )
    } else {
        let sites: Vec<SiteId> = network.sites().take(spec.hotspots).collect();
        ArrivalSchedule::generate_on_sites(
            ArrivalProcess::Poisson { rate: spec.rate },
            &sites,
            spec.horizon,
            spec.seed,
        )
    };
    let cfg = GeneratorConfig {
        task_count: spec.tasks_per_job,
        shape: DagShape::LayeredRandom {
            layers: 3,
            edge_prob: 0.3,
        },
        costs: CostDistribution::Uniform { min: 2.0, max: 9.0 },
        ccr: 0.0,
        laxity_factor: spec.laxity,
    };
    let mut generator = DagGenerator::new(cfg, spec.seed.wrapping_mul(97).wrapping_add(13));
    schedule
        .arrivals()
        .iter()
        .map(|a| generator.generate_job(a.site.index(), a.time))
        .collect()
}

/// One row of a policy-comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Policy label.
    pub policy: String,
    /// Jobs accepted.
    pub accepted: u64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Guarantee ratio (`None` for an empty workload — a 0/0 ratio).
    pub ratio: Option<f64>,
    /// Deadline misses among accepted jobs (must be zero).
    pub misses: u64,
    /// Distribution messages per submitted job (`None` for an empty
    /// workload).
    pub messages_per_job: Option<f64>,
}

impl ComparisonRow {
    fn from_policy(label: &str, report: &PolicyReport) -> Self {
        ComparisonRow {
            policy: label.to_string(),
            accepted: report.accepted(),
            submitted: report.submitted,
            ratio: report.guarantee_ratio(),
            misses: report.deadline_misses,
            messages_per_job: report.messages_per_job(),
        }
    }

    fn from_rtds(label: &str, report: &StreamReport) -> Self {
        let submitted = report.guarantee.submitted;
        ComparisonRow {
            policy: label.to_string(),
            accepted: report.guarantee.accepted(),
            submitted,
            ratio: (submitted > 0).then(|| report.guarantee_ratio()),
            misses: report.accepted_misses(),
            messages_per_job: (submitted > 0).then_some(report.messages_per_job),
        }
    }
}

/// Runs RTDS (full protocol) and returns its comparison row.
pub fn comparison_row(
    label: &str,
    network: &Network,
    jobs: &[Job],
    config: RtdsConfig,
    seed: u64,
) -> ComparisonRow {
    let mut system = RtdsSystem::new(network.clone(), config, seed);
    let (report, _) = system.run(jobs.to_vec());
    ComparisonRow::from_rtds(label, &report)
}

/// The five baselines parameterised for a comparison against `config`.
pub(crate) fn baseline_policies(
    config: &RtdsConfig,
    seed: u64,
) -> Vec<Box<dyn DistributionPolicy>> {
    vec![
        Box::new(LocalOnly {
            preemptive: config.preemptive,
        }),
        Box::new(RandomOffload {
            config: RandomOffloadConfig {
                seed,
                preemptive: config.preemptive,
                ..RandomOffloadConfig::default()
            },
        }),
        Box::new(BroadcastBidding {
            config: BiddingConfig {
                preemptive: config.preemptive,
                ..BiddingConfig::default()
            },
        }),
        Box::new(GlobalHeft {
            preemptive: config.preemptive,
        }),
        Box::new(CentralizedOracle {
            preemptive: config.preemptive,
        }),
    ]
}

/// Runs RTDS plus all five baselines on the same workload.
pub fn policy_comparison(
    network: &Network,
    jobs: &[Job],
    config: RtdsConfig,
    seed: u64,
) -> Vec<ComparisonRow> {
    let mut rows = vec![comparison_row("rtds", network, jobs, config, seed)];
    for policy in baseline_policies(&config, seed) {
        rows.push(ComparisonRow::from_policy(
            policy.name(),
            &policy.run(network, jobs),
        ));
    }
    rows
}

/// Guarantee ratio of the named policy in a [`policy_comparison`] result
/// (NaN when the policy is absent or its ratio undefined).
pub fn policy_ratio(rows: &[ComparisonRow], policy: &str) -> f64 {
    rows.iter()
        .find(|r| r.policy == policy)
        .and_then(|r| r.ratio)
        .unwrap_or(f64::NAN)
}

/// An optional number as JSON: undefined ratios serialize as `null`, never
/// as a fake `1.0` or `0.0`.
pub fn opt_num(value: Option<f64>) -> Json {
    value.map(Json::Num).unwrap_or(Json::Null)
}

/// The outcome counts every per-cell JSON object carries, in report order.
pub fn cell_outcome_fields(cell: &CellReport) -> Vec<(&'static str, Json)> {
    vec![
        ("submitted", Json::UInt(cell.submitted)),
        ("accepted_locally", Json::UInt(cell.accepted_locally)),
        (
            "accepted_distributed",
            Json::UInt(cell.accepted_distributed),
        ),
        ("rejected", Json::UInt(cell.rejected)),
        ("deadline_misses", Json::UInt(cell.deadline_misses)),
    ]
}

/// Jobs accepted (locally or after distribution) over a set of cells.
pub fn cells_accepted(cells: &[CellReport]) -> u64 {
    cells
        .iter()
        .map(|c| c.accepted_locally + c.accepted_distributed)
        .sum()
}

/// The check closing every registry-driven experiment, after its table is
/// printed and its report written: an accepted job must never miss its
/// deadline. Any miss is reported on stderr and exits with status 1.
pub fn require_no_deadline_misses(misses: u64) {
    if misses > 0 {
        eprintln!("deadline-miss check FAILED: {misses} accepted job(s) missed their deadline");
        std::process::exit(1);
    }
}

/// Worker threads for the experiment sweeps: the available parallelism.
/// Every sweep reassembles its results in input order, so no report depends
/// on this.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::generators::{ring, DelayDistribution};

    #[test]
    fn workload_is_reproducible_and_respects_hotspots() {
        let net = ring(8, DelayDistribution::Constant(1.0), 0);
        let spec = WorkloadSpec {
            hotspots: 2,
            ..WorkloadSpec::default()
        };
        let a = workload(&net, spec);
        let b = workload(&net, spec);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        assert!(a.iter().all(|j| j.arrival_site < 2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival_site, y.arrival_site);
            assert_eq!(x.params, y.params);
        }
    }

    #[test]
    fn comparison_runs_all_policies() {
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let jobs = workload(
            &net,
            WorkloadSpec {
                rate: 0.02,
                horizon: 100.0,
                ..WorkloadSpec::default()
            },
        );
        let rows = policy_comparison(&net, &jobs, RtdsConfig::default(), 1);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.policy == "global-heft"));
        assert!(rows.iter().all(|r| r.misses == 0));
        assert!(rows.iter().all(|r| r.submitted == jobs.len() as u64));
    }
}
