//! Multicore equivalence gate: with the default site model — one core,
//! unlimited memory, the protocol scheduler and single-core demands — every
//! registry scenario must reproduce the pre-multicore sweep bytes exactly,
//! regardless of thread count. The fixture was recorded immediately before
//! the `SiteResources`/`Scheduler` refactor landed; any drift here means the
//! degenerate path no longer delegates verbatim to the single-plan
//! primitives.

use rtds::baselines::{PolicyReport, BASELINES};
use rtds::core::DemandRule;
use rtds::graph::Job;
use rtds::net::generators::DelayDistribution;
use rtds::net::Network;
use rtds::scenarios::spec::{
    BandwidthRecipe, SpeedRecipe, TopologyRecipe, TopologySpec, WorkloadRecipe,
};
use rtds::scenarios::{builtin_scenarios, run_sweep, Scenario, SweepConfig};
use rtds::sched::SchedulerKind;
use rtds::sim::arrivals::ArrivalProcess;
use rtds::sim::json::Json;

const PRE_MULTICORE_SWEEP: &str = include_str!("fixtures/sweep_pre_multicore_seed1.json");

/// Every baseline's report on the two workloads of [`policy_workloads`],
/// recorded with the code that still had one job loop per policy and two
/// copies of the cross-site list scheduler.
const POLICY_REPORTS: &str = include_str!("fixtures/policy_reports.json");

/// The scenarios that existed before the multicore model: default scheduler,
/// default demands, default (degenerate) resource recipe.
fn pre_multicore_scenarios() -> Vec<Scenario> {
    builtin_scenarios()
        .into_iter()
        .filter(|s| {
            s.config.scheduler == SchedulerKind::Protocol
                && s.config.demand == DemandRule::SingleCore
                && s.resources.is_degenerate()
        })
        .collect()
}

#[test]
fn default_model_reproduces_the_pre_multicore_sweep_bytes() {
    let scenarios = pre_multicore_scenarios();
    assert!(
        scenarios.len() >= 16,
        "the pre-multicore registry had 16 scenarios, found {}",
        scenarios.len()
    );
    for threads in [1, 2, 4] {
        let report = run_sweep(&scenarios, &SweepConfig::new(1, 1, threads));
        assert_eq!(
            report.to_json(),
            PRE_MULTICORE_SWEEP,
            "sweep bytes drifted from the pre-multicore fixture (threads = {threads})"
        );
    }
}

/// Two generated workloads for the baselines: a 6x6 grid whose four hotspot
/// sites receive wide, tight jobs with data volumes (so the oracle has to
/// split DAGs across sites and HEFT's rank differs from the critical path),
/// and a ring whose sites differ in speed.
fn policy_workloads() -> Vec<(&'static str, Network, Vec<Job>)> {
    let hotspot_grid = TopologySpec {
        recipe: TopologyRecipe::Grid {
            width: 6,
            height: 6,
            wrap: false,
        },
        delays: DelayDistribution::Uniform { min: 0.5, max: 2.0 },
        bandwidths: BandwidthRecipe::Unlimited,
        speeds: SpeedRecipe::Identical,
    }
    .build(21);
    let hotspot_load = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.12 },
        horizon: 400.0,
        hotspots: 4,
        tasks_per_job: 10,
        ccr: 0.5,
        laxity: (1.2, 3.0),
        ..WorkloadRecipe::default()
    }
    .build(&hotspot_grid, 22);
    let hetero_ring = TopologySpec {
        recipe: TopologyRecipe::Ring { sites: 12 },
        delays: DelayDistribution::Uniform { min: 0.5, max: 2.0 },
        bandwidths: BandwidthRecipe::Unlimited,
        speeds: SpeedRecipe::UniformRandom { min: 0.5, max: 3.0 },
    }
    .build(23);
    let ring_load = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.05 },
        horizon: 300.0,
        ..WorkloadRecipe::default()
    }
    .build(&hetero_ring, 24);
    vec![
        ("hotspot-grid-6x6", hotspot_grid, hotspot_load),
        ("hetero-speed-ring", hetero_ring, ring_load),
    ]
}

/// The five policies at their defaults (non-preemptive, random-offload seed
/// 0) plus the preemptive variants of local-only and the centralized oracle.
fn policy_rows(network: &Network, jobs: &[Job]) -> Vec<(String, PolicyReport)> {
    let mut rows: Vec<(String, PolicyReport)> = BASELINES
        .iter()
        .map(|(name, run)| (name.to_string(), run(network, jobs, false, 0)))
        .collect();
    for (name, run) in BASELINES {
        if name == "local-only" || name == "centralized-oracle" {
            rows.push((format!("{name}/preemptive"), run(network, jobs, true, 0)));
        }
    }
    rows
}

fn report_fields(r: &PolicyReport) -> [(&'static str, u64); 6] {
    [
        ("submitted", r.submitted),
        ("accepted_locally", r.accepted_locally),
        ("accepted_remotely", r.accepted_remotely),
        ("rejected", r.rejected),
        ("deadline_misses", r.deadline_misses),
        ("distribution_messages", r.distribution_messages),
    ]
}

#[test]
fn baseline_reports_match_the_recorded_fixture() {
    let fixture = Json::parse(POLICY_REPORTS).expect("fixture parses");
    for (workload, network, jobs) in policy_workloads() {
        let recorded = fixture.get(workload).expect("workload recorded");
        let rows = policy_rows(&network, &jobs);
        assert_eq!(rows.len(), 7);
        for (policy, report) in &rows {
            let want = recorded.get(policy).expect("policy recorded");
            for (field, got) in report_fields(report) {
                assert_eq!(
                    want.get(field).and_then(Json::as_u64),
                    Some(got),
                    "{workload} / {policy} / {field}"
                );
            }
            // The hotspot load exercises what the fixture is there to pin:
            // jobs that only fit elsewhere or split, and jobs nothing can
            // save.
            let centralized =
                policy.starts_with("global-heft") || policy.starts_with("centralized-oracle");
            if workload == "hotspot-grid-6x6" && centralized {
                assert!(report.accepted_remotely > 0, "{policy}");
                assert!(report.rejected > 0, "{policy}");
            }
        }
    }
}
