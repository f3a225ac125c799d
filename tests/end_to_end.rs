//! Cross-crate integration tests: full RTDS deployments on various
//! topologies, safety properties and comparisons against the baselines.

use rtds::baselines::{run_broadcast_bidding, run_local_only, BiddingConfig};
use rtds::core::{JobOutcomeKind, LaxityDispatch, RtdsConfig, RtdsSystem};
use rtds::graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds::graph::{Job, JobId, JobParams, TaskGraph, TaskId};
use rtds::net::generators::{erdos_renyi_connected, grid, ring, DelayDistribution};
use rtds::net::{Network, SiteId};
use rtds::sim::arrivals::{ArrivalProcess, ArrivalSchedule};

fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64, site: usize) -> Job {
    let mut g = TaskGraph::from_costs(costs);
    for i in 1..costs.len() {
        g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
    }
    Job::new(JobId(id), g, JobParams::new(release, deadline), site)
}

fn poisson_workload(network: &Network, rate: f64, horizon: f64, seed: u64) -> Vec<Job> {
    let schedule = ArrivalSchedule::generate(
        ArrivalProcess::Poisson { rate },
        network.site_count(),
        horizon,
        seed,
    );
    let cfg = GeneratorConfig {
        task_count: 8,
        shape: DagShape::LayeredRandom {
            layers: 3,
            edge_prob: 0.3,
        },
        costs: CostDistribution::Uniform { min: 2.0, max: 8.0 },
        ccr: 0.0,
        laxity_factor: (1.6, 2.6),
    };
    let mut generator = DagGenerator::new(cfg, seed);
    schedule
        .arrivals()
        .iter()
        .map(|a| generator.generate_job(a.site.index(), a.time))
        .collect()
}

/// Safety: no site's plan ever contains overlapping reservations, and every
/// accepted job meets its deadline — across topologies and loads.
#[test]
fn accepted_jobs_never_miss_deadlines() {
    let topologies: Vec<Network> = vec![
        ring(10, DelayDistribution::Constant(1.0), 0),
        grid(
            4,
            4,
            false,
            DelayDistribution::Uniform { min: 0.5, max: 2.0 },
            1,
        ),
        erdos_renyi_connected(
            20,
            0.15,
            DelayDistribution::Uniform { min: 1.0, max: 3.0 },
            2,
        ),
    ];
    for (i, network) in topologies.into_iter().enumerate() {
        let jobs = poisson_workload(&network, 0.01, 300.0, 40 + i as u64);
        let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), i as u64);
        let (report, records) = system.run(jobs.clone());
        assert_eq!(report.guarantee.submitted as usize, jobs.len());
        assert_eq!(report.deadline_misses(), 0, "topology {i}");
        assert_eq!(report.unharvested_completions, 0, "topology {i}");
        // Every accepted job completed by its deadline.
        assert!(records
            .iter()
            .all(|j| j.outcome == JobOutcomeKind::Rejected || j.met_deadline));
        assert_eq!(report.stats.named("placement_failures"), 0, "topology {i}");
        // Plans are internally consistent (and drained).
        for site in network.sites() {
            assert!(system.node(site).check_plan_invariants(), "site {site}");
        }
        // Accounting is consistent.
        assert_eq!(
            report.guarantee.accepted() + report.guarantee.rejected,
            report.guarantee.submitted
        );
    }
}

/// The paper's headline claim: cooperation over Computing Spheres accepts at
/// least as many jobs as no cooperation at all, and strictly more when the
/// arrival pattern overloads individual sites.
#[test]
fn rtds_accepts_more_than_local_only_under_hotspots() {
    let network = grid(4, 4, false, DelayDistribution::Constant(1.0), 7);
    // All jobs arrive at two hotspot sites.
    let hot = [SiteId(5), SiteId(6)];
    let schedule =
        ArrivalSchedule::generate_on_sites(ArrivalProcess::Poisson { rate: 0.05 }, &hot, 400.0, 9);
    let cfg = GeneratorConfig {
        task_count: 6,
        shape: DagShape::ForkJoin,
        costs: CostDistribution::Uniform {
            min: 3.0,
            max: 10.0,
        },
        ccr: 0.0,
        laxity_factor: (1.8, 2.8),
    };
    let mut generator = DagGenerator::new(cfg, 123);
    let jobs: Vec<Job> = schedule
        .arrivals()
        .iter()
        .map(|a| generator.generate_job(a.site.index(), a.time))
        .collect();
    assert!(jobs.len() > 20, "workload too small to be meaningful");

    let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), 3);
    let (rtds, _) = system.run(jobs.clone());
    let local = run_local_only(&network, &jobs, false);

    assert_eq!(rtds.deadline_misses(), 0);
    assert!(
        rtds.guarantee.accepted() > local.accepted(),
        "RTDS {} vs local-only {}",
        rtds.guarantee.accepted(),
        local.accepted()
    );
    // And some of those acceptances really were distributed.
    assert!(rtds.guarantee.accepted_distributed > 0);
}

/// Bounded spheres: the number of distribution messages per job does not grow
/// with the network, unlike broadcast bidding.
#[test]
fn sphere_overhead_is_independent_of_network_size() {
    let mut rtds_cost = Vec::new();
    let mut bidding_cost = Vec::new();
    for &n in &[16usize, 64, 144] {
        let side = (n as f64).sqrt() as usize;
        let network = grid(side, side, false, DelayDistribution::Constant(1.0), 2);
        // Jobs arrive only at one hotspot so the distribution machinery runs.
        let schedule = ArrivalSchedule::generate_on_sites(
            ArrivalProcess::Poisson { rate: 0.05 },
            &[SiteId(0)],
            200.0,
            5,
        );
        let cfg = GeneratorConfig {
            task_count: 6,
            shape: DagShape::ForkJoin,
            costs: CostDistribution::Uniform { min: 3.0, max: 9.0 },
            ccr: 0.0,
            laxity_factor: (1.6, 2.4),
        };
        let mut generator = DagGenerator::new(cfg, 31);
        let jobs: Vec<Job> = schedule
            .arrivals()
            .iter()
            .map(|a| generator.generate_job(a.site.index(), a.time))
            .collect();

        let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), 1);
        let (report, _) = system.run(jobs.clone());
        rtds_cost.push(report.messages_per_job);

        let bidding = run_broadcast_bidding(&network, &jobs, BiddingConfig::default());
        bidding_cost.push(bidding.messages_per_job().expect("non-empty workload"));
    }
    // RTDS cost varies with the sphere, not the network: within a small
    // constant factor across a 9x network growth.
    assert!(
        rtds_cost[2] <= rtds_cost[0] * 2.0 + 5.0,
        "rtds cost grew with the network: {rtds_cost:?}"
    );
    // Broadcast bidding grows roughly linearly with the network size.
    assert!(
        bidding_cost[2] > bidding_cost[0] * 4.0,
        "bidding cost should scale with the network: {bidding_cost:?}"
    );
}

/// Lock contention: several hotspots distributing at once must still
/// terminate, keep counters consistent and never double-book a site.
#[test]
fn concurrent_distributions_respect_locks() {
    let network = ring(8, DelayDistribution::Constant(1.0), 0);
    let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), 11);
    // Every site gets two overlapping heavy jobs at the same instant.
    let jobs = (0..16)
        .map(|id| chain_job(id, &[30.0], 0.0, 45.0, id as usize / 2))
        .collect();
    let (report, _) = system.run(jobs);
    assert_eq!(report.guarantee.submitted, 16);
    assert_eq!(report.guarantee.accepted() + report.guarantee.rejected, 16);
    assert_eq!(report.deadline_misses(), 0);
    assert_eq!(report.stats.named("placement_failures"), 0);
    for site in network.sites() {
        assert!(system.node(site).check_plan_invariants());
        assert!(!system.node(site).is_locked(), "site {site} left locked");
        assert_eq!(
            system.node(site).queued_len(),
            0,
            "site {site} left queued jobs"
        );
    }
}

/// The §13 extension switches all run end to end without violating safety.
#[test]
fn extension_configurations_are_safe() {
    let network = {
        let mut net = ring(10, DelayDistribution::Constant(1.0), 3);
        for s in 0..10 {
            if s % 2 == 0 {
                net.set_speed(SiteId(s), 2.0);
            }
        }
        net
    };
    let jobs = poisson_workload(&network, 0.012, 250.0, 77);
    let configs = vec![
        RtdsConfig {
            preemptive: true,
            ..RtdsConfig::default()
        },
        RtdsConfig {
            uniform_machines: true,
            ..RtdsConfig::default()
        },
        RtdsConfig {
            laxity_dispatch: LaxityDispatch::BusynessWeighted,
            ..RtdsConfig::default()
        },
        RtdsConfig {
            data_volume_aware: true,
            throughput: 2.0,
            ..RtdsConfig::default()
        },
        RtdsConfig {
            exact_acs_diameter: true,
            ..RtdsConfig::default()
        },
        RtdsConfig {
            max_acs_size: 2,
            ..RtdsConfig::default()
        },
        RtdsConfig {
            sphere_radius: 1,
            ..RtdsConfig::default()
        },
        RtdsConfig {
            sphere_radius: 4,
            ..RtdsConfig::default()
        },
    ];
    for (i, config) in configs.into_iter().enumerate() {
        let mut system = RtdsSystem::new(network.clone(), config, i as u64);
        let (report, _) = system.run(jobs.clone());
        assert_eq!(report.deadline_misses(), 0, "config {i}");
        assert_eq!(report.unharvested_completions, 0, "config {i}");
        assert_eq!(report.stats.named("placement_failures"), 0, "config {i}");
        assert_eq!(
            report.guarantee.accepted() + report.guarantee.rejected,
            report.guarantee.submitted,
            "config {i}"
        );
    }
}

/// `run` streams the submitted jobs by arrival time clamped to the start of
/// the run, whatever order they were submitted in.
#[test]
fn run_sorts_submissions_by_clamped_arrival() {
    // The same jobs, two of them arriving before the run starts, submitted
    // sorted and shuffled (the two early jobs keep their relative order:
    // both arrive at 0, in submission order).
    let network = grid(3, 3, false, DelayDistribution::Constant(1.0), 1);
    let mut jobs = poisson_workload(&network, 0.02, 100.0, 3);
    assert!(jobs.len() >= 10, "{} jobs", jobs.len());
    jobs[4].arrival_time = -2.0;
    jobs[9].arrival_time = -7.5;
    let mut sorted = jobs.clone();
    sorted.sort_by(|a, b| a.arrival_time.total_cmp(&b.arrival_time));
    let mut shuffled = jobs.clone();
    shuffled.reverse();
    shuffled.swap(0, 5);
    let run = |order: &[Job]| {
        let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), 2);
        system.run(order.to_vec())
    };
    let reference = run(&sorted);
    assert_eq!(run(&shuffled), reference);
    assert_eq!(reference.0.guarantee.submitted, jobs.len() as u64);
    let early = reference.1.iter().filter(|j| j.arrival == 0.0).count();
    assert_eq!(early, 2, "jobs released before the run arrive at 0");
}

/// A run stopped by the event cap counts only the jobs it injected, in the
/// aggregate and in the per-job vector alike.
#[test]
fn a_capped_run_counts_only_the_jobs_it_reached() {
    let network = grid(3, 3, false, DelayDistribution::Constant(1.0), 1);
    let jobs = poisson_workload(&network, 0.05, 200.0, 5);
    let run = |cap: u64| {
        let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), 1);
        system.set_max_events(cap);
        system.run(jobs.clone())
    };
    let (full, _) = run(u64::MAX);
    assert_eq!(full.guarantee.submitted, jobs.len() as u64);
    let (capped, records) = run(full.events_processed / 2);
    let g = &capped.guarantee;
    assert!(g.submitted > 0 && g.submitted < jobs.len() as u64);
    assert_eq!(g.accepted() + g.rejected, g.submitted);
    assert_eq!(records.len() as u64, g.submitted);
}

/// A run's harvest state is not part of the system, so a system runs once.
#[test]
#[should_panic(expected = "already run")]
fn a_system_runs_once() {
    let network = ring(6, DelayDistribution::Constant(1.0), 0);
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), 0);
    let _ = system.run(vec![chain_job(1, &[5.0], 0.0, 50.0, 0)]);
    let _ = system.run(Vec::new());
}

/// A job that cannot run anywhere is rejected everywhere, never half-placed.
#[test]
fn infeasible_jobs_leave_no_residue() {
    let network = ring(6, DelayDistribution::Constant(1.0), 0);
    let run = |job: Job| {
        let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), 0);
        let (report, jobs) = system.run(vec![job]);
        (system, report, jobs)
    };
    let (system, report, jobs) = run(chain_job(1, &[100.0, 100.0], 0.0, 50.0, 0));
    assert_eq!(report.guarantee.rejected, 1);
    assert_eq!(jobs[0].outcome, JobOutcomeKind::Rejected);
    // The final harvest drains every plan, so look at what the harvests saw
    // before draining: every site's committed reservations, every pass.
    assert_eq!(report.peak_plan_reservations, 0, "a site kept reservations");
    for site in network.sites() {
        assert!(!system.node(site).is_locked());
    }
    // The high-water mark does see committed work: a feasible job shows up.
    let (_, feasible, _) = run(chain_job(1, &[10.0, 10.0], 0.0, 50.0, 0));
    assert_eq!(feasible.guarantee.accepted(), 1);
    assert!(feasible.peak_plan_reservations > 0);
}
