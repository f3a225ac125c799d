//! Property-based end-to-end tests of the full protocol: for arbitrary
//! topologies, workloads and configurations, the system terminates, never
//! double-books a processor, never misses a deadline it guaranteed, and its
//! bookkeeping stays consistent.

use proptest::prelude::*;
use rtds::core::{JobOutcomeKind, LaxityDispatch, RtdsConfig, RtdsSystem};
use rtds::graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds::graph::Job;
use rtds::net::generators::{erdos_renyi_connected, grid, ring, DelayDistribution};
use rtds::net::Network;
use rtds::sim::arrivals::{ArrivalProcess, ArrivalSchedule};

#[derive(Debug, Clone, Copy)]
enum Topo {
    Ring(usize),
    Grid(usize, usize),
    ErdosRenyi(usize),
}

fn build(topo: Topo, seed: u64) -> Network {
    let delays = DelayDistribution::Uniform { min: 0.5, max: 2.0 };
    match topo {
        Topo::Ring(n) => ring(n, delays, seed),
        Topo::Grid(w, h) => grid(w, h, false, delays, seed),
        Topo::ErdosRenyi(n) => erdos_renyi_connected(n, 0.2, delays, seed),
    }
}

fn arbitrary_topo() -> impl Strategy<Value = Topo> {
    prop_oneof![
        (4usize..12).prop_map(Topo::Ring),
        ((2usize..4), (2usize..4)).prop_map(|(w, h)| Topo::Grid(w, h)),
        (5usize..14).prop_map(Topo::ErdosRenyi),
    ]
}

fn arbitrary_config() -> impl Strategy<Value = RtdsConfig> {
    (
        1usize..4,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        0usize..4,
    )
        .prop_map(
            |(radius, preemptive, uniform, busyness, max_acs)| RtdsConfig {
                sphere_radius: radius,
                preemptive,
                uniform_machines: uniform,
                laxity_dispatch: if busyness {
                    LaxityDispatch::BusynessWeighted
                } else {
                    LaxityDispatch::Uniform
                },
                max_acs_size: max_acs,
                ..RtdsConfig::default()
            },
        )
}

fn workload(network: &Network, rate: f64, seed: u64) -> Vec<Job> {
    let schedule = ArrivalSchedule::generate(
        ArrivalProcess::Poisson { rate },
        network.site_count(),
        150.0,
        seed,
    );
    let cfg = GeneratorConfig {
        task_count: 6,
        shape: DagShape::LayeredRandom {
            layers: 2,
            edge_prob: 0.4,
        },
        costs: CostDistribution::Uniform { min: 1.0, max: 8.0 },
        ccr: 0.0,
        laxity_factor: (1.3, 3.0),
    };
    let mut generator = DagGenerator::new(cfg, seed);
    schedule
        .arrivals()
        .iter()
        .map(|a| generator.generate_job(a.site.index(), a.time))
        .collect()
}

proptest! {
    // End-to-end runs are comparatively expensive; 24 cases keep the suite
    // under a few seconds while still covering a wide cross-product.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn protocol_safety_holds_for_arbitrary_deployments(
        topo in arbitrary_topo(),
        config in arbitrary_config(),
        net_seed in 0u64..200,
        load_seed in 0u64..200,
        rate in 0.005f64..0.03,
    ) {
        let network = build(topo, net_seed);
        let jobs = workload(&network, rate, load_seed);
        let submitted = jobs.len() as u64;
        let mut system = RtdsSystem::new(network.clone(), config, net_seed ^ load_seed);
        let (report, records) = system.run(jobs);

        // Termination bookkeeping.
        prop_assert_eq!(report.guarantee.submitted, submitted);
        prop_assert_eq!(records.len() as u64, submitted);
        prop_assert_eq!(report.guarantee.accepted() + report.guarantee.rejected, submitted);
        // The aggregate verdicts and the per-job records agree.
        let outcomes = |kind| records.iter().filter(|r| r.outcome == kind).count() as u64;
        let g = &report.guarantee;
        prop_assert_eq!(g.accepted_locally, outcomes(JobOutcomeKind::AcceptedLocally));
        prop_assert_eq!(g.accepted_distributed, outcomes(JobOutcomeKind::AcceptedDistributed));
        prop_assert_eq!(g.rejected, outcomes(JobOutcomeKind::Rejected));
        // Safety: accepted implies on-time; no placement ever failed; plans
        // stay consistent (drained plans are valid, empty plans); no locks or
        // queued jobs survive quiescence.
        prop_assert_eq!(report.deadline_misses(), 0);
        prop_assert_eq!(report.unharvested_completions, 0);
        prop_assert_eq!(report.stats.named("placement_failures"), 0);
        for site in network.sites() {
            let node = system.node(site);
            prop_assert!(node.check_plan_invariants());
            prop_assert!(!node.is_locked());
            prop_assert_eq!(node.queued_len(), 0);
            prop_assert!(node.sphere().is_some());
        }
        // Message accounting: delivered never exceeds sent.
        prop_assert!(report.stats.messages_delivered <= report.stats.messages_sent);
    }
}
