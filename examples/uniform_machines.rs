//! The §13 generalisations in action: uniform (related) machines, the
//! preemptive model, busyness-weighted laxity dispatching and data-volume
//! aware communication delays.
//!
//! Run with: `cargo run --release --example uniform_machines`

use rtds::core::{LaxityDispatch, RtdsConfig, RtdsSystem};
use rtds::graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds::graph::Job;
use rtds::net::generators::{ring, DelayDistribution};
use rtds::net::{Network, SiteId};
use rtds::sim::arrivals::{ArrivalProcess, ArrivalSchedule};

fn heterogeneous_ring(n: usize) -> Network {
    let mut net = ring(n, DelayDistribution::Constant(1.0), 4);
    // Alternate fast (2x) and slow (1x) sites.
    for s in 0..n {
        if s % 2 == 0 {
            net.set_speed(SiteId(s), 2.0);
        }
    }
    net
}

fn workload(site_count: usize, seed: u64, ccr: f64) -> Vec<Job> {
    let schedule = ArrivalSchedule::generate(
        ArrivalProcess::Poisson { rate: 0.01 },
        site_count,
        300.0,
        seed,
    );
    let cfg = GeneratorConfig {
        task_count: 10,
        shape: DagShape::LayeredRandom {
            layers: 3,
            edge_prob: 0.35,
        },
        costs: CostDistribution::Uniform {
            min: 2.0,
            max: 10.0,
        },
        ccr,
        laxity_factor: (1.5, 2.2),
    };
    let mut generator = DagGenerator::new(cfg, seed);
    schedule
        .arrivals()
        .iter()
        .map(|a| generator.generate_job(a.site.index(), a.time))
        .collect()
}

fn run(label: &str, network: Network, jobs: Vec<Job>, config: RtdsConfig) {
    let mut system = RtdsSystem::new(network, config, 3);
    let (report, _) = system.run(jobs);
    println!(
        "{:<34} accepted {:>4}/{:<4}  ratio {:>6.3}  misses {}  msgs/job {:>6.1}",
        label,
        report.guarantee.accepted(),
        report.guarantee.submitted,
        report.guarantee_ratio(),
        report.deadline_misses(),
        report.messages_per_job
    );
    assert_eq!(report.deadline_misses(), 0);
}

fn main() {
    let n = 12;
    let base_jobs = workload(n, 17, 0.0);
    let volume_jobs = workload(n, 17, 0.5);
    let net = heterogeneous_ring(n);

    println!("§13 generalisations on a {n}-site ring (every other site is 2x faster)\n");

    run(
        "identical machines (base model)",
        net.clone(),
        base_jobs.clone(),
        RtdsConfig::default(),
    );
    run(
        "uniform machines (speeds honoured)",
        net.clone(),
        base_jobs.clone(),
        RtdsConfig {
            uniform_machines: true,
            ..RtdsConfig::default()
        },
    );
    run(
        "preemptive local scheduling",
        net.clone(),
        base_jobs.clone(),
        RtdsConfig {
            preemptive: true,
            ..RtdsConfig::default()
        },
    );
    run(
        "busyness-weighted laxity dispatch",
        net.clone(),
        base_jobs.clone(),
        RtdsConfig {
            laxity_dispatch: LaxityDispatch::BusynessWeighted,
            ..RtdsConfig::default()
        },
    );
    run(
        "data-volume-aware comm delays",
        net,
        volume_jobs,
        RtdsConfig {
            data_volume_aware: true,
            throughput: 4.0,
            ..RtdsConfig::default()
        },
    );
}
