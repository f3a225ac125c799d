//! An "arbitrarily wide" network: the per-job message cost of RTDS stays flat
//! as the network grows, while global broadcast bidding grows linearly.
//!
//! Run with: `cargo run --release --example wide_network`

use rtds::baselines::{run_broadcast_bidding, BiddingConfig};
use rtds::core::{RtdsConfig, RtdsSystem};
use rtds::graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds::graph::Job;
use rtds::net::generators::{barabasi_albert, DelayDistribution};
use rtds::net::Network;
use rtds::sim::arrivals::{ArrivalProcess, ArrivalSchedule};

fn workload(network: &Network, seed: u64) -> Vec<Job> {
    // A fixed number of hot sites receive bursts so that distribution is
    // actually needed; the rest of the network only provides capacity.
    let hot: Vec<_> = network.sites().take(4).collect();
    let schedule = ArrivalSchedule::generate_on_sites(
        ArrivalProcess::Poisson { rate: 0.05 },
        &hot,
        300.0,
        seed,
    );
    let cfg = GeneratorConfig {
        task_count: 8,
        shape: DagShape::ForkJoin,
        costs: CostDistribution::Uniform { min: 3.0, max: 9.0 },
        ccr: 0.0,
        laxity_factor: (1.6, 2.4),
    };
    let mut generator = DagGenerator::new(cfg, seed);
    schedule
        .arrivals()
        .iter()
        .map(|a| generator.generate_job(a.site.index(), a.time))
        .collect()
}

fn main() {
    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>14} {:>14}",
        "sites", "jobs", "rtds msgs/job", "bcast msgs/job", "rtds ratio", "bcast ratio"
    );
    for &n in &[32usize, 64, 128, 256, 512] {
        let network = barabasi_albert(n, 2, DelayDistribution::Constant(1.0), 9);
        let jobs = workload(&network, 21);

        // Cap the ACS at 8 members: on scale-free graphs a hop-bounded sphere
        // around a hub would otherwise grow with the network.
        let config = RtdsConfig {
            max_acs_size: 8,
            ..RtdsConfig::default()
        };
        let mut system = RtdsSystem::new(network.clone(), config, 13);
        let (rtds, _) = system.run(jobs.clone());

        let bidding = run_broadcast_bidding(&network, &jobs, BiddingConfig::default());

        println!(
            "{:>8} {:>10} {:>16.1} {:>16.1} {:>14.3} {:>14.3}",
            n,
            jobs.len(),
            rtds.messages_per_job,
            bidding.messages_per_job().unwrap_or(f64::NAN),
            rtds.guarantee_ratio(),
            bidding.guarantee_ratio().unwrap_or(f64::NAN)
        );
        assert_eq!(rtds.deadline_misses(), 0);
    }
    println!();
    println!("RTDS distributes each job over a bounded Computing Sphere, so its");
    println!("per-job message cost is independent of the network size; the");
    println!("broadcast-bidding baseline floods the whole network and scales with it.");
}
