//! Sporadic Poisson workload on a grid: RTDS against the baseline policies.
//!
//! Mirrors the intro scenario of the paper — sporadic jobs with deadlines
//! arriving anywhere on a distributed system — and prints a comparison of the
//! guarantee ratio and message overhead across policies.
//!
//! Run with: `cargo run --release --example sporadic_grid`

use rtds::baselines::BASELINES;
use rtds::core::{RtdsConfig, RtdsSystem};
use rtds::graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds::graph::Job;
use rtds::net::generators::{grid, DelayDistribution};
use rtds::sim::arrivals::{ArrivalProcess, ArrivalSchedule};

fn workload(site_count: usize, rate: f64, horizon: f64, seed: u64) -> Vec<Job> {
    let schedule =
        ArrivalSchedule::generate(ArrivalProcess::Poisson { rate }, site_count, horizon, seed);
    let cfg = GeneratorConfig {
        task_count: 10,
        shape: DagShape::LayeredRandom {
            layers: 3,
            edge_prob: 0.3,
        },
        costs: CostDistribution::Uniform { min: 2.0, max: 8.0 },
        ccr: 0.0,
        laxity_factor: (1.8, 3.0),
    };
    let mut generator = DagGenerator::new(cfg, seed.wrapping_mul(31).wrapping_add(7));
    schedule
        .arrivals()
        .iter()
        .map(|a| generator.generate_job(a.site.index(), a.time))
        .collect()
}

fn main() {
    let width = 5;
    let network = grid(width, width, false, DelayDistribution::Constant(1.0), 3);
    let horizon = 400.0;
    let rate = 0.004; // jobs per site per time unit
    let jobs = workload(network.site_count(), rate, horizon, 11);
    println!(
        "{} sites, {} jobs over {:.0} time units (Poisson rate {} per site)",
        network.site_count(),
        jobs.len(),
        horizon,
        rate
    );
    println!();
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "policy", "accepted", "rejected", "ratio", "misses", "msgs/job"
    );

    // RTDS (full message-level protocol).
    let mut system = RtdsSystem::new(network.clone(), RtdsConfig::default(), 5);
    let (rtds, _) = system.run(jobs.clone());
    println!(
        "{:<22} {:>9} {:>9} {:>9.3} {:>10} {:>12.1}",
        "rtds (h = 2)",
        rtds.guarantee.accepted(),
        rtds.guarantee.rejected,
        rtds.guarantee_ratio(),
        rtds.deadline_misses(),
        rtds.messages_per_job
    );

    // The five baselines at their default parameters (non-preemptive sites,
    // random-offload seed 0).
    let mut local_accepted = 0;
    for (name, run) in BASELINES {
        let report = run(&network, &jobs, false, 0);
        println!(
            "{:<22} {:>9} {:>9} {:>9.3} {:>10} {:>12.1}",
            name,
            report.accepted(),
            report.rejected,
            report.guarantee_ratio().unwrap_or(f64::NAN),
            report.deadline_misses,
            report.messages_per_job().unwrap_or(f64::NAN)
        );
        if name == "local-only" {
            local_accepted = report.accepted();
        }
    }

    assert_eq!(rtds.deadline_misses(), 0);
    assert!(rtds.guarantee.accepted() >= local_accepted);
}
