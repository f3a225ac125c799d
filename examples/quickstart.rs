//! Quickstart: build a small network, submit a couple of jobs and print what
//! the RTDS protocol did with them.
//!
//! Run with: `cargo run --example quickstart`

use rtds::core::{RtdsConfig, RtdsSystem};
use rtds::graph::generators::{DagGenerator, DagShape, GeneratorConfig};
use rtds::net::generators::{grid, DelayDistribution};

fn main() {
    // A 4 x 4 grid of identical sites with unit link delays.
    let network = grid(4, 4, false, DelayDistribution::Constant(1.0), 7);

    // Computing Spheres of hop radius 2; everything else at its default.
    let config = RtdsConfig {
        sphere_radius: 2,
        ..RtdsConfig::default()
    };
    let mut system = RtdsSystem::new(network, config, 42);

    // A small stream of random layered DAGs arriving at site 5.
    let gen_cfg = GeneratorConfig {
        task_count: 12,
        shape: DagShape::LayeredRandom {
            layers: 3,
            edge_prob: 0.3,
        },
        laxity_factor: (1.6, 2.5),
        ..GeneratorConfig::default()
    };
    let mut generator = DagGenerator::new(gen_cfg, 1);
    let mut submitted = Vec::new();
    for i in 0..6 {
        let job = generator.generate_job(5, 10.0 + 5.0 * i as f64);
        println!(
            "submitting {} ({} tasks, window [{:.1}, {:.1}])",
            job.id,
            job.graph.task_count(),
            job.release(),
            job.deadline()
        );
        submitted.push(job);
    }

    let (report, jobs) = system.run(submitted);

    println!();
    println!("jobs submitted        : {}", report.guarantee.submitted);
    println!(
        "accepted locally      : {}",
        report.guarantee.accepted_locally
    );
    println!(
        "accepted distributed  : {}",
        report.guarantee.accepted_distributed
    );
    println!("rejected              : {}", report.guarantee.rejected);
    println!("guarantee ratio       : {:.2}", report.guarantee_ratio());
    println!("deadline misses       : {}", report.deadline_misses());
    println!("messages per job      : {:.1}", report.messages_per_job);
    println!();
    for job in &jobs {
        println!(
            "  {:?} at site {} -> {:?} (completion {:?})",
            job.job, job.arrival_site, job.outcome, job.completion
        );
    }
    assert_eq!(
        report.deadline_misses(),
        0,
        "accepted jobs never miss deadlines"
    );
}
