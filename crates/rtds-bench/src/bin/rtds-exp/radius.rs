//! E3 — the sphere-radius trade-off: a larger `h` enrols more sites (better
//! acceptance) but costs more messages per job and a longer PCS construction.
//!
//! `--seed <u64>` defaults to 19, `--json <path>` dumps the table.

use rtds_bench::harness::default_threads;
use rtds_bench::{workload, ExpArgs, WorkloadSpec};
use rtds_core::{RtdsConfig, RtdsSystem};
use rtds_net::generators::{grid, DelayDistribution};
use rtds_scenarios::{parallel_sweep_sharded, Json};

pub(crate) fn run(args: ExpArgs) {
    let seed = args.seed(19);
    let network = grid(6, 6, false, DelayDistribution::Constant(1.0), 1);
    let jobs = workload(
        &network,
        WorkloadSpec {
            rate: 0.05,
            horizon: 250.0,
            hotspots: 3,
            seed,
            tasks_per_job: 8,
            ..WorkloadSpec::default()
        },
    );
    println!(
        "== E3: sphere radius h sweep (36-site grid, 3 hotspots, {} jobs) ==",
        jobs.len()
    );
    println!();
    println!(
        "{:>3} | {:>9} {:>9} {:>8} | {:>12} {:>14} {:>14}",
        "h", "accepted", "rejected", "ratio", "msgs/job", "routing msgs", "mean ACS size"
    );
    let radii = vec![1usize, 2, 3, 4, 5];
    let rows = parallel_sweep_sharded(radii, default_threads(), |h| {
        let config = RtdsConfig {
            sphere_radius: h,
            ..RtdsConfig::default()
        };
        let mut system = RtdsSystem::new(network.clone(), config, 2);
        let (report, _) = system.run(jobs.clone());
        (h, report)
    });
    let mut json_rows = Vec::new();
    for (h, report) in rows {
        let distributions = report.stats.named("acs_members");
        let attempts = (report.stats.named("accepted_distributed")
            + report.stats.named("rejected_distributed"))
        .max(1);
        let mean_acs = distributions as f64 / attempts as f64;
        println!(
            "{:>3} | {:>9} {:>9} {:>8.3} | {:>12.1} {:>14} {:>14.1}",
            h,
            report.guarantee.accepted(),
            report.guarantee.rejected,
            report.guarantee_ratio(),
            report.messages_per_job,
            report.stats.named("routing_update"),
            mean_acs,
        );
        assert_eq!(report.deadline_misses(), 0);
        json_rows.push(Json::object(vec![
            ("h", Json::UInt(h as u64)),
            ("accepted", Json::UInt(report.guarantee.accepted())),
            ("rejected", Json::UInt(report.guarantee.rejected)),
            ("ratio", Json::Num(report.guarantee_ratio())),
            ("messages_per_job", Json::Num(report.messages_per_job)),
            (
                "routing_messages",
                Json::UInt(report.stats.named("routing_update")),
            ),
            ("mean_acs_size", Json::Num(mean_acs)),
        ]));
    }
    args.write_rows("sphere_radius", seed, json_rows);
    println!();
    println!("Expected shape: acceptance rises quickly from h = 1 and saturates once the");
    println!("sphere covers enough idle capacity; message cost per job and the one-time");
    println!("routing traffic keep growing with h — the trade-off the paper's bounded");
    println!("Computing Sphere is designed around.");
}
