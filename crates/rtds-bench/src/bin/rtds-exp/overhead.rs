//! E2 — distribution messages per job vs. network size: the Computing Sphere
//! keeps the per-job cost flat while broadcast bidding scales with the
//! network ("our network may be unbounded since we never broadcast over all
//! the network", §3).
//!
//! `--seed <u64>` defaults to 5, `--json <path>` dumps the table.

use rtds_baselines::{run_broadcast_bidding, BiddingConfig};
use rtds_bench::harness::{default_threads, opt_num};
use rtds_bench::{comparison_row, workload, ExpArgs, WorkloadSpec};
use rtds_core::RtdsConfig;
use rtds_net::generators::{barabasi_albert, DelayDistribution};
use rtds_scenarios::{parallel_sweep_sharded, Json};

pub(crate) fn run(args: ExpArgs) {
    let seed = args.seed(5);
    let sizes = vec![16usize, 32, 64, 128, 256, 512];
    println!("== E2: messages per job vs. network size (Barabasi-Albert, m = 2, 4 hotspots) ==");
    println!();
    println!(
        "{:>7} {:>6} | {:>14} {:>14} | {:>10} {:>10}",
        "sites", "jobs", "rtds msg/job", "bcast msg/job", "rtds", "bcast"
    );
    let results = parallel_sweep_sharded(sizes, default_threads(), |n| {
        let network = barabasi_albert(n, 2, DelayDistribution::Constant(1.0), 11);
        let jobs = workload(
            &network,
            WorkloadSpec {
                rate: 0.03,
                horizon: 250.0,
                hotspots: 4,
                seed,
                tasks_per_job: 6,
                ..WorkloadSpec::default()
            },
        );
        // "Limited number of sites": the ACS is capped at 8 members, which is
        // the knob the paper's claim is about. Without the cap, a radius-2
        // sphere around a scale-free hub would itself grow with the network.
        let config = RtdsConfig {
            max_acs_size: 8,
            ..RtdsConfig::default()
        };
        let rtds = comparison_row("rtds", &network, &jobs, config, 3);
        let bcast = run_broadcast_bidding(&network, &jobs, BiddingConfig::default());
        (n, jobs.len(), rtds, bcast)
    });
    let mut rtds_costs = Vec::new();
    let mut json_rows = Vec::new();
    for (n, njobs, rtds, bcast) in results {
        println!(
            "{:>7} {:>6} | {:>14.1} {:>14.1} | {:>10.3} {:>10.3}",
            n,
            njobs,
            rtds.messages_per_job.unwrap_or(f64::NAN),
            bcast.messages_per_job().unwrap_or(f64::NAN),
            rtds.ratio.unwrap_or(f64::NAN),
            bcast.guarantee_ratio().unwrap_or(f64::NAN),
        );
        assert_eq!(rtds.misses, 0);
        json_rows.push(Json::object(vec![
            ("sites", Json::UInt(n as u64)),
            ("jobs", Json::UInt(njobs as u64)),
            ("rtds_messages_per_job", opt_num(rtds.messages_per_job)),
            (
                "broadcast_messages_per_job",
                opt_num(bcast.messages_per_job()),
            ),
            ("rtds_ratio", opt_num(rtds.ratio)),
            ("broadcast_ratio", opt_num(bcast.guarantee_ratio())),
        ]));
        rtds_costs.push(rtds.messages_per_job.unwrap_or(0.0));
    }
    args.write_rows("overhead_vs_size", seed, json_rows);
    println!();
    let first = rtds_costs.first().copied().unwrap_or(0.0);
    let last = rtds_costs.last().copied().unwrap_or(0.0);
    println!(
        "RTDS per-job cost moved from {:.1} to {:.1} messages over a 32x network growth;",
        first, last
    );
    println!("broadcast bidding grows linearly with the number of links and sites.");
}
