//! E1 — guarantee ratio vs. arrival rate: RTDS against local-only,
//! random-offload, broadcast-bidding and the centralized oracle on a grid
//! with hotspot arrivals.
//!
//! `--seed <u64>` defaults to 42, `--json <path>` dumps the table.

use rtds_bench::harness::{default_threads, policy_ratio};
use rtds_bench::{policy_comparison, workload, ExpArgs, WorkloadSpec};
use rtds_core::RtdsConfig;
use rtds_net::generators::{grid, DelayDistribution};
use rtds_scenarios::{parallel_sweep_sharded, Json};

pub(crate) fn run(args: ExpArgs) {
    let seed = args.seed(42);
    let network = grid(5, 5, false, DelayDistribution::Constant(1.0), 3);
    let rates = vec![0.01, 0.02, 0.04, 0.08, 0.16];
    println!("== E1: acceptance ratio vs. arrival rate (25-site grid, 4 hotspot sites) ==");
    println!();
    println!(
        "{:>8} {:>6} | {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "rate", "jobs", "rtds", "local", "random", "bcast", "heft", "oracle"
    );
    let rows = parallel_sweep_sharded(rates, default_threads(), |rate| {
        let jobs = workload(
            &network,
            WorkloadSpec {
                rate,
                horizon: 300.0,
                hotspots: 4,
                seed,
                ..WorkloadSpec::default()
            },
        );
        let rows = policy_comparison(&network, &jobs, RtdsConfig::default(), 7);
        (rate, jobs.len(), rows)
    });
    let mut json_rows = Vec::new();
    for (rate, njobs, rows) in rows {
        let ratio = |name: &str| policy_ratio(&rows, name);
        println!(
            "{:>8.3} {:>6} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            rate,
            njobs,
            ratio("rtds"),
            ratio("local-only"),
            ratio("random-offload"),
            ratio("broadcast-bidding"),
            ratio("global-heft"),
            ratio("centralized-oracle"),
        );
        assert!(rows.iter().all(|r| r.misses == 0), "deadline miss detected");
        json_rows.push(Json::object(vec![
            ("rate", Json::Num(rate)),
            ("jobs", Json::UInt(njobs as u64)),
            ("rtds", Json::Num(ratio("rtds"))),
            ("local_only", Json::Num(ratio("local-only"))),
            ("random_offload", Json::Num(ratio("random-offload"))),
            ("broadcast_bidding", Json::Num(ratio("broadcast-bidding"))),
            ("global_heft", Json::Num(ratio("global-heft"))),
            ("centralized_oracle", Json::Num(ratio("centralized-oracle"))),
        ]));
    }
    args.write_rows("acceptance_vs_load", seed, json_rows);
    println!();
    println!("Expected shape (paper §14): RTDS accepts more jobs than no cooperation");
    println!("(local-only) and blind forwarding, approaches the broadcast/oracle curve");
    println!("at low load, and the gap to local-only widens as hotspots saturate.");
}
