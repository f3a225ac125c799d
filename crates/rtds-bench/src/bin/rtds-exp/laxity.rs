//! E4 — deadline tightness sweep: varying the laxity factor of the jobs
//! exercises the three adjustment cases of §12.2 ((i) reject, (iii) laxity
//! scattering, (ii) window scaling) and shows how the guarantee ratio decays
//! as windows shrink.
//!
//! `--seed <u64>` defaults to 33, `--json <path>` dumps the table.

use rtds_bench::harness::{default_threads, policy_ratio};
use rtds_bench::{policy_comparison, workload, ExpArgs, WorkloadSpec};
use rtds_core::RtdsConfig;
use rtds_net::generators::{grid, DelayDistribution};
use rtds_scenarios::{parallel_sweep_sharded, Json};

pub(crate) fn run(args: ExpArgs) {
    let seed = args.seed(33);
    let network = grid(5, 5, false, DelayDistribution::Constant(1.0), 4);
    let laxities = vec![1.1, 1.3, 1.6, 2.0, 3.0, 4.0];
    println!("== E4: guarantee ratio vs. deadline tightness (25-site grid, 4 hotspots) ==");
    println!();
    println!(
        "{:>8} {:>6} | {:>8} {:>8} {:>8} {:>8}",
        "laxity", "jobs", "rtds", "local", "bcast", "oracle"
    );
    let rows = parallel_sweep_sharded(laxities, default_threads(), |laxity| {
        let jobs = workload(
            &network,
            WorkloadSpec {
                rate: 0.04,
                horizon: 250.0,
                hotspots: 4,
                laxity: (laxity, laxity + 0.2),
                seed,
                ..WorkloadSpec::default()
            },
        );
        let rows = policy_comparison(&network, &jobs, RtdsConfig::default(), 9);
        (laxity, jobs.len(), rows)
    });
    let mut json_rows = Vec::new();
    for (laxity, njobs, rows) in rows {
        let ratio = |name: &str| policy_ratio(&rows, name);
        println!(
            "{:>8.1} {:>6} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            laxity,
            njobs,
            ratio("rtds"),
            ratio("local-only"),
            ratio("broadcast-bidding"),
            ratio("centralized-oracle"),
        );
        assert!(rows.iter().all(|r| r.misses == 0));
        json_rows.push(Json::object(vec![
            ("laxity", Json::Num(laxity)),
            ("jobs", Json::UInt(njobs as u64)),
            ("rtds", Json::Num(ratio("rtds"))),
            ("local_only", Json::Num(ratio("local-only"))),
            ("broadcast_bidding", Json::Num(ratio("broadcast-bidding"))),
            ("centralized_oracle", Json::Num(ratio("centralized-oracle"))),
        ]));
    }
    args.write_rows("laxity_tightness", seed, json_rows);
    println!();
    println!("Expected shape: with laxity close to 1 the remote option barely helps");
    println!("(communication eats the slack, adjustment case (i) rejects most mappings);");
    println!("as the windows loosen, cooperation recovers most of what local-only loses.");
}
