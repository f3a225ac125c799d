//! E5 — ablation of the §13 generalisations: preemption, uniform machines,
//! busyness-weighted laxity dispatching, data-volume-aware communication and
//! the exact-ACS-diameter variant, each compared against the base
//! configuration on the same workload.
//!
//! `--seed <u64>` defaults to 8, `--json <path>` dumps the table.

use rtds_bench::harness::opt_num;
use rtds_bench::{comparison_row, workload, ExpArgs, WorkloadSpec};
use rtds_core::{LaxityDispatch, RtdsConfig};
use rtds_net::generators::{ring, DelayDistribution};
use rtds_net::SiteId;
use rtds_scenarios::Json;

pub(crate) fn run(args: ExpArgs) {
    let seed = args.seed(8);
    // Heterogeneous ring: even sites are twice as fast.
    let mut network = ring(16, DelayDistribution::Constant(1.0), 2);
    for s in 0..16 {
        if s % 2 == 0 {
            network.set_speed(SiteId(s), 2.0);
        }
    }
    let jobs = workload(
        &network,
        WorkloadSpec {
            rate: 0.03,
            horizon: 250.0,
            hotspots: 4,
            seed,
            laxity: (1.4, 2.2),
            ..WorkloadSpec::default()
        },
    );
    println!(
        "== E5: ablation of the §13 extensions (16-site heterogeneous ring, {} jobs) ==",
        jobs.len()
    );
    println!();
    println!(
        "{:<34} {:>9} {:>8} {:>8} {:>12}",
        "configuration", "accepted", "ratio", "misses", "msgs/job"
    );
    let configs: Vec<(&str, RtdsConfig)> = vec![
        ("base (identical, non-preemptive)", RtdsConfig::default()),
        (
            "preemptive local scheduling",
            RtdsConfig {
                preemptive: true,
                ..RtdsConfig::default()
            },
        ),
        (
            "uniform machines (speeds used)",
            RtdsConfig {
                uniform_machines: true,
                ..RtdsConfig::default()
            },
        ),
        (
            "busyness-weighted laxity",
            RtdsConfig {
                laxity_dispatch: LaxityDispatch::BusynessWeighted,
                ..RtdsConfig::default()
            },
        ),
        (
            "exact ACS diameter",
            RtdsConfig {
                exact_acs_diameter: true,
                ..RtdsConfig::default()
            },
        ),
        (
            "ACS capped at 3 members",
            RtdsConfig {
                max_acs_size: 3,
                ..RtdsConfig::default()
            },
        ),
    ];
    let mut json_rows = Vec::new();
    for (label, config) in configs {
        let row = comparison_row(label, &network, &jobs, config, 4);
        println!(
            "{:<34} {:>4}/{:<4} {:>8.3} {:>8} {:>12.1}",
            label,
            row.accepted,
            row.submitted,
            row.ratio.unwrap_or(f64::NAN),
            row.misses,
            row.messages_per_job.unwrap_or(f64::NAN)
        );
        assert_eq!(row.misses, 0);
        json_rows.push(Json::object(vec![
            ("configuration", Json::str(label)),
            ("accepted", Json::UInt(row.accepted)),
            ("submitted", Json::UInt(row.submitted)),
            ("ratio", opt_num(row.ratio)),
            ("messages_per_job", opt_num(row.messages_per_job)),
        ]));
    }
    args.write_rows("extensions_ablation", seed, json_rows);
    println!();
    println!("Expected shape: preemption and uniform-machine awareness add a few accepted");
    println!("jobs (more insertion freedom, faster sites charged correctly); the exact ACS");
    println!("diameter slightly improves acceptance by tightening the over-estimate; a");
    println!("small ACS cap trades a little acceptance for fewer messages per job.");
}
