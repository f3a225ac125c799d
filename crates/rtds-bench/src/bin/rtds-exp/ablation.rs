//! E5 — ablation of the §13 generalisations: preemption, uniform machines,
//! busyness-weighted laxity dispatching, the exact-ACS-diameter variant and
//! an ACS size cap, each compared against the base configuration on the
//! same workloads.
//!
//! One row per configuration on a 16-site ring whose even sites are twice
//! as fast, swept over 16 seeds from `--seed` (default 1); `--json <path>`
//! writes the sweep report.

use rtds_bench::harness::{
    require_no_deadline_misses, run_table, Row, EXPERIMENT_SEEDS, JOBS, MESSAGES, RATIO,
};
use rtds_bench::ExpArgs;
use rtds_core::{LaxityDispatch, RtdsConfig};
use rtds_scenarios::{Scenario, SpeedRecipe, TopologyRecipe};
use rtds_sim::arrivals::ArrivalProcess;

fn rows() -> Vec<Row> {
    let configs: [(&str, &str, RtdsConfig); 6] = [
        (
            "base",
            "identical machines, non-preemptive",
            RtdsConfig::default(),
        ),
        (
            "preemptive",
            "preemptive local scheduling",
            RtdsConfig {
                preemptive: true,
                ..RtdsConfig::default()
            },
        ),
        (
            "uniform-machines",
            "uniform machines (site speeds used)",
            RtdsConfig {
                uniform_machines: true,
                ..RtdsConfig::default()
            },
        ),
        (
            "busyness-laxity",
            "busyness-weighted laxity dispatching",
            RtdsConfig {
                laxity_dispatch: LaxityDispatch::BusynessWeighted,
                ..RtdsConfig::default()
            },
        ),
        (
            "exact-diameter",
            "exact ACS diameter",
            RtdsConfig {
                exact_acs_diameter: true,
                ..RtdsConfig::default()
            },
        ),
        (
            "acs-cap-3",
            "ACS capped at 3 members",
            RtdsConfig {
                max_acs_size: 3,
                ..RtdsConfig::default()
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, what, config)| {
            let mut scenario = Scenario::named(
                "ablation",
                &format!("E5: 16-site ring, even sites 2x fast, 4 hotspots; {what}"),
            );
            scenario.topology.recipe = TopologyRecipe::Ring { sites: 16 };
            scenario.topology.speeds = SpeedRecipe::AlternatingFast { factor: 2.0 };
            scenario.workload.arrivals = ArrivalProcess::Poisson { rate: 0.03 };
            scenario.workload.horizon = 250.0;
            scenario.workload.hotspots = 4;
            scenario.workload.laxity = (1.4, 2.2);
            scenario.config = config;
            Row::new(label.to_string(), "rtds", scenario)
        })
        .collect()
}

/// What the table shows, printed under it.
const CLAIMS: &str = "\
At the default seeds (1-16) uniform-machine awareness is the only switch
that moves acceptance much (median 0.34 to 0.58). Preemptive local scheduling
and busyness-weighted laxity accept what the base configuration accepts (the
same median and range); the exact ACS diameter adds little (0.338 to 0.349),
and an ACS capped at 3 members accepts a little less (0.323) for fewer
messages per job (10.7 against 14.2).";

pub(crate) fn run(args: ExpArgs) {
    let report = run_table(
        &args,
        &args.sweep_config(EXPERIMENT_SEEDS),
        "E5: ablation of the §13 extensions (16-site ring, even sites 2x fast)",
        &rows(),
        &[JOBS, RATIO, MESSAGES],
        CLAIMS,
    );
    require_no_deadline_misses(&report);
}
