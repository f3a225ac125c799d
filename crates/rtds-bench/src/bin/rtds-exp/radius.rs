//! E3 — the sphere-radius trade-off: a larger `h` enrols more sites but
//! costs more messages per job and a longer PCS construction.
//!
//! One row per `h` on a 36-site grid with 3 hotspot sites, swept over 16
//! seeds from `--seed` (default 1); `--json <path>` writes the sweep report.

use rtds_bench::harness::{
    require_no_deadline_misses, run_table, Column, Row, EXPERIMENT_SEEDS, JOBS, MESSAGES, RATIO,
};
use rtds_bench::ExpArgs;
use rtds_scenarios::{Scenario, TopologyRecipe};
use rtds_sim::arrivals::ArrivalProcess;

/// Mean enrolled ACS size per distribution attempt.
const ACS_SIZE: Column = ("ACS size", 1, |c| {
    let attempts =
        c.metrics.counter("accepted_distributed") + c.metrics.counter("rejected_distributed");
    c.metrics.counter("acs_members") as f64 / attempts.max(1) as f64
});

/// One-time routing-table construction traffic (§7).
const ROUTING: Column = ("routing msgs", 0, |c| {
    c.metrics.counter("routing_update") as f64
});

fn rows() -> Vec<Row> {
    (1..=5)
        .map(|h| {
            let mut scenario = Scenario::named(
                "radius",
                &format!("E3: 36-site grid, 3 hotspots, sphere radius h = {h}"),
            );
            scenario.topology.recipe = TopologyRecipe::Grid {
                width: 6,
                height: 6,
                wrap: false,
            };
            scenario.workload.arrivals = ArrivalProcess::Poisson { rate: 0.05 };
            scenario.workload.horizon = 250.0;
            scenario.workload.hotspots = 3;
            scenario.config.sphere_radius = h;
            Row::new(format!("h={h}"), "rtds", scenario)
        })
        .collect()
}

/// What the table shows, printed under it.
const CLAIMS: &str = "\
At the default seeds (1-16) acceptance peaks at h = 2 and falls for every
larger radius (medians 0.38, 0.58, 0.30, 0.14, 0.08 for h = 1..5): a larger
sphere enrols more sites (mean ACS size 3.4 to 16.7) but accepts fewer jobs.
Messages per job and the one-time routing traffic grow with h.";

pub(crate) fn run(args: ExpArgs) {
    let report = run_table(
        &args,
        &args.sweep_config(EXPERIMENT_SEEDS),
        "E3: sphere radius h sweep (36-site grid, 3 hotspots)",
        &rows(),
        &[JOBS, RATIO, MESSAGES, ROUTING, ACS_SIZE],
        CLAIMS,
    );
    require_no_deadline_misses(&report);
}
