//! E4 — deadline tightness sweep: varying the laxity factor of the jobs
//! exercises the three adjustment cases of §12.2 ((i) reject, (iii) laxity
//! scattering, (ii) window scaling) and shows how the guarantee ratio decays
//! as windows shrink.
//!
//! One row per `(laxity, policy)` on a 25-site grid with 4 hotspot sites,
//! swept over 16 seeds from `--seed` (default 1); `--json <path>` writes the
//! sweep report.

use rtds_bench::harness::{run_table, Row, JOBS, MESSAGES, RATIO};
use rtds_bench::ExpArgs;
use rtds_scenarios::Scenario;
use rtds_sim::arrivals::ArrivalProcess;

const POLICIES: [&str; 4] = [
    "rtds",
    "local-only",
    "broadcast-bidding",
    "centralized-oracle",
];

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for laxity in [1.1, 1.3, 1.6, 2.0, 3.0, 4.0] {
        let mut scenario = Scenario::named(
            "laxity",
            &format!(
                "E4: 25-site grid, 4 hotspots, deadline laxity factor {laxity:.1}-{:.1}",
                laxity + 0.2
            ),
        );
        scenario.workload.arrivals = ArrivalProcess::Poisson { rate: 0.04 };
        scenario.workload.horizon = 250.0;
        scenario.workload.hotspots = 4;
        scenario.workload.laxity = (laxity, laxity + 0.2);
        for policy in POLICIES {
            rows.push(Row::new(
                format!("laxity={laxity:.1}"),
                policy,
                scenario.clone(),
            ));
        }
    }
    rows
}

/// What the table shows, printed under it.
const CLAIMS: &str = "\
At the default seeds (1-16), with laxity 1.1-1.3, RTDS, local-only and
broadcast bidding accept almost nothing while the centralized oracle accepts
0.84-1.00 (median): communication and the §12.2 adjustment eat the
slack. From 1.6 on RTDS recovers (median 0.30 at 1.6 to 0.90 at 4.0) and
stays above local-only; broadcast bidding stays below RTDS up to 2.0 but
accepts every job from 3.0 on.";

pub(crate) fn run(args: ExpArgs) {
    run_table(
        &args,
        "E4: guarantee ratio vs. deadline tightness (25-site grid, 4 hotspots)",
        &rows(),
        &[JOBS, RATIO, MESSAGES],
        CLAIMS,
    );
}
