//! E7 — the shared-bandwidth flow plane under contention.
//!
//! Runs the registry's flow scenarios (`incast-storm`,
//! `bandwidth-starved-sphere`, `transfer-vs-compute`), where every §11
//! permutation ships its input data through `rtds-flow`'s max-min
//! fair-share model instead of a delay-only send: one row per scenario with
//! each column's median and `[min-max]` over the seeds, then each
//! scenario's transfer-time p99 over all its seeds against the uncontended
//! bound. `--json` writes the [`rtds_scenarios::SweepReport`], whose merged
//! metrics hold the transfer-time/flow-rate/link-utilization telemetry.
//!
//! ```text
//! rtds-exp flows [--scenario <name|all>] [--seed <u64>] [--seeds <n>]
//!                [--json <path>] [--assert-contention]
//! ```
//!
//! `--assert-contention` is the CI tripwire for the model itself: under
//! `incast-storm` (six-job bursts funnelled at one hotspot of a line
//! network) the p99 transfer time must land **strictly above** the
//! uncontended analytic bound `max(shipped volume) / min(link bandwidth)`.
//! Any single flow alone in the network finishes within that bound, so
//! exceeding it proves transfers actually share bandwidth — if the flow
//! plane ever degraded to per-flow full capacity, this exits nonzero. So
//! does a deadline miss or a shipped input that never arrived — after the
//! whole table is printed and the report written.

use rtds_bench::harness::{require_no_deadline_misses, run_table, Column, Row, JOBS, RATIO};
use rtds_bench::ExpArgs;
use rtds_scenarios::{builtin_scenarios, Scenario, ScenarioSummary};

/// Flows that finished.
const FLOWS: Column = ("flows", 0, |c| {
    c.metrics.counter("sim_flow_finished") as f64
});
/// Task inputs shipped.
const DATA: Column = ("data", 0, |c| c.metrics.counter("task_data_sent") as f64);

/// What the table shows, printed under it.
const CLAIMS: &str = "\
The bound is max(shipped volume) / min(link bandwidth): the worst time any
transfer could take with the network to itself. p99 above it = real sharing.";

/// One flow scenario's transfer-time p99 over all its seeds, against the
/// time the largest shipped volume takes alone on the slowest link.
struct Contention {
    p99_transfer_time: f64,
    uncontended_bound: f64,
}

impl Contention {
    /// Reads the scenario's merged metrics; `min_bandwidth` is the smallest
    /// link capacity over every seed's network. A multi-hop path is pinned
    /// at its bottleneck link, so no transfer alone takes longer than the
    /// bound.
    fn of(summary: &ScenarioSummary, min_bandwidth: f64) -> Contention {
        Contention {
            p99_transfer_time: summary.metrics.histogram("transfer_time").quantile(0.99),
            uncontended_bound: summary.metrics.histogram("task_data_volume").max() / min_bandwidth,
        }
    }

    /// Whether some transfer took longer than it could have alone: proof
    /// that flows shared bandwidth. False when nothing was shipped.
    fn contended(&self) -> bool {
        self.p99_transfer_time > self.uncontended_bound
    }
}

/// The smallest link capacity over the networks `scenario` builds for
/// `seeds`.
fn min_bandwidth(scenario: &Scenario, seeds: &[u64]) -> f64 {
    let mut min = f64::INFINITY;
    for &seed in seeds {
        let network = scenario.build_network(seed);
        for (a, b, _) in network.links() {
            min = min.min(network.link_bandwidth(a, b).unwrap_or(f64::INFINITY));
        }
    }
    min
}

pub(crate) fn run(args: ExpArgs) {
    let flow_scenarios: Vec<Scenario> = builtin_scenarios()
        .into_iter()
        .filter(|s| s.config.flow_transfers)
        .collect();
    let selected = args.selection(flow_scenarios);
    let config = args.sweep_config(3);
    let rows: Vec<Row> = selected.iter().cloned().map(Row::registry).collect();
    let report = run_table(
        &args,
        &config,
        "E7: flow plane under contention",
        &rows,
        &[JOBS, RATIO, FLOWS, DATA],
        CLAIMS,
    );

    println!();
    let mut contention = Vec::new();
    for (scenario, summary) in selected.iter().zip(&report.scenarios) {
        let c = Contention::of(summary, min_bandwidth(scenario, &config.seeds));
        println!(
            "{}: p99 transfer time {:.2}, uncontended bound {:.2}, contended: {}",
            scenario.name,
            c.p99_transfer_time,
            c.uncontended_bound,
            c.contended()
        );
        contention.push((scenario.name.as_str(), c));
    }

    require_no_deadline_misses(&report);
    let undelivered: u64 = (report.scenarios.iter())
        .map(|s| {
            s.metrics
                .counter("task_data_sent")
                .abs_diff(s.metrics.counter("task_data_received"))
        })
        .sum();
    if undelivered > 0 {
        eprintln!(
            "delivery check FAILED: {undelivered} shipped input(s) never arrived \
             (flow scenarios lose no messages)"
        );
        std::process::exit(1);
    }

    if args.has("assert-contention") {
        let Some((_, incast)) = contention.iter().find(|(name, _)| *name == "incast-storm") else {
            eprintln!("--assert-contention needs incast-storm in the selection");
            std::process::exit(2);
        };
        if incast.contended() {
            println!();
            println!(
                "contention check: incast-storm p99 {:.2} > uncontended bound {:.2} — flows share bandwidth",
                incast.p99_transfer_time, incast.uncontended_bound
            );
        } else {
            eprintln!(
                "contention check FAILED: incast-storm p99 {:.2} <= bound {:.2} — transfers look uncontended",
                incast.p99_transfer_time, incast.uncontended_bound
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_sim::MetricsRegistry;

    /// A summary whose merged metrics hold one transfer of `time` units and
    /// one shipped volume of 20.
    fn doctored(time: f64) -> ScenarioSummary {
        let mut metrics = MetricsRegistry::new();
        metrics.record("transfer_time", time);
        metrics.record("task_data_volume", 20.0);
        ScenarioSummary {
            name: "incast-storm".to_string(),
            description: String::new(),
            cells: Vec::new(),
            mean_guarantee_ratio: 0.0,
            min_guarantee_ratio: 0.0,
            max_guarantee_ratio: 0.0,
            mean_messages_per_job: 0.0,
            mean_slack: 0.0,
            total_deadline_misses: 0,
            total_faults_injected: 0,
            total_messages_lost: 0,
            metrics,
        }
    }

    #[test]
    fn contention_fails_when_the_p99_is_within_the_bound() {
        // Volume 20 over bandwidth 2: no transfer alone takes more than 10.
        for time in [4.0, 10.0] {
            let c = Contention::of(&doctored(time), 2.0);
            assert_eq!(c.uncontended_bound, 10.0);
            assert!(!c.contended(), "p99 {} <= bound 10", c.p99_transfer_time);
        }
        assert!(Contention::of(&doctored(15.0), 2.0).contended());
        // Nothing shipped is no evidence of sharing.
        let empty = ScenarioSummary {
            metrics: MetricsRegistry::new(),
            ..doctored(0.0)
        };
        assert!(!Contention::of(&empty, 2.0).contended());
    }
}
