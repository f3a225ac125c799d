//! E7 — the shared-bandwidth flow plane under contention.
//!
//! Runs the registry's flow scenarios (`incast-storm`,
//! `bandwidth-starved-sphere`, `transfer-vs-compute`), where every §11
//! permutation ships its input data through `rtds-flow`'s max-min
//! fair-share model instead of a delay-only send, and reports the
//! transfer-time/flow-rate/link-utilization telemetry per scenario. The
//! whole report (`rtds-exp-flows/1`) is deterministic — a pure function of
//! `--seed` — so two runs with the same flags are byte-identical.
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

use rtds_bench::harness::{cell_outcome_fields, cells_accepted, require_no_deadline_misses};
use rtds_bench::{write_json_report, ExpArgs};
use rtds_scenarios::{builtin_scenarios, run_cell, CellReport, Json, Scenario};
use rtds_sim::metrics_json::summary_to_json;
use rtds_sim::MetricsRegistry;

/// Identifier of the report schema (bump on breaking field changes).
const FLOWS_SCHEMA: &str = "rtds-exp-flows/1";

/// Deterministic flow telemetry of one scenario, aggregated over its seeds.
struct ScenarioFlows {
    scenario: Scenario,
    cells: Vec<CellReport>,
    /// The cells' telemetry folded together: counters add, histograms merge
    /// bucket-wise.
    metrics: MetricsRegistry,
    /// Smallest link capacity over every seed's built network.
    min_bandwidth: f64,
}

impl ScenarioFlows {
    fn run(scenario: Scenario, seeds: &[u64]) -> Self {
        let mut out = ScenarioFlows {
            cells: Vec::new(),
            metrics: MetricsRegistry::new(),
            min_bandwidth: f64::INFINITY,
            scenario,
        };
        for &seed in seeds {
            let network = out.scenario.build_network(seed);
            for (a, b, _) in network.links().collect::<Vec<_>>() {
                let capacity = network.link_bandwidth(a, b).unwrap_or(f64::INFINITY);
                out.min_bandwidth = out.min_bandwidth.min(capacity);
            }
            let cell = run_cell(&out.scenario, seed);
            out.metrics.merge(&cell.metrics);
            out.cells.push(cell);
        }
        out
    }

    /// The analytic bound no *uncontended* transfer can exceed: shipping
    /// even the largest volume across even the slowest link, alone, takes
    /// at most `max_volume / min_bandwidth` (a multi-hop path is pinned at
    /// its bottleneck link). A p99 transfer time above it proves flows
    /// were sharing bandwidth.
    fn uncontended_bound(&self) -> f64 {
        self.metrics.histogram("task_data_volume").max() / self.min_bandwidth
    }

    fn p99_transfer_time(&self) -> f64 {
        self.metrics.histogram("transfer_time").quantile(0.99)
    }

    fn contended(&self) -> bool {
        !self.metrics.histogram("transfer_time").is_empty()
            && self.p99_transfer_time() > self.uncontended_bound()
    }

    fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![("seed", Json::UInt(c.seed))];
                fields.extend(cell_outcome_fields(c));
                fields.extend([
                    ("guarantee_ratio", Json::Num(c.guarantee_ratio)),
                    (
                        "flows_started",
                        Json::UInt(c.metrics.counter("sim_flow_started")),
                    ),
                    (
                        "flows_finished",
                        Json::UInt(c.metrics.counter("sim_flow_finished")),
                    ),
                    (
                        "stale_finishes",
                        Json::UInt(c.metrics.counter("sim_flow_stale_finish")),
                    ),
                    (
                        "task_data_sent",
                        Json::UInt(c.metrics.counter("task_data_sent")),
                    ),
                    (
                        "task_data_received",
                        Json::UInt(c.metrics.counter("task_data_received")),
                    ),
                    ("finished_at", Json::Num(c.finished_at)),
                    ("events_processed", Json::UInt(c.events_processed)),
                ]);
                Json::object(fields)
            })
            .collect();
        let summary = |name: &str| summary_to_json(&self.metrics.histogram(name).summary());
        Json::object(vec![
            ("name", Json::str(&self.scenario.name)),
            ("description", Json::str(&self.scenario.description)),
            ("cells", Json::Array(cells)),
            ("transfer_time", summary("transfer_time")),
            ("flow_rate", summary("flow_rate")),
            ("link_utilization", summary("link_utilization")),
            ("task_data_volume", summary("task_data_volume")),
            (
                "contention",
                Json::object(vec![
                    (
                        "max_volume",
                        Json::Num(self.metrics.histogram("task_data_volume").max()),
                    ),
                    ("min_bandwidth", Json::Num(self.min_bandwidth)),
                    ("uncontended_bound", Json::Num(self.uncontended_bound())),
                    ("p99_transfer_time", Json::Num(self.p99_transfer_time())),
                    ("contended", Json::Bool(self.contended())),
                ]),
            ),
        ])
    }
}

pub(crate) fn run(args: ExpArgs) {
    let flow_scenarios: Vec<Scenario> = builtin_scenarios()
        .into_iter()
        .filter(|s| s.config.flow_transfers)
        .collect();
    let (selected, base_seed, seeds) = args.selection(flow_scenarios, 3);

    println!(
        "== E7: flow plane under contention ({} scenario(s) x {} seed(s) from {}) ==",
        selected.len(),
        seeds.len(),
        base_seed
    );
    println!();
    println!(
        "{:<26} {:>6} {:>7} {:>7} {:>10} {:>10} {:>10}",
        "scenario", "ratio", "flows", "data", "p99 xfer", "bound", "contended"
    );

    let mut results = Vec::new();
    let (mut misses, mut undelivered) = (0u64, 0u64);
    for scenario in selected {
        let result = ScenarioFlows::run(scenario, &seeds);
        let submitted: u64 = result.cells.iter().map(|c| c.submitted).sum();
        let accepted = cells_accepted(&result.cells);
        println!(
            "{:<26} {:>6.3} {:>7} {:>7} {:>10.2} {:>10.2} {:>10}",
            result.scenario.name,
            accepted as f64 / submitted.max(1) as f64,
            result.metrics.counter("sim_flow_finished"),
            result.metrics.counter("task_data_sent"),
            result.p99_transfer_time(),
            result.uncontended_bound(),
            result.contended(),
        );
        misses += result.cells.iter().map(|c| c.deadline_misses).sum::<u64>();
        undelivered += result
            .metrics
            .counter("task_data_sent")
            .abs_diff(result.metrics.counter("task_data_received"));
        results.push(result);
    }
    println!();
    println!("The bound is max(shipped volume) / min(link bandwidth): the worst time any");
    println!("transfer could take with the network to itself. p99 above it = real sharing.");

    if let Some(path) = args.json_path() {
        let report = Json::object(vec![
            ("schema", Json::str(FLOWS_SCHEMA)),
            ("seed", Json::UInt(base_seed)),
            (
                "seeds",
                Json::Array(seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            (
                "scenarios",
                Json::Array(results.iter().map(ScenarioFlows::to_json).collect()),
            ),
        ]);
        write_json_report(path, &report.render());
    }

    require_no_deadline_misses(misses);
    if undelivered > 0 {
        eprintln!(
            "delivery check FAILED: {undelivered} shipped input(s) never arrived \
             (flow scenarios lose no messages)"
        );
        std::process::exit(1);
    }

    if args.has("assert-contention") {
        let incast = results
            .iter()
            .find(|r| r.scenario.name == "incast-storm")
            .unwrap_or_else(|| {
                eprintln!("--assert-contention needs incast-storm in the selection");
                std::process::exit(2);
            });
        if incast.contended() {
            println!();
            println!(
                "contention check: incast-storm p99 {:.2} > uncontended bound {:.2} — flows share bandwidth",
                incast.p99_transfer_time(),
                incast.uncontended_bound()
            );
        } else {
            eprintln!(
                "contention check FAILED: incast-storm p99 {:.2} <= bound {:.2} — transfers look uncontended",
                incast.p99_transfer_time(),
                incast.uncontended_bound()
            );
            std::process::exit(1);
        }
    }
}
