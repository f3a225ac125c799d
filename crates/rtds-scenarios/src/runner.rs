//! The sharded, seed-deterministic parallel sweep runner.
//!
//! A sweep is the cross product `scenarios × seeds`. Every cell is one
//! fully deterministic single-threaded simulation; the runner shards cells
//! round-robin over a fixed number of worker threads and reassembles results
//! in input order, so the aggregate report — including its JSON rendering —
//! is byte-identical for any thread count.

use crate::spec::{mix_seed, Scenario, StreamRecipe};
use crate::Json;
use rtds_core::{RtdsSystem, StreamOptions, StreamReport};
use rtds_sim::metrics_json::metrics_to_json;
use rtds_sim::trace::render_jsonl;
use rtds_sim::{MetricsRegistry, Trace};
use rtds_workload::{reader_from_string, record_to_string, JobFactory, OpenLoopSource};

/// Runs `work` over `inputs` on `threads` worker threads (round-robin
/// sharding, one scoped thread per shard) and returns the results in input
/// order. With `threads <= 1` everything runs on the calling thread.
pub fn parallel_sweep_sharded<I, O, F>(inputs: Vec<I>, threads: usize, work: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let threads = threads.max(1).min(inputs.len().max(1));
    if threads <= 1 {
        return inputs.into_iter().map(work).collect();
    }
    let indexed: Vec<(usize, I)> = inputs.into_iter().enumerate().collect();
    let mut shards: Vec<Vec<(usize, I)>> = (0..threads).map(|_| Vec::new()).collect();
    for (index, input) in indexed {
        shards[index % threads].push((index, input));
    }
    let mut results: Vec<Option<O>> = Vec::new();
    let total: usize = shards.iter().map(Vec::len).sum();
    results.resize_with(total, || None);
    let work = &work;
    let outputs: Vec<Vec<(usize, O)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .into_iter()
                        .map(|(index, input)| (index, work(input)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    for shard in outputs {
        for (index, output) in shard {
            results[index] = Some(output);
        }
    }
    results
        .into_iter()
        .map(|o| o.expect("every index filled"))
        .collect()
}

/// Configuration of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Sweep seeds; each `(scenario, seed)` pair is one cell.
    pub seeds: Vec<u64>,
    /// Worker threads (cells are sharded round-robin; the report does not
    /// depend on this).
    pub threads: usize,
}

impl SweepConfig {
    /// `count` consecutive seeds starting at `base`, on `threads` threads.
    pub fn new(base: u64, count: usize, threads: usize) -> Self {
        SweepConfig {
            seeds: (0..count as u64).map(|i| base + i).collect(),
            threads,
        }
    }
}

/// Metrics of one `(scenario, seed)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Scenario name.
    pub scenario: String,
    /// Sweep seed.
    pub seed: u64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs accepted by their arrival site.
    pub accepted_locally: u64,
    /// Jobs accepted after distribution.
    pub accepted_distributed: u64,
    /// Jobs rejected (or lost to faults).
    pub rejected: u64,
    /// Accepted jobs that missed their deadline (must stay zero): late
    /// completions plus accepted jobs that never completed at all.
    pub deadline_misses: u64,
    /// Guarantee ratio.
    pub guarantee_ratio: f64,
    /// Distribution messages per submitted job.
    pub messages_per_job: f64,
    /// Engine-level messages handed in for delivery.
    pub messages_sent: u64,
    /// Engine-level messages delivered.
    pub messages_delivered: u64,
    /// Mean slack (deadline minus completion) over on-time jobs.
    pub mean_slack: f64,
    /// Minimum slack over on-time jobs.
    pub min_slack: f64,
    /// Fault events applied by the engine.
    pub faults_injected: u64,
    /// Messages lost or dropped by fault injection (all causes).
    pub messages_lost: u64,
    /// Final simulated time.
    pub finished_at: f64,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Full telemetry of the cell run (latency/laxity histograms, protocol
    /// counters, streaming gauges). Deterministic per `(scenario, seed)`.
    pub metrics: MetricsRegistry,
}

impl CellReport {
    /// Takes the run's registry rather than copying it: a sweep holds every
    /// cell until it renders the report, so a clone would be kept alive once
    /// per cell while the original is dropped.
    fn from_report(scenario: &str, seed: u64, report: StreamReport) -> Self {
        let stats = &report.stats;
        let messages_lost = stats.named("sim_lost_random")
            + stats.named("sim_lost_link_down")
            + stats.named("sim_lost_unreachable")
            + stats.named("sim_dropped_site_down")
            + stats.named("sim_dropped_arrival_site_down")
            + stats.named("sim_dropped_timer_site_down");
        CellReport {
            scenario: scenario.to_string(),
            seed,
            submitted: report.guarantee.submitted,
            accepted_locally: report.guarantee.accepted_locally,
            accepted_distributed: report.guarantee.accepted_distributed,
            rejected: report.guarantee.rejected,
            deadline_misses: report.accepted_misses(),
            guarantee_ratio: report.guarantee_ratio(),
            messages_per_job: report.messages_per_job,
            messages_sent: stats.messages_sent,
            messages_delivered: stats.messages_delivered,
            mean_slack: report.mean_slack,
            min_slack: report.min_slack,
            faults_injected: stats.named("sim_fault_events"),
            messages_lost,
            finished_at: report.finished_at,
            events_processed: report.events_processed,
            metrics: report.metrics,
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("seed", Json::UInt(self.seed)),
            ("submitted", Json::UInt(self.submitted)),
            ("accepted_locally", Json::UInt(self.accepted_locally)),
            (
                "accepted_distributed",
                Json::UInt(self.accepted_distributed),
            ),
            ("rejected", Json::UInt(self.rejected)),
            ("deadline_misses", Json::UInt(self.deadline_misses)),
            ("guarantee_ratio", Json::Num(self.guarantee_ratio)),
            ("messages_per_job", Json::Num(self.messages_per_job)),
            ("messages_sent", Json::UInt(self.messages_sent)),
            ("messages_delivered", Json::UInt(self.messages_delivered)),
            ("mean_slack", Json::Num(self.mean_slack)),
            ("min_slack", Json::Num(self.min_slack)),
            ("faults_injected", Json::UInt(self.faults_injected)),
            ("messages_lost", Json::UInt(self.messages_lost)),
            ("finished_at", Json::Num(self.finished_at)),
            ("events_processed", Json::UInt(self.events_processed)),
            ("metrics", metrics_to_json(&self.metrics, false)),
        ])
    }
}

/// Per-scenario aggregate over all sweep seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: String,
    /// Scenario description.
    pub description: String,
    /// One cell per seed, in seed order.
    pub cells: Vec<CellReport>,
    /// Mean guarantee ratio across seeds.
    pub mean_guarantee_ratio: f64,
    /// Minimum guarantee ratio across seeds.
    pub min_guarantee_ratio: f64,
    /// Maximum guarantee ratio across seeds.
    pub max_guarantee_ratio: f64,
    /// Mean distribution messages per job across seeds.
    pub mean_messages_per_job: f64,
    /// Mean slack of accepted jobs across seeds.
    pub mean_slack: f64,
    /// Total deadline misses across seeds (must stay zero).
    pub total_deadline_misses: u64,
    /// Total fault events across seeds.
    pub total_faults_injected: u64,
    /// Total lost/dropped messages across seeds.
    pub total_messages_lost: u64,
    /// Scenario-scoped telemetry: every cell's registry merged. The merge
    /// is associative and commutative, so this aggregate — and its JSON
    /// rendering — is identical for any sweep thread count.
    pub metrics: MetricsRegistry,
}

impl ScenarioSummary {
    fn aggregate(name: &str, description: &str, cells: Vec<CellReport>) -> Self {
        let n = cells.len().max(1) as f64;
        let mean = |f: fn(&CellReport) -> f64| cells.iter().map(f).sum::<f64>() / n;
        let mean_guarantee_ratio = mean(|c| c.guarantee_ratio);
        let min_guarantee_ratio = cells
            .iter()
            .map(|c| c.guarantee_ratio)
            .fold(f64::INFINITY, f64::min);
        let max_guarantee_ratio = cells
            .iter()
            .map(|c| c.guarantee_ratio)
            .fold(f64::NEG_INFINITY, f64::max);
        ScenarioSummary {
            name: name.to_string(),
            description: description.to_string(),
            mean_guarantee_ratio,
            min_guarantee_ratio: if min_guarantee_ratio.is_finite() {
                min_guarantee_ratio
            } else {
                0.0
            },
            max_guarantee_ratio: if max_guarantee_ratio.is_finite() {
                max_guarantee_ratio
            } else {
                0.0
            },
            mean_messages_per_job: mean(|c| c.messages_per_job),
            mean_slack: mean(|c| c.mean_slack),
            total_deadline_misses: cells.iter().map(|c| c.deadline_misses).sum(),
            total_faults_injected: cells.iter().map(|c| c.faults_injected).sum(),
            total_messages_lost: cells.iter().map(|c| c.messages_lost).sum(),
            metrics: {
                let mut merged = MetricsRegistry::new();
                for cell in &cells {
                    merged.merge(&cell.metrics);
                }
                merged
            },
            cells,
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::str(&self.name)),
            ("description", Json::str(&self.description)),
            ("mean_guarantee_ratio", Json::Num(self.mean_guarantee_ratio)),
            ("min_guarantee_ratio", Json::Num(self.min_guarantee_ratio)),
            ("max_guarantee_ratio", Json::Num(self.max_guarantee_ratio)),
            (
                "mean_messages_per_job",
                Json::Num(self.mean_messages_per_job),
            ),
            ("mean_slack", Json::Num(self.mean_slack)),
            (
                "total_deadline_misses",
                Json::UInt(self.total_deadline_misses),
            ),
            (
                "total_faults_injected",
                Json::UInt(self.total_faults_injected),
            ),
            ("total_messages_lost", Json::UInt(self.total_messages_lost)),
            ("metrics", metrics_to_json(&self.metrics, false)),
            (
                "cells",
                Json::Array(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ])
    }
}

/// The aggregate report of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep seeds, in input order.
    pub seeds: Vec<u64>,
    /// One summary per scenario, in input order.
    pub scenarios: Vec<ScenarioSummary>,
}

impl SweepReport {
    /// Renders the report as deterministic JSON (byte-identical across runs
    /// and thread counts for the same scenarios and seeds).
    ///
    /// The text is exactly `Json::render` of the whole `{"seeds", "scenarios"}`
    /// object, but only one scenario's [`Json`] tree exists at a time: each
    /// is built, rendered at its nesting depth and dropped before the next.
    /// The output is allocated once, from an estimate of its length made
    /// before any of it is written: a `String` grown by doubling copies the
    /// text at each step, and the old and new buffers of a 4 MB report
    /// together held 3 MB more than the text at the last copy.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.capacity_hint());
        out.push_str("{\n  \"seeds\": ");
        Json::Array(self.seeds.iter().map(|s| Json::UInt(*s)).collect()).write_pretty(&mut out, 1);
        out.push_str(",\n  \"scenarios\": ");
        if self.scenarios.is_empty() {
            out.push_str("[]");
        } else {
            out.push('[');
            for (i, scenario) in self.scenarios.iter().enumerate() {
                out.push_str(if i == 0 { "\n    " } else { ",\n    " });
                scenario.to_json().write_pretty(&mut out, 2);
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// A little more than the length of [`SweepReport::to_json`]. The cells
    /// of one scenario render to nearly the same length, so each scenario is
    /// estimated as its first cell's rendering times its cell count plus
    /// one (for the scenario's own fields and merged metrics). Over the
    /// registry sweep the over- and underestimates of the scenarios cancel
    /// to within 1 %; the eighth added on top covers that, and the bytes
    /// reserved but never written are never touched.
    fn capacity_hint(&self) -> usize {
        let mut cell = String::new();
        let cells: usize = self
            .scenarios
            .iter()
            .filter_map(|scenario| {
                let first = scenario.cells.first()?;
                cell.clear();
                first.to_json().write_pretty(&mut cell, 4);
                Some((scenario.cells.len() + 1) * cell.len())
            })
            .sum();
        let seeds = self.seeds.len() * "\n    18446744073709551615,".len();
        (cells + seeds) / 8 * 9 + 64
    }

    /// Summary lookup by scenario name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioSummary> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Runs one `(scenario, seed)` cell: builds the network and workload,
/// expands and schedules the perturbation plan, runs to quiescence and
/// extracts the cell metrics. Scenarios with a [`StreamRecipe`] pull their
/// arrivals from an open-loop source, the rest stream their pre-built
/// workload; both are bit-deterministic per seed.
pub fn run_cell(scenario: &Scenario, seed: u64) -> CellReport {
    run_cell_with(scenario, seed, None).0
}

/// Runs one cell with a bounded ring trace installed and returns the cell
/// report plus the retained protocol events rendered as an `rtds-trace/1`
/// JSONL document (the header carries the scenario name and seed, so the
/// file is self-contained). Byte-deterministic per `(scenario, seed,
/// capacity)`, independent of sweep thread counts — the span ids are
/// derived, never allocated.
pub fn run_cell_traced(scenario: &Scenario, seed: u64, capacity: usize) -> (CellReport, String) {
    let (cell, rendered) = run_cell_with(scenario, seed, Some(Trace::ring(capacity)));
    (cell, rendered.expect("trace was installed"))
}

fn run_cell_with(
    scenario: &Scenario,
    seed: u64,
    trace: Option<Trace>,
) -> (CellReport, Option<String>) {
    let network = scenario.build_network(seed);
    let faults = scenario.perturbations.expand(&network, mix_seed(seed, 3));
    let site_count = network.site_count();
    let batch_jobs = match scenario.stream {
        None => Some(scenario.build_workload(&network, seed)),
        Some(_) => None,
    };
    let mut system = RtdsSystem::with_resources(
        network,
        scenario.config,
        mix_seed(seed, 5),
        scenario.resources.bundles(site_count),
    );
    let want_trace = trace.is_some();
    if let Some(trace) = trace {
        system.set_trace(trace);
    }
    system.set_fault_seed(mix_seed(seed, 4));
    system.set_max_events(scenario.max_events);
    for (time, fault) in faults {
        system.schedule_fault(time.max(0.0), fault);
    }
    let report = match scenario.stream {
        None => {
            let mut jobs = batch_jobs.expect("built above").into_iter();
            system.run_streaming(&mut jobs, &StreamOptions::default())
        }
        Some(stream) => run_stream_cell(scenario, &stream, &mut system, site_count, seed),
    };
    let cell = CellReport::from_report(&scenario.name, seed, report);
    let rendered = want_trace.then(|| {
        render_jsonl(
            &[
                ("scenario", Json::str(&scenario.name)),
                ("seed", Json::UInt(seed)),
            ],
            &system.trace().events(),
        )
    });
    (cell, rendered)
}

/// Streams one cell's workload through the system. With `replay` set, the
/// source is first drained into an in-memory JSONL trace which is then
/// replayed — every such cell is a full record → replay round-trip.
fn run_stream_cell(
    scenario: &Scenario,
    stream: &StreamRecipe,
    system: &mut RtdsSystem,
    site_count: usize,
    seed: u64,
) -> StreamReport {
    let source: OpenLoopSource = stream.open_loop.build(site_count, mix_seed(seed, 2));
    let template = scenario.job_template();
    let options = StreamOptions::default();
    if stream.replay {
        let mut live = source;
        let trace = record_to_string(
            &mut live,
            &[
                ("scenario", Json::str(&scenario.name)),
                ("seed", Json::UInt(seed)),
                ("template", template.describe()),
            ],
        );
        let mut factory = JobFactory::new(reader_from_string(trace), template);
        system.run_streaming(&mut factory, &options)
    } else {
        let mut factory = JobFactory::new(source, template);
        system.run_streaming(&mut factory, &options)
    }
}

/// Runs the full sweep `scenarios × config.seeds` on `config.threads`
/// worker threads and aggregates per-scenario summaries.
pub fn run_sweep(scenarios: &[Scenario], config: &SweepConfig) -> SweepReport {
    run_sweep_with(scenarios, config, |index, seed| {
        run_cell(&scenarios[index], seed)
    })
}

/// [`run_sweep`] with each cell run by `cell(scenario index, seed)` instead
/// of [`run_cell`]: the same sharding, ordering and aggregation, for callers
/// that run some scenarios another way (`rtds-exp` runs its baseline rows
/// through `rtds-baselines`).
pub fn run_sweep_with<F>(scenarios: &[Scenario], config: &SweepConfig, cell: F) -> SweepReport
where
    F: Fn(usize, u64) -> CellReport + Sync,
{
    let cells: Vec<(usize, u64)> = (0..scenarios.len())
        .flat_map(|i| config.seeds.iter().map(move |&seed| (i, seed)))
        .collect();
    let mut reports =
        parallel_sweep_sharded(cells, config.threads, |(index, seed)| cell(index, seed))
            .into_iter();
    // Results come back in input order (scenario-major), so each scenario's
    // cells are the next `seeds.len()` reports — name collisions between
    // scenarios cannot cross-contaminate summaries.
    let mut summaries = Vec::new();
    for scenario in scenarios {
        let cells: Vec<CellReport> = reports.by_ref().take(config.seeds.len()).collect();
        summaries.push(ScenarioSummary::aggregate(
            &scenario.name,
            &scenario.description,
            cells,
        ));
    }
    SweepReport {
        seeds: config.seeds.clone(),
        scenarios: summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find_scenario;

    #[test]
    fn sharded_sweep_preserves_order_for_any_thread_count() {
        let inputs: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = inputs.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 4, 7, 64] {
            let out = parallel_sweep_sharded(inputs.clone(), threads, |x| x * 3);
            assert_eq!(out, expected, "threads = {threads}");
        }
        let empty: Vec<u64> = parallel_sweep_sharded(Vec::<u64>::new(), 4, |x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn cell_runs_are_reproducible() {
        let scenario = find_scenario("paper-baseline").unwrap();
        let a = run_cell(&scenario, 11);
        let b = run_cell(&scenario, 11);
        assert_eq!(a, b);
        assert!(a.submitted > 0);
        assert_eq!(a.deadline_misses, 0);
        let c = run_cell(&scenario, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_report_is_thread_count_invariant() {
        let scenarios = vec![
            find_scenario("paper-baseline").unwrap(),
            find_scenario("partition-and-heal").unwrap(),
        ];
        let single = run_sweep(&scenarios, &SweepConfig::new(1, 2, 1));
        let parallel = run_sweep(&scenarios, &SweepConfig::new(1, 2, 4));
        assert_eq!(single, parallel);
        assert_eq!(single.to_json(), parallel.to_json());
        assert_eq!(single.scenarios.len(), 2);
        assert!(single.scenario("paper-baseline").is_some());
        assert!(single.scenario("nope").is_none());
        for summary in &single.scenarios {
            assert_eq!(summary.cells.len(), 2);
            assert_eq!(summary.total_deadline_misses, 0);
            assert!(summary.mean_guarantee_ratio > 0.0);
            let json = single.to_json();
            assert!(json.contains(&summary.name));
        }
    }

    #[test]
    fn the_report_renders_as_its_whole_json_tree_would() {
        // `to_json` writes one scenario's tree at a time; the text must be
        // exactly what rendering the whole document in one piece gives.
        let scenarios = vec![
            find_scenario("paper-baseline").unwrap(),
            find_scenario("site-crash-wave").unwrap(),
        ];
        let empty = SweepReport {
            seeds: Vec::new(),
            scenarios: Vec::new(),
        };
        for report in [run_sweep(&scenarios, &SweepConfig::new(1, 2, 1)), empty] {
            let rendered = report.to_json();
            assert_eq!(rendered, Json::parse(&rendered).unwrap().render());
            // Written into the buffer allocated up front, never regrown.
            assert_eq!(rendered.capacity(), report.capacity_hint());
        }
    }

    #[test]
    fn duplicate_scenario_names_do_not_cross_contaminate() {
        // A scenario swept against a mutated copy of itself (same name) must
        // keep exactly seeds.len() cells per summary.
        let base = find_scenario("paper-baseline").unwrap();
        let mut tweaked = base.clone();
        tweaked.workload.horizon = 120.0;
        let report = run_sweep(&[base, tweaked], &SweepConfig::new(1, 2, 2));
        assert_eq!(report.scenarios.len(), 2);
        for summary in &report.scenarios {
            assert_eq!(summary.cells.len(), 2);
        }
        // The shorter horizon admits fewer jobs, so the copies must differ.
        assert_ne!(
            report.scenarios[0].cells[0].submitted,
            report.scenarios[1].cells[0].submitted
        );
    }

    #[test]
    fn streaming_cells_run_and_are_reproducible() {
        for name in ["diurnal-wave", "pareto-burst", "replayed-trace"] {
            let scenario = find_scenario(name).unwrap();
            let a = run_cell(&scenario, 3);
            let b = run_cell(&scenario, 3);
            assert_eq!(a, b, "{name}");
            assert!(a.submitted > 0, "{name}");
            assert_eq!(a.deadline_misses, 0, "{name}");
            let c = run_cell(&scenario, 4);
            assert_ne!(a, c, "{name} ignores the seed");
        }
    }

    #[test]
    fn replaying_a_cell_reproduces_the_live_run_exactly() {
        // The same open-loop stream with and without the in-memory
        // record → replay round-trip must yield the identical cell report.
        let replayed = find_scenario("replayed-trace").unwrap();
        let mut live = replayed.clone();
        live.stream = live.stream.map(|s| StreamRecipe { replay: false, ..s });
        for seed in [1, 2, 9] {
            assert_eq!(
                run_cell(&replayed, seed),
                run_cell(&live, seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn flow_cells_ship_data_and_are_reproducible() {
        for name in [
            "incast-storm",
            "bandwidth-starved-sphere",
            "transfer-vs-compute",
        ] {
            let scenario = find_scenario(name).unwrap();
            let a = run_cell(&scenario, 5);
            let b = run_cell(&scenario, 5);
            assert_eq!(a, b, "{name}");
            assert!(a.submitted > 0, "{name}");
            assert_eq!(a.deadline_misses, 0, "{name}");
            // Input data actually travelled through the flow plane.
            assert!(a.metrics.counter("task_data_sent") > 0, "{name}");
            assert!(a.metrics.counter("sim_flow_finished") > 0, "{name}");
            assert!(!a.metrics.histogram("transfer_time").is_empty(), "{name}");
            let c = run_cell(&scenario, 6);
            assert_ne!(a, c, "{name} ignores the seed");
        }
    }

    #[test]
    fn zero_volume_flow_plane_reproduces_pre_flow_sweeps_byte_identically() {
        // Enabling the flow plane on a zero-volume workload must be a
        // perfect no-op: every pre-flow registry scenario, swept with edge
        // volumes forced to zero and transfers switched on, renders the
        // byte-identical report at 1, 2, and 4 worker threads.
        use crate::registry::builtin_scenarios;
        let mut baseline = Vec::new();
        let mut flowed = Vec::new();
        for scenario in builtin_scenarios() {
            if scenario.config.flow_transfers {
                continue;
            }
            let mut base = scenario.clone();
            base.workload.ccr = 0.0;
            let mut flow = base.clone();
            flow.config.data_volume_aware = true;
            flow.config.flow_transfers = true;
            baseline.push(base);
            flowed.push(flow);
        }
        assert!(baseline.len() >= 8, "registry shrank");
        let reference = run_sweep(&baseline, &SweepConfig::new(1, 1, 2));
        for threads in [1, 2, 4] {
            let flow = run_sweep(&flowed, &SweepConfig::new(1, 1, threads));
            assert_eq!(reference, flow, "threads = {threads}");
            assert_eq!(reference.to_json(), flow.to_json(), "threads = {threads}");
        }
        // The equivalence is not vacuous: the same scenarios with their
        // shipped volumes restored do move data through the flow plane.
        let probe = find_scenario("incast-storm").unwrap();
        assert!(run_cell(&probe, 1).metrics.counter("sim_flow_started") > 0);
    }

    #[test]
    fn accepted_jobs_that_never_complete_count_as_misses() {
        // Each cell has one accepted job with no committed reservation to
        // harvest: no completion, so the run files it as unharvested — and
        // the cell counts it as a miss.
        for (name, seed) in [("flaky-links", 19), ("partition-and-heal", 50)] {
            let cell = run_cell(&find_scenario(name).unwrap(), seed);
            assert_eq!(cell.deadline_misses, 1, "{name} seed {seed}");
        }
    }

    #[test]
    fn faults_actually_fire_in_perturbed_cells() {
        let scenario = find_scenario("site-crash-wave").unwrap();
        let cell = run_cell(&scenario, 2);
        assert!(cell.faults_injected > 0);
        assert_eq!(cell.deadline_misses, 0);
    }
}
