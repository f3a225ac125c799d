//! Seeded determinism: a full RTDS deployment — network generation, workload
//! generation and the protocol run itself — is a pure function of its seeds.
//! Two runs with the same seeds must agree on every observable of the report:
//! per-job outcomes, completion times, message counters and final time.

use rtds::core::{JobReport, RtdsConfig, RtdsSystem, StreamReport};
use rtds::net::generators::{grid, DelayDistribution};
use rtds::scenarios::{find_scenario, run_cell, run_sweep, SweepConfig, WorkloadRecipe};
use rtds::sim::arrivals::ArrivalProcess;

fn run_once(net_seed: u64, workload_seed: u64, system_seed: u64) -> (StreamReport, Vec<JobReport>) {
    let network = grid(
        4,
        3,
        false,
        DelayDistribution::Uniform { min: 0.5, max: 2.0 },
        net_seed,
    );
    let jobs = WorkloadRecipe {
        arrivals: ArrivalProcess::Poisson { rate: 0.03 },
        horizon: 120.0,
        ..WorkloadRecipe::default()
    }
    .build(&network, workload_seed);
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), system_seed);
    system.run(jobs)
}

#[test]
fn identical_seeds_produce_identical_reports() {
    let first = run_once(11, 42, 7);
    let second = run_once(11, 42, 7);
    // Spot-check the observables the paper's evaluation hinges on...
    let ((first_report, first_jobs), (second_report, second_jobs)) = (&first, &second);
    assert!(!first_jobs.is_empty(), "the workload must be non-trivial");
    assert_eq!(first_jobs, second_jobs, "per-job outcomes must match");
    assert_eq!(
        first_report.stats.messages_sent,
        second_report.stats.messages_sent
    );
    assert_eq!(
        first_report.stats.messages_delivered,
        second_report.stats.messages_delivered
    );
    assert_eq!(first_report.guarantee, second_report.guarantee);
    // ...and then the whole report structurally.
    assert_eq!(first, second);
}

#[test]
fn changing_network_or_workload_seed_changes_the_run() {
    // The system seed is deliberately not varied here: the protocol itself
    // is currently deterministic given its inputs, so only the network and
    // workload seeds are observable in the report.
    let base = run_once(11, 42, 7);
    // A different workload seed yields different arrivals, hence different
    // job reports.
    let other_workload = run_once(11, 43, 7);
    assert_ne!(base.1, other_workload.1);
    // A different network seed changes link delays, which shifts message
    // timing and distribution decisions.
    let other_network = run_once(12, 42, 7);
    assert_ne!(base, other_network);
}

#[test]
fn sweep_reports_are_byte_identical_for_any_thread_count() {
    // The scenario sweep shards (scenario, seed) cells over worker threads;
    // the aggregate report — including its JSON rendering — must not depend
    // on how many threads did the work, nor on the run.
    let scenarios = vec![
        find_scenario("paper-baseline").unwrap(),
        find_scenario("lossy-messages").unwrap(),
        find_scenario("partition-and-heal").unwrap(),
    ];
    let reference = run_sweep(&scenarios, &SweepConfig::new(7, 2, 1));
    let reference_json = reference.to_json();
    for threads in [2, 3, 16] {
        let report = run_sweep(&scenarios, &SweepConfig::new(7, 2, threads));
        assert_eq!(reference, report, "threads = {threads}");
        assert_eq!(reference_json, report.to_json(), "threads = {threads}");
    }
    // And a perturbed single cell is bit-reproducible on its own.
    let scenario = find_scenario("site-crash-wave").unwrap();
    assert_eq!(run_cell(&scenario, 3), run_cell(&scenario, 3));
}

#[test]
fn engine_dispatch_order_is_reproducible_event_for_event() {
    // Determinism at the finest granularity the engine exposes: the order
    // log records a `(time, class, seq)` triple for every dispatched event,
    // so two seeded runs must agree on the entire dispatch *sequence*, not
    // just on the aggregated report. This is the trace the calendar queue
    // must reproduce exactly to be a drop-in replacement for the heap —
    // a layout-dependent tie-break would show up here first.
    let capacity = 10_000;
    let run_logged = || {
        let network = grid(
            4,
            3,
            false,
            DelayDistribution::Uniform { min: 0.5, max: 2.0 },
            11,
        );
        let jobs = WorkloadRecipe {
            arrivals: ArrivalProcess::Poisson { rate: 0.25 },
            horizon: 220.0,
            ..WorkloadRecipe::default()
        }
        .build(&network, 42);
        let mut system = RtdsSystem::new(network, RtdsConfig::default(), 7);
        system.enable_order_log(capacity);
        let report = system.run(jobs);
        (report, system.order_log().to_vec())
    };
    let (first_report, first_log) = run_logged();
    let (second_report, second_log) = run_logged();
    assert_eq!(first_report, second_report);
    assert!(
        first_log.len() >= 5_000,
        "the run must be long enough to be meaningful, got {} events",
        first_log.len()
    );
    assert_eq!(
        first_log, second_log,
        "dispatch sequences must be identical"
    );
    // The log respects the documented total order: (time, class, seq)
    // non-decreasing in time, with class and seq breaking ties.
    for pair in first_log.windows(2) {
        let (t0, c0, s0) = pair[0];
        let (t1, c1, s1) = pair[1];
        assert!(
            t0 < t1 || (t0 == t1 && (c0 < c1 || (c0 == c1 && s0 < s1))),
            "dispatch order violated: ({t0}, {c0}, {s0}) then ({t1}, {c1}, {s1})"
        );
    }
}
