//! E6 — the declarative scenario engine: named scenarios composing topology,
//! workload and fault-injection recipes, swept over seeds on worker threads
//! with a deterministic aggregate report.
//!
//! Flags:
//!
//! * `--list` — print the registry and exit,
//! * `--scenario <name|all>` — which scenario(s) to run (default `all`),
//! * `--seed <u64>` — base sweep seed (default 1),
//! * `--seeds <n>` — consecutive seeds per scenario (default 3),
//! * `--threads <n>` — worker threads (default: available parallelism; the
//!   report is byte-identical for any value),
//! * `--json <path>` — write the aggregate report as JSON,
//! * `--trace-out <p>` / `--trace-ring <n>` / `--chrome-trace <p>` — after
//!   the sweep, re-run one cell (first selected scenario, base seed) with a
//!   bounded span trace installed and export it as `rtds-trace/1` JSONL /
//!   Chrome `about:tracing` JSON (see `docs/TRACING.md`); byte-identical
//!   for any `--threads` value, since the traced cell runs alone.
//!
//! Whatever the faults, an accepted job must never miss its deadline: the
//! whole table is printed and the report written, then any miss exits 1.

use rtds_bench::harness::{default_threads, require_no_deadline_misses};
use rtds_bench::{ExpArgs, TraceSetup};
use rtds_scenarios::{builtin_scenarios, run_cell_traced, run_sweep, SweepConfig};

pub(crate) fn run(args: ExpArgs) {
    let tracing = TraceSetup::from_args(&args);
    let scenarios = builtin_scenarios();

    if args.has("list") {
        println!("== built-in scenarios ({}) ==", scenarios.len());
        println!();
        for s in &scenarios {
            println!("{:<22} {}", s.name, s.description);
        }
        return;
    }

    let (selected, base_seed, seeds) = args.selection(scenarios, 3);
    let threads = args.usize_of("threads", default_threads());
    let config = SweepConfig { seeds, threads };

    println!(
        "== E6: scenario sweep ({} scenario(s) x {} seed(s) from {}, {} thread(s)) ==",
        selected.len(),
        config.seeds.len(),
        base_seed,
        threads
    );
    println!();
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>9} {:>10} {:>8} {:>8}",
        "scenario", "ratio", "min", "max", "msgs/job", "slack", "faults", "lost"
    );
    let report = run_sweep(&selected, &config);
    let mut misses = 0u64;
    for summary in &report.scenarios {
        println!(
            "{:<22} {:>7.3} {:>7.3} {:>7.3} {:>9.1} {:>10.1} {:>8} {:>8}",
            summary.name,
            summary.mean_guarantee_ratio,
            summary.min_guarantee_ratio,
            summary.max_guarantee_ratio,
            summary.mean_messages_per_job,
            summary.mean_slack,
            summary.total_faults_injected,
            summary.total_messages_lost,
        );
        misses += summary.total_deadline_misses;
    }
    println!();
    println!("Scenarios sharing the paper-baseline recipes (lossy-messages, site-crash-wave)");
    println!("isolate the effect of the injected faults: same jobs, same network, different");
    println!("acceptance. Reports are byte-identical for any --threads value.");

    if let Some(path) = args.json_path() {
        rtds_bench::write_json_report(path, &report.to_json());
    }

    if tracing.is_active() {
        let traced = &selected[0];
        let (cell, document) = run_cell_traced(traced, base_seed, tracing.ring_capacity());
        println!();
        println!(
            "traced cell: {} seed {} ({} jobs submitted)",
            traced.name, base_seed, cell.submitted
        );
        tracing.export_document(&document);
    }

    require_no_deadline_misses(misses);
}
