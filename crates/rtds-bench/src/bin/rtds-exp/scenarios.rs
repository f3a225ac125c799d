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
//! One row per selected scenario, under its registry name, with each
//! column's median and `[min-max]` over the seeds; `--json` writes the
//! [`rtds_scenarios::SweepReport`]. Whatever the faults, an accepted job must
//! never miss its deadline: the whole table is printed and the report
//! written, then any miss exits 1.

use rtds_bench::harness::{require_no_deadline_misses, run_table, Column, Row, MESSAGES, RATIO};
use rtds_bench::{ExpArgs, TraceSetup};
use rtds_scenarios::{builtin_scenarios, run_cell_traced};

/// Mean slack (deadline minus completion) of the on-time jobs.
const SLACK: Column = ("slack", 1, |c| c.mean_slack);
/// Fault events the engine applied.
const FAULTS: Column = ("faults", 0, |c| c.faults_injected as f64);
/// Messages lost or dropped by fault injection.
const LOST: Column = ("lost", 0, |c| c.messages_lost as f64);

/// What the table shows, printed under it.
const CLAIMS: &str = "\
Scenarios sharing the paper-baseline recipes (lossy-messages, site-crash-wave)
isolate the effect of the injected faults: same jobs, same network, different
acceptance. Reports are byte-identical for any --threads value.";

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

    let selected = args.selection(scenarios);
    let config = args.sweep_config(3);
    let rows: Vec<Row> = selected.iter().cloned().map(Row::registry).collect();
    let report = run_table(
        &args,
        &config,
        &format!("E6: scenario sweep ({} thread(s))", config.threads),
        &rows,
        &[RATIO, MESSAGES, SLACK, FAULTS, LOST],
        CLAIMS,
    );

    if tracing.is_active() {
        let (traced, seed) = (&selected[0], config.seeds[0]);
        let (cell, document) = run_cell_traced(traced, seed, tracing.ring_capacity());
        println!();
        println!(
            "traced cell: {} seed {} ({} jobs submitted)",
            traced.name, seed, cell.submitted
        );
        tracing.export_document(&document);
    }

    require_no_deadline_misses(&report);
}
