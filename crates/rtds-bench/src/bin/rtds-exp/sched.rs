//! E8 — local scheduler comparison (protocol vs HEFT vs lookahead).
//!
//! Re-runs registry scenarios with each site's local scheduler swapped
//! between the paper's §5/§12 critical-path list scheduler (`protocol`),
//! insertion-based HEFT (`heft`) and one-step lookahead (`lookahead`), and
//! reports the guarantee ratio and distribution messages per job for every
//! `(scenario, scheduler)` pair. The report (`rtds-exp-sched/1`) is a pure
//! function of `--seed`, so two runs with the same flags are byte-identical.
//!
//! ```text
//! rtds-exp sched [--scenario <name|all>] [--seed <u64>] [--seeds <n>]
//!                [--json <path>]
//! ```
//!
//! Whatever the scheduler, an accepted job must never miss its deadline —
//! the experiment exits nonzero if any cell reports a miss. Undefined ratios
//! (a cell that submitted zero jobs) are printed as `-` and serialized as
//! `null`, never as a fake `1.0` or `0.0`.

use rtds_bench::harness::{
    cell_outcome_fields, cells_accepted, opt_num, require_no_deadline_misses,
};
use rtds_bench::{write_json_report, ExpArgs};
use rtds_scenarios::{builtin_scenarios, run_cell, CellReport, Json, Scenario};
use rtds_sched::SchedulerKind;

/// Identifier of the report schema (bump on breaking field changes).
const SCHED_SCHEMA: &str = "rtds-exp-sched/1";

/// The three local schedulers under comparison, in report order.
const KINDS: [SchedulerKind; 3] = [
    SchedulerKind::Protocol,
    SchedulerKind::Heft,
    SchedulerKind::Lookahead,
];

/// One scenario run under one scheduler, aggregated over its seeds.
struct VariantResult {
    kind: SchedulerKind,
    cells: Vec<CellReport>,
}

impl VariantResult {
    fn run(scenario: &Scenario, kind: SchedulerKind, seeds: &[u64]) -> Self {
        let mut variant = scenario.clone();
        variant.config.scheduler = kind;
        VariantResult {
            kind,
            cells: seeds.iter().map(|&seed| run_cell(&variant, seed)).collect(),
        }
    }

    fn submitted(&self) -> u64 {
        self.cells.iter().map(|c| c.submitted).sum()
    }

    fn accepted(&self) -> u64 {
        cells_accepted(&self.cells)
    }

    fn deadline_misses(&self) -> u64 {
        self.cells.iter().map(|c| c.deadline_misses).sum()
    }

    /// Aggregate guarantee ratio; `None` when no job was submitted (a 0/0
    /// ratio must stay undefined, not masquerade as `1.0`).
    fn guarantee_ratio(&self) -> Option<f64> {
        let submitted = self.submitted();
        (submitted > 0).then(|| self.accepted() as f64 / submitted as f64)
    }

    /// Aggregate distribution messages per submitted job; `None` on an
    /// empty workload.
    fn messages_per_job(&self) -> Option<f64> {
        let submitted = self.submitted();
        let messages: f64 = self
            .cells
            .iter()
            .map(|c| c.messages_per_job * c.submitted as f64)
            .sum();
        (submitted > 0).then(|| messages / submitted as f64)
    }

    fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![("seed", Json::UInt(c.seed))];
                fields.extend(cell_outcome_fields(c));
                fields.extend([
                    (
                        "guarantee_ratio",
                        opt_num((c.submitted > 0).then_some(c.guarantee_ratio)),
                    ),
                    (
                        "messages_per_job",
                        opt_num((c.submitted > 0).then_some(c.messages_per_job)),
                    ),
                    ("events_processed", Json::UInt(c.events_processed)),
                    ("finished_at", Json::Num(c.finished_at)),
                ]);
                Json::object(fields)
            })
            .collect();
        Json::object(vec![
            ("scheduler", Json::str(self.kind.name())),
            ("submitted", Json::UInt(self.submitted())),
            ("accepted", Json::UInt(self.accepted())),
            ("deadline_misses", Json::UInt(self.deadline_misses())),
            ("guarantee_ratio", opt_num(self.guarantee_ratio())),
            ("messages_per_job", opt_num(self.messages_per_job())),
            ("cells", Json::Array(cells)),
        ])
    }
}

/// All three scheduler variants of one scenario.
struct ScenarioResult {
    scenario: Scenario,
    variants: Vec<VariantResult>,
}

impl ScenarioResult {
    fn run(scenario: Scenario, seeds: &[u64]) -> Self {
        let variants = KINDS
            .iter()
            .map(|&kind| VariantResult::run(&scenario, kind, seeds))
            .collect();
        ScenarioResult { scenario, variants }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::str(&self.scenario.name)),
            ("description", Json::str(&self.scenario.description)),
            (
                "schedulers",
                Json::Array(self.variants.iter().map(VariantResult::to_json).collect()),
            ),
        ])
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

pub(crate) fn run(args: ExpArgs) {
    let (selected, base_seed, seeds) = args.selection(builtin_scenarios(), 2);

    println!(
        "== E8: local scheduler comparison ({} scenario(s) x {} scheduler(s) x {} seed(s) from {}) ==",
        selected.len(),
        KINDS.len(),
        seeds.len(),
        base_seed
    );
    println!();
    println!(
        "{:<26} {:<10} {:>9} {:>7} {:>7} {:>9}",
        "scenario", "scheduler", "acc/sub", "ratio", "misses", "msgs/job"
    );

    let mut results = Vec::new();
    let mut misses = 0u64;
    for scenario in selected {
        let result = ScenarioResult::run(scenario, &seeds);
        for v in &result.variants {
            println!(
                "{:<26} {:<10} {:>4}/{:<4} {:>7} {:>7} {:>9}",
                result.scenario.name,
                v.kind.name(),
                v.accepted(),
                v.submitted(),
                fmt_opt(v.guarantee_ratio()),
                v.deadline_misses(),
                fmt_opt(v.messages_per_job()),
            );
            misses += v.deadline_misses();
        }
        results.push(result);
    }
    println!();

    if let Some(path) = args.json_path() {
        let report = Json::object(vec![
            ("schema", Json::str(SCHED_SCHEMA)),
            ("seed", Json::UInt(base_seed)),
            (
                "seeds",
                Json::Array(seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            (
                "schedulers",
                Json::Array(KINDS.iter().map(|k| Json::str(k.name())).collect()),
            ),
            (
                "scenarios",
                Json::Array(results.iter().map(ScenarioResult::to_json).collect()),
            ),
        ]);
        write_json_report(path, &report.render());
    }

    require_no_deadline_misses(misses);
    println!("deadline-miss check: zero misses across every scheduler and scenario");
}
