//! Shared experiment utilities: the rows E1–E5 sweep and the table they
//! print, plus the report-field renderers several experiments share.

use crate::{write_json_report, ExpArgs};
use rtds_baselines::{Baseline, BASELINES};
use rtds_scenarios::{mix_seed, run_cell, run_sweep_with, CellReport, Json, Scenario, SweepConfig};
use rtds_sim::MetricsRegistry;

/// How many consecutive seeds, from `--seed`, every E1–E5 row runs over.
const EXPERIMENT_SEEDS: u64 = 16;

/// One row of an E1–E5 table: a scenario and the policy that runs it.
#[derive(Debug)]
pub struct Row {
    /// What the row varies, printed as the table's first column
    /// (`rate=0.040`, `h=3`, `preemptive`).
    label: String,
    /// The policy's report name: `rtds` or a [`BASELINES`] entry's.
    policy: &'static str,
    /// The baseline's entry point; `None` runs the RTDS protocol.
    baseline: Option<Baseline>,
    /// The network, workload and protocol configuration; named
    /// `label/policy` in the sweep report.
    scenario: Scenario,
}

impl Row {
    /// A row running `scenario` under `policy`: `rtds` or a baseline's name.
    /// Panics on any other name.
    pub fn new(label: String, policy: &str, mut scenario: Scenario) -> Row {
        let (policy, baseline) = match BASELINES.iter().find(|(name, _)| *name == policy) {
            Some(&(name, run)) => (name, Some(run)),
            None if policy == "rtds" => ("rtds", None),
            None => panic!("no policy named {policy:?}"),
        };
        scenario.name = format!("{label}/{policy}");
        Row {
            label,
            policy,
            baseline,
            scenario,
        }
    }

    /// Runs the row's cell for one sweep seed.
    fn run_cell(&self, seed: u64) -> CellReport {
        match self.baseline {
            None => run_cell(&self.scenario, seed),
            Some(run) => baseline_cell(&self.scenario, run, seed),
        }
    }
}

/// Runs a baseline on the network and jobs [`run_cell`] would build for the
/// same scenario and seed, with the scenario's `preemptive` switch. A
/// baseline models no messages on the wire, slack, faults or events, so
/// those fields are 0 and its registry is empty.
fn baseline_cell(scenario: &Scenario, run: Baseline, seed: u64) -> CellReport {
    assert!(
        scenario.stream.is_none() && scenario.perturbations.is_empty(),
        "{}: baselines run batch workloads without faults",
        scenario.name
    );
    let network = scenario.build_network(seed);
    let jobs = scenario.build_workload(&network, seed);
    let report = run(
        &network,
        &jobs,
        scenario.config.preemptive,
        mix_seed(seed, 5),
    );
    CellReport {
        scenario: scenario.name.clone(),
        seed,
        submitted: report.submitted,
        accepted_locally: report.accepted_locally,
        accepted_distributed: report.accepted_remotely,
        rejected: report.rejected,
        deadline_misses: report.deadline_misses,
        // An empty workload reads as RTDS's own cells do.
        guarantee_ratio: report.guarantee_ratio().unwrap_or(1.0),
        messages_per_job: report.messages_per_job().unwrap_or(0.0),
        messages_sent: 0,
        messages_delivered: 0,
        mean_slack: 0.0,
        min_slack: 0.0,
        faults_injected: 0,
        messages_lost: 0,
        finished_at: 0.0,
        events_processed: 0,
        metrics: MetricsRegistry::new(),
    }
}

/// A table column: header, decimals, and the per-cell value whose median
/// and range over the seeds it prints.
pub type Column = (&'static str, usize, fn(&CellReport) -> f64);

/// Jobs submitted.
pub const JOBS: Column = ("jobs", 0, |c| c.submitted as f64);
/// Guarantee ratio.
pub const RATIO: Column = ("ratio", 3, |c| c.guarantee_ratio);
/// Distribution messages per submitted job.
pub const MESSAGES: Column = ("msgs/job", 1, |c| c.messages_per_job);

/// Median, minimum and maximum of a non-empty sample (the median of an even
/// count is the mean of the middle two).
fn median_min_max(mut values: Vec<f64>) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let median = (values[(n - 1) / 2] + values[n / 2]) / 2.0;
    (median, values[0], values[n - 1])
}

/// Runs one of E1–E5: sweeps `rows` over 16 seeds from `--seed` (default
/// 1), prints `title` and one line per row with each column's median and
/// `[min-max]` over the seeds, then `claims`. Writes the
/// [`rtds_scenarios::SweepReport`] to `--json`, then exits 1 if an accepted
/// job missed its deadline.
pub fn run_table(args: &ExpArgs, title: &str, rows: &[Row], columns: &[Column], claims: &str) {
    let config = SweepConfig {
        seeds: args.seed_range(EXPERIMENT_SEEDS),
        threads: default_threads(),
    };
    let scenarios: Vec<Scenario> = rows.iter().map(|r| r.scenario.clone()).collect();
    let report = run_sweep_with(&scenarios, &config, |index, seed| {
        rows[index].run_cell(seed)
    });
    println!("== {title} ==");
    println!(
        "{} seeds from {}; each column is the median [min-max] over the seeds",
        config.seeds.len(),
        config.seeds[0]
    );
    println!();
    let mut lines = vec![["row", "policy"]
        .into_iter()
        .chain(columns.iter().map(|c| c.0))
        .map(str::to_string)
        .collect::<Vec<_>>()];
    for (row, summary) in rows.iter().zip(&report.scenarios) {
        let mut line = vec![row.label.clone(), row.policy.to_string()];
        for &(_, decimals, value) in columns {
            let (median, min, max) = median_min_max(summary.cells.iter().map(value).collect());
            line.push(format!(
                "{median:.decimals$} [{min:.decimals$}-{max:.decimals$}]"
            ));
        }
        lines.push(line);
    }
    let widths: Vec<usize> = (0..lines[0].len())
        .map(|i| {
            lines
                .iter()
                .map(|l| l[i].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    for line in &lines {
        let cells: Vec<String> = (line.iter().zip(&widths).enumerate())
            .map(|(i, (cell, &width))| match i {
                0 | 1 => format!("{cell:<width$}"),
                _ => format!("{cell:>width$}"),
            })
            .collect();
        println!("{}", cells.join("  ").trim_end());
    }
    println!();
    println!("{claims}");
    if let Some(path) = args.json_path() {
        write_json_report(path, &report.to_json());
    }
    require_no_deadline_misses(
        report
            .scenarios
            .iter()
            .map(|s| s.total_deadline_misses)
            .sum(),
    );
}

/// An optional number as JSON: undefined ratios serialize as `null`, never
/// as a fake `1.0` or `0.0`.
pub fn opt_num(value: Option<f64>) -> Json {
    value.map(Json::Num).unwrap_or(Json::Null)
}

/// The outcome counts every per-cell JSON object carries, in report order.
pub fn cell_outcome_fields(cell: &CellReport) -> Vec<(&'static str, Json)> {
    vec![
        ("submitted", Json::UInt(cell.submitted)),
        ("accepted_locally", Json::UInt(cell.accepted_locally)),
        (
            "accepted_distributed",
            Json::UInt(cell.accepted_distributed),
        ),
        ("rejected", Json::UInt(cell.rejected)),
        ("deadline_misses", Json::UInt(cell.deadline_misses)),
    ]
}

/// Jobs accepted (locally or after distribution) over a set of cells.
pub fn cells_accepted(cells: &[CellReport]) -> u64 {
    cells
        .iter()
        .map(|c| c.accepted_locally + c.accepted_distributed)
        .sum()
}

/// The check closing every registry-driven experiment, after its table is
/// printed and its report written: an accepted job must never miss its
/// deadline. Any miss is reported on stderr and exits with status 1.
pub fn require_no_deadline_misses(misses: u64) {
    if misses > 0 {
        eprintln!("deadline-miss check FAILED: {misses} accepted job(s) missed their deadline");
        std::process::exit(1);
    }
}

/// Worker threads for the experiment sweeps: the available parallelism.
/// Every sweep reassembles its results in input order, so no report depends
/// on this.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_sim::arrivals::ArrivalProcess;

    #[test]
    fn every_baseline_cell_accounts_for_every_job() {
        let mut scenario = Scenario::named("small", "a 5x5 grid with 4 hotspot sites");
        scenario.workload.arrivals = ArrivalProcess::Poisson { rate: 0.08 };
        scenario.workload.horizon = 100.0;
        scenario.workload.hotspots = 4;
        for seed in [1, 2] {
            // Every policy is offered the jobs RTDS's own cell is offered.
            let rtds = Row::new("small".to_string(), "rtds", scenario.clone()).run_cell(seed);
            assert!(rtds.submitted > 0);
            for (name, _) in BASELINES {
                let cell = Row::new("small".to_string(), name, scenario.clone()).run_cell(seed);
                assert_eq!(cell.scenario, format!("small/{name}"));
                assert_eq!(cell.submitted, rtds.submitted, "{name} seed {seed}");
                assert_eq!(
                    cell.accepted_locally + cell.accepted_distributed + cell.rejected,
                    cell.submitted,
                    "{name} seed {seed}"
                );
                assert_eq!(cell.deadline_misses, 0, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median_min_max(vec![4.0, 1.0, 3.0, 2.0]), (2.5, 1.0, 4.0));
        assert_eq!(median_min_max(vec![0.5]), (0.5, 0.5, 0.5));
        assert_eq!(median_min_max(vec![3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
    }
}
