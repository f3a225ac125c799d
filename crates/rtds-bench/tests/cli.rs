//! The `rtds-exp` command line, driven as a user would: the exit-status
//! contract (0 success, 1 a failed experiment check, 2 a usage error), the
//! refusal of hostile flag values and the sweep report the registry
//! experiments write.

use rtds_scenarios::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn rtds_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtds-exp"))
        .args(args)
        .output()
        .expect("rtds-exp runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rtds_cli_{}_{name}", std::process::id()))
}

#[test]
fn scenarios_writes_its_report_before_failing_on_a_deadline_miss() {
    // flaky-links misses one deadline within its first 32 seeds (ROADMAP
    // item 1). The sweep must print every row and write the report, then
    // exit 1 — not abort mid-table.
    let path = scratch("flaky.json");
    let output = rtds_exp(&[
        "scenarios",
        "--scenario",
        "flaky-links",
        "--seeds",
        "32",
        "--json",
        path.to_str().unwrap(),
    ]);
    let report = std::fs::read_to_string(&path).expect("report written before the failure");
    let _ = std::fs::remove_file(&path);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("deadline-miss check FAILED: 1 "),
        "{}",
        stderr(&output)
    );
    assert!(report.contains("\"total_deadline_misses\": 1"));
    assert!(String::from_utf8_lossy(&output.stdout).contains("flaky-links"));
}

#[test]
fn workloads_rejects_hostile_numeric_flags_as_usage_errors() {
    for (flag, value) in [("--jobs", "0"), ("--rate", "-1"), ("--rate", "0")] {
        let output = rtds_exp(&["workloads", flag, value]);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}");
        let message = stderr(&output);
        assert!(message.contains(&format!("{flag}: ")), "{message}");
        assert!(message.contains("usage: rtds-exp workloads"), "{message}");
    }
}

#[test]
fn a_zero_or_overflowing_seed_count_is_a_usage_error() {
    let zero = ["--seeds", "0"];
    let past_max = ["--seed", "18446744073709551615", "--seeds", "2"];
    for experiment in ["scenarios", "flows", "sched"] {
        for flags in [&zero[..], &past_max[..]] {
            let output = rtds_exp(&[&[experiment][..], flags].concat());
            assert_eq!(output.status.code(), Some(2), "{experiment} {flags:?}");
            let message = stderr(&output);
            assert!(message.contains("--seeds: "), "{message}");
            assert!(
                message.contains(&format!("usage: rtds-exp {experiment}")),
                "{message}"
            );
        }
    }
}

#[test]
fn a_missing_or_unknown_experiment_lists_the_table() {
    for args in [&[][..], &["exp_perf"][..]] {
        let output = rtds_exp(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let message = stderr(&output);
        for name in ["table1", "scenarios", "workloads", "sched"] {
            assert!(message.contains(&format!("\n  {name} ")), "{message}");
        }
    }
}

#[test]
fn table1_matches_the_paper() {
    let output = rtds_exp(&["table1"]);
    assert!(output.status.success(), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    assert_eq!(
        last,
        "RESULT: all 20 values of Table 1 (plus M and M*) match the paper exactly."
    );
}

#[test]
fn radius_writes_a_byte_identical_sweep_report() {
    // E3 at its defaults, and E7 and E8, whose tables are registry sweeps
    // too, at two seeds: each writes the same sweep report format.
    let flows = [
        "incast-storm",
        "bandwidth-starved-sphere",
        "transfer-vs-compute",
    ];
    let sched: Vec<String> = rtds_scenarios::builtin_scenarios()
        .iter()
        .flat_map(|s| ["protocol", "heft"].map(|kind| format!("{}/{kind}", s.name)))
        .collect();
    let radius = ["h=1/rtds", "h=2/rtds", "h=3/rtds", "h=4/rtds", "h=5/rtds"];
    let cases: [(&[&str], u64, Vec<String>); 3] = [
        (&["radius"], 16, radius.map(String::from).to_vec()),
        (
            &["flows", "--seeds", "2"],
            2,
            flows.map(String::from).to_vec(),
        ),
        (&["sched", "--seeds", "2"], 2, sched),
    ];
    for (args, seed_count, expected_names) in cases {
        let paths = [scratch("sweep_a.json"), scratch("sweep_b.json")];
        let reports: Vec<String> = paths
            .iter()
            .map(|path| {
                let output = rtds_exp(&[args, &["--json", path.to_str().unwrap()]].concat());
                assert!(output.status.success(), "{args:?}: {}", stderr(&output));
                let report = std::fs::read_to_string(path).expect("report written");
                let _ = std::fs::remove_file(path);
                report
            })
            .collect();
        assert_eq!(
            reports[0], reports[1],
            "{args:?}: two runs must write the same bytes"
        );
        let report = Json::parse(&reports[0]).expect("the report is JSON");
        let seeds = report.get("seeds").and_then(Json::items).expect("seeds");
        let seeds: Vec<u64> = seeds.iter().filter_map(Json::as_u64).collect();
        assert_eq!(seeds, (1..=seed_count).collect::<Vec<u64>>(), "{args:?}");
        let scenarios = report
            .get("scenarios")
            .and_then(Json::items)
            .expect("scenarios");
        let names: Vec<&str> = scenarios
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, expected_names, "{args:?}");
        for scenario in scenarios {
            let cells = scenario.get("cells").and_then(Json::items).expect("cells");
            assert_eq!(cells.len() as u64, seed_count, "{args:?}");
        }
    }
}
