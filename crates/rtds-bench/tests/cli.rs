//! The `rtds-exp` command line, driven as a user would: the exit-status
//! contract (0 success, 1 a failed experiment check, 2 a usage error) and
//! the refusal of hostile flag values.

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
    // item 2). The sweep must print every row and write the report, then
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
