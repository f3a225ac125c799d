//! The `rtds-exp` command line, driven as a user would: determinism of the
//! `perf` report, refusal of bad snapshots, and the exit-status contract
//! (0 success, 1 a failed experiment check, 2 a usage error).

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

/// Runs `rtds-exp <args> --json <scratch>` to success and returns the report.
fn report_of(args: &[&str], name: &str) -> String {
    let path = scratch(name);
    let mut full = args.to_vec();
    full.extend(["--json", path.to_str().unwrap()]);
    let output = rtds_exp(&full);
    assert!(output.status.success(), "{args:?}: {}", stderr(&output));
    let report = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    report
}

#[test]
fn two_perf_smoke_reports_are_byte_identical() {
    let first = report_of(&["perf", "--seed", "7", "--smoke"], "perf_a.json");
    let second = report_of(&["perf", "--seed", "7", "--smoke"], "perf_b.json");
    // No timing filter: nothing in the report depends on the clock.
    assert_eq!(first, second);
    assert!(first.contains("\"wall_ms\": null"));
    assert!(first.contains("\"events_per_sec\": null"));
}

#[test]
fn smoke_report_has_the_fixed_schema() {
    let report = report_of(&["perf", "--seed", "7", "--smoke"], "perf_schema.json");
    assert!(report.contains("\"schema\": \"rtds-exp-perf/4\""));
    assert!(report.contains("\"seed\": 7"));
    assert!(report.contains("\"smoke\": true"));
    // The soak tier is opt-in; without --soak the key is present but null.
    assert!(report.contains("\"soak\": null"));
    // The v4 flows section runs the registry flow scenarios at native size.
    assert!(report.contains("\"flows\": ["));
    assert!(report.contains("\"name\": \"incast-storm\""));
    assert!(report.contains("\"name\": \"paper-baseline\""));
    assert!(report.contains("\"name\": \"wide-low-degree/16\""));
    assert!(report.contains("\"deadline_misses\": 0"));
    // The v2 metrics section: deterministic histogram summaries, including
    // the per-phase routing fan-out and the latency/laxity distributions.
    assert!(report.contains("\"metrics\": {"));
    assert!(report.contains("\"accept_latency\": {"));
    assert!(report.contains("\"accept_laxity\": {"));
    assert!(report.contains("\"trial_mapping_latency\": {"));
    assert!(report.contains("\"routing_fanout/phase1\": {"));
    assert!(report.contains("\"response_time\": {"));
    assert!(report.contains("\"p99\": "));
}

#[test]
fn perf_resume_refuses_a_torn_snapshot_with_exit_1() {
    let snapshot = scratch("soak.snapshot.json");
    let output = rtds_exp(&[
        "perf",
        "--smoke",
        "--soak",
        "20000",
        "--checkpoint",
        snapshot.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = std::fs::read_to_string(&snapshot).expect("snapshot written");
    assert!(text.contains("\"schema\": \"rtds-stream-snapshot/1\""));

    let torn = scratch("soak.torn.json");
    std::fs::write(&torn, &text[..text.len() / 2]).unwrap();
    let output = rtds_exp(&["perf", "--smoke", "--resume", torn.to_str().unwrap()]);
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(&torn);
    // A diagnostic and exit 1 — not a panic (101).
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    let diagnostic = stderr(&output);
    assert!(
        diagnostic.contains("snapshot") || diagnostic.contains("JSON parse error"),
        "{diagnostic}"
    );
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
fn a_missing_or_unknown_experiment_lists_the_table() {
    for args in [&[][..], &["exp_perf"][..]] {
        let output = rtds_exp(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let message = stderr(&output);
        for name in ["table1", "scenarios", "workloads", "perf"] {
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
