//! The tier-1 determinism gate: the full seed-7 suite, run in-process, must
//! reproduce every deterministic field of the recorded `BENCH_5.json` byte
//! for byte. A change to what the engine computes — one more message, a
//! different acceptance, a shifted histogram bucket — fails `cargo test`
//! here; re-record the fixture only for a change that is meant to alter the
//! simulation, and say so in the PR.

use rtds_bench::perf::compare_with_baseline;
use rtds_bench::run_perf_suite;

const BENCH_5: &str = include_str!("../../../BENCH_5.json");

#[test]
fn full_seed_7_suite_matches_bench_5() {
    let report = run_perf_suite(7, false);
    let comparison = compare_with_baseline(&report, BENCH_5).expect("BENCH_5.json is a baseline");
    assert!(
        comparison.fields_match(),
        "deterministic fields diverged from BENCH_5.json:\n{}",
        comparison.mismatches.join("\n")
    );
}

#[test]
fn a_perturbed_deterministic_field_fails_the_gate() {
    let report = run_perf_suite(7, false);
    // One message more in the first workload of a copy of the baseline.
    let field = format!(
        "\"messages_sent\": {}",
        report.workloads[0].cell.messages_sent
    );
    let perturbed = BENCH_5.replacen(
        &field,
        &format!(
            "\"messages_sent\": {}",
            report.workloads[0].cell.messages_sent + 1
        ),
        1,
    );
    assert_ne!(perturbed, BENCH_5, "the baseline carries {field}");
    let comparison = compare_with_baseline(&report, &perturbed).unwrap();
    assert!(!comparison.fields_match());
    assert!(
        comparison.mismatches[0].contains("messages_sent"),
        "{:?}",
        comparison.mismatches
    );
}
