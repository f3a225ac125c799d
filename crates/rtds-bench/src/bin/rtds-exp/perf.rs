//! The fixed determinism suite behind `BENCH_5.json`.
//!
//! Runs the paper-baseline scenario plus three registry scenarios scaled to
//! 16/64/256 sites, plus the three native-sized flow scenarios of the
//! report's `flows` section (see [`rtds_bench::perf`]), printing one row per
//! workload and writing the `rtds-exp-perf/4` JSON report. Every field is a
//! pure function of `--seed`; the schema's timing fields render as `null`
//! (speed is measured by `benchmark/`).
//!
//! ```text
//! rtds-exp perf [--seed <u64>] [--json <path>] [--smoke] [--baseline <BENCH_5.json>]
//!               [--soak <events> [--checkpoint <path>]] [--resume <path>]
//! ```
//!
//! `--smoke` runs only the native paper baseline and the 16-site tier (the
//! CI smoke configuration). `--baseline <path>` diffs this run against a
//! recorded report: any deterministic-field mismatch exits nonzero —
//! `rtds-exp perf --baseline BENCH_5.json` is the one-line "did I change
//! what the engine computes" check (the same gate runs in-process inside
//! `cargo test`). Timings recorded in the baseline are not compared.
//!
//! `--soak <events>` adds the streaming soak tier: an open-ended Poisson
//! stream on a 256-site grid, capped only by the event budget, reported in
//! the `soak` section of the JSON (absent budgets render the key as
//! `null`, and the section is never compared against baselines). With
//! `--checkpoint <path>` the soak pauses at half the budget, writes the
//! `rtds-stream-snapshot/1` document to the path and resumes from the
//! written bytes — exercising the full serialize → disk → deserialize
//! cycle while leaving the file behind. `--resume <path>` instead restores
//! a previously written soak snapshot (same `--seed`!) and drives it to
//! its original cap.

use rtds_bench::perf::{compare_with_baseline, run_perf_suite};
use rtds_bench::{resume_soak, run_soak, write_json_report, ExpArgs, SoakResult};

/// Runs (or resumes) the optional soak tier according to the CLI flags.
fn soak_tier(args: &ExpArgs, seed: u64) -> Option<SoakResult> {
    if let Some(path) = args.value_of("resume") {
        if args.has("soak") || args.has("checkpoint") {
            eprintln!("--resume excludes --soak/--checkpoint: the snapshot carries the budget");
            std::process::exit(1);
        }
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read snapshot {path}: {e}");
            std::process::exit(1);
        });
        return Some(resume_soak(seed, &text).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        }));
    }
    if !args.has("soak") {
        if args.has("checkpoint") {
            eprintln!("--checkpoint only applies to a --soak run");
            std::process::exit(1);
        }
        return None;
    }
    let events = args.u64_of("soak", 0);
    if events == 0 {
        eprintln!("--soak needs a positive event budget");
        std::process::exit(1);
    }
    Some(
        run_soak(seed, events, args.value_of("checkpoint")).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        }),
    )
}

pub fn run(args: ExpArgs) {
    let seed = args.seed(7);
    let smoke = args.has("smoke");
    println!(
        "rtds-exp perf: fixed suite, seed {seed}{}",
        if smoke { ", smoke tier only" } else { "" }
    );
    println!();
    println!(
        "{:<26} {:>5} {:>5} {:>6} {:>9} {:>9} {:>10}",
        "workload", "sites", "jobs", "ratio", "msgs", "msgs/job", "events"
    );
    let mut report = run_perf_suite(seed, smoke);
    for w in report.workloads.iter().chain(&report.flows) {
        let cell = &w.cell;
        println!(
            "{:<26} {:>5} {:>5} {:>6.3} {:>9} {:>9.1} {:>10}",
            cell.scenario,
            w.sites,
            cell.submitted,
            cell.guarantee_ratio,
            cell.messages_sent,
            cell.messages_per_job,
            cell.events_processed,
        );
    }
    report.soak = soak_tier(&args, seed);
    if let Some(soak) = &report.soak {
        let r = &soak.report;
        println!();
        println!(
            "soak: {} events{}",
            r.events_processed,
            if soak.checkpointed {
                ", through a checkpoint"
            } else {
                ""
            }
        );
        println!(
            "      {} jobs submitted, {} accepted locally, {} distributed, {} deadline misses",
            r.guarantee.submitted,
            r.guarantee.accepted_locally,
            r.guarantee.accepted_distributed,
            r.deadline_misses()
        );
        println!(
            "      peaks: {} in-flight jobs, {} reservations, {} pending events",
            r.peak_inflight_jobs, r.peak_plan_reservations, r.peak_queue_len,
        );
    }
    if let Some(path) = args.json_path() {
        write_json_report(path, &report.to_json());
    }
    if let Some(path) = args.value_of("baseline") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        let comparison = compare_with_baseline(&report, &text).unwrap_or_else(|e| {
            eprintln!("baseline {path}: {e}");
            std::process::exit(1);
        });
        println!();
        if comparison.fields_match() {
            println!("baseline {path}: deterministic fields match byte-for-byte");
        } else {
            eprintln!("baseline {path}: deterministic fields DIVERGED:");
            for line in &comparison.mismatches {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    }
}
