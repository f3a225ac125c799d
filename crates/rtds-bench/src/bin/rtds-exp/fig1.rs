//! Fig. 1 — algorithm overview: traces one job through every protocol stage
//! (local test, ACS enrollment, trial mapping, validation, permutation,
//! execution) on a small network.
//!
//! `--seed <u64>` defaults to 1 and seeds the system; `--json <path>`
//! dumps the stage counts; `--trace-out <p>` / `--chrome-trace <p>` export
//! the captured span trace as `rtds-trace/1` JSONL / Chrome `about:tracing`
//! JSON — see `docs/TRACING.md`.

use rtds_bench::{ExpArgs, TraceSetup};
use rtds_core::{RtdsConfig, RtdsSystem};
use rtds_graph::paper_instance::paper_job;
use rtds_graph::{Job, JobId, JobParams, TaskGraph, TaskId};
use rtds_net::generators::{line, DelayDistribution};
use rtds_scenarios::Json;
use rtds_sim::trace::render_jsonl;
use rtds_sim::Trace;

fn blocking_job(id: u64, site: usize) -> Job {
    // A 60-unit filler job that keeps the arrival site busy so the paper job
    // cannot be guaranteed locally.
    let g = TaskGraph::from_costs(&[60.0]);
    debug_assert_eq!(g.cost(TaskId(0)), 60.0);
    Job::new(JobId(id), g, JobParams::new(0.0, 70.0), site)
}

pub(crate) fn run(args: ExpArgs) {
    let tracing = TraceSetup::from_args(&args);
    let seed = args.seed(1);
    let network = line(4, DelayDistribution::Constant(1.0), 0);
    let config = RtdsConfig {
        sphere_radius: 2,
        ..RtdsConfig::default()
    };
    let mut system = RtdsSystem::new(network, config, seed);
    // The walkthrough renders the events afterwards, so the recorder is
    // always ring-backed; `--trace-out` writes the rendered document.
    system.set_trace(Trace::ring(tracing.ring_capacity()));

    // Load site 1, then run the paper's worked-example job there.
    let (report, _) = system.run(vec![blocking_job(1, 1), paper_job(JobId(2), 1)]);

    println!("== Fig. 1: protocol walkthrough for one distributed job ==");
    println!();
    print!("{}", system.trace().render());
    println!();
    println!(
        "submitted {}, accepted locally {}, accepted distributed {}, rejected {}",
        report.guarantee.submitted,
        report.guarantee.accepted_locally,
        report.guarantee.accepted_distributed,
        report.guarantee.rejected,
    );
    println!("deadline misses: {}", report.deadline_misses());
    println!();
    // The stages of Fig. 1, in order, must all appear in the trace.
    let mut json_stages = Vec::new();
    for stage in [
        "local-test",
        "local-reject",
        "acs-enroll",
        "acs-joined",
        "trial-mapping",
        "validation",
        "mapping-validated",
        "execute",
        "job-accepted",
    ] {
        let n = system.trace().of_kind(stage).count();
        println!("stage {:<20} observed {} time(s)", stage, n);
        assert!(n > 0, "protocol stage {stage} missing from the trace");
        json_stages.push(Json::object(vec![
            ("stage", Json::str(stage)),
            ("observed", Json::UInt(n as u64)),
        ]));
    }
    args.write_json(&Json::object(vec![
        ("experiment", Json::str("fig1_overview")),
        ("seed", Json::UInt(seed)),
        ("jobs_submitted", Json::UInt(report.guarantee.submitted)),
        (
            "accepted_distributed",
            Json::UInt(report.guarantee.accepted_distributed),
        ),
        ("deadline_misses", Json::UInt(report.deadline_misses())),
        ("stages", Json::Array(json_stages)),
    ]));
    if tracing.is_active() {
        let document = render_jsonl(
            &[
                ("experiment", Json::str("fig1_overview")),
                ("seed", Json::UInt(seed)),
            ],
            &system.trace().events(),
        );
        tracing.export_document(&document);
    }
    println!();
    println!("RESULT: every stage of the Fig. 1 pipeline was exercised.");
}
