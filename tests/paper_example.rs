//! Golden integration test: the complete worked example of the paper
//! (§12.1/§12.2, Figs. 2–4, Table 1), exercised through the public facade.

use rtds::core::{
    adjust_mapping, gantt_rows, map_dag, table1_rows, AdjustCase, AdjustOutcome, JobOutcomeKind,
    LaxityDispatch, MapperInput, ProcessorSpec, RtdsConfig, RtdsSystem,
};
use rtds::graph::paper_instance::*;
use rtds::graph::JobId;
use rtds::net::generators::{line, DelayDistribution};

fn paper_mapping() -> (
    rtds::graph::TaskGraph,
    rtds::core::MapperResult,
    Vec<ProcessorSpec>,
) {
    let graph = paper_task_graph();
    let processors = vec![
        ProcessorSpec::with_surplus(PAPER_SURPLUS_P1),
        ProcessorSpec::with_surplus(PAPER_SURPLUS_P2),
    ];
    let input = MapperInput::new(&graph, PAPER_RELEASE, &processors, PAPER_ACS_DIAMETER);
    let result = map_dag(&input).expect("the paper instance maps");
    (graph, result, processors)
}

#[test]
fn figure_2_instance_structure() {
    let graph = paper_task_graph();
    assert_eq!(graph.task_count(), 5);
    assert_eq!(graph.edge_count(), 5);
    let costs: Vec<f64> = graph.tasks().map(|t| t.cost).collect();
    assert_eq!(costs, PAPER_COSTS.to_vec());
    for (a, b) in PAPER_EDGES {
        assert!(graph.successors(rtds::graph::TaskId(a)).any(|s| s.0 == b));
    }
}

#[test]
fn figure_3_schedule_s() {
    let (_, result, _) = paper_mapping();
    let rows = gantt_rows(&result, false);
    for (task, proc, start, finish) in EXPECTED_SCHEDULE_S {
        let row = rows.iter().find(|r| r.task == task).unwrap();
        assert_eq!(row.processor, proc, "task {}", task + 1);
        assert!((row.start - start).abs() < 1e-9, "task {} start", task + 1);
        assert!(
            (row.finish - finish).abs() < 1e-9,
            "task {} finish",
            task + 1
        );
    }
    assert!((result.makespan - EXPECTED_MAKESPAN_S).abs() < 1e-9);
}

#[test]
fn figure_4_schedule_s_star() {
    let (_, result, _) = paper_mapping();
    let rows = gantt_rows(&result, true);
    for (task, proc, start, finish) in EXPECTED_SCHEDULE_S_STAR {
        let row = rows.iter().find(|r| r.task == task).unwrap();
        assert_eq!(row.processor, proc);
        assert!(
            (row.start - start).abs() < 1e-9,
            "task {} S* start",
            task + 1
        );
        assert!(
            (row.finish - finish).abs() < 1e-9,
            "task {} S* finish",
            task + 1
        );
    }
    assert!((result.makespan_star - EXPECTED_MAKESPAN_S_STAR).abs() < 1e-9);
}

#[test]
fn table_1_adjusted_windows() {
    let (graph, result, processors) = paper_mapping();
    let adjusted = adjust_mapping(
        &graph,
        &result,
        PAPER_RELEASE,
        PAPER_DEADLINE,
        &processors,
        LaxityDispatch::Uniform,
    );
    match &adjusted {
        AdjustOutcome::Adjusted { case, .. } => assert_eq!(*case, AdjustCase::ScaledByWindow),
        other => panic!("unexpected outcome {other:?}"),
    }
    let rows = table1_rows(&graph, &result, &adjusted).unwrap();
    for (task, ri, di, r_adj, d_adj) in EXPECTED_TABLE1 {
        let row = rows.iter().find(|r| r.task == task).unwrap();
        assert!((row.r_raw - ri).abs() < 1e-9, "r_{}", task + 1);
        assert!((row.d_raw - di).abs() < 1e-9, "d_{}", task + 1);
        assert!((row.r_adjusted - r_adj).abs() < 1e-9, "r(t{})", task + 1);
        assert!((row.d_adjusted - d_adj).abs() < 1e-9, "d(t{})", task + 1);
    }
}

#[test]
fn adjustment_cases_cover_the_window_spectrum() {
    let (graph, result, processors) = paper_mapping();
    // (window, expected case) sweep around the published M* = 19 and M = 33.
    for (deadline, expect_reject, expect_case) in [
        (10.0, true, None),
        (18.9, true, None),
        (19.0, false, Some(AdjustCase::LaxityScattered)),
        (25.0, false, Some(AdjustCase::LaxityScattered)),
        (33.0, false, Some(AdjustCase::ScaledByWindow)),
        (66.0, false, Some(AdjustCase::ScaledByWindow)),
        (200.0, false, Some(AdjustCase::ScaledByWindow)),
    ] {
        let outcome = adjust_mapping(
            &graph,
            &result,
            0.0,
            deadline,
            &processors,
            LaxityDispatch::Uniform,
        );
        assert_eq!(outcome.is_rejected(), expect_reject, "deadline {deadline}");
        if let AdjustOutcome::Adjusted {
            case,
            release,
            deadline: d,
        } = outcome
        {
            assert_eq!(Some(case), expect_case, "deadline {deadline}");
            // All windows inside the job window and able to hold their cost.
            for t in graph.task_ids() {
                assert!(d[t.0] <= deadline + 1e-9);
                assert!(release[t.0] >= -1e-9);
                assert!(d[t.0] - release[t.0] + 1e-9 >= graph.cost(t));
            }
        }
    }
}

#[test]
fn fig2_job_meets_its_deadline_end_to_end_on_the_papers_topology() {
    // §12.1 runs the Fig. 2 job across two processors joined by an ACS of
    // delay-diameter 3: a two-site line with link delay 3 reproduces that
    // topology. Submitted through the full protocol, the job must be
    // guaranteed and complete within the published deadline of 66.
    let network = line(2, DelayDistribution::Constant(PAPER_ACS_DIAMETER), 1);
    let config = RtdsConfig {
        sphere_radius: 1,
        ..RtdsConfig::default()
    };
    let mut system = RtdsSystem::new(network, config, 7);
    let (report, jobs) = system.run(vec![paper_job(JobId(1), 0)]);

    assert_eq!(report.guarantee.submitted, 1);
    assert_eq!(report.deadline_misses(), 0);
    let job = &jobs[0];
    assert_ne!(
        job.outcome,
        JobOutcomeKind::Rejected,
        "the paper's worked example is feasible on its own topology"
    );
    assert!(job.met_deadline);
    assert!((job.deadline - PAPER_DEADLINE).abs() < 1e-9);
    let completion = job.completion.expect("accepted jobs report completion");
    assert!(
        completion <= PAPER_DEADLINE + 1e-9,
        "completion {completion} exceeds the paper deadline {PAPER_DEADLINE}"
    );
}
