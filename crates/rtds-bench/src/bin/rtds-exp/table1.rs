//! Regenerates Fig. 2 (task graph), Fig. 3 (schedule S), Fig. 4 (schedule S*)
//! and Table 1 (adjusted releases/deadlines) of the paper, and checks every
//! value against the published numbers.
//!
//! `--seed` is accepted for interface uniformity but unused — the paper
//! instance is fixed; `--json <path>` dumps the makespans and Table 1.

use rtds_bench::ExpArgs;
use rtds_core::analysis::{render_gantt, render_table1};
use rtds_core::{
    adjust_mapping, gantt_rows, map_dag, table1_rows, LaxityDispatch, MapperInput, ProcessorSpec,
};
use rtds_graph::paper_instance::*;
use rtds_scenarios::Json;

pub(crate) fn run(args: ExpArgs) {
    let _ = args.seed(0); // fixed paper instance: the seed changes nothing
    let graph = paper_task_graph();
    println!("== Fig. 2: example task graph (reconstructed) ==");
    for t in graph.task_ids() {
        let succs: Vec<String> = graph
            .successors(t)
            .map(|s| format!("t{}", s.0 + 1))
            .collect();
        println!(
            "t{}: c = {:>4.1}  successors: {}",
            t.0 + 1,
            graph.cost(t),
            succs.join(" ")
        );
    }

    let processors = vec![
        ProcessorSpec::with_surplus(PAPER_SURPLUS_P1),
        ProcessorSpec::with_surplus(PAPER_SURPLUS_P2),
    ];
    let input = MapperInput::new(&graph, PAPER_RELEASE, &processors, PAPER_ACS_DIAMETER);
    let result = map_dag(&input).expect("paper instance maps");

    println!();
    println!("== Fig. 3: schedule S (I1 = 0.5, I2 = 0.4, omega = 3) ==");
    print!("{}", render_gantt(&gantt_rows(&result, false)));
    println!(
        "makespan M  = {}   (paper: {})",
        result.makespan, EXPECTED_MAKESPAN_S
    );

    println!();
    println!("== Fig. 4: schedule S* (surpluses = 100 %) ==");
    print!("{}", render_gantt(&gantt_rows(&result, true)));
    println!(
        "makespan M* = {}   (paper: {})",
        result.makespan_star, EXPECTED_MAKESPAN_S_STAR
    );

    let adjusted = adjust_mapping(
        &graph,
        &result,
        PAPER_RELEASE,
        PAPER_DEADLINE,
        &processors,
        LaxityDispatch::Uniform,
    );
    let rows = table1_rows(&graph, &result, &adjusted).expect("case (ii)");
    println!();
    println!(
        "== Table 1: adjusted r(ti), d(ti)  (d = {}, scaling factor (d-r)/M = {}) ==",
        PAPER_DEADLINE,
        (PAPER_DEADLINE - PAPER_RELEASE) / result.makespan
    );
    print!("{}", render_table1(&rows));

    let mut mismatches = 0;
    for (task, ri, di, r_adj, d_adj) in EXPECTED_TABLE1 {
        let row = rows.iter().find(|r| r.task == task).unwrap();
        for (name, got, want) in [
            ("ri", row.r_raw, ri),
            ("di", row.d_raw, di),
            ("r(ti)", row.r_adjusted, r_adj),
            ("d(ti)", row.d_adjusted, d_adj),
        ] {
            if (got - want).abs() > 1e-9 {
                mismatches += 1;
                println!("MISMATCH t{}: {name} = {got} (paper: {want})", task + 1);
            }
        }
    }
    args.write_json(&Json::object(vec![
        ("experiment", Json::str("table1_example")),
        ("makespan", Json::Num(result.makespan)),
        ("makespan_star", Json::Num(result.makespan_star)),
        ("mismatches", Json::UInt(mismatches)),
        (
            "table1",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object(vec![
                            ("task", Json::UInt(r.task as u64)),
                            ("r_raw", Json::Num(r.r_raw)),
                            ("d_raw", Json::Num(r.d_raw)),
                            ("r_adjusted", Json::Num(r.r_adjusted)),
                            ("d_adjusted", Json::Num(r.d_adjusted)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));

    println!();
    if mismatches == 0 {
        println!(
            "RESULT: all {} values of Table 1 (plus M and M*) match the paper exactly.",
            EXPECTED_TABLE1.len() * 4
        );
    } else {
        println!("RESULT: {mismatches} mismatches against the paper.");
        std::process::exit(1);
    }
}
