//! The flat task graph is written to snapshots byte for byte as the
//! `Vec<Vec<_>>` graph it replaced was (kept verbatim by `rtds-graph`'s
//! tests), whatever sequence of insertions built it, and read back equal.

#[path = "../../rtds-graph/tests/reference/mod.rs"]
mod reference;

use proptest::prelude::*;
use rtds_core::RtdsMsg;
use rtds_graph::dag::EdgeData;
use rtds_graph::{Job, JobId, JobParams, TaskGraph, TaskId};
use rtds_sim::json::Json;
use rtds_sim::snapshot::{Path, Snap};

/// The graph section of a snapshot as it was encoded over the reference
/// graph: `{tasks: [[cost, label | null], …], succs: …, preds: …}`, both
/// adjacency views verbatim.
fn encode_reference_graph(g: &reference::TaskGraph) -> Json {
    let tasks = g
        .tasks()
        .map(|t| Json::Array(vec![t.cost.encode(), t.label.encode()]))
        .collect();
    let adjacency = |lists: &[reference::EdgeList]| {
        let list = |list: &reference::EdgeList| {
            Json::Array(
                list.iter()
                    .map(|(t, data)| (t.0, data.data_volume).encode())
                    .collect(),
            )
        };
        Json::Array(lists.iter().map(list).collect())
    };
    let (succs, preds) = g.raw_adjacency();
    Json::object(vec![
        ("tasks", Json::Array(tasks)),
        ("succs", adjacency(succs)),
        ("preds", adjacency(preds)),
    ])
}

/// The graph as the snapshot layer writes it: inside a queued arrival.
fn arrival_of(graph: TaskGraph) -> RtdsMsg {
    let job = Job::new(JobId(1), graph, JobParams::new(0.0, 10.0), 0);
    RtdsMsg::JobArrival { job }
}

proptest! {
    #[test]
    fn flat_graph_snapshots_match_the_reference_graph(
        steps in proptest::collection::vec((0usize..3, 0usize..40, 0usize..40, 0.0f64..9.0), 0..80),
    ) {
        let mut flat = TaskGraph::new();
        let mut reference = reference::TaskGraph::new();
        for (kind, a, b, x) in steps {
            // Endpoints also name an unknown task, the same task twice,
            // earlier tasks (backward edges, cycles) and repeated pairs.
            let n = flat.task_count() + 1;
            match kind {
                0 if a % 3 == 0 => {
                    flat.add_labelled_task(x, format!("t{a}"));
                    reference.add_labelled_task(x, format!("t{a}"));
                }
                0 => {
                    flat.add_task(x);
                    reference.add_task(x);
                }
                _ => {
                    let (pred, succ) = (TaskId(a % n), TaskId(b % n));
                    let data = EdgeData { data_volume: x };
                    prop_assert_eq!(
                        flat.add_edge_with(pred, succ, data),
                        reference.add_edge_with(pred, succ, data)
                    );
                }
            }
        }
        let acyclic = flat.is_acyclic();
        let encoded = arrival_of(flat.clone()).encode();
        let graph = encoded.get("job").and_then(|job| job.get("graph"));
        prop_assert_eq!(
            graph.map(Json::render),
            Some(encode_reference_graph(&reference).render())
        );
        let root = Path::root("snapshot");
        match RtdsMsg::decode(&encoded, &root) {
            Ok(back) => {
                prop_assert!(acyclic);
                prop_assert_eq!(back.encode().render(), encoded.render());
                prop_assert_eq!(back, arrival_of(flat));
            }
            Err(_) => prop_assert!(!acyclic, "an acyclic graph must decode"),
        }
    }
}
