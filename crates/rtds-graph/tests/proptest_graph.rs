//! Property-based tests for the DAG model, including its equivalence with
//! the pre-rewrite traversals and with the `Vec<Vec<_>>` graph kept in
//! `reference/`.

mod reference;

use proptest::prelude::*;
use rtds_graph::dag::EdgeData;
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::{critical_path_tasks, downward_ranks, upward_ranks, TaskGraph, TaskId};

fn arbitrary_shape() -> impl Strategy<Value = DagShape> {
    prop_oneof![
        Just(DagShape::Chain),
        Just(DagShape::ForkJoin),
        Just(DagShape::Independent),
        (2usize..6, 0.0f64..0.6).prop_map(|(layers, p)| DagShape::LayeredRandom {
            layers,
            edge_prob: p
        }),
        (0.05f64..0.5).prop_map(|p| DagShape::ErdosRenyi { edge_prob: p }),
        (2usize..4).prop_map(|b| DagShape::OutTree { branching: b }),
        (2usize..4).prop_map(|b| DagShape::InTree { branching: b }),
        Just(DagShape::GaussianElimination),
        Just(DagShape::FftButterfly),
    ]
}

fn arbitrary_config() -> impl Strategy<Value = GeneratorConfig> {
    (arbitrary_shape(), 1usize..40, 1.0f64..10.0).prop_map(|(shape, n, max_cost)| GeneratorConfig {
        task_count: n,
        shape,
        costs: CostDistribution::Uniform {
            min: 0.5,
            max: max_cost.max(0.6),
        },
        ccr: 0.0,
        laxity_factor: (1.5, 4.0),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated graph is acyclic and its topological order is valid:
    /// each task appears after all of its predecessors.
    #[test]
    fn generated_graphs_have_valid_topological_orders(
        cfg in arbitrary_config(),
        seed in 0u64..1_000,
    ) {
        let g = DagGenerator::new(cfg, seed).generate_graph();
        prop_assert!(g.is_acyclic());
        let order = g.topological_order().unwrap();
        prop_assert_eq!(order.len(), g.task_count());
        let mut pos = vec![0usize; g.task_count()];
        for (i, t) in order.iter().enumerate() {
            pos[t.0] = i;
        }
        for t in g.task_ids() {
            for p in g.predecessors(t) {
                prop_assert!(pos[p.0] < pos[t.0], "{p} must precede {t}");
            }
        }
    }

    /// The upward rank of a task is at least its own cost, at least the rank
    /// of any successor, and the critical-path length is bounded by the total
    /// cost of the graph.
    #[test]
    fn rank_invariants(cfg in arbitrary_config(), seed in 0u64..1_000) {
        let g = DagGenerator::new(cfg, seed).generate_graph();
        let up = upward_ranks(&g);
        let down = downward_ranks(&g);
        let info = critical_path_tasks(&g);
        for t in g.task_ids() {
            prop_assert!(up[t.0] >= g.cost(t) - 1e-9);
            for s in g.successors(t) {
                prop_assert!(up[t.0] >= up[s.0] + g.cost(t) - 1e-9);
                prop_assert!(down[s.0] >= down[t.0] + g.cost(t) - 1e-9);
            }
            // Every path through t is bounded by the critical path length.
            prop_assert!(down[t.0] + up[t.0] <= info.length + 1e-9);
        }
        prop_assert!(info.length <= g.total_cost() + 1e-9);
        prop_assert!(!info.critical_tasks.is_empty() || g.is_empty());
        prop_assert!(info.max_critical_task_count <= g.longest_chain_len());
    }

    /// Generated jobs always leave at least the critical-path length of slack
    /// (laxity factor >= 1.5 by construction here).
    #[test]
    fn generated_jobs_are_feasible_in_isolation(
        cfg in arbitrary_config(),
        seed in 0u64..1_000,
    ) {
        let mut generator = DagGenerator::new(cfg, seed);
        let job = generator.generate_job(0, 100.0);
        prop_assert!(job.deadline() > job.release());
        prop_assert!(job.window() + 1e-9 >= 1.5 * job.critical_path_length());
    }

    /// Reachability is consistent with topological positions.
    #[test]
    fn reachability_respects_topological_order(
        cfg in arbitrary_config(),
        seed in 0u64..1_000,
    ) {
        let g = DagGenerator::new(cfg, seed).generate_graph();
        let order = g.topological_order().unwrap();
        let mut pos = vec![0usize; g.task_count()];
        for (i, t) in order.iter().enumerate() {
            pos[t.0] = i;
        }
        for (i, &a) in order.iter().enumerate().take(10) {
            for &b in order.iter().skip(i + 1).take(10) {
                if g.reaches(a, b) {
                    prop_assert!(pos[a.0] <= pos[b.0]);
                }
                // A later task never reaches an earlier one (acyclicity).
                prop_assert!(!(g.reaches(b, a) && a != b));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomly built explicit DAGs (not via generators): inserting only
    /// forward edges over a permutation always yields an acyclic graph whose
    /// edge queries are symmetric between successor and predecessor views.
    #[test]
    fn manual_forward_edges_are_acyclic(
        n in 2usize..30,
        edges in proptest::collection::vec((0usize..100, 0usize..100), 0..120),
        seed in 0u64..100,
    ) {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut g = TaskGraph::from_costs(&vec![1.0; n]);
        for (a, b) in edges {
            let (i, j) = (a % n, b % n);
            if i == j { continue; }
            // Orient the edge along the permutation.
            let (from, to) = if order[i] < order[j] { (i, j) } else { (j, i) };
            let _ = g.add_edge(TaskId(from), TaskId(to));
        }
        prop_assert!(g.is_acyclic());
        for t in g.task_ids() {
            for s in g.successors(t) {
                prop_assert!(g.predecessors(s).any(|p| p == t));
            }
        }
    }
}

// ----- equivalence with the pre-rewrite traversals --------------------------

/// The old Kahn sort: repeatedly emit the smallest ready id, collecting and
/// sorting each task's newly ready successors before merging them in.
fn smallest_ready_id_order(g: &TaskGraph) -> Vec<TaskId> {
    let n = g.task_count();
    let mut indeg: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        ready.sort_unstable();
        let u = ready.remove(0);
        order.push(TaskId(u));
        let mut newly_ready = Vec::new();
        for v in g.successors(TaskId(u)) {
            indeg[v.0] -= 1;
            if indeg[v.0] == 0 {
                newly_ready.push(v.0);
            }
        }
        ready.extend(newly_ready);
    }
    order
}

/// The old three-pass analysis: upward, downward and the chain count each
/// from their own traversal, with the empty graph special-cased.
fn three_pass_critical_path(g: &TaskGraph) -> (Vec<f64>, Vec<f64>, f64, Vec<TaskId>, usize) {
    const CP_EPS: f64 = 1e-9;
    if g.is_empty() {
        return (Vec::new(), Vec::new(), 0.0, Vec::new(), 0);
    }
    let mut upward = vec![0.0f64; g.task_count()];
    for &t in smallest_ready_id_order(g).iter().rev() {
        let best_succ = g.successors(t).map(|s| upward[s.0]).fold(0.0f64, f64::max);
        upward[t.0] = g.cost(t) + best_succ;
    }
    let mut downward = vec![0.0f64; g.task_count()];
    for &t in &smallest_ready_id_order(g) {
        downward[t.0] = g
            .predecessors(t)
            .map(|p| downward[p.0] + g.cost(p))
            .fold(0.0f64, f64::max);
    }
    let length = upward.iter().cloned().fold(0.0f64, f64::max);
    let order = smallest_ready_id_order(g);
    let critical_tasks: Vec<TaskId> = order
        .iter()
        .copied()
        .filter(|t| (downward[t.0] + upward[t.0] - length).abs() <= CP_EPS)
        .collect();
    let mut chain = vec![0usize; g.task_count()];
    let mut max_chain = 0usize;
    for &t in &order {
        if (downward[t.0] + upward[t.0] - length).abs() > CP_EPS {
            continue;
        }
        chain[t.0] = chain[t.0].max(1);
        max_chain = max_chain.max(chain[t.0]);
        for s in g.successors(t) {
            let edge_critical = (downward[s.0] + upward[s.0] - length).abs() <= CP_EPS
                && (downward[s.0] - (downward[t.0] + g.cost(t))).abs() <= CP_EPS;
            if edge_critical {
                chain[s.0] = chain[s.0].max(chain[t.0] + 1);
                max_chain = max_chain.max(chain[s.0]);
            }
        }
    }
    (upward, downward, length, critical_tasks, max_chain)
}

/// One generator configuration per [`DagShape`] variant.
fn every_shape() -> [DagShape; 9] {
    [
        DagShape::Chain,
        DagShape::ForkJoin,
        DagShape::Independent,
        DagShape::LayeredRandom {
            layers: 4,
            edge_prob: 0.35,
        },
        DagShape::ErdosRenyi { edge_prob: 0.2 },
        DagShape::OutTree { branching: 3 },
        DagShape::InTree { branching: 2 },
        DagShape::GaussianElimination,
        DagShape::FftButterfly,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On all nine shapes the frontier-insertion sort emits the old
    /// smallest-ready-id order, and the one-pass critical-path analysis
    /// equals the three-pass one field by field — floats bit for bit.
    #[test]
    fn traversals_match_the_pre_rewrite_ones(
        n in 0usize..40,
        max_cost in 0.6f64..10.0,
        seed in 0u64..1_000,
    ) {
        for shape in every_shape() {
            let cfg = GeneratorConfig {
                task_count: n,
                shape,
                costs: CostDistribution::Uniform { min: 0.5, max: max_cost },
                ccr: 0.0,
                laxity_factor: (1.5, 4.0),
            };
            let g = DagGenerator::new(cfg, seed).generate_graph();
            prop_assert_eq!(g.topological_order().unwrap(), smallest_ready_id_order(&g));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let info = critical_path_tasks(&g);
            let (upward, downward, length, critical_tasks, eta) = three_pass_critical_path(&g);
            prop_assert_eq!(bits(&info.upward), bits(&upward), "{shape:?}");
            prop_assert_eq!(bits(&info.downward), bits(&downward), "{shape:?}");
            prop_assert_eq!(info.length.to_bits(), length.to_bits(), "{shape:?}");
            prop_assert_eq!(info.critical_tasks, critical_tasks, "{shape:?}");
            prop_assert_eq!(info.max_critical_task_count, eta, "{shape:?}");
            prop_assert_eq!(bits(&upward_ranks(&g)), bits(&upward));
            prop_assert_eq!(bits(&downward_ranks(&g)), bits(&downward));
            prop_assert_eq!(
                rtds_graph::critical_path_length(&g).to_bits(),
                length.to_bits()
            );
        }
    }
}

// ----- the flat graph against the `Vec<Vec<_>>` one (`reference/`) ----------

/// One step of a random graph-building script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Task(f64),
    /// Endpoints are taken modulo `task count + 2`, so scripts also name
    /// unknown ids, self-loops, duplicates, backward edges and cycles.
    Edge(usize, usize, f64),
}

fn arbitrary_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0.0f64..9.0).prop_map(Step::Task),
        (0usize..64, 0usize..64, 0.0f64..5.0).prop_map(|(a, b, v)| Step::Edge(a, b, v)),
        (0usize..64, 0usize..64, 0.0f64..5.0).prop_map(|(a, b, v)| Step::Edge(a, b, v)),
    ]
}

/// The per-task `(successor lists, predecessor lists)` of the flat graph.
fn adjacency_of(g: &TaskGraph) -> (Vec<reference::EdgeList>, Vec<reference::EdgeList>) {
    let succs = g.task_ids().map(|t| g.successor_edges(t).collect());
    let preds = g.task_ids().map(|t| g.predecessor_edges(t).collect());
    (succs.collect(), preds.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any sequence of `add_task` / `add_edge_with` calls gives the same
    /// `Result`s on both graphs, the same adjacency in the same per-task
    /// order, and the same answers to every structural query.
    #[test]
    fn flat_graph_equals_the_reference_graph(
        steps in proptest::collection::vec(arbitrary_step(), 0..80),
    ) {
        let mut flat = TaskGraph::new();
        let mut reference = reference::TaskGraph::new();
        for step in steps {
            match step {
                Step::Task(cost) => {
                    prop_assert_eq!(flat.add_task(cost), reference.add_task(cost));
                }
                Step::Edge(a, b, data_volume) => {
                    let n = flat.task_count() + 2;
                    let (pred, succ) = (TaskId(a % n), TaskId(b % n));
                    let data = EdgeData { data_volume };
                    prop_assert_eq!(
                        flat.add_edge_with(pred, succ, data),
                        reference.add_edge_with(pred, succ, data)
                    );
                }
            }
        }
        prop_assert_eq!(flat.task_count(), reference.task_count());
        prop_assert_eq!(flat.edge_count(), reference.edge_count());
        prop_assert!(flat.tasks().eq(reference.tasks()));
        let (succs, preds) = adjacency_of(&flat);
        let (ref_succs, ref_preds) = reference.raw_adjacency();
        prop_assert_eq!(&succs[..], ref_succs);
        prop_assert_eq!(&preds[..], ref_preds);
        for t in flat.task_ids() {
            prop_assert!(flat.successors(t).eq(reference.successors(t)));
            prop_assert!(flat.predecessors(t).eq(reference.predecessors(t)));
            prop_assert_eq!(flat.in_degree(t), reference.in_degree(t));
            prop_assert_eq!(flat.out_degree(t), reference.out_degree(t));
            for s in flat.task_ids() {
                prop_assert_eq!(flat.data_volume(t, s), reference.data_volume(t, s));
                prop_assert_eq!(flat.reaches(t, s), reference.reaches(t, s));
            }
        }
        prop_assert_eq!(flat.sources(), reference.sources());
        prop_assert_eq!(flat.sinks(), reference.sinks());
        prop_assert_eq!(flat.topological_order(), reference.topological_order());
        prop_assert_eq!(flat.longest_chain_len(), reference.longest_chain_len());
        prop_assert_eq!(flat.total_cost().to_bits(), reference.total_cost().to_bits());

    }
}

// ----- generators draw the numbers they drew before -------------------------

/// `(costs, edge list, deadline)` of 50 jobs per shape and seed, recorded
/// before the generators lost their temporaries. Floats travel as bit
/// patterns; the edge list is stored in both per-task orders, which the
/// decoration of volumes (`ccr > 0`, the third seed) re-threads.
const GENERATED_JOBS: &str = include_str!("fixtures/generated_jobs.json");

fn render_generated_jobs() -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    let seeds = [7u64, 11, 23];
    for (s, shape) in every_shape().into_iter().enumerate() {
        for (k, seed) in seeds.into_iter().enumerate() {
            let cfg = GeneratorConfig {
                task_count: 5,
                shape,
                costs: CostDistribution::Uniform {
                    min: 1.0,
                    max: 10.0,
                },
                ccr: if k == 2 { 0.5 } else { 0.0 },
                laxity_factor: (2.0, 4.0),
            };
            let mut generator = DagGenerator::new(cfg, seed);
            writeln!(out, "\"{shape:?}/{seed}\": [").unwrap();
            for i in 0..50 {
                generator.set_task_count(5 + i % 8);
                let job = generator.generate_job(i % 4, i as f64);
                let g = &job.graph;
                let costs: Vec<String> = g
                    .tasks()
                    .map(|t| format!("\"{:x}\"", t.cost.to_bits()))
                    .collect();
                let succs: Vec<String> = g
                    .task_ids()
                    .flat_map(|u| g.successors(u).map(move |v| (u, v)))
                    .map(|(u, v)| {
                        let volume = g.data_volume(u, v).unwrap().to_bits();
                        format!("[{},{},\"{volume:x}\"]", u.0, v.0)
                    })
                    .collect();
                let preds: Vec<String> = g
                    .task_ids()
                    .map(|v| {
                        let list: Vec<String> =
                            g.predecessors(v).map(|p| p.0.to_string()).collect();
                        format!("[{}]", list.join(","))
                    })
                    .collect();
                writeln!(
                    out,
                    "{{\"costs\":[{}],\"edges\":[{}],\"preds\":[{}],\"deadline\":\"{:x}\"}}{}",
                    costs.join(","),
                    succs.join(","),
                    preds.join(","),
                    job.deadline().to_bits(),
                    if i == 49 { "" } else { "," }
                )
                .unwrap();
            }
            let last = s == 8 && k == 2;
            writeln!(out, "]{}", if last { "" } else { "," }).unwrap();
        }
    }
    out.push_str("}\n");
    out
}

#[test]
fn generated_jobs_match_the_recorded_fixture() {
    let rendered = render_generated_jobs();
    for (line, (now, recorded)) in rendered.lines().zip(GENERATED_JOBS.lines()).enumerate() {
        assert_eq!(
            now,
            recorded,
            "fixtures/generated_jobs.json line {}",
            line + 1
        );
    }
    assert_eq!(rendered.lines().count(), GENERATED_JOBS.lines().count());
}

/// Rewrites the fixture from the current generators (only after a change
/// that is *meant* to alter generated jobs):
/// `cargo test -p rtds-graph --test proptest_graph -- --ignored record`.
#[test]
#[ignore = "rewrites tests/fixtures/generated_jobs.json"]
fn record_generated_jobs_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/generated_jobs.json"
    );
    std::fs::write(path, render_generated_jobs()).unwrap();
}
