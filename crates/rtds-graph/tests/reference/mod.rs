//! The `Vec<Vec<_>>` task graph as it was before the flat layout, kept
//! verbatim as the oracle of `proptest_graph.rs`: two adjacency vectors per
//! task, each edge stored
//! once per view. Only the imports differ — tasks, ids, edge data and errors
//! are the library's own types, so answers compare directly.
//!
//! Nothing here may share code with the library's graph — that independence
//! is what makes equality meaningful.

#![allow(dead_code)]

use rtds_graph::dag::{EdgeData, GraphError};
use rtds_graph::{Task, TaskId};

/// One task's adjacency: the `(neighbor, edge data)` pairs in insertion
/// order (which is semantic — see [`TaskGraph::raw_adjacency`]).
pub(crate) type EdgeList = Vec<(TaskId, EdgeData)>;

/// A directed acyclic graph of tasks with precedence constraints.
///
/// Tasks are stored densely and addressed by [`TaskId`]. Predecessor and
/// successor adjacency lists are kept in insertion order, which makes
/// traversals deterministic — an important property for reproducible
/// simulations and golden tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TaskGraph {
    tasks: Vec<Task>,
    /// `succs[i]` lists `(j, edge)` for every edge `i -> j`.
    succs: Vec<Vec<(TaskId, EdgeData)>>,
    /// `preds[i]` lists `(j, edge)` for every edge `j -> i`.
    preds: Vec<Vec<(TaskId, EdgeData)>>,
    edge_count: usize,
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub(crate) fn new() -> Self {
        TaskGraph::default()
    }

    /// Creates a graph with `n` tasks whose costs are given by `costs`.
    pub(crate) fn from_costs(costs: &[f64]) -> Self {
        let mut g = TaskGraph::new();
        for &c in costs {
            g.add_task(c);
        }
        g
    }

    /// Adds a task with the given computational complexity and returns its id.
    pub(crate) fn add_task(&mut self, cost: f64) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task::new(id, cost));
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds a labelled task.
    pub(crate) fn add_labelled_task(&mut self, cost: f64, label: impl Into<String>) -> TaskId {
        let id = self.add_task(cost);
        self.tasks[id.0].label = Some(label.into());
        id
    }

    /// Adds a precedence edge `pred -> succ` with default edge data.
    pub(crate) fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> Result<(), GraphError> {
        self.add_edge_with(pred, succ, EdgeData::default())
    }

    /// Adds a precedence edge `pred -> succ` carrying a data volume.
    pub(crate) fn add_edge_with_volume(
        &mut self,
        pred: TaskId,
        succ: TaskId,
        data_volume: f64,
    ) -> Result<(), GraphError> {
        self.add_edge_with(pred, succ, EdgeData { data_volume })
    }

    /// Adds a precedence edge with explicit edge data.
    pub(crate) fn add_edge_with(
        &mut self,
        pred: TaskId,
        succ: TaskId,
        data: EdgeData,
    ) -> Result<(), GraphError> {
        let n = self.tasks.len();
        if pred.0 >= n {
            return Err(GraphError::UnknownTask(pred));
        }
        if succ.0 >= n {
            return Err(GraphError::UnknownTask(succ));
        }
        if pred == succ {
            return Err(GraphError::SelfLoop(pred));
        }
        if self.succs[pred.0].iter().any(|(s, _)| *s == succ) {
            return Err(GraphError::DuplicateEdge(pred, succ));
        }
        self.succs[pred.0].push((succ, data));
        self.preds[succ.0].push((pred, data));
        self.edge_count += 1;
        Ok(())
    }

    /// The raw `(succs, preds)` adjacency. Per-list **insertion order** is
    /// semantic (scheduling and message fan-out iterate these lists in
    /// order), and the two views interleave edges differently when edges
    /// were not added in source-major order.
    pub(crate) fn raw_adjacency(&self) -> (&[EdgeList], &[EdgeList]) {
        (&self.succs, &self.preds)
    }

    /// Number of tasks `|T|`.
    pub(crate) fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of precedence edges `|E|`.
    pub(crate) fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no tasks.
    pub(crate) fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub(crate) fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Computational complexity of a task (`c(t)`).
    pub(crate) fn cost(&self, id: TaskId) -> f64 {
        self.tasks[id.0].cost
    }

    /// Total computational complexity of all tasks.
    pub(crate) fn total_cost(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Iterator over all tasks in id order.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Iterator over all task ids.
    pub(crate) fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Immediate successors `Γ⁺(t)` of a task.
    pub(crate) fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succs[id.0].iter().map(|(s, _)| *s)
    }

    /// Immediate predecessors `Γ⁻(t)` of a task.
    pub(crate) fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.preds[id.0].iter().map(|(p, _)| *p)
    }

    /// Immediate successors with their edge data.
    pub(crate) fn successor_edges(&self, id: TaskId) -> &[(TaskId, EdgeData)] {
        &self.succs[id.0]
    }

    /// Immediate predecessors with their edge data.
    pub(crate) fn predecessor_edges(&self, id: TaskId) -> &[(TaskId, EdgeData)] {
        &self.preds[id.0]
    }

    /// Data volume on an edge, if the edge exists.
    pub(crate) fn data_volume(&self, pred: TaskId, succ: TaskId) -> Option<f64> {
        self.succs[pred.0]
            .iter()
            .find(|(s, _)| *s == succ)
            .map(|(_, d)| d.data_volume)
    }

    /// Number of immediate predecessors of a task.
    pub(crate) fn in_degree(&self, id: TaskId) -> usize {
        self.preds[id.0].len()
    }

    /// Number of immediate successors of a task.
    pub(crate) fn out_degree(&self, id: TaskId) -> usize {
        self.succs[id.0].len()
    }

    /// Tasks with no predecessors (the job's entry tasks).
    pub(crate) fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.in_degree(*t) == 0)
            .collect()
    }

    /// Tasks with no successors (the job's exit tasks).
    pub(crate) fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.out_degree(*t) == 0)
            .collect()
    }

    /// Kahn topological sort. Returns `Err(GraphError::Cycle)` if the graph is
    /// not acyclic. The order is deterministic: among ready tasks, the lowest
    /// id is emitted first.
    pub(crate) fn topological_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        // `order[..emitted]` is the result so far and `order[emitted..]` the
        // frontier of ready tasks, kept sorted by id so that its front is
        // always the smallest one (the initial ascending scan is sorted).
        let mut order: Vec<TaskId> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| indeg[i] == 0).map(TaskId));
        let mut emitted = 0;
        while emitted < order.len() {
            let u = order[emitted];
            emitted += 1;
            for (v, _) in &self.succs[u.0] {
                indeg[v.0] -= 1;
                if indeg[v.0] == 0 {
                    let pos = emitted + order[emitted..].partition_point(|t| t.0 < v.0);
                    order.insert(pos, *v);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Reverse topological order (sinks first).
    pub(crate) fn reverse_topological_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let mut order = self.topological_order()?;
        order.reverse();
        Ok(order)
    }

    /// Returns `true` iff the graph is acyclic.
    pub(crate) fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// Full structural validation: acyclicity (edge-level invariants are
    /// enforced at insertion time).
    pub(crate) fn validate(&self) -> Result<(), GraphError> {
        self.topological_order().map(|_| ())
    }

    /// Returns `true` if `ancestor` can reach `descendant` through precedence
    /// edges (used by property tests and by the preemptive extension).
    pub(crate) fn reaches(&self, ancestor: TaskId, descendant: TaskId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let mut seen = vec![false; self.tasks.len()];
        let mut stack = vec![ancestor];
        seen[ancestor.0] = true;
        while let Some(u) = stack.pop() {
            for (v, _) in &self.succs[u.0] {
                if *v == descendant {
                    return true;
                }
                if !seen[v.0] {
                    seen[v.0] = true;
                    stack.push(*v);
                }
            }
        }
        false
    }

    /// Length (in number of tasks) of the longest chain in the graph.
    pub(crate) fn longest_chain_len(&self) -> usize {
        let Ok(order) = self.topological_order() else {
            return 0;
        };
        let mut depth = vec![1usize; self.tasks.len()];
        for &u in &order {
            for (v, _) in &self.succs[u.0] {
                depth[v.0] = depth[v.0].max(depth[u.0] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}
