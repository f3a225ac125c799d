//! The precedence structure `G = (T, E)` of a job.
//!
//! [`TaskGraph`] stores tasks and directed precedence edges. Edges may carry
//! a *data volume* (paper §13: communication delays can be adjusted by the
//! ratio data volume / throughput when links have identical throughput).
//! The structure enforces acyclicity lazily: edges can be added freely, and
//! [`TaskGraph::topological_order`] detects cycles.
//!
//! Storage is flat — a vector of tasks and an arena of edges, each edge
//! linked into its source's successor list and its target's predecessor
//! list — so a graph costs a constant number of allocations however many
//! tasks it has, and both per-task insertion orders (which are semantic:
//! list scheduling, the Mapper's tie-breaks and message fan-out follow them) are
//! kept exactly.

use crate::task::{Task, TaskId};

/// Attributes attached to a precedence edge `(pred -> succ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeData {
    /// Data volume shipped from the predecessor to the successor when they
    /// run on different sites. Ignored by the core paper model (propagation
    /// delay only) and used by the §13 data-volume extension.
    pub data_volume: f64,
}

impl Default for EdgeData {
    fn default() -> Self {
        EdgeData { data_volume: 0.0 }
    }
}

/// Errors produced by structural validation of a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph contains a cycle, so it is not a DAG.
    Cycle,
    /// An edge references a task id outside `0..task_count`.
    UnknownTask(TaskId),
    /// The same edge was inserted twice.
    DuplicateEdge(TaskId, TaskId),
    /// A self-loop `t -> t` was inserted.
    SelfLoop(TaskId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle => write!(f, "task graph contains a cycle"),
            GraphError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::SelfLoop(t) => write!(f, "self loop on task {t}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// End-of-list marker of the intrusive adjacency lists.
const NIL: u32 = u32::MAX;

/// One task plus the heads, tails and lengths of its two adjacency lists.
#[derive(Debug, Clone)]
struct Node {
    task: Task,
    first_out: u32,
    last_out: u32,
    first_in: u32,
    last_in: u32,
    out_degree: u32,
    in_degree: u32,
}

impl Node {
    fn new(task: Task) -> Self {
        Node {
            task,
            first_out: NIL,
            last_out: NIL,
            first_in: NIL,
            last_in: NIL,
            out_degree: 0,
            in_degree: 0,
        }
    }
}

/// One precedence edge, a member of two lists at once: the successors of
/// `pred` (through `next_out`) and the predecessors of `succ` (through
/// `next_in`).
#[derive(Debug, Clone, Copy)]
struct Edge {
    pred: u32,
    succ: u32,
    next_out: u32,
    next_in: u32,
    data: EdgeData,
}

/// A directed acyclic graph of tasks with precedence constraints.
///
/// Tasks are stored densely and addressed by [`TaskId`]. Each task's
/// successor and predecessor lists are kept in insertion order, which makes
/// traversals deterministic — an important property for reproducible
/// simulations and golden tests.
///
/// The layout is flat: one vector of tasks and one arena of edges, whatever
/// the shape of the graph. An edge is stored once and threaded onto both of
/// its endpoints' lists, so building a graph costs `O(1)` allocations (two
/// with `TaskGraph::with_capacity`) instead of two per task, and a graph
/// is read without chasing a pointer per task.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    /// Edges in global insertion order; list membership is in the links.
    edges: Vec<Edge>,
}

/// The `(neighbor, edge data)` pairs of one adjacency list, in insertion
/// order.
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    edges: &'a [Edge],
    next: u32,
    outgoing: bool,
}

impl Iterator for EdgeIter<'_> {
    type Item = (TaskId, EdgeData);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let edge = self.edges.get(self.next as usize)?;
        let (neighbor, next) = if self.outgoing {
            (edge.succ, edge.next_out)
        } else {
            (edge.pred, edge.next_in)
        };
        self.next = next;
        Some((TaskId(neighbor as usize), edge.data))
    }
}

/// Two graphs are equal when they hold the same tasks and every task has the
/// same successor and predecessor lists, entry for entry — the order in
/// which edges of *different* lists were inserted is not observable.
impl PartialEq for TaskGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes.len() == other.nodes.len()
            && self.edges.len() == other.edges.len()
            && self.tasks().eq(other.tasks())
            && self.task_ids().all(|t| {
                self.successor_edges(t).eq(other.successor_edges(t))
                    && self.predecessor_edges(t).eq(other.predecessor_edges(t))
            })
    }
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Creates an empty graph with room for `tasks` tasks and `edges` edges.
    pub(crate) fn with_capacity(tasks: usize, edges: usize) -> Self {
        TaskGraph {
            nodes: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Creates a graph with `n` tasks whose costs are given by `costs`.
    pub fn from_costs(costs: &[f64]) -> Self {
        let mut g = TaskGraph::with_capacity(costs.len(), 0);
        for &c in costs {
            g.add_task(c);
        }
        g
    }

    /// Adds a task with the given computational complexity and returns its id.
    pub fn add_task(&mut self, cost: f64) -> TaskId {
        self.push_task(cost, None)
    }

    /// Adds a labelled task.
    pub fn add_labelled_task(&mut self, cost: f64, label: impl Into<String>) -> TaskId {
        self.push_task(cost, Some(label.into()))
    }

    fn push_task(&mut self, cost: f64, label: Option<String>) -> TaskId {
        assert!(self.nodes.len() < NIL as usize, "task id space exhausted");
        let id = TaskId(self.nodes.len());
        let mut task = Task::new(id, cost);
        task.label = label;
        self.nodes.push(Node::new(task));
        id
    }

    /// Adds a precedence edge `pred -> succ` with default edge data.
    pub fn add_edge(&mut self, pred: TaskId, succ: TaskId) -> Result<(), GraphError> {
        self.add_edge_with(pred, succ, EdgeData::default())
    }

    /// Adds a precedence edge `pred -> succ` carrying a data volume.
    pub fn add_edge_with_volume(
        &mut self,
        pred: TaskId,
        succ: TaskId,
        data_volume: f64,
    ) -> Result<(), GraphError> {
        self.add_edge_with(pred, succ, EdgeData { data_volume })
    }

    /// Adds a precedence edge with explicit edge data.
    pub fn add_edge_with(
        &mut self,
        pred: TaskId,
        succ: TaskId,
        data: EdgeData,
    ) -> Result<(), GraphError> {
        let n = self.nodes.len();
        if pred.0 >= n {
            return Err(GraphError::UnknownTask(pred));
        }
        if succ.0 >= n {
            return Err(GraphError::UnknownTask(succ));
        }
        if pred == succ {
            return Err(GraphError::SelfLoop(pred));
        }
        if self.successors(pred).any(|s| s == succ) {
            return Err(GraphError::DuplicateEdge(pred, succ));
        }
        assert!(self.edges.len() < NIL as usize, "edge id space exhausted");
        let e = self.edges.len() as u32;
        self.edges.push(Edge {
            pred: pred.0 as u32,
            succ: succ.0 as u32,
            next_out: NIL,
            next_in: NIL,
            data,
        });
        let from = &mut self.nodes[pred.0];
        match std::mem::replace(&mut from.last_out, e) {
            NIL => from.first_out = e,
            tail => self.edges[tail as usize].next_out = e,
        }
        from.out_degree += 1;
        self.append_incoming(succ.0, e);
        Ok(())
    }

    /// Appends edge `e` to the predecessor list of task `succ`.
    fn append_incoming(&mut self, succ: usize, e: u32) {
        let to = &mut self.nodes[succ];
        match std::mem::replace(&mut to.last_in, e) {
            NIL => to.first_in = e,
            tail => self.edges[tail as usize].next_in = e,
        }
        to.in_degree += 1;
    }

    /// Gives every edge the data volume `volume()` draws for it, visiting
    /// edges source-major (tasks in id order, each task's successors in list
    /// order), and re-threads every predecessor list in that same order —
    /// exactly the graph obtained by re-inserting the decorated edges one by
    /// one, without building a second graph.
    pub(crate) fn assign_volumes_source_major(&mut self, mut volume: impl FnMut() -> f64) {
        for node in &mut self.nodes {
            (node.first_in, node.last_in, node.in_degree) = (NIL, NIL, 0);
        }
        for t in 0..self.nodes.len() {
            let mut e = self.nodes[t].first_out;
            while e != NIL {
                let edge = &mut self.edges[e as usize];
                edge.data = EdgeData {
                    data_volume: volume(),
                };
                edge.next_in = NIL;
                let (succ, next) = (edge.succ as usize, edge.next_out);
                self.append_incoming(succ, e);
                e = next;
            }
        }
    }

    /// Empties the graph, keeping its storage.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.edges.clear();
    }

    /// Moves the contents into a new graph sized exactly for them; `self`
    /// is left empty with its storage intact.
    pub(crate) fn take_exact(&mut self) -> TaskGraph {
        let edges = self.edges.to_vec();
        self.edges.clear();
        TaskGraph {
            nodes: self.nodes.drain(..).collect(),
            edges,
        }
    }

    /// Number of tasks `|T|`.
    pub fn task_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of precedence edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.nodes[id.0].task
    }

    /// Computational complexity of a task (`c(t)`).
    #[inline]
    pub fn cost(&self, id: TaskId) -> f64 {
        self.nodes[id.0].task.cost
    }

    /// Total computational complexity of all tasks.
    pub fn total_cost(&self) -> f64 {
        self.tasks().map(|t| t.cost).sum()
    }

    /// Iterator over all tasks in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.nodes.iter().map(|node| &node.task)
    }

    /// Iterator over all task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.nodes.len()).map(TaskId)
    }

    /// Immediate successors `Γ⁺(t)` of a task.
    #[inline]
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.successor_edges(id).map(|(s, _)| s)
    }

    /// Immediate predecessors `Γ⁻(t)` of a task.
    #[inline]
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.predecessor_edges(id).map(|(p, _)| p)
    }

    /// Immediate successors with their edge data, in insertion order.
    #[inline]
    pub fn successor_edges(&self, id: TaskId) -> EdgeIter<'_> {
        EdgeIter {
            edges: &self.edges,
            next: self.nodes[id.0].first_out,
            outgoing: true,
        }
    }

    /// Immediate predecessors with their edge data, in insertion order.
    #[inline]
    pub fn predecessor_edges(&self, id: TaskId) -> EdgeIter<'_> {
        EdgeIter {
            edges: &self.edges,
            next: self.nodes[id.0].first_in,
            outgoing: false,
        }
    }

    /// Data volume on an edge, if the edge exists.
    pub fn data_volume(&self, pred: TaskId, succ: TaskId) -> Option<f64> {
        self.successor_edges(pred)
            .find(|(s, _)| *s == succ)
            .map(|(_, d)| d.data_volume)
    }

    /// Number of immediate predecessors of a task.
    #[inline]
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.nodes[id.0].in_degree as usize
    }

    /// Number of immediate successors of a task.
    #[inline]
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.nodes[id.0].out_degree as usize
    }

    /// Tasks with no predecessors (the job's entry tasks).
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.in_degree(*t) == 0)
            .collect()
    }

    /// Tasks with no successors (the job's exit tasks).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.out_degree(*t) == 0)
            .collect()
    }

    /// Kahn topological sort. Returns `Err(GraphError::Cycle)` if the graph is
    /// not acyclic. The order is deterministic: among ready tasks, the lowest
    /// id is emitted first.
    pub fn topological_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let mut order = Vec::new();
        self.topological_order_into(&mut order, &mut Vec::new())?;
        Ok(order)
    }

    /// [`TaskGraph::topological_order`] into caller-owned buffers: `order`
    /// receives the result and `in_degrees` is working space; neither
    /// allocates once it has held a graph of this size. On a cycle `order`
    /// holds the acyclic prefix.
    pub fn topological_order_into(
        &self,
        order: &mut Vec<TaskId>,
        in_degrees: &mut Vec<usize>,
    ) -> Result<(), GraphError> {
        let n = self.nodes.len();
        in_degrees.clear();
        in_degrees.extend(self.nodes.iter().map(|node| node.in_degree as usize));
        // `order[..emitted]` is the result so far and `order[emitted..]` the
        // frontier of ready tasks, kept sorted by id so that its front is
        // always the smallest one (the initial ascending scan is sorted).
        order.clear();
        order.reserve(n);
        order.extend((0..n).filter(|&i| in_degrees[i] == 0).map(TaskId));
        let mut emitted = 0;
        while emitted < order.len() {
            let u = order[emitted];
            emitted += 1;
            for v in self.successors(u) {
                in_degrees[v.0] -= 1;
                if in_degrees[v.0] == 0 {
                    let pos = emitted + order[emitted..].partition_point(|t| t.0 < v.0);
                    order.insert(pos, v);
                }
            }
        }
        if order.len() == n {
            Ok(())
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Returns `true` iff the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// Returns `true` if `ancestor` can reach `descendant` through precedence
    /// edges (used by property tests and by the preemptive extension).
    pub fn reaches(&self, ancestor: TaskId, descendant: TaskId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![ancestor];
        seen[ancestor.0] = true;
        while let Some(u) = stack.pop() {
            for v in self.successors(u) {
                if v == descendant {
                    return true;
                }
                if !seen[v.0] {
                    seen[v.0] = true;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Length (in number of tasks) of the longest chain in the graph.
    pub fn longest_chain_len(&self) -> usize {
        let Ok(order) = self.topological_order() else {
            return 0;
        };
        let mut depth = vec![1usize; self.nodes.len()];
        for &u in &order {
            for v in self.successors(u) {
                depth[v.0] = depth[v.0].max(depth[u.0] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g = TaskGraph::from_costs(&[1.0, 2.0, 3.0, 4.0]);
        g.add_edge(TaskId(0), TaskId(1)).unwrap();
        g.add_edge(TaskId(0), TaskId(2)).unwrap();
        g.add_edge(TaskId(1), TaskId(3)).unwrap();
        g.add_edge(TaskId(2), TaskId(3)).unwrap();
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.total_cost(), 10.0);
        assert_eq!(g.cost(TaskId(2)), 3.0);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.out_degree(TaskId(0)), 2);
    }

    #[test]
    fn sources_and_sinks() {
        let g = diamond();
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
    }

    #[test]
    fn topological_order_is_valid_and_deterministic() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
    }

    #[test]
    fn cycle_detection() {
        let mut g = TaskGraph::from_costs(&[1.0, 1.0, 1.0]);
        g.add_edge(TaskId(0), TaskId(1)).unwrap();
        g.add_edge(TaskId(1), TaskId(2)).unwrap();
        g.add_edge(TaskId(2), TaskId(0)).unwrap();
        assert!(!g.is_acyclic());
        assert_eq!(g.topological_order(), Err(GraphError::Cycle));
    }

    #[test]
    fn edge_error_cases() {
        let mut g = TaskGraph::from_costs(&[1.0, 1.0]);
        assert_eq!(
            g.add_edge(TaskId(0), TaskId(5)),
            Err(GraphError::UnknownTask(TaskId(5)))
        );
        assert_eq!(
            g.add_edge(TaskId(7), TaskId(1)),
            Err(GraphError::UnknownTask(TaskId(7)))
        );
        assert_eq!(
            g.add_edge(TaskId(0), TaskId(0)),
            Err(GraphError::SelfLoop(TaskId(0)))
        );
        g.add_edge(TaskId(0), TaskId(1)).unwrap();
        assert_eq!(
            g.add_edge(TaskId(0), TaskId(1)),
            Err(GraphError::DuplicateEdge(TaskId(0), TaskId(1)))
        );
        // Errors render as readable strings.
        assert!(GraphError::Cycle.to_string().contains("cycle"));
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.reaches(TaskId(0), TaskId(3)));
        assert!(g.reaches(TaskId(1), TaskId(3)));
        assert!(!g.reaches(TaskId(1), TaskId(2)));
        assert!(g.reaches(TaskId(2), TaskId(2)));
        assert!(!g.reaches(TaskId(3), TaskId(0)));
    }

    #[test]
    fn data_volumes() {
        let mut g = TaskGraph::from_costs(&[1.0, 1.0]);
        g.add_edge_with_volume(TaskId(0), TaskId(1), 42.0).unwrap();
        assert_eq!(g.data_volume(TaskId(0), TaskId(1)), Some(42.0));
        assert_eq!(g.data_volume(TaskId(1), TaskId(0)), None);
        let volumes = |mut edges: EdgeIter<'_>| edges.next().map(|(_, d)| d.data_volume);
        assert_eq!(volumes(g.successor_edges(TaskId(0))), Some(42.0));
        assert_eq!(volumes(g.predecessor_edges(TaskId(1))), Some(42.0));
    }

    #[test]
    fn longest_chain() {
        let g = diamond();
        assert_eq!(g.longest_chain_len(), 3);
        let mut chain = TaskGraph::from_costs(&[1.0; 5]);
        for i in 0..4 {
            chain.add_edge(TaskId(i), TaskId(i + 1)).unwrap();
        }
        assert_eq!(chain.longest_chain_len(), 5);
        let empty = TaskGraph::new();
        assert_eq!(empty.longest_chain_len(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn labelled_tasks() {
        let mut g = TaskGraph::new();
        let id = g.add_labelled_task(2.0, "source");
        assert_eq!(g.task(id).label.as_deref(), Some("source"));
    }
}
