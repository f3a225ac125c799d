//! The Mapper (§9 and §12): Trial-Mapping construction.
//!
//! The Mapper partitions a DAG over the logical processors of the ACS. The
//! paper deliberately leaves the heuristic open ("almost any heuristic can be
//! adapted to our purpose") and then details one concrete instance in §12,
//! which is exactly what this module implements:
//!
//! * **task selection** — list scheduling by critical-path priority: the
//!   priority of `t_i` is the length of the longest node-weight path from
//!   `t_i` to a sink, `t_i` included; only *free* tasks (all predecessors
//!   already mapped) are eligible,
//! * **processor selection** — greedy: the processor giving the earliest
//!   finishing time for the selected task,
//! * **durations** — the execution of `t_i` on processor `p_j` is estimated
//!   as `c(t_i) / I_j` (surplus-scaled); the §13 uniform-machine extension
//!   additionally divides by the processor's relative speed,
//! * **communication delays** — over-estimated by the delay-diameter `ω` of
//!   the current ACS for tasks mapped on different processors (0 on the same
//!   processor),
//! * **start times** — a task starts no sooner than the end of the previous
//!   task mapped on its processor, nor before `d_j + ω` for every immediate
//!   predecessor `t_j` on another processor.
//!
//! The Mapper also computes the reference schedule `S*` — same assignment and
//! per-processor task order, but with every surplus set to 100 % — whose
//! makespan `M*` lower-bounds `M` and drives the §12.2 adjustment cases.
//!
//! There is one Mapper body, `Mapping::map`. It works in flat vectors that
//! belong to the thread (the crate's `workspace` module), sorts and ranks the
//! graph once for itself and for the adjustment that follows, and leaves its
//! result where it computed it: the protocol node reads the task sets `T_i`
//! straight out of the `Mapping`, so a Mapper run on warm buffers allocates
//! nothing. [`map_dag`] is the same body with the result copied out into an
//! owned [`MapperResult`].

use crate::workspace::with_workspace;
use rtds_graph::critical_path::upward_ranks_into;
use rtds_graph::{TaskGraph, TaskId};
use rtds_sched::admission::priority_order_into;

/// One logical processor offered to the Mapper: a site of the ACS described
/// by its surplus (and, for the §13 uniform-machines extension, its relative
/// speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorSpec {
    /// §2 surplus `I_j ∈ (0, 1]` of the site.
    pub surplus: f64,
    /// Relative computing power (1.0 = reference machine).
    pub speed: f64,
}

impl ProcessorSpec {
    /// A unit-speed processor with the given surplus.
    pub fn with_surplus(surplus: f64) -> Self {
        ProcessorSpec {
            surplus,
            speed: 1.0,
        }
    }
}

/// Input of one Mapper invocation.
pub struct MapperInput<'a> {
    /// The job's task graph.
    pub graph: &'a TaskGraph,
    /// Job release `r` (absolute time; the schedule starts no earlier).
    pub release: f64,
    /// Logical processors, *sorted by decreasing surplus* as §9 prescribes
    /// (the Mapper itself does not re-sort; the ACS layer provides the order).
    pub processors: &'a [ProcessorSpec],
    /// Communication-delay over-estimate `ω` (the ACS delay-diameter).
    pub comm_delay: f64,
    /// Optional per-edge extra delay: data volume divided by throughput
    /// (§13). Zero when the base propagation-only model is used.
    pub data_volume_delay: Option<&'a dyn Fn(TaskId, TaskId) -> f64>,
    /// Lower bound applied to surpluses so duration estimates stay finite.
    pub surplus_floor: f64,
}

impl<'a> MapperInput<'a> {
    /// Convenience constructor for the common propagation-only case.
    pub fn new(
        graph: &'a TaskGraph,
        release: f64,
        processors: &'a [ProcessorSpec],
        comm_delay: f64,
    ) -> Self {
        MapperInput {
            graph,
            release,
            processors,
            comm_delay,
            data_volume_delay: None,
            surplus_floor: 1e-3,
        }
    }
}

/// Output of the Mapper: the trial schedule `S`, the reference schedule `S*`
/// and the processor assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct MapperResult {
    /// `assignment[t]` is the logical processor (index into the input
    /// processor list) chosen for task `t`.
    pub assignment: Vec<usize>,
    /// Start time of each task in `S` (the paper's `r_i`).
    pub start: Vec<f64>,
    /// Finish time of each task in `S` (the paper's `d_i`).
    pub finish: Vec<f64>,
    /// Start time of each task in `S*` (surpluses = 100 %).
    pub star_start: Vec<f64>,
    /// Finish time of each task in `S*`.
    pub star_finish: Vec<f64>,
    /// Makespan `M` of `S`, measured from the job release.
    pub makespan: f64,
    /// Makespan `M*` of `S*`, measured from the job release.
    pub makespan_star: f64,
    /// Job release the schedules are anchored at.
    pub release: f64,
    /// Communication-delay over-estimate used.
    pub comm_delay: f64,
    /// Logical processors actually used (indices into the input list),
    /// in increasing index order — this is the paper's set `U`.
    pub used_processors: Vec<usize>,
    /// Per-processor task order of `S` (task ids in increasing start time),
    /// indexed like the input processor list.
    pub processor_order: Vec<Vec<TaskId>>,
}

impl MapperResult {
    /// The number of logical processors `|U|` the mapping relies on.
    pub fn used_count(&self) -> usize {
        self.used_processors.len()
    }
}

/// Runs the §12 Mapper. Returns `None` only for degenerate inputs (no
/// processors offered, or an empty processor list after filtering); an empty
/// graph maps to an empty schedule.
///
/// This is `Mapping::map` in this thread's workspace, copied out: the
/// protocol node reads the workspace directly and never builds a
/// [`MapperResult`].
pub fn map_dag(input: &MapperInput<'_>) -> Option<MapperResult> {
    with_workspace(|ws| ws.mapping.map(input).then(|| ws.mapping.to_result()))
}

/// What the §12.2 adjustment reads of a mapping, borrowed from either a
/// [`Mapping`] or a [`MapperResult`].
pub(crate) struct MappingView<'a> {
    /// A topological order of the mapped graph.
    pub(crate) topo: &'a [TaskId],
    pub(crate) assignment: &'a [usize],
    pub(crate) finish: &'a [f64],
    pub(crate) star_start: &'a [f64],
    pub(crate) star_finish: &'a [f64],
    pub(crate) makespan: f64,
    pub(crate) makespan_star: f64,
    pub(crate) release: f64,
    pub(crate) comm_delay: f64,
    /// The task that follows each task on its processor ([`NO_TASK`] after
    /// the last one).
    pub(crate) next_on_processor: &'a [usize],
}

/// "No task" in [`MappingView::next_on_processor`].
pub(crate) const NO_TASK: usize = usize::MAX;

/// The Mapper's working vectors and its result, flat and reused from run to
/// run (one per thread, in [`crate::workspace`]): a Mapper run on warm
/// buffers allocates nothing. The graph analysis it starts with — the
/// topological order and the list order — stays available to the adjustment
/// that follows, so a Mapper → Adjust run sorts and ranks the graph once.
#[derive(Debug, Default)]
pub(crate) struct Mapping {
    /// A topological order of the graph.
    topo: Vec<TaskId>,
    /// Per-task counters of the two sorts, then the write cursors of the
    /// grouping.
    counts: Vec<usize>,
    ranks: Vec<f64>,
    /// The list-scheduling order.
    order: Vec<TaskId>,
    rate_s: Vec<f64>,
    rate_star: Vec<f64>,
    avail: Vec<f64>,
    /// The fields of [`MapperResult`], same meaning.
    pub(crate) assignment: Vec<usize>,
    pub(crate) start: Vec<f64>,
    pub(crate) finish: Vec<f64>,
    pub(crate) star_start: Vec<f64>,
    pub(crate) star_finish: Vec<f64>,
    pub(crate) makespan: f64,
    pub(crate) makespan_star: f64,
    pub(crate) release: f64,
    pub(crate) comm_delay: f64,
    pub(crate) used_processors: Vec<usize>,
    /// Tasks grouped by processor, each group in execution order:
    /// processor `p` runs `grouped[offsets[p]..offsets[p + 1]]`.
    grouped: Vec<TaskId>,
    offsets: Vec<usize>,
    /// See [`MappingView::next_on_processor`].
    pub(crate) next_on_processor: Vec<usize>,
}

impl Mapping {
    /// Tasks assigned to the given logical processor, in execution order.
    pub(crate) fn tasks_on(&self, processor: usize) -> &[TaskId] {
        &self.grouped[self.offsets[processor]..self.offsets[processor + 1]]
    }

    /// The mapping as the adjustment reads it.
    pub(crate) fn view(&self) -> MappingView<'_> {
        MappingView {
            topo: &self.topo,
            assignment: &self.assignment,
            finish: &self.finish,
            star_start: &self.star_start,
            star_finish: &self.star_finish,
            makespan: self.makespan,
            makespan_star: self.makespan_star,
            release: self.release,
            comm_delay: self.comm_delay,
            next_on_processor: &self.next_on_processor,
        }
    }

    /// The view of a mapping that was not made in this workspace: what an
    /// adjustment needs besides the result itself — a topological order of
    /// the graph and the processor successions — is computed here.
    pub(crate) fn view_of<'a>(
        &'a mut self,
        graph: &TaskGraph,
        result: &'a MapperResult,
    ) -> MappingView<'a> {
        graph
            .topological_order_into(&mut self.topo, &mut self.counts)
            .expect("the job graph is acyclic by construction");
        let orders = result.processor_order.iter().map(Vec::as_slice);
        link_successions(&mut self.next_on_processor, graph.task_count(), orders);
        MappingView {
            topo: &self.topo,
            assignment: &result.assignment,
            finish: &result.finish,
            star_start: &result.star_start,
            star_finish: &result.star_finish,
            makespan: result.makespan,
            makespan_star: result.makespan_star,
            release: result.release,
            comm_delay: result.comm_delay,
            next_on_processor: &self.next_on_processor,
        }
    }

    /// The mapping as an owned [`MapperResult`].
    fn to_result(&self) -> MapperResult {
        MapperResult {
            assignment: self.assignment.clone(),
            start: self.start.clone(),
            finish: self.finish.clone(),
            star_start: self.star_start.clone(),
            star_finish: self.star_finish.clone(),
            makespan: self.makespan,
            makespan_star: self.makespan_star,
            release: self.release,
            comm_delay: self.comm_delay,
            used_processors: self.used_processors.clone(),
            processor_order: (0..self.offsets.len() - 1)
                .map(|p| self.tasks_on(p).to_vec())
                .collect(),
        }
    }

    /// The §12 Mapper (see [`map_dag`]); `false` when no processor was
    /// offered.
    pub(crate) fn map(&mut self, input: &MapperInput<'_>) -> bool {
        let graph = input.graph;
        let n = graph.task_count();
        let m = input.processors.len();
        if m == 0 {
            return false;
        }
        graph
            .topological_order_into(&mut self.topo, &mut self.counts)
            .expect("the Mapper requires an acyclic graph");
        upward_ranks_into(graph, &self.topo, &mut self.ranks);
        priority_order_into(graph, &self.ranks, &mut self.order, &mut self.counts);
        let order = &self.order;

        // Effective execution rates per processor for S (surplus-scaled) and
        // for S* (full surplus). Both honour the uniform-machine speed.
        let floor = input.surplus_floor;
        let rate_s = input
            .processors
            .iter()
            .map(|p| (p.surplus.max(floor) * p.speed).max(floor));
        refill(&mut self.rate_s, rate_s);
        let rate_star = input.processors.iter().map(|p| p.speed.max(1e-12));
        refill(&mut self.rate_star, rate_star);

        let comm = |from: TaskId, to: TaskId, same_processor: bool| -> f64 {
            if same_processor {
                0.0
            } else {
                let extra = input.data_volume_delay.map(|f| f(from, to)).unwrap_or(0.0);
                input.comm_delay + extra
            }
        };

        let (assignment, start, finish) = (&mut self.assignment, &mut self.start, &mut self.finish);
        let (avail, offsets) = (&mut self.avail, &mut self.offsets);
        refill(assignment, (0..n).map(|_| usize::MAX));
        refill(start, (0..n).map(|_| 0.0));
        refill(finish, (0..n).map(|_| 0.0));
        refill(avail, (0..m).map(|_| input.release));
        // Tasks per processor for now, shifted one up; the group offsets
        // once summed.
        refill(offsets, (0..m + 1).map(|_| 0));

        // Greedy EFT list scheduling for S. When per-edge data volumes are in
        // play, ties on the finishing time (within the float tolerance) break
        // towards the processor pulling the *least* cross-processor data — a
        // data-locality refinement that changes nothing on volume-free graphs
        // (every candidate's cross-traffic is 0 there).
        for &t in order {
            let mut best: Option<(usize, f64, f64, f64)> = None; // (proc, start, finish, cross)
            for (p, (free, rate)) in avail.iter().zip(&self.rate_s).enumerate() {
                let mut est = free.max(input.release);
                let mut cross = 0.0f64;
                for pred in graph.predecessors(t) {
                    let same = assignment[pred.0] == p;
                    est = est.max(finish[pred.0] + comm(pred, t, same));
                    if !same {
                        if let Some(f) = input.data_volume_delay {
                            cross += f(pred, t);
                        }
                    }
                }
                let dur = graph.cost(t) / rate;
                let eft = est + dur;
                let better = match best {
                    None => true,
                    Some((_, _, best_eft, best_cross)) => {
                        eft < best_eft - 1e-12
                            || (input.data_volume_delay.is_some()
                                && (eft - best_eft).abs() <= 1e-12
                                && cross < best_cross - 1e-12)
                    }
                };
                if better {
                    best = Some((p, est, eft, cross));
                }
            }
            let (p, s, f, _) = best.expect("at least one processor");
            assignment[t.0] = p;
            start[t.0] = s;
            finish[t.0] = f;
            avail[p] = f;
            offsets[p + 1] += 1;
        }

        // S*: same assignment, same per-processor order, surpluses at 100 %.
        let (star_start, star_finish) = (&mut self.star_start, &mut self.star_finish);
        refill(star_start, (0..n).map(|_| 0.0));
        refill(star_finish, (0..n).map(|_| 0.0));
        refill(avail, (0..m).map(|_| input.release));
        // Replay tasks in the same global list order (which is consistent with
        // both the precedence constraints and the per-processor orders of S).
        for &t in order {
            let p = assignment[t.0];
            let mut est = avail[p].max(input.release);
            for pred in graph.predecessors(t) {
                let same = assignment[pred.0] == p;
                est = est.max(star_finish[pred.0] + comm(pred, t, same));
            }
            let dur = graph.cost(t) / self.rate_star[p];
            star_start[t.0] = est;
            star_finish[t.0] = est + dur;
            avail[p] = est + dur;
        }

        let span = |finish: &[f64]| {
            finish
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
                .max(input.release)
                - input.release
        };
        self.makespan = span(finish);
        self.makespan_star = span(star_finish);
        self.release = input.release;
        self.comm_delay = input.comm_delay;
        refill(
            &mut self.used_processors,
            (0..m).filter(|&p| offsets[p + 1] > 0),
        );

        // Group the tasks by processor, keeping the list order inside each
        // group.
        for p in 0..m {
            offsets[p + 1] += offsets[p];
        }
        refill(&mut self.grouped, (0..n).map(|_| TaskId(0)));
        let cursor = &mut self.counts;
        refill(cursor, offsets[..m].iter().copied());
        for &t in order {
            let p = assignment[t.0];
            self.grouped[cursor[p]] = t;
            cursor[p] += 1;
        }
        let groups = offsets.windows(2).map(|w| &self.grouped[w[0]..w[1]]);
        link_successions(&mut self.next_on_processor, n, groups);
        true
    }
}

/// Replaces the contents of `buffer`, keeping its storage.
fn refill<T>(buffer: &mut Vec<T>, items: impl Iterator<Item = T>) {
    buffer.clear();
    buffer.extend(items);
}

/// Fills `next[t]` with the task that follows `t` in its processor's
/// execution order ([`NO_TASK`] after the last one), for `n` tasks.
fn link_successions<'a>(
    next: &mut Vec<usize>,
    n: usize,
    orders: impl Iterator<Item = &'a [TaskId]>,
) {
    refill(next, (0..n).map(|_| NO_TASK));
    for order in orders {
        for pair in order.windows(2) {
            next[pair[0].0] = pair[1].0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::paper_instance::{
        paper_task_graph, EXPECTED_MAKESPAN_S, EXPECTED_MAKESPAN_S_STAR, EXPECTED_SCHEDULE_S,
        EXPECTED_SCHEDULE_S_STAR, PAPER_ACS_DIAMETER, PAPER_SURPLUS_P1, PAPER_SURPLUS_P2,
    };

    fn paper_processors() -> Vec<ProcessorSpec> {
        vec![
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P1),
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P2),
        ]
    }

    #[test]
    fn reproduces_the_paper_schedule_s() {
        let graph = paper_task_graph();
        let processors = paper_processors();
        let input = MapperInput::new(&graph, 0.0, &processors, PAPER_ACS_DIAMETER);
        let result = map_dag(&input).unwrap();
        for (task, proc, start, finish) in EXPECTED_SCHEDULE_S {
            assert_eq!(result.assignment[task], proc, "task {task} processor");
            assert!(
                (result.start[task] - start).abs() < 1e-9,
                "task {task} start: {} vs {start}",
                result.start[task]
            );
            assert!(
                (result.finish[task] - finish).abs() < 1e-9,
                "task {task} finish: {} vs {finish}",
                result.finish[task]
            );
        }
        assert!((result.makespan - EXPECTED_MAKESPAN_S).abs() < 1e-9);
        assert_eq!(result.used_processors, vec![0, 1]);
        assert_eq!(result.used_count(), 2);
        assert_eq!(
            result.processor_order[0],
            &[TaskId(0), TaskId(2), TaskId(4)],
            "p1 runs t1, t3, t5"
        );
        assert_eq!(result.processor_order[1], [TaskId(1), TaskId(3)]);
    }

    #[test]
    fn reproduces_the_paper_schedule_s_star() {
        let graph = paper_task_graph();
        let processors = paper_processors();
        let input = MapperInput::new(&graph, 0.0, &processors, PAPER_ACS_DIAMETER);
        let result = map_dag(&input).unwrap();
        for (task, proc, start, finish) in EXPECTED_SCHEDULE_S_STAR {
            assert_eq!(result.assignment[task], proc);
            assert!(
                (result.star_start[task] - start).abs() < 1e-9,
                "task {task} S* start: {} vs {start}",
                result.star_start[task]
            );
            assert!(
                (result.star_finish[task] - finish).abs() < 1e-9,
                "task {task} S* finish: {} vs {finish}",
                result.star_finish[task]
            );
        }
        assert!((result.makespan_star - EXPECTED_MAKESPAN_S_STAR).abs() < 1e-9);
        assert!(result.makespan_star <= result.makespan + 1e-9);
    }

    #[test]
    fn empty_processor_list_is_rejected() {
        let graph = paper_task_graph();
        let input = MapperInput::new(&graph, 0.0, &[], 3.0);
        assert!(map_dag(&input).is_none());
    }

    #[test]
    fn empty_graph_maps_to_empty_schedule() {
        let graph = TaskGraph::new();
        let processors = vec![ProcessorSpec::with_surplus(1.0)];
        let input = MapperInput::new(&graph, 5.0, &processors, 2.0);
        let result = map_dag(&input).unwrap();
        assert!(result.assignment.is_empty());
        assert_eq!(result.makespan, 0.0);
        assert_eq!(result.makespan_star, 0.0);
        assert!(result.used_processors.is_empty());
    }

    #[test]
    fn single_processor_serialises_the_dag() {
        let graph = paper_task_graph();
        let processors = vec![ProcessorSpec::with_surplus(1.0)];
        let input = MapperInput::new(&graph, 0.0, &processors, 100.0);
        let result = map_dag(&input).unwrap();
        // Everything on processor 0, no communication delays, so the makespan
        // is the total cost 21.
        assert!(result.assignment.iter().all(|&p| p == 0));
        assert!((result.makespan - 21.0).abs() < 1e-9);
        assert_eq!(result.used_count(), 1);
    }

    #[test]
    fn release_anchors_the_schedule() {
        let graph = paper_task_graph();
        let processors = paper_processors();
        let input = MapperInput::new(&graph, 100.0, &processors, PAPER_ACS_DIAMETER);
        let result = map_dag(&input).unwrap();
        // Same shape as the paper schedule, shifted by the release.
        for (task, _, start, finish) in EXPECTED_SCHEDULE_S {
            assert!((result.start[task] - (start + 100.0)).abs() < 1e-9);
            assert!((result.finish[task] - (finish + 100.0)).abs() < 1e-9);
        }
        assert!((result.makespan - EXPECTED_MAKESPAN_S).abs() < 1e-9);
    }

    #[test]
    fn uniform_machine_speed_shortens_durations() {
        let graph = paper_task_graph();
        let slow = vec![ProcessorSpec::with_surplus(1.0)];
        let fast = vec![ProcessorSpec {
            surplus: 1.0,
            speed: 2.0,
        }];
        let m_slow = map_dag(&MapperInput::new(&graph, 0.0, &slow, 0.0)).unwrap();
        let m_fast = map_dag(&MapperInput::new(&graph, 0.0, &fast, 0.0)).unwrap();
        assert!((m_slow.makespan - 2.0 * m_fast.makespan).abs() < 1e-9);
    }

    #[test]
    fn data_volume_delays_are_added_between_processors() {
        // Two tasks in a chain on two processors: the extra data-volume delay
        // must show up in the successor's start time.
        let mut graph = TaskGraph::from_costs(&[4.0, 4.0]);
        graph.add_edge(TaskId(0), TaskId(1)).unwrap();
        let processors = vec![
            ProcessorSpec::with_surplus(1.0),
            ProcessorSpec::with_surplus(1.0),
        ];
        let volume_delay = |_from: TaskId, _to: TaskId| 3.0;
        let input = MapperInput {
            graph: &graph,
            release: 0.0,
            processors: &processors,
            comm_delay: 1.0,
            data_volume_delay: Some(&volume_delay),
            surplus_floor: 1e-3,
        };
        let result = map_dag(&input).unwrap();
        // EFT keeps both tasks on processor 0 here (4 + 4 = 8 is better than
        // waiting 4 + 1 + 3 + 4 = 12 on processor 1), which is itself the
        // correct greedy decision under the inflated communication cost.
        assert_eq!(result.assignment, vec![0, 0]);
        assert!((result.makespan - 8.0).abs() < 1e-9);
        // With zero computation on the second processor's queue and a huge
        // first-processor load the mapper splits and pays the delay.
        let skewed = vec![
            ProcessorSpec::with_surplus(0.1),
            ProcessorSpec::with_surplus(1.0),
        ];
        let input = MapperInput {
            graph: &graph,
            release: 0.0,
            processors: &skewed,
            comm_delay: 1.0,
            data_volume_delay: Some(&volume_delay),
            surplus_floor: 1e-3,
        };
        let result = map_dag(&input).unwrap();
        assert_eq!(result.assignment, vec![1, 1]);
    }

    #[test]
    fn finish_time_ties_break_towards_data_locality() {
        // Diamond-ish shape: t3 is a long straggler every candidate must wait
        // for, so t2's finishing time ties across all three processors and
        // only the cross-processor data volume separates them.
        let mut graph = TaskGraph::from_costs(&[1.0, 1.0, 1.0, 10.0]);
        graph
            .add_edge_with_volume(TaskId(0), TaskId(2), 1.0)
            .unwrap();
        graph
            .add_edge_with_volume(TaskId(1), TaskId(2), 3.0)
            .unwrap();
        graph
            .add_edge_with_volume(TaskId(3), TaskId(2), 0.0)
            .unwrap();
        let processors = vec![
            ProcessorSpec::with_surplus(1.0),
            ProcessorSpec::with_surplus(1.0),
            ProcessorSpec::with_surplus(1.0),
        ];
        let volume_delay = |from: TaskId, to: TaskId| graph.data_volume(from, to).unwrap_or(0.0);
        let input = MapperInput {
            graph: &graph,
            release: 0.0,
            processors: &processors,
            comm_delay: 0.0,
            data_volume_delay: Some(&volume_delay),
            surplus_floor: 1e-3,
        };
        let result = map_dag(&input).unwrap();
        // Greedy spread: t3 (longest) on p0, then t0 on p1, t1 on p2. All
        // three candidates finish t2 at the same instant (waiting on t3), so
        // the tie breaks to p2, which pulls only t0's volume 1 across.
        assert_eq!(result.assignment[3], 0);
        assert_eq!(result.assignment[0], 1);
        assert_eq!(result.assignment[1], 2);
        assert_eq!(
            result.assignment[2], 2,
            "tie must break to least cross-traffic"
        );
        // Without volumes the same tie is broken by processor index, as
        // before this refinement.
        let input = MapperInput::new(&graph, 0.0, &processors, 0.0);
        let result = map_dag(&input).unwrap();
        assert_eq!(result.assignment[2], 0);
    }

    #[test]
    fn surplus_floor_prevents_infinite_durations() {
        let graph = paper_task_graph();
        let processors = vec![ProcessorSpec::with_surplus(0.0)];
        let mut input = MapperInput::new(&graph, 0.0, &processors, 0.0);
        input.surplus_floor = 0.01;
        let result = map_dag(&input).unwrap();
        assert!(result.makespan.is_finite());
        assert!(result.makespan > 0.0);
    }
}
