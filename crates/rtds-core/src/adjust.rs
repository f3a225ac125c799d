//! Adjustment of the per-task releases and deadlines (§12.2).
//!
//! The Mapper's schedule `S` gives raw values `r_i` (start) and `d_i`
//! (finish) that ignore the job deadline `d`. §12.2 rescales them to the job
//! window `[r, d]`:
//!
//! * **case (i)** — `M* > d − r`: even at 100 % surplus the mapping cannot
//!   fit the window, the job is **rejected**;
//! * **case (ii)** — `M ≤ d − r`: the window is at least as long as the
//!   surplus-scaled schedule, so deadlines are scaled by `(d − r) / M`
//!   (eq. 3) and releases recomputed from predecessors (eq. 5), in
//!   topological order;
//! * **case (iii)** — `M* ≤ d − r < M`: the window lies between the two
//!   makespans; the extra laxity `d − r − M*` is scattered over the tasks
//!   (`ℓ = (d − r − M*) / η` with `η` the maximum number of tasks on any
//!   critical path of `S*`), deadlines are propagated backwards (eq. 4, in
//!   reverse topological order) and releases forwards (eq. 5).
//!
//! §13 adds *busyness-weighted* laxity dispatching: tasks running on busy
//! processors receive a proportionally larger share of the extra laxity.

use crate::config::LaxityDispatch;
use crate::mapper::{MapperResult, MappingView, ProcessorSpec, NO_TASK};
use crate::workspace::{with_workspace, Workspace};
use rtds_graph::{TaskGraph, TaskId};

/// Which adjustment case of §12.2 applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustCase {
    /// Case (ii): deadlines scaled by `(d − r) / M`.
    ScaledByWindow,
    /// Case (iii): extra laxity scattered along critical paths.
    LaxityScattered,
}

/// Outcome of the adjustment step.
#[derive(Debug, Clone, PartialEq)]
pub enum AdjustOutcome {
    /// Case (i): the job cannot meet its deadline with this mapping.
    Rejected {
        /// The limiting lower bound `M*`.
        makespan_star: f64,
        /// The available window `d − r`.
        window: f64,
    },
    /// The mapping was adjusted; per-task releases and deadlines are
    /// absolute times.
    Adjusted {
        /// Which case applied.
        case: AdjustCase,
        /// Adjusted release `r(t_i)` per task.
        release: Vec<f64>,
        /// Adjusted deadline `d(t_i)` per task.
        deadline: Vec<f64>,
    },
}

impl AdjustOutcome {
    /// Returns the adjusted windows, if the job was not rejected.
    pub(crate) fn windows(&self) -> Option<(&[f64], &[f64])> {
        match self {
            AdjustOutcome::Adjusted {
                release, deadline, ..
            } => Some((release, deadline)),
            AdjustOutcome::Rejected { .. } => None,
        }
    }

    /// Returns `true` for case (i).
    pub fn is_rejected(&self) -> bool {
        matches!(self, AdjustOutcome::Rejected { .. })
    }
}

/// Runs the §12.2 adjustment.
///
/// * `graph` — the job's task graph.
/// * `result` — the Mapper's output (schedules `S` and `S*`).
/// * `release`, `deadline` — the job's window `[r, d]`.
/// * `processors` — the logical processors offered to the Mapper (needed for
///   the busyness-weighted laxity variant).
/// * `laxity` — how the case-(iii) laxity is dispatched.
///
/// This is the adjustment run in this thread's workspace (`Adjustment::adjust`),
/// copied out.
pub fn adjust_mapping(
    graph: &TaskGraph,
    result: &MapperResult,
    release: f64,
    deadline: f64,
    processors: &[ProcessorSpec],
    laxity: LaxityDispatch,
) -> AdjustOutcome {
    with_workspace(|ws| {
        let Workspace {
            mapping,
            adjustment,
            ..
        } = ws;
        let view = mapping.view_of(graph, result);
        match adjustment.adjust(graph, &view, release, deadline, processors, laxity) {
            Ok(case) => AdjustOutcome::Adjusted {
                case,
                release: adjustment.release.clone(),
                deadline: adjustment.deadline.clone(),
            },
            Err(rejected) => rejected,
        }
    })
}

/// The adjusted windows and the adjustment's working vectors, reused from
/// run to run (one per thread, in [`crate::workspace`]): an adjustment on
/// warm buffers allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Adjustment {
    /// Adjusted release `r(t_i)` and deadline `d(t_i)` per task, valid after
    /// an [`Adjustment::adjust`] that returned `Ok`.
    pub(crate) release: Vec<f64>,
    pub(crate) deadline: Vec<f64>,
    /// Per-task laxity share of case (iii).
    laxity_of: Vec<f64>,
    /// Working space of `η`: latest finish times, critical flags, chain
    /// lengths and the tasks by increasing `S*` start.
    latest_finish: Vec<f64>,
    critical: Vec<bool>,
    chain: Vec<usize>,
    by_start: Vec<usize>,
}

const EPS: f64 = 1e-9;

impl Adjustment {
    /// `η` of the mapping's `S*` (see [`eta_of_star_schedule`]).
    fn eta(&mut self, graph: &TaskGraph, mapping: &MappingView<'_>) -> usize {
        let n = graph.task_count();
        if n == 0 {
            return 0;
        }
        let makespan_end = mapping.release + mapping.makespan_star;
        let (star_start, star_finish) = (mapping.star_start, mapping.star_finish);

        // Constraint edges out of `t`: DAG precedences (weighted by the
        // communication delay between processors) plus the succession on
        // `t`'s own processor (weight 0).
        let constraints = |t: usize| {
            let precedences = graph.successors(TaskId(t)).map(move |s| {
                let same = mapping.assignment[t] == mapping.assignment[s.0];
                (s.0, if same { 0.0 } else { mapping.comm_delay })
            });
            let succession = Some(mapping.next_on_processor[t]).filter(|&s| s != NO_TASK);
            precedences.chain(succession.map(|s| (s, 0.0)))
        };

        // The global list order used by the mapper is a valid topological
        // order of both precedence and processor-succession edges; recover
        // it from the star start times (ties by task id).
        let by_start = &mut self.by_start;
        by_start.clear();
        by_start.extend(0..n);
        by_start.sort_by(|a, b| {
            star_start[*a]
                .partial_cmp(&star_start[*b])
                .unwrap()
                .then(a.cmp(b))
        });

        // A task is on a critical path of S* when its start equals the
        // earliest possible start (it already does, S* is an
        // as-soon-as-possible replay) and its latest start — propagated
        // backwards from the makespan — equals its start.
        let duration = |t: usize| -> f64 { star_finish[t] - star_start[t] };
        let latest_finish = &mut self.latest_finish;
        latest_finish.clear();
        latest_finish.resize(n, makespan_end);
        for &t in by_start.iter().rev() {
            for (s, w) in constraints(t) {
                let lf = latest_finish[s] - duration(s) - w;
                latest_finish[t] = latest_finish[t].min(lf);
            }
        }
        let critical = &mut self.critical;
        critical.clear();
        critical.extend((0..n).map(|t| (latest_finish[t] - star_finish[t]).abs() <= EPS));

        // Longest chain (in number of tasks) through critical tasks along
        // zero-slack constraint edges.
        let chain = &mut self.chain;
        chain.clear();
        chain.resize(n, 0);
        let mut best = 0usize;
        for &t in by_start.iter() {
            if !critical[t] {
                continue;
            }
            chain[t] = chain[t].max(1);
            best = best.max(chain[t]);
            for (s, w) in constraints(t) {
                if !critical[s] {
                    continue;
                }
                // The edge is tight when s starts exactly when t's finish
                // plus the edge weight says it must.
                if (star_start[s] - (star_finish[t] + w)).abs() <= EPS {
                    chain[s] = chain[s].max(chain[t] + 1);
                    best = best.max(chain[s]);
                }
            }
        }
        best.max(1)
    }

    /// The §12.2 adjustment (see [`adjust_mapping`]) of a mapping of
    /// `graph`. `Ok` leaves the adjusted windows in [`Adjustment::release`]
    /// and [`Adjustment::deadline`]; `Err` is the case-(i) rejection.
    pub(crate) fn adjust(
        &mut self,
        graph: &TaskGraph,
        mapping: &MappingView<'_>,
        release: f64,
        deadline: f64,
        processors: &[ProcessorSpec],
        laxity: LaxityDispatch,
    ) -> Result<AdjustCase, AdjustOutcome> {
        let window = deadline - release;
        let n = graph.task_count();

        // Case (i): even the ideal schedule overruns the window.
        if mapping.makespan_star > window + EPS {
            return Err(AdjustOutcome::Rejected {
                makespan_star: mapping.makespan_star,
                window,
            });
        }

        let comm = |a: TaskId, b: TaskId| -> f64 {
            if mapping.assignment[a.0] == mapping.assignment[b.0] {
                0.0
            } else {
                mapping.comm_delay
            }
        };

        let case = if mapping.makespan <= window + EPS {
            // Case (ii): scale the S deadlines by (d - r) / M (eq. 3).
            let scale = if mapping.makespan > 0.0 {
                window / mapping.makespan
            } else {
                1.0
            };
            self.deadline.clear();
            self.deadline.extend(
                mapping
                    .finish
                    .iter()
                    .map(|finish| release + (finish - release) * scale),
            );
            AdjustCase::ScaledByWindow
        } else {
            // Case (iii): M* <= d - r < M. Scatter the extra laxity.
            let eta = self.eta(graph, mapping).max(1);
            let slack = (window - mapping.makespan_star).max(0.0);
            let uniform_laxity = slack / eta as f64;
            // Per-task laxity share.
            let laxity_of = &mut self.laxity_of;
            laxity_of.clear();
            laxity_of.resize(n, uniform_laxity);
            if laxity == LaxityDispatch::BusynessWeighted {
                // Weight by the busyness of the processor each task runs on,
                // normalised so the *average* share still equals the uniform
                // one (tasks on fully idle processors get no extra laxity,
                // tasks on busy processors get more).
                for (t, share) in laxity_of.iter_mut().enumerate() {
                    let p = mapping.assignment[t];
                    *share = 1.0
                        - processors
                            .get(p)
                            .map(|s| s.surplus.clamp(0.0, 1.0))
                            .unwrap_or(1.0);
                }
                let mean: f64 = laxity_of.iter().sum::<f64>() / n as f64;
                for share in laxity_of.iter_mut() {
                    *share = if mean <= EPS {
                        uniform_laxity
                    } else {
                        uniform_laxity * (*share / mean)
                    };
                }
            }
            // Eq. (4): deadlines in reverse topological order, anchored on
            // the job deadline for sink tasks; durations use the raw
            // computational complexity (the S* model).
            let adj_deadline = &mut self.deadline;
            adj_deadline.clear();
            adj_deadline.resize(n, deadline);
            for &t in mapping.topo.iter().rev() {
                if graph.out_degree(t) != 0 {
                    adj_deadline[t.0] = graph
                        .successors(t)
                        .map(|s| adj_deadline[s.0] - laxity_of[s.0] - graph.cost(s) - comm(t, s))
                        .fold(f64::INFINITY, f64::min);
                }
            }
            AdjustCase::LaxityScattered
        };
        // Eq. (5): releases from the predecessors' deadlines.
        let adj_deadline = &self.deadline;
        self.release.clear();
        self.release.extend(graph.task_ids().map(|t| {
            if graph.in_degree(t) == 0 {
                release
            } else {
                graph
                    .predecessors(t)
                    .map(|p| adj_deadline[p.0] + comm(p, t))
                    .fold(f64::NEG_INFINITY, f64::max)
            }
        }));
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map_dag, MapperInput};
    use rtds_graph::paper_instance::{
        paper_task_graph, EXPECTED_TABLE1, PAPER_ACS_DIAMETER, PAPER_DEADLINE, PAPER_RELEASE,
        PAPER_SURPLUS_P1, PAPER_SURPLUS_P2,
    };

    /// `η` of the schedule `S*`, as the adjustment computes it.
    fn eta_of_star_schedule(graph: &TaskGraph, result: &MapperResult) -> usize {
        with_workspace(|ws| {
            let mapping = ws.mapping.view_of(graph, result);
            ws.adjustment.eta(graph, &mapping)
        })
    }

    fn paper_result() -> (rtds_graph::TaskGraph, MapperResult, Vec<ProcessorSpec>) {
        let graph = paper_task_graph();
        let processors = vec![
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P1),
            ProcessorSpec::with_surplus(PAPER_SURPLUS_P2),
        ];
        let input = MapperInput::new(&graph, PAPER_RELEASE, &processors, PAPER_ACS_DIAMETER);
        let result = map_dag(&input).unwrap();
        (graph, result, processors)
    }

    #[test]
    fn reproduces_table_1_exactly() {
        let (graph, result, processors) = paper_result();
        let outcome = adjust_mapping(
            &graph,
            &result,
            PAPER_RELEASE,
            PAPER_DEADLINE,
            &processors,
            LaxityDispatch::Uniform,
        );
        let AdjustOutcome::Adjusted {
            case,
            release,
            deadline,
        } = outcome
        else {
            panic!("the paper example must not be rejected");
        };
        // d - r = 66 >= M = 33, so case (ii) applies with scale factor 2.
        assert_eq!(case, AdjustCase::ScaledByWindow);
        for (task, ri, di, r_adj, d_adj) in EXPECTED_TABLE1 {
            assert!((result.start[task] - ri).abs() < 1e-9, "r_{task}");
            assert!((result.finish[task] - di).abs() < 1e-9, "d_{task}");
            assert!(
                (release[task] - r_adj).abs() < 1e-9,
                "adjusted r(t{}) = {} expected {r_adj}",
                task + 1,
                release[task]
            );
            assert!(
                (deadline[task] - d_adj).abs() < 1e-9,
                "adjusted d(t{}) = {} expected {d_adj}",
                task + 1,
                deadline[task]
            );
        }
    }

    #[test]
    fn case_i_rejects_when_even_the_ideal_schedule_overruns() {
        let (graph, result, processors) = paper_result();
        // M* = 19, so a window of 15 triggers case (i).
        let outcome = adjust_mapping(
            &graph,
            &result,
            0.0,
            15.0,
            &processors,
            LaxityDispatch::Uniform,
        );
        assert!(outcome.is_rejected());
        assert!(outcome.windows().is_none());
        match outcome {
            AdjustOutcome::Rejected {
                makespan_star,
                window,
            } => {
                assert!((makespan_star - 19.0).abs() < 1e-9);
                assert!((window - 15.0).abs() < 1e-9);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn case_iii_windows_are_consistent() {
        let (graph, result, processors) = paper_result();
        // M* = 19, M = 33: a window of 25 lands in case (iii).
        let outcome = adjust_mapping(
            &graph,
            &result,
            0.0,
            25.0,
            &processors,
            LaxityDispatch::Uniform,
        );
        let AdjustOutcome::Adjusted {
            case,
            release,
            deadline,
        } = outcome
        else {
            panic!("case (iii) must not reject");
        };
        assert_eq!(case, AdjustCase::LaxityScattered);
        for t in graph.task_ids() {
            // Every task window lies inside the job window.
            assert!(release[t.0] >= 0.0 - 1e-9);
            assert!(
                deadline[t.0] <= 25.0 + 1e-9,
                "d(t{}) = {}",
                t.0,
                deadline[t.0]
            );
            // The window can hold the raw computational complexity.
            assert!(
                deadline[t.0] - release[t.0] + 1e-9 >= graph.cost(t),
                "window of t{} too small: [{}, {}] for cost {}",
                t.0,
                release[t.0],
                deadline[t.0],
                graph.cost(t)
            );
        }
        // Sink deadline is anchored at the job deadline.
        assert!((deadline[4] - 25.0).abs() < 1e-9);
        // Precedence consistency: a successor's release is never before its
        // predecessor's deadline plus the communication delay.
        for t in graph.task_ids() {
            for p in graph.predecessors(t) {
                let w = if result.assignment[p.0] == result.assignment[t.0] {
                    0.0
                } else {
                    result.comm_delay
                };
                assert!(release[t.0] + 1e-9 >= deadline[p.0] + w);
            }
        }
    }

    #[test]
    fn busyness_weighted_laxity_still_produces_valid_windows() {
        let (graph, result, processors) = paper_result();
        let outcome = adjust_mapping(
            &graph,
            &result,
            0.0,
            25.0,
            &processors,
            LaxityDispatch::BusynessWeighted,
        );
        let AdjustOutcome::Adjusted {
            release, deadline, ..
        } = outcome
        else {
            panic!("must adjust");
        };
        for t in graph.task_ids() {
            assert!(deadline[t.0] <= 25.0 + 1e-9);
            assert!(deadline[t.0] - release[t.0] + 1e-9 >= graph.cost(t));
        }
    }

    #[test]
    fn eta_of_the_paper_star_schedule() {
        let (graph, result, _) = paper_result();
        // The S* critical chain is t2 -> t4 -> t5 through the comm delay
        // (4 + 3 + 2 + 3 + 5 = wait) — compute: the makespan path ends at
        // t5's finish 19; t5 starts at 14 because of t4's finish 11 + 3; t4
        // starts at 9 because of t1's finish 6 + 3; t1 starts at 0.
        // So the critical chain is t1 -> t4 -> t5: 3 tasks.
        assert_eq!(eta_of_star_schedule(&graph, &result), 3);
    }

    #[test]
    fn eta_of_empty_graph_is_zero() {
        let graph = rtds_graph::TaskGraph::new();
        let processors = vec![ProcessorSpec::with_surplus(1.0)];
        let input = MapperInput::new(&graph, 0.0, &processors, 0.0);
        let result = map_dag(&input).unwrap();
        assert_eq!(eta_of_star_schedule(&graph, &result), 0);
    }

    #[test]
    fn case_ii_boundary_window_equal_to_makespan() {
        let (graph, result, processors) = paper_result();
        // Window exactly M = 33: scale factor 1, adjusted values equal the
        // raw schedule's (releases recomputed via eq. 5 may exceed the raw
        // start because eq. 5 charges the comm delay even when the schedule
        // absorbed it in processor idle time — they must stay feasible).
        let outcome = adjust_mapping(
            &graph,
            &result,
            0.0,
            33.0,
            &processors,
            LaxityDispatch::Uniform,
        );
        let AdjustOutcome::Adjusted { case, deadline, .. } = outcome else {
            panic!("must adjust");
        };
        assert_eq!(case, AdjustCase::ScaledByWindow);
        for t in graph.task_ids() {
            assert!((deadline[t.0] - result.finish[t.0]).abs() < 1e-9);
        }
    }
}
