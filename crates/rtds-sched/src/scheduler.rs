//! The pluggable local scheduling policy.
//!
//! The paper leaves the local scheduler unspecified beyond the §5 insertion
//! idea. This module puts that decision behind the [`Scheduler`] trait over
//! a multicore [`SiteResources`] bundle. One type implements it,
//! [`SiteScheduler`], in two [`SchedulerKind`]s:
//!
//! * `Protocol` — the paper's §5/§12 critical-path list scheduler,
//!   generalised to place each task on the core with the earliest fit. On
//!   the degenerate single-core bundle that *is* the paper's single-plan
//!   rule, so every pre-multicore report stays byte-identical.
//! * `Heft` — HEFT-style list scheduling (Topcuoglu et al.): tasks ordered
//!   by communication-inclusive upward rank, each placed on the core
//!   minimising its earliest finish time (insertion-based EFT).
//!
//! The kinds differ only in rank; everything else (per-core
//! [`SchedulePlan`]s, trial placement over them without copies (the `trial`
//! module), gang fits for multi-core task demands, a memory ledger) is
//! shared. [`SiteScheduler`] is what the protocol node and every baseline
//! store — a plain enum-dispatched struct, it stays `Clone + PartialEq` and
//! snapshots cleanly (`rtds-sched-snapshot/1`, encoded by `rtds-core`).

use crate::admission::priority_order_into;
use crate::feasibility::{place_requests, TaskRequest};
use crate::interval::TimeInterval;
use crate::plan::{PlanError, Reservation, SchedulePlan};
use crate::resources::{SiteResources, TaskDemand};
use crate::trial::{with_scratch, Scratch, Trial};
use rtds_graph::critical_path::upward_ranks_into;
use rtds_graph::{Job, JobId, TaskGraph, TaskId};

/// Tolerance mirrored from the plan layer.
const TIME_EPS: f64 = 1e-9;

/// Index of one core within a site.
pub type CoreId = usize;

/// A reservation bound to a specific core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Core executing the reservation.
    pub core: CoreId,
    /// The reservation itself.
    pub reservation: Reservation,
}

/// Memory held by one job's task for the duration of its reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemHold {
    /// Owning job.
    pub job: JobId,
    /// Start of the residency.
    pub start: f64,
    /// End of the residency.
    pub end: f64,
    /// Memory units held.
    pub bytes: f64,
}

/// Result of a successful whole-DAG admission: the per-core placements to
/// commit, the memory residencies they imply, and the job completion time.
#[derive(Debug, Clone, PartialEq)]
pub struct DagSchedule {
    /// Placements realising the DAG (a gang task yields one placement per
    /// occupied core, all with identical `[start, end)`).
    pub placements: Vec<Placement>,
    /// Memory residencies (empty when no demands were given).
    pub holds: Vec<MemHold>,
    /// Completion time of the last task.
    pub completion: f64,
}

/// Which scheduling policy a site runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The paper's §5/§12 critical-path list scheduler (the default).
    #[default]
    Protocol,
    /// HEFT-style insertion-based EFT list scheduling.
    Heft,
}

impl SchedulerKind {
    /// Stable lowercase name (used in reports and snapshots).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Protocol => "protocol",
            SchedulerKind::Heft => "heft",
        }
    }

    /// Inverse of [`SchedulerKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "protocol" => Some(SchedulerKind::Protocol),
            "heft" => Some(SchedulerKind::Heft),
            _ => None,
        }
    }

    /// All kinds, in a stable order.
    pub fn all() -> [SchedulerKind; 2] {
        [SchedulerKind::Protocol, SchedulerKind::Heft]
    }
}

/// The local scheduling decision of one site, abstracted over policy.
///
/// Contract every implementation upholds:
///
/// * Queries ([`Scheduler::admit_dag`], [`Scheduler::satisfiable`]) never
///   mutate the committed plans.
/// * An admission/satisfiability answer is *constructive and committable*:
///   passing it to [`Scheduler::reserve_dag`] / [`Scheduler::reserve`]
///   immediately afterwards always succeeds.
/// * Accepted work never overlaps on a core and never ends after the
///   deadline it was tested against — accepted jobs cannot miss deadlines.
/// * All answers are deterministic functions of the committed state.
pub trait Scheduler {
    /// Which policy this is.
    fn kind(&self) -> SchedulerKind;

    /// The site's resource bundle.
    fn resources(&self) -> &SiteResources;

    /// Committed per-core plans, indexed by [`CoreId`].
    fn core_plans(&self) -> &[SchedulePlan];

    /// The §5 local guarantee test: can the whole DAG run on this site,
    /// in-between the committed reservations, before its deadline?
    /// `demands` (parallel to task ids) adds core/memory/speedup demands;
    /// `None` means every task is a default single-core demand.
    fn admit_dag(&self, job: &Job, now: f64, demands: Option<&[TaskDemand]>)
        -> Option<DagSchedule>;

    /// The §10 validation question: can this task set (durations already
    /// scaled by the caller) be placed in-between the committed
    /// reservations? Requests are single-core.
    fn satisfiable(&self, requests: &[TaskRequest]) -> Option<Vec<Placement>>;

    /// Commits placements previously returned by [`Scheduler::satisfiable`]
    /// (atomic: all or nothing).
    fn reserve(&mut self, placements: &[Placement]) -> Result<(), PlanError>;

    /// Commits a whole [`DagSchedule`] including its memory holds (atomic).
    fn reserve_dag(&mut self, schedule: &DagSchedule) -> Result<(), PlanError>;

    /// Releases every reservation and memory hold of a job; returns the
    /// number of reservations removed.
    fn release(&mut self, job: JobId) -> usize;

    /// The §2 surplus over `[now, now + window)`: idle core-time as a
    /// fraction of total core-time.
    fn surplus(&self, now: f64, window: f64) -> f64;

    /// Removes and returns every placement fully completed by `cutoff`
    /// (core-major order), pruning expired memory holds as well.
    fn drain_completed(&mut self, cutoff: f64) -> Vec<Placement>;

    /// Total committed reservations over all cores.
    fn reservation_count(&self) -> usize;

    /// Number of cores executing a reservation at time `t`.
    fn busy_cores(&self, t: f64) -> usize;

    /// Memory held at time `t` by committed residencies.
    fn mem_used(&self, t: f64) -> f64;
}

/// Concrete enum-dispatched scheduler: the state shared by all policies
/// plus the [`SchedulerKind`] selecting the placement rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteScheduler {
    kind: SchedulerKind,
    resources: SiteResources,
    /// Effective base speed of the site (the §13 uniform-machines factor);
    /// composed with `resources.speed`.
    base_speed: f64,
    preemptive: bool,
    cores: Vec<SchedulePlan>,
    holds: Vec<MemHold>,
}

impl SiteScheduler {
    /// Creates an empty scheduler of the given kind.
    pub fn new(
        kind: SchedulerKind,
        resources: SiteResources,
        base_speed: f64,
        preemptive: bool,
    ) -> Self {
        assert!(base_speed > 0.0, "site speed must be positive");
        resources.validate().expect("valid site resources");
        SiteScheduler {
            kind,
            resources,
            base_speed,
            preemptive,
            cores: vec![SchedulePlan::new(); resources.cores],
            holds: Vec::new(),
        }
    }

    /// Rebuilds a scheduler from snapshot parts (untrusted): an invalid
    /// resource bundle, a non-positive or non-finite base speed, a plan
    /// count that differs from the core count and a malformed memory hold
    /// are errors.
    pub fn from_parts(
        kind: SchedulerKind,
        resources: SiteResources,
        base_speed: f64,
        preemptive: bool,
        cores: Vec<SchedulePlan>,
        holds: Vec<MemHold>,
    ) -> Result<Self, String> {
        resources.validate()?;
        if !(base_speed.is_finite() && base_speed > 0.0) {
            return Err(format!("site speed must be positive, got {base_speed}"));
        }
        if cores.len() != resources.cores {
            return Err(format!(
                "{} plans for {} cores",
                cores.len(),
                resources.cores
            ));
        }
        let hold_ok = |h: &MemHold| {
            h.start.is_finite() && h.end >= h.start && h.end.is_finite() && h.bytes >= 0.0
        };
        if !holds.iter().all(hold_ok) {
            return Err("memory hold with a non-finite span or negative size".into());
        }
        Ok(SiteScheduler {
            kind,
            resources,
            base_speed,
            preemptive,
            cores,
            holds,
        })
    }

    /// Snapshot accessors: `(base_speed, preemptive, holds)` — kind,
    /// resources and plans have trait accessors.
    pub fn snapshot_parts(&self) -> (f64, bool, &[MemHold]) {
        (self.base_speed, self.preemptive, &self.holds)
    }

    /// The site's effective single-core speed: base speed × resource
    /// multiplier.
    pub fn effective_speed(&self) -> f64 {
        self.base_speed * self.resources.speed
    }

    /// Whether the site has nothing committed: no reservation on any core
    /// and no memory hold.
    pub fn is_idle(&self) -> bool {
        self.holds.is_empty() && self.cores.iter().all(SchedulePlan::is_empty)
    }
}

/// One task being placed by [`SiteScheduler::place_dag`].
struct Pending<'a> {
    job: JobId,
    task: TaskId,
    ready: f64,
    deadline: f64,
    /// Per-task durations on this site.
    durations: &'a [f64],
}

impl Pending<'_> {
    fn duration(&self) -> f64 {
        self.durations[self.task.0]
    }

    fn reservation(&self, start: f64, end: f64) -> Reservation {
        Reservation {
            job: self.job,
            task: self.task,
            start,
            end,
        }
    }
}

impl SiteScheduler {
    /// The §5 local guarantee test (see [`Scheduler::admit_dag`]): the
    /// completion time, with the placements and holds in `scratch`.
    fn place_dag(
        &self,
        job: &Job,
        now: f64,
        demands: Option<&[TaskDemand]>,
        scratch: &mut Scratch,
    ) -> Option<f64> {
        let graph = &job.graph;
        let start_floor = now.max(job.release());
        scratch.placed.clear();
        scratch.holds.clear();
        if graph.task_count() == 0 {
            return Some(start_floor);
        }
        if let Some(d) = demands {
            assert_eq!(d.len(), graph.task_count(), "one demand per task");
        }
        let deadline = job.deadline();
        let default_demand = TaskDemand::default();
        let demand_of = |t: TaskId| demands.map_or(default_demand, |d| d[t.0]);
        let Scratch {
            added,
            placed: placements,
            holds,
            chunks,
            best_chunks,
            starts,
            events,
            topo,
            in_degrees,
            ranks,
            task_order,
            durations,
            finish,
            ..
        } = scratch;
        durations.clear();
        durations.extend(
            graph
                .task_ids()
                .map(|t| demand_of(t).duration(graph.cost(t), self.base_speed, &self.resources)),
        );
        // List scheduling: repeatedly pick the ready task with the largest
        // rank (ties by task id), exactly like the Mapper of §12 but on a
        // single site, so no communication delays apply.
        graph
            .topological_order_into(topo, in_degrees)
            .expect("task graphs are acyclic");
        match self.kind {
            SchedulerKind::Protocol => upward_ranks_into(graph, topo, ranks),
            SchedulerKind::Heft => heft_upward_rank_into(graph, topo, ranks),
        }
        priority_order_into(graph, ranks, task_order, in_degrees);

        let mut trial = Trial::new(&self.cores, added);
        finish.clear();
        finish.resize(graph.task_count(), 0.0);
        for &t in task_order.iter() {
            let demand = demand_of(t);
            let k = demand.granted_cores(&self.resources);
            let ready = graph
                .predecessors(t)
                .map(|p| finish[p.0])
                .fold(start_floor, f64::max);
            let task = Pending {
                job: job.id,
                task: t,
                ready,
                deadline,
                durations,
            };
            let first_placement = placements.len();
            let end = if k > 1 {
                // Gang tasks occupy k cores for one contiguous slot (no
                // preemptive splitting for gangs).
                place_gang(&mut trial, &task, k, starts, placements)?
            } else if self.preemptive {
                // Fill idle windows on the core whose chunks complete
                // earliest.
                let (core, end) = trial.best_preemptive_fit(
                    ready,
                    deadline,
                    task.duration(),
                    chunks,
                    best_chunks,
                )?;
                for chunk in best_chunks.iter() {
                    trial.place(core, task.reservation(chunk.start, chunk.end), placements)?;
                }
                end.max(ready)
            } else {
                let (core, start, end) = trial.best_single_fit(ready, deadline, task.duration())?;
                trial.place(core, task.reservation(start, end), placements)?;
                end
            };
            if end > deadline + TIME_EPS {
                return None;
            }
            finish[t.0] = end;
            if demand.memory > 0.0 {
                let start = placements[first_placement..]
                    .iter()
                    .map(|p| p.reservation.start)
                    .fold(end, f64::min);
                holds.push(MemHold {
                    job: job.id,
                    start,
                    end,
                    bytes: demand.memory,
                });
            }
        }
        if !self.memory_fits(holds, events) {
            return None;
        }
        Some(finish.iter().copied().fold(start_floor, f64::max))
    }

    /// Peak-memory check: with the new holds added to the committed ledger,
    /// does concurrent residency ever exceed the site's memory?
    fn memory_fits(&self, new_holds: &[MemHold], events: &mut Vec<(f64, f64)>) -> bool {
        if self.resources.memory.is_infinite() || new_holds.is_empty() {
            return true;
        }
        events.clear();
        for h in self.holds.iter().chain(new_holds) {
            if h.bytes > 0.0 && h.end > h.start {
                events.push((h.start, h.bytes));
                events.push((h.end, -h.bytes));
            }
        }
        // Ends sort before starts at the same instant (closed-open holds).
        // Events that compare equal are interchangeable, so no stable sort.
        events.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(a.1.partial_cmp(&b.1).unwrap())
        });
        let mut used = 0.0;
        for (_, delta) in events.iter() {
            used += delta;
            if used > self.resources.memory + TIME_EPS {
                return false;
            }
        }
        true
    }
}

/// Places a gang task on the `k` lowest-numbered cores that are
/// simultaneously idle over `[t, t + duration)` at the earliest such
/// `t >= ready` with `t + duration <= deadline`. Returns the end time.
fn place_gang(
    trial: &mut Trial<'_>,
    task: &Pending<'_>,
    k: usize,
    starts: &mut Vec<f64>,
    placements: &mut Vec<Placement>,
) -> Option<f64> {
    let duration = task.duration();
    if k > trial.core_count() || duration < 0.0 {
        return None;
    }
    // Candidate starts: the ready time plus every reservation end after it
    // (a gang can only become feasible when some core frees up).
    starts.clear();
    starts.push(task.ready);
    for timeline in trial.timelines() {
        starts.extend(
            timeline
                .reservations()
                .map(|r| r.end)
                .filter(|&end| end > task.ready + TIME_EPS),
        );
    }
    starts.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    starts.dedup_by(|a, b| (*a - *b).abs() <= TIME_EPS);
    for &t in starts.iter() {
        if t + duration > task.deadline + TIME_EPS {
            return None;
        }
        let window = TimeInterval::new(t, t + duration);
        if trial.timelines().filter(|c| c.is_idle(window)).count() < k {
            continue;
        }
        let mut taken = 0;
        for core in 0..trial.core_count() {
            if taken < k && trial.timeline(core).is_idle(window) {
                trial.place(core, task.reservation(t, t + duration), placements)?;
                taken += 1;
            }
        }
        return Some(t + duration);
    }
    None
}

/// HEFT upward rank: `rank(t) = cost(t) + max over children c of
/// (volume(t, c) + rank(c))`. Unlike the node-weight-only §12 rank, edge
/// data volumes count as communication cost, exactly as in Topcuoglu et
/// al. (with a single site class, the mean execution cost is the cost
/// itself).
pub fn heft_upward_rank(graph: &TaskGraph) -> Vec<f64> {
    let order = graph.topological_order().expect("task graphs are acyclic");
    let mut rank = Vec::new();
    heft_upward_rank_into(graph, &order, &mut rank);
    rank
}

/// [`heft_upward_rank`] into a caller-owned buffer, given a topological
/// order of the graph.
fn heft_upward_rank_into(graph: &TaskGraph, order: &[TaskId], rank: &mut Vec<f64>) {
    rank.clear();
    rank.resize(graph.task_count(), 0.0);
    for &t in order.iter().rev() {
        let best = graph
            .successor_edges(t)
            .map(|(c, edge)| edge.data_volume + rank[c.0])
            .fold(0.0f64, f64::max);
        rank[t.0] = graph.cost(t) + best;
    }
}

impl SiteScheduler {
    /// The verdict of the §10 test alone: whether
    /// [`Scheduler::satisfiable`] would find placements, without
    /// materialising them (no allocation once this thread's buffers are
    /// warm).
    pub fn can_satisfy(&self, requests: &[TaskRequest]) -> bool {
        with_scratch(|scratch| {
            place_requests(&self.cores, requests, self.preemptive, scratch).is_some()
        })
    }

    /// [`Scheduler::satisfiable`] and [`Scheduler::reserve`] in one step:
    /// commits the placements of the §10 test straight from this thread's
    /// buffers, without materialising them. Returns how many were committed,
    /// or `None` — with nothing committed — if the set is not satisfiable.
    pub fn reserve_satisfiable(&mut self, requests: &[TaskRequest]) -> Option<usize> {
        with_scratch(|scratch| {
            place_requests(&self.cores, requests, self.preemptive, scratch)?;
            self.reserve(&scratch.placed)
                .expect("satisfiable placements are non-overlapping");
            Some(scratch.placed.len())
        })
    }

    /// [`Scheduler::admit_dag`] and [`Scheduler::reserve_dag`] in one step,
    /// committing straight from this thread's buffers: the job's completion
    /// time, or `None` — with nothing committed — if it is not admissible.
    pub fn admit_and_reserve(
        &mut self,
        job: &Job,
        now: f64,
        demands: Option<&[TaskDemand]>,
    ) -> Option<f64> {
        with_scratch(|scratch| {
            let completion = self.place_dag(job, now, demands, scratch)?;
            self.reserve(&scratch.placed)
                .expect("admission placements are compatible by construction");
            self.holds.extend_from_slice(&scratch.holds);
            Some(completion)
        })
    }

    /// [`Scheduler::drain_completed`] handing each drained placement to
    /// `visit` (core-major order) instead of collecting them.
    pub fn drain_completed_with(&mut self, cutoff: f64, mut visit: impl FnMut(Placement)) {
        for (core, plan) in self.cores.iter_mut().enumerate() {
            plan.drain_completed_with(cutoff, |reservation| visit(Placement { core, reservation }));
        }
        self.holds.retain(|h| h.end > cutoff + TIME_EPS);
    }
}

impl Scheduler for SiteScheduler {
    fn kind(&self) -> SchedulerKind {
        self.kind
    }

    fn resources(&self) -> &SiteResources {
        &self.resources
    }

    fn core_plans(&self) -> &[SchedulePlan] {
        &self.cores
    }

    fn admit_dag(
        &self,
        job: &Job,
        now: f64,
        demands: Option<&[TaskDemand]>,
    ) -> Option<DagSchedule> {
        with_scratch(|scratch| {
            let completion = self.place_dag(job, now, demands, scratch)?;
            Some(DagSchedule {
                placements: scratch.placed.clone(),
                holds: scratch.holds.clone(),
                completion,
            })
        })
    }

    fn satisfiable(&self, requests: &[TaskRequest]) -> Option<Vec<Placement>> {
        with_scratch(|scratch| {
            place_requests(&self.cores, requests, self.preemptive, scratch)?;
            Some(scratch.placed.clone())
        })
    }

    fn reserve(&mut self, placements: &[Placement]) -> Result<(), PlanError> {
        for (done, p) in placements.iter().enumerate() {
            let inserted = match self.cores.get_mut(p.core) {
                Some(plan) => plan.insert(p.reservation),
                None => Err(PlanError::Malformed),
            };
            if let Err(e) = inserted {
                // Atomic: take back what this batch has put in, newest first.
                for undone in placements[..done].iter().rev() {
                    self.cores[undone.core].undo_insert(&undone.reservation);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn reserve_dag(&mut self, schedule: &DagSchedule) -> Result<(), PlanError> {
        self.reserve(&schedule.placements)?;
        self.holds.extend_from_slice(&schedule.holds);
        Ok(())
    }

    fn release(&mut self, job: JobId) -> usize {
        let removed = self.cores.iter_mut().map(|p| p.remove_job(job)).sum();
        self.holds.retain(|h| h.job != job);
        removed
    }

    fn surplus(&self, now: f64, window: f64) -> f64 {
        let n = self.cores.len().max(1) as f64;
        self.cores
            .iter()
            .map(|p| p.surplus(now, window))
            .sum::<f64>()
            / n
    }

    fn drain_completed(&mut self, cutoff: f64) -> Vec<Placement> {
        let mut drained = Vec::new();
        self.drain_completed_with(cutoff, |placement| drained.push(placement));
        drained
    }

    fn reservation_count(&self) -> usize {
        self.cores.iter().map(SchedulePlan::len).sum()
    }

    fn busy_cores(&self, t: f64) -> usize {
        self.cores
            .iter()
            .filter(|p| {
                p.reservations()
                    .iter()
                    .any(|r| r.start <= t + TIME_EPS && t < r.end - TIME_EPS)
            })
            .count()
    }

    fn mem_used(&self, t: f64) -> f64 {
        self.holds
            .iter()
            .filter(|h| h.start <= t + TIME_EPS && t < h.end - TIME_EPS)
            .map(|h| h.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::{JobParams, TaskGraph};

    fn job_from(graph: TaskGraph, release: f64, deadline: f64) -> Job {
        Job::new(JobId(1), graph, JobParams::new(release, deadline), 0)
    }

    fn protocol(resources: SiteResources) -> SiteScheduler {
        SiteScheduler::new(SchedulerKind::Protocol, resources, 1.0, false)
    }

    fn chain(costs: &[f64]) -> TaskGraph {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        g
    }

    fn req(task: usize, release: f64, deadline: f64, duration: f64) -> TaskRequest {
        TaskRequest {
            job: JobId(7),
            task: TaskId(task),
            release,
            deadline,
            duration,
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in SchedulerKind::all() {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("nope"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Protocol);
    }

    #[test]
    fn reserve_release_and_queries() {
        let mut sched = SiteScheduler::new(
            SchedulerKind::Protocol,
            SiteResources::multicore(2, 1.0),
            1.0,
            false,
        );
        let requests = vec![req(0, 0.0, 10.0, 6.0), req(1, 0.0, 10.0, 6.0)];
        let placements = sched.satisfiable(&requests).unwrap();
        // Two 6-unit tasks due by 10 cannot share one core; they must land
        // on different cores, both starting at 0.
        let cores: Vec<CoreId> = placements.iter().map(|p| p.core).collect();
        assert_eq!(cores, vec![0, 1]);
        assert!(placements.iter().all(|p| p.reservation.start == 0.0));
        sched.reserve(&placements).unwrap();
        assert_eq!(sched.reservation_count(), 2);
        assert_eq!(sched.busy_cores(3.0), 2);
        assert_eq!(sched.busy_cores(7.0), 0);
        let completions = |s: &SiteScheduler| -> Vec<Option<f64>> {
            let plans = s.core_plans().iter();
            let job_end = |p: &SchedulePlan| {
                let mut ends = p.reservations().iter().filter(|r| r.job == JobId(7));
                ends.next().map(|r| r.end)
            };
            plans.map(job_end).collect()
        };
        assert_eq!(completions(&sched), vec![Some(6.0); 2]);
        // Surplus over [0, 12): each core busy 6 of 12.
        assert!((sched.surplus(0.0, 12.0) - 0.5).abs() < 1e-12);
        // The earliest finish of 2 more units is 8, on core 0.
        let two_units = job_from(TaskGraph::from_costs(&[2.0]), 0.0, 20.0);
        let next = sched.admit_dag(&two_units, 0.0, None).unwrap();
        assert_eq!((next.placements[0].core, next.completion), (0, 8.0));
        assert_eq!(sched.release(JobId(7)), 2);
        assert_eq!(sched.reservation_count(), 0);
        assert_eq!(completions(&sched), vec![None; 2]);
        let next = sched.admit_dag(&two_units, 0.0, None).unwrap();
        assert_eq!((next.placements[0].core, next.completion), (0, 2.0));
    }

    #[test]
    fn multicore_admission_parallelises_independent_tasks() {
        // Two independent 8-unit tasks, deadline 10: impossible on one
        // core, trivial on two.
        let graph = TaskGraph::from_costs(&[8.0, 8.0]);
        let job = job_from(graph, 0.0, 10.0);
        let single = protocol(SiteResources::default());
        assert!(single.admit_dag(&job, 0.0, None).is_none());
        let dual = protocol(SiteResources::multicore(2, 1.0));
        let schedule = dual.admit_dag(&job, 0.0, None).unwrap();
        assert_eq!(schedule.completion, 8.0);
        let cores: std::collections::BTreeSet<CoreId> =
            schedule.placements.iter().map(|p| p.core).collect();
        assert_eq!(cores.len(), 2);
    }

    #[test]
    fn gang_tasks_occupy_cores_simultaneously() {
        let graph = TaskGraph::from_costs(&[8.0]);
        let job = job_from(graph, 0.0, 20.0);
        let demands = vec![TaskDemand {
            cores: 2,
            memory: 0.0,
            speedup: crate::resources::SpeedupFn::Linear,
        }];
        let sched = protocol(SiteResources::multicore(2, 1.0));
        let schedule = sched.admit_dag(&job, 0.0, Some(&demands)).unwrap();
        // Linear speedup on 2 cores: 8 / 2 = 4 units, on both cores.
        assert_eq!(schedule.placements.len(), 2);
        assert!(schedule
            .placements
            .iter()
            .all(|p| p.reservation.start == 0.0 && p.reservation.end == 4.0));
        assert_eq!(schedule.completion, 4.0);
        // A 3-core gang cannot fit on a 2-core site — the demand clamps.
        let wide = vec![TaskDemand {
            cores: 3,
            memory: 0.0,
            speedup: crate::resources::SpeedupFn::Flat,
        }];
        let schedule = sched.admit_dag(&job, 0.0, Some(&wide)).unwrap();
        assert_eq!(schedule.placements.len(), 2);
        assert_eq!(schedule.completion, 8.0);
    }

    #[test]
    fn memory_capacity_rejects_oversubscription() {
        let mut resources = SiteResources::multicore(2, 1.0);
        resources.memory = 3.0;
        let sched = protocol(resources);
        let graph = TaskGraph::from_costs(&[5.0, 5.0]);
        let job = job_from(graph, 0.0, 30.0);
        let fits = vec![
            TaskDemand {
                cores: 1,
                memory: 1.5,
                speedup: crate::resources::SpeedupFn::Flat,
            };
            2
        ];
        let schedule = sched.admit_dag(&job, 0.0, Some(&fits)).unwrap();
        assert_eq!(schedule.holds.len(), 2);
        // Both tasks run concurrently on separate cores holding 2.0 each:
        // 4.0 > 3.0 — rejected even though cores are free.
        let heavy = vec![
            TaskDemand {
                cores: 1,
                memory: 2.0,
                speedup: crate::resources::SpeedupFn::Flat,
            };
            2
        ];
        assert!(sched.admit_dag(&job, 0.0, Some(&heavy)).is_none());
        // Committed holds count against later admissions.
        let mut sched = sched;
        let schedule = sched
            .admit_dag(&job, 0.0, Some(&fits))
            .expect("fits memory");
        sched.reserve_dag(&schedule).unwrap();
        assert!((sched.mem_used(2.0) - 3.0).abs() < 1e-12);
        assert_eq!(sched.mem_used(20.0), 0.0);
        assert_eq!(sched.busy_cores(2.0), 2);
        sched.release(job.id);
        assert_eq!(sched.mem_used(2.0), 0.0);
    }

    #[test]
    fn heft_rank_counts_communication() {
        // a -> b with volume 10, a -> c with volume 0; equal costs. The
        // node-weight rank ties b and c; HEFT must rank through b higher.
        let mut g = TaskGraph::from_costs(&[1.0, 2.0, 2.0]);
        g.add_edge_with_volume(TaskId(0), TaskId(1), 10.0).unwrap();
        g.add_edge_with_volume(TaskId(0), TaskId(2), 0.0).unwrap();
        let rank = heft_upward_rank(&g);
        assert_eq!(rank[1], 2.0);
        assert_eq!(rank[2], 2.0);
        assert_eq!(rank[0], 1.0 + 10.0 + 2.0);
        let plain = rtds_graph::upward_ranks(&g);
        assert_eq!(plain[0], 3.0);
    }

    #[test]
    fn heft_picks_the_eft_optimal_core_on_a_hand_checked_dag() {
        // Two cores, core 0 busy [0, 6), core 1 busy [0, 2). A 3-unit task:
        // EFT on core 0 is 9, on core 1 is 5 — HEFT must pick core 1.
        let mut sched = SiteScheduler::new(
            SchedulerKind::Heft,
            SiteResources::multicore(2, 1.0),
            1.0,
            false,
        );
        sched
            .reserve(&[
                Placement {
                    core: 0,
                    reservation: Reservation {
                        job: JobId(50),
                        task: TaskId(0),
                        start: 0.0,
                        end: 6.0,
                    },
                },
                Placement {
                    core: 1,
                    reservation: Reservation {
                        job: JobId(50),
                        task: TaskId(0),
                        start: 0.0,
                        end: 2.0,
                    },
                },
            ])
            .unwrap();
        let job = job_from(TaskGraph::from_costs(&[3.0]), 0.0, 30.0);
        let schedule = sched.admit_dag(&job, 0.0, None).unwrap();
        assert_eq!(schedule.placements.len(), 1);
        assert_eq!(schedule.placements[0].core, 1);
        assert_eq!(schedule.placements[0].reservation.start, 2.0);
        assert_eq!(schedule.completion, 5.0);
    }

    #[test]
    fn all_kinds_accept_nothing_infeasible() {
        // Total demand exceeds total core-time before the deadline.
        let graph = TaskGraph::from_costs(&[6.0, 6.0, 6.0, 6.0, 6.0]);
        let job = job_from(graph, 0.0, 10.0);
        for kind in SchedulerKind::all() {
            let sched = SiteScheduler::new(kind, SiteResources::multicore(2, 1.0), 1.0, false);
            assert!(sched.admit_dag(&job, 0.0, None).is_none(), "{kind:?}");
        }
    }

    #[test]
    fn admission_results_are_committable_and_respect_precedence() {
        let mut g = chain(&[3.0, 4.0, 2.0]);
        g.add_edge(TaskId(0), TaskId(2)).unwrap();
        let job = job_from(g, 0.0, 30.0);
        for kind in SchedulerKind::all() {
            let mut sched = SiteScheduler::new(kind, SiteResources::multicore(3, 1.0), 1.0, false);
            let schedule = sched.admit_dag(&job, 0.0, None).unwrap();
            sched.reserve_dag(&schedule).unwrap();
            assert!(sched
                .core_plans()
                .iter()
                .all(SchedulePlan::check_invariants));
            // Precedence: every successor starts at or after its
            // predecessor's end.
            let finish_of = |t: usize| {
                schedule
                    .placements
                    .iter()
                    .filter(|p| p.reservation.task == TaskId(t))
                    .map(|p| p.reservation.end)
                    .fold(0.0f64, f64::max)
            };
            let start_of = |t: usize| {
                schedule
                    .placements
                    .iter()
                    .filter(|p| p.reservation.task == TaskId(t))
                    .map(|p| p.reservation.start)
                    .fold(f64::INFINITY, f64::min)
            };
            assert!(start_of(1) + 1e-9 >= finish_of(0), "{kind:?}");
            assert!(
                start_of(2) + 1e-9 >= finish_of(1).max(finish_of(0)),
                "{kind:?}"
            );
            assert!(schedule.completion <= 30.0 + 1e-9, "{kind:?}");
        }
    }

    #[test]
    fn drain_completed_is_core_major_and_prunes_holds() {
        let mut sched = SiteScheduler::new(
            SchedulerKind::Protocol,
            SiteResources::multicore(2, 1.0),
            1.0,
            false,
        );
        let schedule = DagSchedule {
            placements: vec![
                Placement {
                    core: 1,
                    reservation: Reservation {
                        job: JobId(1),
                        task: TaskId(0),
                        start: 0.0,
                        end: 4.0,
                    },
                },
                Placement {
                    core: 0,
                    reservation: Reservation {
                        job: JobId(1),
                        task: TaskId(1),
                        start: 0.0,
                        end: 10.0,
                    },
                },
            ],
            holds: vec![MemHold {
                job: JobId(1),
                start: 0.0,
                end: 4.0,
                bytes: 1.0,
            }],
            completion: 10.0,
        };
        sched.reserve_dag(&schedule).unwrap();
        let drained = sched.drain_completed(5.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].core, 1);
        assert_eq!(sched.reservation_count(), 1);
        assert!(sched.snapshot_parts().2.is_empty());
    }

    #[test]
    fn from_parts_round_trips() {
        let mut sched = SiteScheduler::new(
            SchedulerKind::Heft,
            SiteResources::multicore(2, 1.5),
            2.0,
            true,
        );
        sched
            .reserve(&[Placement {
                core: 1,
                reservation: Reservation {
                    job: JobId(3),
                    task: TaskId(0),
                    start: 1.0,
                    end: 2.0,
                },
            }])
            .unwrap();
        let (base_speed, preemptive, holds) = sched.snapshot_parts();
        let rebuilt = SiteScheduler::from_parts(
            sched.kind(),
            *sched.resources(),
            base_speed,
            preemptive,
            sched.core_plans().to_vec(),
            holds.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, sched);
        assert!((sched.effective_speed() - 3.0).abs() < 1e-12);
        assert!(preemptive);
    }
}
