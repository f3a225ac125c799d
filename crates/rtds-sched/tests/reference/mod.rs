//! The scheduler as it was before the lazy gap walk and the copy-free trial
//! placement, kept verbatim as the oracle of `proptest_sched.rs`:
//!
//! * [`RefPlan`] answers every plan query by scanning all reservations and
//!   materialising idle windows with [`subtract_busy`],
//! * trial placement clones the plans and inserts into the clones,
//! * the single-plan §5/§10 rules ([`admit_single`], [`satisfiable_single`])
//!   and the multicore ones ([`admit_multi`], [`satisfiable_multi`]) are
//!   separate code, selected by [`admit_dag`] / [`satisfiable`] exactly as
//!   `SiteScheduler` used to fork.
//!
//! Nothing here is fast, and nothing here may share code with the library's
//! placement paths — that independence is what makes equality meaningful.

use rtds_graph::{upward_ranks, Job, JobId, TaskGraph, TaskId};
use rtds_sched::admission::priority_order;
use rtds_sched::interval::subtract_busy;
use rtds_sched::{
    heft_upward_rank, CoreId, DagSchedule, MemHold, Placement, PlanError, Reservation,
    SchedulePlan, SchedulerKind, SiteResources, TaskDemand, TaskRequest, TimeInterval,
};

const TIME_EPS: f64 = 1e-9;

/// A plan with the pre-rewrite query implementations.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefPlan {
    reservations: Vec<Reservation>,
}

impl RefPlan {
    pub(crate) fn of(plan: &SchedulePlan) -> Self {
        RefPlan {
            reservations: plan.reservations().to_vec(),
        }
    }

    pub(crate) fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    pub(crate) fn is_idle(&self, interval: TimeInterval) -> bool {
        if interval.is_empty() {
            return true;
        }
        !self
            .reservations
            .iter()
            .any(|r| r.interval().overlaps(&interval))
    }

    pub(crate) fn idle_windows(&self, from: f64, to: f64) -> Vec<TimeInterval> {
        let busy: Vec<TimeInterval> = self.reservations.iter().map(|r| r.interval()).collect();
        subtract_busy(TimeInterval::new(from, to), &busy)
    }

    pub(crate) fn busy_time(&self, from: f64, to: f64) -> f64 {
        let window = TimeInterval::new(from, to);
        self.reservations
            .iter()
            .map(|r| r.interval().intersect(&window).duration())
            .sum()
    }

    pub(crate) fn earliest_fit(&self, earliest: f64, deadline: f64, duration: f64) -> Option<f64> {
        if duration < 0.0 || earliest + duration > deadline + TIME_EPS {
            return None;
        }
        if duration == 0.0 {
            return Some(earliest);
        }
        for window in self.idle_windows(earliest, deadline) {
            let start = window.start.max(earliest);
            if start + duration <= window.end + TIME_EPS && start + duration <= deadline + TIME_EPS
            {
                return Some(start);
            }
        }
        None
    }

    pub(crate) fn earliest_fit_preemptive(
        &self,
        earliest: f64,
        deadline: f64,
        duration: f64,
    ) -> Option<Vec<TimeInterval>> {
        if duration < 0.0 {
            return None;
        }
        if duration == 0.0 {
            return Some(Vec::new());
        }
        let mut remaining = duration;
        let mut chunks = Vec::new();
        for window in self.idle_windows(earliest, deadline) {
            if remaining <= TIME_EPS {
                break;
            }
            let usable = window.duration().min(remaining);
            if usable > TIME_EPS {
                chunks.push(TimeInterval::new(window.start, window.start + usable));
                remaining -= usable;
            }
        }
        if remaining <= TIME_EPS {
            Some(chunks)
        } else {
            None
        }
    }

    pub(crate) fn insert(&mut self, reservation: Reservation) -> Result<(), PlanError> {
        if !(reservation.start.is_finite() && reservation.end.is_finite())
            || reservation.end < reservation.start - TIME_EPS
        {
            return Err(PlanError::Malformed);
        }
        if !self.is_idle(reservation.interval()) {
            return Err(PlanError::Overlap);
        }
        let pos = self
            .reservations
            .partition_point(|r| r.start <= reservation.start);
        self.reservations.insert(pos, reservation);
        Ok(())
    }
}

fn edf_order(requests: &[TaskRequest]) -> Vec<&TaskRequest> {
    let mut ordered: Vec<&TaskRequest> = requests.iter().collect();
    ordered.sort_by(|a, b| {
        a.deadline
            .partial_cmp(&b.deadline)
            .unwrap()
            .then(a.release.partial_cmp(&b.release).unwrap())
            .then(a.task.0.cmp(&b.task.0))
            .then(a.job.0.cmp(&b.job.0))
    });
    ordered
}

/// The old single-plan §10 test.
pub(crate) fn satisfiable_single(
    plan: &RefPlan,
    requests: &[TaskRequest],
    preemptive: bool,
) -> Option<Vec<Reservation>> {
    if requests.iter().any(|r| !r.is_well_formed()) {
        return None;
    }
    let mut scratch = plan.clone();
    let mut added = Vec::new();
    for req in edf_order(requests) {
        if preemptive {
            let chunks =
                scratch.earliest_fit_preemptive(req.release, req.deadline, req.duration)?;
            for chunk in chunks {
                let r = Reservation {
                    job: req.job,
                    task: req.task,
                    start: chunk.start,
                    end: chunk.end,
                };
                scratch.insert(r).ok()?;
                added.push(r);
            }
        } else {
            let start = scratch.earliest_fit(req.release, req.deadline, req.duration)?;
            let r = Reservation {
                job: req.job,
                task: req.task,
                start,
                end: start + req.duration,
            };
            scratch.insert(r).ok()?;
            added.push(r);
        }
    }
    Some(added)
}

/// The old single-plan §5 admission: `(reservations, completion)`.
pub(crate) fn admit_single(
    plan: &RefPlan,
    job: &Job,
    now: f64,
    speed: f64,
    preemptive: bool,
) -> Option<(Vec<Reservation>, f64)> {
    let graph = &job.graph;
    if graph.task_count() == 0 {
        return Some((Vec::new(), now.max(job.release())));
    }
    let deadline = job.deadline();
    let start_floor = now.max(job.release());
    let order = priority_order(graph, &upward_ranks(graph));
    let mut scratch = plan.clone();
    let mut finish = vec![0.0f64; graph.task_count()];
    let mut reservations = Vec::new();
    for t in order {
        let duration = graph.cost(t) / speed;
        let ready = graph
            .predecessors(t)
            .map(|p| finish[p.0])
            .fold(start_floor, f64::max);
        if preemptive {
            let chunks = scratch.earliest_fit_preemptive(ready, deadline, duration)?;
            let mut end = ready;
            for chunk in &chunks {
                let r = Reservation {
                    job: job.id,
                    task: t,
                    start: chunk.start,
                    end: chunk.end,
                };
                scratch.insert(r).ok()?;
                reservations.push(r);
                end = end.max(chunk.end);
            }
            finish[t.0] = end;
        } else {
            let start = scratch.earliest_fit(ready, deadline, duration)?;
            let r = Reservation {
                job: job.id,
                task: t,
                start,
                end: start + duration,
            };
            scratch.insert(r).ok()?;
            reservations.push(r);
            finish[t.0] = start + duration;
        }
        if finish[t.0] > deadline + 1e-9 {
            return None;
        }
    }
    let completion = finish.iter().copied().fold(start_floor, f64::max);
    Some((reservations, completion))
}

/// The old `SiteScheduler`, reduced to the state its queries read.
#[derive(Debug, Clone)]
pub(crate) struct RefSite {
    pub kind: SchedulerKind,
    pub resources: SiteResources,
    pub base_speed: f64,
    pub preemptive: bool,
    pub cores: Vec<RefPlan>,
    pub holds: Vec<MemHold>,
}

fn on_core_zero(reservations: Vec<Reservation>) -> Vec<Placement> {
    reservations
        .into_iter()
        .map(|reservation| Placement {
            core: 0,
            reservation,
        })
        .collect()
}

impl RefSite {
    fn best_single_fit(
        cores: &[RefPlan],
        ready: f64,
        deadline: f64,
        duration: f64,
    ) -> Option<(CoreId, f64, f64)> {
        let mut best: Option<(CoreId, f64, f64)> = None;
        for (c, plan) in cores.iter().enumerate() {
            if let Some(start) = plan.earliest_fit(ready, deadline, duration) {
                let finish = start + duration;
                if best.map_or(true, |(_, s, _)| start < s - TIME_EPS) {
                    best = Some((c, start, finish));
                }
            }
        }
        best
    }

    fn earliest_gang_fit(
        cores: &[RefPlan],
        ready: f64,
        deadline: f64,
        duration: f64,
        k: usize,
    ) -> Option<(Vec<CoreId>, f64)> {
        if k > cores.len() || duration < 0.0 {
            return None;
        }
        let mut candidates: Vec<f64> = vec![ready];
        for plan in cores {
            for r in plan.reservations() {
                if r.end > ready + TIME_EPS {
                    candidates.push(r.end);
                }
            }
        }
        candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        candidates.dedup_by(|a, b| (*a - *b).abs() <= TIME_EPS);
        for &t in &candidates {
            if t + duration > deadline + TIME_EPS {
                return None;
            }
            let window = TimeInterval::new(t, t + duration);
            let idle: Vec<CoreId> = cores
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_idle(window))
                .map(|(c, _)| c)
                .collect();
            if idle.len() >= k {
                return Some((idle.into_iter().take(k).collect(), t));
            }
        }
        None
    }

    fn rank(&self, graph: &TaskGraph) -> Vec<f64> {
        match self.kind {
            SchedulerKind::Protocol => upward_ranks(graph),
            SchedulerKind::Heft => heft_upward_rank(graph),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn place_single(
        &self,
        scratch: &mut [RefPlan],
        job: JobId,
        t: TaskId,
        ready: f64,
        deadline: f64,
        duration: f64,
        out: &mut Vec<Placement>,
    ) -> Option<f64> {
        if self.preemptive {
            let mut best: Option<(CoreId, Vec<TimeInterval>, f64)> = None;
            for (c, plan) in scratch.iter().enumerate() {
                if let Some(chunks) = plan.earliest_fit_preemptive(ready, deadline, duration) {
                    let end = chunks.last().map_or(ready, |ch| ch.end);
                    if best.as_ref().map_or(true, |(_, _, e)| end < *e - TIME_EPS) {
                        best = Some((c, chunks, end));
                    }
                }
            }
            let (core, chunks, end) = best?;
            for chunk in &chunks {
                let r = Reservation {
                    job,
                    task: t,
                    start: chunk.start,
                    end: chunk.end,
                };
                scratch[core].insert(r).ok()?;
                out.push(Placement {
                    core,
                    reservation: r,
                });
            }
            return Some(end.max(ready));
        }
        let core = Self::best_single_fit(scratch, ready, deadline, duration)?.0;
        let start = scratch[core].earliest_fit(ready, deadline, duration)?;
        let r = Reservation {
            job,
            task: t,
            start,
            end: start + duration,
        };
        scratch[core].insert(r).ok()?;
        out.push(Placement {
            core,
            reservation: r,
        });
        Some(start + duration)
    }

    fn memory_fits(&self, new_holds: &[MemHold]) -> bool {
        if self.resources.memory.is_infinite() || new_holds.is_empty() {
            return true;
        }
        let mut events: Vec<(f64, f64)> = Vec::new();
        for h in self.holds.iter().chain(new_holds) {
            if h.bytes > 0.0 && h.end > h.start {
                events.push((h.start, h.bytes));
                events.push((h.end, -h.bytes));
            }
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(a.1.partial_cmp(&b.1).unwrap())
        });
        let mut used = 0.0;
        for (_, delta) in events {
            used += delta;
            if used > self.resources.memory + TIME_EPS {
                return false;
            }
        }
        true
    }

    /// The old `SiteScheduler::admit_dag`, fast path included.
    pub(crate) fn admit_dag(
        &self,
        job: &Job,
        now: f64,
        demands: Option<&[TaskDemand]>,
    ) -> Option<DagSchedule> {
        if self.kind == SchedulerKind::Protocol && self.cores.len() == 1 && demands.is_none() {
            let speed = self.base_speed * self.resources.speed;
            let (reservations, completion) =
                admit_single(&self.cores[0], job, now, speed, self.preemptive)?;
            return Some(DagSchedule {
                placements: on_core_zero(reservations),
                holds: Vec::new(),
                completion,
            });
        }
        self.admit_multi(job, now, demands)
    }

    /// The old general (multicore) admission path.
    pub(crate) fn admit_multi(
        &self,
        job: &Job,
        now: f64,
        demands: Option<&[TaskDemand]>,
    ) -> Option<DagSchedule> {
        let graph = &job.graph;
        let start_floor = now.max(job.release());
        if graph.task_count() == 0 {
            return Some(DagSchedule {
                placements: Vec::new(),
                holds: Vec::new(),
                completion: start_floor,
            });
        }
        let deadline = job.deadline();
        let default_demand = TaskDemand::default();
        let demand_of = |t: TaskId| demands.map_or(default_demand, |d| d[t.0]);
        let durations: Vec<f64> = graph
            .task_ids()
            .map(|t| demand_of(t).duration(graph.cost(t), self.base_speed, &self.resources))
            .collect();
        let order = priority_order(graph, &self.rank(graph));

        let mut scratch = self.cores.clone();
        let mut finish = vec![0.0f64; graph.task_count()];
        let mut placements = Vec::new();
        let mut holds = Vec::new();
        for t in order {
            let demand = demand_of(t);
            let k = demand.granted_cores(&self.resources);
            let duration = durations[t.0];
            let ready = graph
                .predecessors(t)
                .map(|p| finish[p.0])
                .fold(start_floor, f64::max);
            let end = if k > 1 {
                let (gang, start) =
                    Self::earliest_gang_fit(&scratch, ready, deadline, duration, k)?;
                for &core in &gang {
                    let r = Reservation {
                        job: job.id,
                        task: t,
                        start,
                        end: start + duration,
                    };
                    scratch[core].insert(r).ok()?;
                    placements.push(Placement {
                        core,
                        reservation: r,
                    });
                }
                start + duration
            } else {
                self.place_single(
                    &mut scratch,
                    job.id,
                    t,
                    ready,
                    deadline,
                    duration,
                    &mut placements,
                )?
            };
            if end > deadline + TIME_EPS {
                return None;
            }
            finish[t.0] = end;
            if demand.memory > 0.0 {
                let start = placements
                    .iter()
                    .rev()
                    .take_while(|p| p.reservation.task == t)
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
        if !self.memory_fits(&holds) {
            return None;
        }
        let completion = finish.iter().copied().fold(start_floor, f64::max);
        Some(DagSchedule {
            placements,
            holds,
            completion,
        })
    }

    /// The old `SiteScheduler::satisfiable`, fast path included.
    pub(crate) fn satisfiable(&self, requests: &[TaskRequest]) -> Option<Vec<Placement>> {
        if self.cores.len() == 1 {
            return satisfiable_single(&self.cores[0], requests, self.preemptive).map(on_core_zero);
        }
        self.satisfiable_multi(requests)
    }

    /// The old general (multicore) §10 path.
    pub(crate) fn satisfiable_multi(&self, requests: &[TaskRequest]) -> Option<Vec<Placement>> {
        if requests.iter().any(|r| !r.is_well_formed()) {
            return None;
        }
        let mut scratch = self.cores.clone();
        let mut placed = Vec::new();
        for req in edf_order(requests) {
            if self.preemptive {
                let mut best: Option<(CoreId, Vec<TimeInterval>, f64)> = None;
                for (c, plan) in scratch.iter().enumerate() {
                    if let Some(chunks) =
                        plan.earliest_fit_preemptive(req.release, req.deadline, req.duration)
                    {
                        let end = chunks.last().map_or(req.release, |ch| ch.end);
                        if best.as_ref().map_or(true, |(_, _, e)| end < *e - TIME_EPS) {
                            best = Some((c, chunks, end));
                        }
                    }
                }
                let (core, chunks, _) = best?;
                for chunk in chunks {
                    let r = Reservation {
                        job: req.job,
                        task: req.task,
                        start: chunk.start,
                        end: chunk.end,
                    };
                    scratch[core].insert(r).ok()?;
                    placed.push(Placement {
                        core,
                        reservation: r,
                    });
                }
            } else {
                let (core, start, _) =
                    Self::best_single_fit(&scratch, req.release, req.deadline, req.duration)?;
                let r = Reservation {
                    job: req.job,
                    task: req.task,
                    start,
                    end: start + req.duration,
                };
                scratch[core].insert(r).ok()?;
                placed.push(Placement {
                    core,
                    reservation: r,
                });
            }
        }
        Some(placed)
    }

    /// The old `SiteScheduler::reserve`: backup, insert one by one, restore
    /// on the first failure.
    pub(crate) fn reserve(&mut self, placements: &[Placement]) -> Result<(), PlanError> {
        let backup = self.cores.clone();
        for p in placements {
            if p.core >= self.cores.len() {
                self.cores = backup;
                return Err(PlanError::Malformed);
            }
            if let Err(e) = self.cores[p.core].insert(p.reservation) {
                self.cores = backup;
                return Err(e);
            }
        }
        Ok(())
    }
}

/// Exact brute-force feasibility oracle for *non-preemptive, single-core*
/// request sets on a multicore plan: tries every assignment of requests to
/// cores and every per-core placement order, placing greedily at the
/// earliest fit (for a fixed order, greedy earliest-fit placement is
/// complete, by the standard left-shift exchange argument). Exponential.
pub(crate) fn brute_force_satisfiable(cores: &[SchedulePlan], requests: &[TaskRequest]) -> bool {
    if requests.iter().any(|r| !r.is_well_formed()) {
        return false;
    }
    fn core_feasible(plan: &SchedulePlan, subset: &[&TaskRequest]) -> bool {
        fn place(plan: &SchedulePlan, remaining: &mut Vec<&TaskRequest>) -> bool {
            if remaining.is_empty() {
                return true;
            }
            for i in 0..remaining.len() {
                let req = remaining[i];
                if let Some(start) = plan.earliest_fit(req.release, req.deadline, req.duration) {
                    let mut next = plan.clone();
                    let inserted = next.insert(Reservation {
                        job: req.job,
                        task: req.task,
                        start,
                        end: start + req.duration,
                    });
                    if inserted.is_ok() {
                        remaining.swap_remove(i);
                        if place(&next, remaining) {
                            return true;
                        }
                        remaining.push(req);
                        let last = remaining.len() - 1;
                        remaining.swap(i, last);
                    }
                }
            }
            false
        }
        let mut remaining: Vec<&TaskRequest> = subset.to_vec();
        place(plan, &mut remaining)
    }
    fn assign(
        cores: &[SchedulePlan],
        requests: &[TaskRequest],
        sets: &mut Vec<Vec<usize>>,
    ) -> bool {
        let next = sets.iter().map(Vec::len).sum::<usize>();
        if next == requests.len() {
            return sets.iter().enumerate().all(|(c, set)| {
                let subset: Vec<&TaskRequest> = set.iter().map(|&i| &requests[i]).collect();
                core_feasible(&cores[c], &subset)
            });
        }
        for c in 0..cores.len() {
            sets[c].push(next);
            if assign(cores, requests, sets) {
                sets[c].pop();
                return true;
            }
            sets[c].pop();
        }
        false
    }
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); cores.len()];
    assign(cores, requests, &mut sets)
}
