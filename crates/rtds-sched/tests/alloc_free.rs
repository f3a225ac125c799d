//! Allocation regression fence for the scheduling kernel: on a scheduler
//! whose scratch buffers are warm, a plan query performs no heap allocation
//! at all, a §10 test allocates only the placement list it returns — and
//! nothing when only the verdict is asked or when it commits what it placed
//! in the same step — a §5 admission allocates only
//! the schedule it returns, whatever the size of the plan it is tested
//! against (trial placement never copies a plan) — and nothing beyond plan
//! growth when it commits in the same step, memory holds included — and
//! draining completed reservations into a visitor allocates nothing.

use rtds_graph::{Job, JobId, JobParams, TaskGraph, TaskId};
use rtds_sched::{
    Placement, Reservation, Scheduler, SchedulerKind, SiteResources, SiteScheduler, SpeedupFn,
    TaskDemand, TaskRequest, TimeInterval,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations, so tests running in parallel do
/// not see each other's.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// A scheduler with `reservations` committed 2-unit slots per core, one
/// every 5 units (so `[5i + 2, 5i + 5)` is idle on every core).
fn busy_scheduler(
    kind: SchedulerKind,
    cores: usize,
    preemptive: bool,
    reservations: usize,
) -> SiteScheduler {
    let mut sched = SiteScheduler::new(kind, SiteResources::multicore(cores, 1.0), 1.0, preemptive);
    let placements: Vec<Placement> = (0..cores)
        .flat_map(|core| {
            (0..reservations).map(move |i| Placement {
                core,
                reservation: Reservation {
                    job: JobId(1_000 + i as u64),
                    task: TaskId(core),
                    start: 5.0 * i as f64,
                    end: 5.0 * i as f64 + 2.0,
                },
            })
        })
        .collect();
    sched.reserve(&placements).expect("disjoint slots");
    sched
}

fn request(task: usize, release: f64, deadline: f64, duration: f64) -> TaskRequest {
    TaskRequest {
        job: JobId(7),
        task: TaskId(task),
        release,
        deadline,
        duration,
    }
}

/// Every scheduler shape the protocol runs: the paper's single plan, the
/// multicore path, and both with preemption.
fn shapes() -> Vec<(SchedulerKind, usize, bool)> {
    let mut shapes = Vec::new();
    for kind in SchedulerKind::all() {
        for cores in [1, 3] {
            for preemptive in [false, true] {
                shapes.push((kind, cores, preemptive));
            }
        }
    }
    shapes
}

#[test]
fn plan_queries_do_not_allocate() {
    for (kind, cores, preemptive) in shapes() {
        let sched = busy_scheduler(kind, cores, preemptive, 200);
        let what = format!("{kind:?}, {cores} cores, preemptive {preemptive}");
        // A 3-unit fit must walk past the first busy slot; a 4-unit one
        // finds no gap before the deadline and walks them all.
        let plans = sched.core_plans();
        let (fit, n) = allocations_of(|| plans[0].earliest_fit(1.0, 2_000.0, 3.0));
        assert_eq!(fit, Some(2.0), "{what}");
        assert_eq!(n, 0, "earliest_fit, {what}");
        let (fits, n) = allocations_of(|| {
            let fits = plans.iter().filter_map(|p| p.earliest_fit(1.0, 900.0, 4.0));
            fits.count()
        });
        assert_eq!(fits, 0, "{what}");
        assert_eq!(n, 0, "earliest_fit without a fit, {what}");
        let (surplus, n) = allocations_of(|| sched.surplus(101.0, 500.0));
        assert!((surplus - 0.6).abs() < 1e-12, "{what}: {surplus}");
        assert_eq!(n, 0, "surplus, {what}");
        let plan = &sched.core_plans()[cores - 1];
        let (idle, n) = allocations_of(|| {
            (
                plan.is_idle(TimeInterval::new(502.0, 505.0)),
                plan.is_idle(TimeInterval::new(501.0, 503.0)),
                plan.busy_time(0.0, 500.0),
                plan.earliest_fit(1.0, 2_000.0, 3.0),
            )
        });
        assert_eq!(idle, (true, false, 200.0, Some(2.0)), "{what}");
        assert_eq!(n, 0, "plan queries, {what}");
    }
}

#[test]
fn satisfiable_allocates_only_what_it_returns() {
    for (kind, cores, preemptive) in shapes() {
        let sched = busy_scheduler(kind, cores, preemptive, 200);
        let what = format!("{kind:?}, {cores} cores, preemptive {preemptive}");
        // Three 3-unit tasks fit the idle slots; a fourth that needs 4
        // contiguous units (or, preemptively, 7 units inside a window that
        // holds 6 idle ones) sinks the set after the others were placed.
        let fitting = [
            request(0, 11.0, 60.0, 3.0),
            request(1, 11.0, 70.0, 3.0),
            request(2, 30.0, 90.0, 3.0),
        ];
        let sinking = if preemptive {
            request(3, 100.0, 110.0, 7.0)
        } else {
            request(3, 100.0, 200.0, 4.0)
        };
        let rejected = [fitting[0], fitting[1], fitting[2], sinking];
        // Warm the per-thread scratch once; from then on it is reused.
        assert!(sched.satisfiable(&fitting).is_some(), "{what}");
        assert!(sched.satisfiable(&rejected).is_none(), "{what}");

        let (placed, n) = allocations_of(|| sched.satisfiable(&fitting));
        assert_eq!(placed.map(|p| p.len()), Some(3), "{what}");
        assert_eq!(n, 1, "accepting satisfiable, {what}");
        let (placed, n) = allocations_of(|| sched.satisfiable(&rejected));
        assert!(placed.is_none(), "{what}");
        assert_eq!(n, 0, "rejecting satisfiable, {what}");
        let (placed, n) = allocations_of(|| sched.satisfiable(&[]));
        assert_eq!(placed, Some(Vec::new()), "{what}");
        assert_eq!(n, 0, "empty satisfiable, {what}");

        // The verdict alone costs nothing, whichever way it goes.
        let (verdicts, n) =
            allocations_of(|| (sched.can_satisfy(&fitting), sched.can_satisfy(&rejected)));
        assert_eq!(verdicts, (true, false), "{what}");
        assert_eq!(n, 0, "verdict-only §10 test, {what}");

        // Committing in the same step writes into the plans and nowhere
        // else: once they have held the reservations, nothing is allocated.
        let mut sched = sched;
        let job = fitting[0].job;
        assert_eq!(sched.reserve_satisfiable(&fitting), Some(3), "{what}");
        assert_eq!(sched.release(job), 3, "{what}");
        let before = sched.clone();
        let (committed, n) = allocations_of(|| {
            let rejected = sched.reserve_satisfiable(&rejected);
            (rejected, sched.reserve_satisfiable(&fitting))
        });
        assert_eq!(committed, (None, Some(3)), "{what}");
        assert_eq!(n, 0, "committing §10 test, {what}");
        assert_eq!(sched.release(job), 3, "{what}");
        assert_eq!(sched, before, "{what}");
    }
}

#[test]
fn visiting_drain_allocates_nothing() {
    for (kind, cores, preemptive) in shapes() {
        let mut sched = busy_scheduler(kind, cores, preemptive, 200);
        let what = format!("{kind:?}, {cores} cores, preemptive {preemptive}");
        let mut expected = sched.clone();
        let collected = expected.drain_completed(500.0);
        let ((drained, latest), n) = allocations_of(|| {
            let (mut drained, mut latest) = (0, f64::NEG_INFINITY);
            sched.drain_completed_with(500.0, |p| {
                drained += 1;
                latest = p.reservation.end.max(latest);
            });
            (drained, latest)
        });
        assert_eq!((drained, latest), (collected.len(), 497.0), "{what}");
        assert_eq!(drained, 100 * cores, "{what}");
        assert_eq!(n, 0, "visiting drain, {what}");
        assert_eq!(sched, expected, "{what}");
    }
}

#[test]
fn admission_and_commit_cost_do_not_grow_with_the_plan() {
    // A diamond with a tail: five tasks, 2 units each.
    let mut graph = TaskGraph::from_costs(&[2.0; 5]);
    for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
        graph.add_edge(TaskId(from), TaskId(to)).unwrap();
    }
    let job = Job::new(JobId(7), graph, JobParams::new(0.0, 10_000.0), 0);
    for (kind, cores, preemptive) in shapes() {
        let what = format!("{kind:?}, {cores} cores, preemptive {preemptive}");
        let mut costs = Vec::new();
        for reservations in [4, 1_500] {
            let mut sched = busy_scheduler(kind, cores, preemptive, reservations);
            // Leave room so that committing below does not regrow a plan.
            let warm = sched.admit_dag(&job, 1.0, None).expect("fits");
            sched.reserve_dag(&warm).expect("committable");
            assert_eq!(sched.release(job.id), warm.placements.len(), "{what}");

            let (admitted, admit) = allocations_of(|| sched.admit_dag(&job, 1.0, None));
            let admitted = admitted.expect("fits");
            assert_eq!(admitted, warm, "{what}");
            let (committed, commit) = allocations_of(|| sched.reserve_dag(&admitted));
            assert_eq!(committed, Ok(()), "{what}");
            assert_eq!(
                commit, 0,
                "reserve_dag with {reservations} reservations, {what}"
            );
            costs.push(admit);
        }
        // Only the returned schedule: its placement list (no memory holds
        // without demands).
        assert_eq!(costs, [1, 1], "admit_dag allocations by plan size, {what}");
        // A rejected admission returns nothing and allocates nothing.
        let sched = busy_scheduler(kind, cores, preemptive, 4);
        let tight = Job::new(JobId(8), job.graph.clone(), JobParams::new(0.0, 6.0), 0);
        let (rejected, n) = allocations_of(|| sched.admit_dag(&tight, 1.0, None));
        assert!(rejected.is_none(), "{what}");
        assert_eq!(n, 0, "rejecting admit_dag, {what}");
    }
}

#[test]
fn admit_and_reserve_commits_a_multicore_job_in_place() {
    // The diamond with a tail again, its tasks one and two cores wide
    // (Amdahl), each holding memory while it runs: a four-unit budget that
    // fits two residencies at a time, never three.
    let mut graph = TaskGraph::from_costs(&[2.0; 5]);
    for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
        graph.add_edge(TaskId(from), TaskId(to)).unwrap();
    }
    let job = Job::new(JobId(7), graph, JobParams::new(0.0, 10_000.0), 0);
    let demands: Vec<TaskDemand> = (0..5)
        .map(|t| TaskDemand {
            cores: 1 + t % 2,
            memory: 1.5,
            speedup: SpeedupFn::Amdahl {
                parallel_fraction: 0.8,
            },
        })
        .collect();
    let tight = Job::new(JobId(8), job.graph.clone(), JobParams::new(0.0, 6.0), 0);
    for kind in SchedulerKind::all() {
        for preemptive in [false, true] {
            let what = format!("{kind:?}, preemptive {preemptive}");
            let mut sched = busy_scheduler(kind, 3, preemptive, 200);
            let resources = SiteResources {
                memory: 4.0,
                ..*sched.resources()
            };
            let plans = sched.core_plans().to_vec();
            // `busy_scheduler` builds every site at base speed 1.
            sched = SiteScheduler::from_parts(kind, resources, 1.0, preemptive, plans, Vec::new())
                .expect("valid parts");
            let schedule = sched.admit_dag(&job, 1.0, Some(&demands)).expect("fits");
            assert_eq!(schedule.holds.len(), 5, "{what}");
            // Warm the thread's buffers and the plans' capacity once.
            let completion = sched.admit_and_reserve(&job, 1.0, Some(&demands));
            assert_eq!(completion, Some(schedule.completion), "{what}");
            sched.release(job.id);
            let before = sched.clone();

            let (completion, n) =
                allocations_of(|| sched.admit_and_reserve(&job, 1.0, Some(&demands)));
            assert_eq!(completion, Some(schedule.completion), "{what}");
            assert_eq!(n, 0, "admit_and_reserve with memory demands, {what}");
            // What it committed is exactly what `reserve_dag` would have.
            let mut expected = before.clone();
            expected.reserve_dag(&schedule).expect("committable");
            assert_eq!(sched, expected, "{what}");
            // A job that does not fit commits nothing and allocates nothing.
            sched.release(job.id);
            let (rejected, n) =
                allocations_of(|| sched.admit_and_reserve(&tight, 1.0, Some(&demands)));
            assert_eq!(
                (rejected, n),
                (None, 0),
                "rejecting admit_and_reserve, {what}"
            );
            assert_eq!(sched, before, "{what}");
        }
    }
}
