//! Allocation regression fences for the distribution chain (§8–§12) on a
//! warmed 3×3 grid: a job is paid for once. What may allocate is what a
//! distribution *keeps* — the in-flight record, the shared `T_i`, the
//! replies — so the count is linear in the ACS
//! members and does not depend on the job's task count; a member answering a
//! Trial-Mapping allocates its reply and nothing else; a local acceptance on
//! multicore sites with wide, memory-holding tasks allocates nothing; a
//! harvest visit that finds nothing to drain allocates nothing.

use rtds_core::{DemandRule, NodeBuilder, RtdsConfig, RtdsMsg, RtdsNode, TaskSpec};
use rtds_graph::{Job, JobId, JobParams, TaskGraph, TaskId};
use rtds_net::generators::{grid, DelayDistribution};
use rtds_net::SiteId;
use rtds_sched::{SchedulerKind, SiteResources};
use rtds_sim::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

const CENTRE: SiteId = SiteId(4);

/// A 3×3 unit-delay grid of default nodes (sphere radius 2: the centre's
/// sphere is the whole grid), run past the §7 construction.
fn grid_3x3() -> Simulator<RtdsNode> {
    let network = grid(3, 3, false, DelayDistribution::Constant(1.0), 1);
    let topology = network.clone();
    let mut sim = Simulator::new(network, |site| {
        NodeBuilder::new(site)
            .neighbors(topology.neighbors(site).to_vec())
            .build()
    });
    sim.run_until(50.0);
    sim
}

/// `tasks` independent tasks of total cost 60 due 40 after their arrival at
/// the centre: too much for one site, easy for nine.
fn wide_job(id: u64, tasks: usize, arrival: f64) -> Job {
    let graph = TaskGraph::from_costs(&vec![60.0 / tasks as f64; tasks]);
    let params = JobParams::new(arrival, arrival + 40.0);
    Job::new(JobId(id), graph, params, CENTRE.0)
}

/// Distributes one job from the centre and returns what the whole
/// distribution — arrival to the last commit — allocated, with the number
/// of ACS members and of tasks committed.
fn distribute(sim: &mut Simulator<RtdsNode>, job: Job) -> (u64, u64, u64) {
    let arrival = job.arrival_time;
    let stat = |sim: &Simulator<RtdsNode>, name| sim.stats().named(name);
    let before = (
        stat(sim, "acs_members"),
        stat(sim, "tasks_committed"),
        stat(sim, "accepted_distributed"),
    );
    sim.inject_at(arrival, CENTRE, RtdsMsg::JobArrival { job });
    let ((), allocations) = allocations_of(|| {
        sim.run_until(arrival + 30.0);
    });
    assert_eq!(
        stat(sim, "accepted_distributed"),
        before.2 + 1,
        "the job must be distributed"
    );
    (
        allocations,
        stat(sim, "acs_members") - before.0,
        stat(sim, "tasks_committed") - before.1,
    )
}

/// What a harvest pass does at every site it visits: absorb the acceptance
/// records, drain the reservations completed by `cutoff`, ask to look again
/// while something is committed. Returns the sites visited, the records
/// absorbed and the reservations drained.
fn harvest(
    sim: &mut Simulator<RtdsNode>,
    cutoff: f64,
    visit: &mut Vec<SiteId>,
) -> (usize, usize, usize) {
    let (mut accepted, mut drained) = (0, 0);
    visit.clear();
    sim.take_touched(visit);
    for &site in visit.iter() {
        let node = sim.node_mut(site);
        accepted += node.accepted.drain(..).count();
        node.drain_completed_with(cutoff, |_| drained += 1);
        if !node.plan_is_empty() {
            sim.touch(site);
        }
    }
    (visit.len(), accepted, drained)
}

#[test]
fn a_distribution_allocates_what_it_keeps_whatever_the_task_count() {
    let mut sim = grid_3x3();
    let mut visit = Vec::new();
    // Warm every buffer (thread workspaces, plans, statistics) on the
    // larger job, twice.
    for (i, arrival) in [100.0, 200.0].into_iter().enumerate() {
        distribute(&mut sim, wide_job(i as u64, 36, arrival));
        harvest(&mut sim, arrival + 50.0, &mut visit);
    }
    let mut counts = Vec::new();
    for (i, tasks) in [6, 36, 6, 36].into_iter().enumerate() {
        let arrival = 300.0 + 100.0 * i as f64;
        let (allocations, members, committed) =
            distribute(&mut sim, wide_job(10 + i as u64, tasks, arrival));
        harvest(&mut sim, arrival + 50.0, &mut visit);
        assert_eq!(members, 9, "everybody joins");
        assert_eq!(committed, tasks as u64);
        // The in-flight record and its round (a constant), then per member
        // a reply and a `T_i` at most; commits go straight into the plans.
        assert!(
            allocations <= 14 + 2 * members,
            "{tasks} tasks over {members} members: {allocations} allocations"
        );
        counts.push(allocations);
    }
    // Six times the tasks, not one allocation more than the wider mapping
    // (more logical processors, so more `T_i`) accounts for.
    assert!(
        counts[1] <= counts[0] + 9 && counts[3] <= counts[2] + 9,
        "allocations by task count: {counts:?}"
    );
}

#[test]
fn a_member_answers_a_trial_mapping_with_one_allocation() {
    let mut sim = grid_3x3();
    let spec = |task, cost| TaskSpec {
        task: TaskId(task),
        release: 100.0,
        deadline: 160.0,
        cost,
    };
    let mapping = |job| RtdsMsg::TrialMapping {
        job: JobId(job),
        tasks_per_logical: vec![
            vec![spec(0, 5.0), spec(1, 5.0), spec(2, 5.0)].into(),
            // Cannot fit its window: not endorsable.
            vec![spec(3, 100.0)].into(),
            vec![spec(4, 20.0)].into(),
        ]
        .into(),
    };
    let member = SiteId(0);
    // The first answer warms the member's request buffer and the queue.
    sim.inject_at(60.0, member, mapping(1));
    sim.run_until(70.0);
    let replies = sim.stats().named("validation_reply");
    sim.inject_at(80.0, member, mapping(2));
    let ((), allocations) = allocations_of(|| {
        sim.run_until(80.0);
    });
    assert_eq!(sim.stats().named("validation_reply"), replies + 1);
    assert_eq!(allocations, 1, "the reply's list");
    // Nothing endorsable: the reply is empty and nothing is allocated.
    let nothing = RtdsMsg::TrialMapping {
        job: JobId(3),
        tasks_per_logical: vec![Arc::from(vec![spec(0, 100.0)])].into(),
    };
    sim.inject_at(90.0, member, nothing);
    let ((), allocations) = allocations_of(|| {
        sim.run_until(90.0);
    });
    assert_eq!(sim.stats().named("validation_reply"), replies + 2);
    assert_eq!(allocations, 0);
}

#[test]
fn a_local_acceptance_with_wide_task_demands_allocates_nothing() {
    // Four-core sites with a memory budget, HEFT, tasks up to three cores
    // wide each holding memory: the multicore §5 path with every demand.
    let config = RtdsConfig {
        scheduler: SchedulerKind::Heft,
        demand: DemandRule::WideTasks {
            cores: 3,
            parallel_fraction: 0.8,
            memory: 2.0,
        },
        ..RtdsConfig::default()
    };
    let network = grid(3, 3, false, DelayDistribution::Constant(1.0), 1);
    let topology = network.clone();
    let mut sim = Simulator::new(network, |site| {
        NodeBuilder::new(site)
            .neighbors(topology.neighbors(site).to_vec())
            .config(config)
            .resources(SiteResources {
                memory: 16.0,
                ..SiteResources::multicore(4, 1.0)
            })
            .build()
    });
    sim.run_until(50.0);
    // Eight 5-unit tasks due 60 after arrival: easy for one such site.
    let job = |id: u64, arrival: f64| {
        let graph = TaskGraph::from_costs(&[5.0; 8]);
        Job::new(
            JobId(id),
            graph,
            JobParams::new(arrival, arrival + 60.0),
            CENTRE.0,
        )
    };
    let mut visit = Vec::new();
    let accepted = |sim: &Simulator<RtdsNode>| sim.stats().named("accepted_local");
    // Warm the thread's buffers, the plans and the acceptance list.
    for (id, arrival) in [(1, 100.0), (2, 200.0)] {
        sim.inject_at(
            arrival,
            CENTRE,
            RtdsMsg::JobArrival {
                job: job(id, arrival),
            },
        );
        sim.run_until(arrival);
        harvest(&mut sim, arrival + 90.0, &mut visit);
    }
    let before = accepted(&sim);
    sim.inject_at(300.0, CENTRE, RtdsMsg::JobArrival { job: job(3, 300.0) });
    let ((), allocations) = allocations_of(|| {
        sim.run_until(300.0);
    });
    assert_eq!(
        accepted(&sim),
        before + 1,
        "the job must be accepted locally"
    );
    assert_eq!(allocations, 0);
}

#[test]
fn a_harvest_visit_with_nothing_to_drain_allocates_nothing() {
    let mut sim = grid_3x3();
    distribute(&mut sim, wide_job(1, 12, 100.0));
    // The first pass drains the job; the second finds nothing.
    let mut visit = Vec::new();
    let mut pass = |sim: &mut Simulator<RtdsNode>, cutoff| harvest(sim, cutoff, &mut visit);
    assert_eq!(pass(&mut sim, 1_000.0), (9, 1, 12));
    for site in 0..9 {
        sim.touch(SiteId(site));
    }
    let (seen, allocations) = allocations_of(|| pass(&mut sim, 2_000.0));
    assert_eq!(seen, (9, 0, 0));
    assert_eq!(allocations, 0);
}
