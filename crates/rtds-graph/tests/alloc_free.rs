//! Allocation regression fences for the job model.
//!
//! * The §12 priority: [`upward_ranks`] runs once per job in the generator,
//!   the local test and the Mapper, so its heap traffic must not grow with
//!   the graph — three buffers (in-degrees, the order with its ready
//!   frontier, ranks), however many tasks — and its `*_into` form on warm
//!   buffers allocates nothing.
//! * A generated job allocates what it keeps — the flat graph's task
//!   vector and edge arena — whatever its size.

use rtds_graph::critical_path::upward_ranks_into;
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::{upward_ranks, TaskGraph};
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

fn graph(shape: DagShape, tasks: usize) -> TaskGraph {
    let cfg = GeneratorConfig {
        task_count: tasks,
        shape,
        costs: CostDistribution::Uniform { min: 1.0, max: 5.0 },
        ccr: 0.0,
        laxity_factor: (2.0, 2.0),
    };
    DagGenerator::new(cfg, 3).generate_graph()
}

#[test]
fn upward_ranks_allocate_three_buffers_whatever_the_task_count() {
    let shapes = [
        DagShape::Chain,
        DagShape::ForkJoin,
        DagShape::LayeredRandom {
            layers: 5,
            edge_prob: 0.4,
        },
        DagShape::FftButterfly,
    ];
    for shape in shapes {
        for tasks in [1, 8, 64, 1_000] {
            let g = graph(shape, tasks);
            let (ranks, allocations) = allocations_of(|| upward_ranks(&g));
            assert_eq!(ranks.len(), g.task_count());
            assert!(
                allocations <= 3,
                "{shape:?} with {tasks} tasks: {allocations} allocations"
            );
        }
    }
}

#[test]
fn rank_and_order_into_warm_buffers_allocate_nothing() {
    let g = graph(
        DagShape::LayeredRandom {
            layers: 5,
            edge_prob: 0.4,
        },
        64,
    );
    let (mut order, mut in_degrees, mut ranks) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass = || {
        g.topological_order_into(&mut order, &mut in_degrees)
            .unwrap();
        upward_ranks_into(&g, &order, &mut ranks);
    };
    pass();
    let ((), allocations) = allocations_of(pass);
    assert_eq!(allocations, 0);
    assert_eq!(ranks, upward_ranks(&g));
}

#[test]
fn a_generated_job_allocates_its_graph_whatever_its_size() {
    for ccr in [0.0, 0.5] {
        let cfg = GeneratorConfig {
            task_count: 40,
            ccr,
            ..GeneratorConfig::default()
        };
        let mut generator = DagGenerator::new(cfg, 9);
        // Warm the generator's buffers on the larger size.
        let _ = generator.generate_job(0, 0.0);
        for tasks in [5, 40] {
            generator.set_task_count(tasks);
            let (job, allocations) = allocations_of(|| generator.generate_job(0, 1.0));
            assert_eq!(job.graph.task_count(), tasks);
            assert!(job.graph.edge_count() >= tasks / 2);
            assert!(
                allocations <= 2,
                "{tasks} tasks, ccr {ccr}: {allocations} allocations"
            );
        }
    }
}
