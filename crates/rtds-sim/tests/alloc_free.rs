//! Allocation regression fence for the flow plane: once warm, a transfer
//! between a pair the route memo already knows allocates only what the
//! plane keeps for the flow, re-solving an unchanged flow set allocates
//! nothing, and finishing the flow and delivering its message allocates
//! nothing.

use rtds_net::{Network, SiteId};
use rtds_sim::{Context, FaultEvent, Protocol, Simulator};
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

/// An external kick `v` moves `v` units to site 3; a delivered transfer
/// is counted, nothing else is kept.
struct Mover;

impl Protocol for Mover {
    type Msg = u32;

    fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {}

    fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut Context<'_, u32>) {
        if from == ctx.site() {
            ctx.transfer(SiteId(3), f64::from(msg), 0);
        } else {
            ctx.count("moved", 1);
        }
    }
}

/// A unit-delay, unit-bandwidth line 0 — 1 — 2 — 3 — 4: a transfer from
/// site 0 starts 3 after its kick and moves one unit per time unit; the
/// link 3 — 4 is never on its path.
fn line5() -> Simulator<Mover> {
    let mut net = Network::new(5);
    for a in 0..4 {
        net.add_link_with_bandwidth(SiteId(a), SiteId(a + 1), 1.0, 1.0)
            .unwrap();
    }
    Simulator::new(net, |_| Mover)
}

/// A bandwidth change on the unused link 3 — 4: the flow set is unchanged,
/// but the network version moves, so the plane re-solves.
fn brownout(bandwidth: f64) -> FaultEvent {
    FaultEvent::SetLinkBandwidth {
        a: SiteId(3),
        b: SiteId(4),
        bandwidth,
    }
}

#[test]
fn a_memoised_transfer_allocates_only_what_the_plane_keeps() {
    let mut sim = line5();
    // Warm every buffer on the same path: one transfer re-solved mid-flight
    // by a fault (which also drops the memoised routes), then one that
    // memoises the route again.
    sim.inject_at(0.0, SiteId(0), 4);
    sim.schedule_fault(5.0, brownout(2.0));
    sim.run_to_quiescence();
    sim.inject_at(100.0, SiteId(0), 4);
    sim.run_to_quiescence();

    sim.inject_at(200.0, SiteId(0), 4);
    sim.schedule_fault(205.0, brownout(3.0));
    let solves = |sim: &Simulator<Mover>| {
        let metrics = sim.stats().metrics();
        metrics.histogram("link_utilization").count()
    };
    let before = solves(&sim);
    // The kick and the flow's start: the head delay and the path are memo
    // hits; the plane keeps the flow's site-pair and model link lists, plus
    // at most one node in each of its two flow maps.
    let ((), started) = allocations_of(|| {
        sim.run_until(203.0);
    });
    assert_eq!(sim.flows_in_flight(), 1);
    assert!(started <= 4, "starting a memoised transfer: {started}");
    // The fault re-solves the unchanged flow set.
    let ((), resolved) = allocations_of(|| {
        sim.run_until(205.0);
    });
    assert_eq!(resolved, 0, "re-solving an unchanged flow set");
    // Start and fault: one re-solve each, three loaded links sampled each.
    assert_eq!(solves(&sim) - before, 2 * 3);
    // Completion and delivery.
    let ((), finished) = allocations_of(|| {
        sim.run_to_quiescence();
    });
    assert_eq!(finished, 0, "finishing a flow");
    assert_eq!(sim.stats().named("moved"), 3);
    assert_eq!(sim.now(), 207.0);
}
