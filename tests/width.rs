//! Width must not cost: what a site owns after the §7 exchange is its
//! sphere-bounded routing table plus a fixed overhead, whatever the number
//! of sites in the network — so the whole system's memory grows linearly
//! with the site count, and building it allocates a bounded amount per site.
//! Nor must the seed count: a sweep keeps every cell's metrics registry, so
//! a finished registry holds only its values.

use rtds::core::RtdsSystem;
use rtds::net::SiteId;
use rtds::scenarios::{find_scenario, run_cell, TopologyRecipe, TopologySpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks this thread's heap use, so tests running in parallel do not see
/// each other's.
struct TrackingAllocator;

thread_local! {
    /// Bytes allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Bytes ever requested.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn track(freed: usize, requested: usize) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = LIVE.try_with(|n| n.set(n.get() - freed as isize + requested as isize));
    let _ = REQUESTED.try_with(|n| n.set(n.get() + requested));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(0, layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(0, layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(layout.size(), 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// What a system of `sites` sites costs.
struct Footprint {
    sites: usize,
    /// Bytes requested while building the system.
    construction: usize,
    /// Bytes the system holds once the §7 exchange is over.
    live: usize,
    /// Route lines over all sites' tables.
    routes: usize,
}

/// The registry's `wide-low-degree` recipe (random tree, sphere radius 3)
/// at `sites` sites: built, then run without jobs until the §7 exchange is
/// over.
fn footprint(sites: usize) -> Footprint {
    let recipe = find_scenario("wide-low-degree").expect("registry scenario");
    let topology = TopologySpec {
        recipe: TopologyRecipe::RandomTree { sites },
        ..recipe.topology
    };
    let network = topology.build(5);
    let resources = recipe.resources.bundles(sites);
    let (live, requested) = (LIVE.get(), REQUESTED.get());
    let mut system = RtdsSystem::with_resources(network, recipe.config, 5, resources);
    let construction = REQUESTED.get() - requested;
    system.run(Vec::new());
    let nodes = (0..sites).map(|s| system.node(SiteId(s)));
    assert!(nodes.clone().all(|node| node.sphere().is_some()));
    Footprint {
        sites,
        construction,
        live: usize::try_from(LIVE.get() - live).expect("a system holds memory"),
        routes: nodes.map(|node| node.routing_table().len()).sum(),
    }
}

#[test]
fn memory_grows_with_the_spheres_not_with_the_network() {
    let narrow = footprint(1024);
    let wide = footprint(4096);
    for f in [&narrow, &wide] {
        assert!(
            f.construction < 8 * 1024 * f.sites,
            "{} sites: building allocated {} bytes",
            f.sites,
            f.construction
        );
        assert!(
            f.live <= 96 * f.routes + 4 * 1024 * f.sites,
            "{} sites: {} bytes live for {} routes",
            f.sites,
            f.live,
            f.routes
        );
    }
    // Four times the sites know somewhat more than four times the routes
    // (the hubs of a larger random tree have larger spheres, by a factor
    // that varies with the tree), and memory grows no faster than that.
    // Anything a site sizes by the site count grows sixteen-fold here: one
    // byte per site and site makes this 6.2 against 5.1 routes.
    assert!(wide.routes >= 4 * narrow.routes);
    assert!(
        wide.live * narrow.routes <= narrow.live * wide.routes,
        "{} bytes for {} routes at 1024 sites, {} for {} at 4096",
        narrow.live,
        narrow.routes,
        wide.live,
        wide.routes
    );
}

#[test]
fn a_finished_cell_registry_holds_only_its_values() {
    // A `paper-baseline` cell records ten one-scope histograms, most of
    // them two to five buckets wide, plus its counters and gauges. It
    // holds 4 432 B: histograms that keep only the buckets they use and a
    // counter address cache that stays behind with the running engine.
    // With 65-bucket histograms and the cache copied into the report it
    // held 9 336 B; the cache alone is 1 KB.
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let cell = run_cell(&scenario, 7);
    let live = LIVE.get();
    drop(cell.metrics);
    let held = live - LIVE.get();
    assert!(held < 4_800, "a finished cell registry holds {held} B");
}
