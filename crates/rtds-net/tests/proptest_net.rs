//! Property-based tests for the network substrate: the interrupted
//! distributed Bellman–Ford must agree with centralized references, spheres
//! must satisfy the §6 structural properties, the compact routing table
//! must behave identically to an ordered-map model of the §7.1 rules, and
//! the route memo must answer what a fresh Dijkstra answers.

use proptest::prelude::*;
use rtds_net::bellman_ford::phased_apsp;
use rtds_net::dijkstra::{hop_limited_distance, shortest_paths, RouteMemo};
use rtds_net::generators::{
    barabasi_albert, erdos_renyi_connected, grid, random_geometric, ring, DelayDistribution,
};
use rtds_net::routing::{RouteEntry, RoutingTable};
use rtds_net::siteset::SiteSet;
use rtds_net::sphere::Sphere;
use rtds_net::topology::{Network, SiteId};
use std::collections::BTreeMap;

/// The §7.1 rules over a plain ordered map — the model the compact table is
/// pinned against, over a full phased exchange and operation by operation.
#[derive(Debug, Clone)]
struct Model {
    owner: SiteId,
    routes: BTreeMap<usize, RouteEntry>,
}

impl Model {
    fn from_entries(owner: SiteId, entries: &[RouteEntry]) -> Self {
        let routes = entries.iter().map(|e| (e.destination.0, *e)).collect();
        Model { owner, routes }
    }

    /// The §7.1 start conditions: the owner at distance 0, every neighbor
    /// over its link.
    fn initial(owner: SiteId, neighbors: &[(SiteId, f64)]) -> Self {
        let own = RouteEntry {
            destination: owner,
            distance: 0.0,
            next_hop: None,
            hops: 0,
        };
        let links = neighbors.iter().map(|&(nb, delay)| RouteEntry {
            destination: nb,
            distance: delay,
            next_hop: Some(nb),
            hops: 1,
        });
        let entries: Vec<RouteEntry> = std::iter::once(own).chain(links).collect();
        Model::from_entries(owner, &entries)
    }

    fn lines(&self) -> Vec<RouteEntry> {
        self.routes.values().copied().collect()
    }

    /// Merges `lines`; the improved destinations, one per improving line.
    fn merge(&mut self, neighbor: SiteId, link_delay: f64, lines: &[RouteEntry]) -> Vec<SiteId> {
        let mut improved = Vec::new();
        for line in lines.iter().filter(|l| l.destination != self.owner) {
            let candidate = RouteEntry {
                destination: line.destination,
                distance: line.distance + link_delay,
                next_hop: Some(neighbor),
                hops: line.hops + 1,
            };
            let better = self.routes.get(&line.destination.0).map_or(true, |known| {
                candidate.distance < known.distance - 1e-12
                    || ((candidate.distance - known.distance).abs() <= 1e-12
                        && candidate.hops < known.hops)
            });
            if better {
                self.routes.insert(line.destination.0, candidate);
                improved.push(line.destination);
            }
        }
        improved
    }
}

/// One step of the differential drive.
#[derive(Debug, Clone)]
enum TableOp {
    Initial(usize, Vec<(usize, f64)>),
    FromEntries(usize, Vec<RouteEntry>),
    /// `tracked` selects `merge_tracked` over `merge_from_neighbor`.
    Merge {
        tracked: bool,
        neighbor: usize,
        link_delay: f64,
        lines: Vec<RouteEntry>,
    },
}

/// Ids collide often (16 of them), distances sit on a half-unit lattice
/// nudged by about 1e-12 so the tie rule decides, and the line list is
/// left as drawn (unsorted, duplicated, self-addressed), sorted with its
/// duplicates, or made strictly ascending.
fn arbitrary_lines() -> impl Strategy<Value = Vec<RouteEntry>> {
    let nudge = prop_oneof![
        Just(0.0),
        Just(1e-12),
        Just(-1e-12),
        Just(4e-13),
        Just(3e-12)
    ];
    let line = (0usize..16, 0u32..8, nudge, 0usize..5, 0usize..16).prop_map(
        |(destination, half_units, nudge, hops, hop)| RouteEntry {
            destination: SiteId(destination),
            distance: 0.5 * f64::from(half_units) + nudge + 1.0,
            next_hop: Some(SiteId(hop)),
            hops,
        },
    );
    (proptest::collection::vec(line, 0..24), 0u8..3).prop_map(|(mut lines, order)| {
        if order >= 1 {
            lines.sort_by_key(|l| l.destination);
        }
        if order == 2 {
            lines.dedup_by_key(|l| l.destination);
        }
        lines
    })
}

fn arbitrary_op() -> impl Strategy<Value = TableOp> {
    let merge = || {
        (proptest::bool::ANY, 0usize..16, 0u32..4, arbitrary_lines()).prop_map(
            |(tracked, neighbor, half_units, lines)| TableOp::Merge {
                tracked,
                neighbor,
                link_delay: 0.5 * f64::from(half_units),
                lines,
            },
        )
    };
    // Merges outnumber the two constructors, so tables get to grow.
    prop_oneof![
        (
            0usize..16,
            proptest::collection::vec((0usize..16, 0.5f64..3.0), 0..6)
        )
            .prop_map(|(owner, neighbors)| TableOp::Initial(owner, neighbors)),
        (0usize..16, arbitrary_lines())
            .prop_map(|(owner, entries)| TableOp::FromEntries(owner, entries)),
        merge(),
        merge(),
        merge(),
        merge(),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Topo {
    Ring(usize),
    Grid(usize, usize),
    ErdosRenyi(usize),
    BarabasiAlbert(usize),
    Geometric(usize),
}

fn build(topo: Topo, delays: DelayDistribution, seed: u64) -> Network {
    match topo {
        Topo::Ring(n) => ring(n, delays, seed),
        Topo::Grid(w, h) => grid(w, h, false, delays, seed),
        Topo::ErdosRenyi(n) => erdos_renyi_connected(n, 0.12, delays, seed),
        Topo::BarabasiAlbert(n) => barabasi_albert(n, 2, delays, seed),
        Topo::Geometric(n) => random_geometric(n, 0.25, delays, seed),
    }
}

fn arbitrary_topo() -> impl Strategy<Value = Topo> {
    prop_oneof![
        (3usize..20).prop_map(Topo::Ring),
        ((2usize..6), (2usize..6)).prop_map(|(w, h)| Topo::Grid(w, h)),
        (5usize..25).prop_map(Topo::ErdosRenyi),
        (5usize..25).prop_map(Topo::BarabasiAlbert),
        (5usize..20).prop_map(Topo::Geometric),
    ]
}

fn arbitrary_delays() -> impl Strategy<Value = DelayDistribution> {
    prop_oneof![
        (0.5f64..5.0).prop_map(DelayDistribution::Constant),
        (0.5f64..2.0, 2.0f64..8.0).prop_map(|(min, max)| DelayDistribution::Uniform { min, max }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All generated topologies are connected and their links are symmetric.
    #[test]
    fn generated_networks_are_connected(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
    ) {
        let net = build(topo, delays, seed);
        prop_assert!(net.is_connected());
        for (a, b, d) in net.links() {
            prop_assert_eq!(net.link_delay(a, b), Some(d));
            prop_assert_eq!(net.link_delay(b, a), Some(d));
            prop_assert!(d >= 0.0);
        }
    }

    /// Run long enough, the interrupted Bellman–Ford converges exactly to
    /// Dijkstra's distances from every source.
    #[test]
    fn phased_apsp_converges_to_dijkstra(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
    ) {
        let net = build(topo, delays, seed);
        let n = net.site_count();
        let result = phased_apsp(&net, n + 2);
        for s in net.sites() {
            let sp = shortest_paths(&net, s);
            for d in net.sites() {
                let got = result.tables[s.0].distance(d).unwrap_or(f64::INFINITY);
                prop_assert!((got - sp.dist[d.0]).abs() < 1e-6,
                    "{s}->{d}: table {got} vs dijkstra {}", sp.dist[d.0]);
            }
        }
    }

    /// Interrupted after `p` phases, every table distance equals the best
    /// delay over paths of at most `p + 1` links — never better, never worse.
    #[test]
    fn interrupted_apsp_is_hop_limited_optimal(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
        phases in 0usize..6,
    ) {
        let net = build(topo, delays, seed);
        let result = phased_apsp(&net, phases);
        for s in net.sites() {
            let reference = hop_limited_distance(&net, s, phases + 1);
            for d in net.sites() {
                let got = result.tables[s.0].distance(d).unwrap_or(f64::INFINITY);
                if reference[d.0].is_infinite() {
                    prop_assert!(got.is_infinite());
                } else {
                    prop_assert!((got - reference[d.0]).abs() < 1e-6,
                        "{s}->{d} at {phases} phases: {got} vs {}", reference[d.0]);
                }
            }
        }
    }

    /// §6 sphere properties: after 2h phases the sphere of radius h around any
    /// site contains exactly the sites at hop distance <= h, its delays match
    /// hop-limited optima, and the members' mutual distances bound the
    /// delay diameter.
    #[test]
    fn spheres_satisfy_structural_properties(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
        h in 1usize..4,
    ) {
        let net = build(topo, delays, seed);
        let result = phased_apsp(&net, 2 * h);
        for s in net.sites().take(5) {
            let sphere = Sphere::from_tables(&result.tables[s.0], &result.tables, h);
            prop_assert!(sphere.contains(s));
            prop_assert_eq!(sphere.center, s);
            // Membership compared against BFS hop distances: every site at
            // hop distance <= h must be a member. (The converse need not hold
            // with non-uniform delays: the delay-minimal route to a hop-close
            // site may use more than h links, excluding it from the table's
            // h-hop view — the paper accepts this, the sphere is built from
            // the routing table only.)
            let hops = net.hop_distances(s);
            for d in net.sites() {
                if hops[d.0] <= h {
                    prop_assert!(
                        sphere.contains(d) || result.tables[s.0].hops(d).map(|x| x > h).unwrap_or(false),
                        "site {d} at hop distance {} missing from radius-{h} sphere of {s}",
                        hops[d.0]
                    );
                }
            }
            // Delays from the centre are consistent with the routing table.
            for &m in &sphere.members {
                let delay = sphere.delay_to(m).unwrap();
                prop_assert!((delay - result.tables[s.0].distance(m).unwrap()).abs() < 1e-9);
            }
            // The delay diameter is at least the largest centre-to-member
            // delay (the centre is itself a member).
            let max_center_delay = sphere
                .delays
                .iter()
                .copied()
                .fold(0.0f64, f64::max);
            prop_assert!(sphere.delay_diameter + 1e-9 >= max_center_delay);
        }
    }

    /// The routing table is line-for-line equivalent to the ordered-map
    /// reference over a full phased exchange on randomized topologies: same
    /// change flags, same message contents (order included), same final
    /// routes.
    #[test]
    fn routing_exchange_matches_map_reference(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
        phases in 1usize..6,
    ) {
        let net = build(topo, delays, seed);
        let mut compact: Vec<RoutingTable> = net
            .sites()
            .map(|s| RoutingTable::initial(s, net.neighbors(s)))
            .collect();
        let mut reference: Vec<Model> = net
            .sites()
            .map(|s| Model::initial(s, net.neighbors(s)))
            .collect();
        for _ in 0..phases {
            // The send step: every site snapshots its lines. The snapshots —
            // the wire contents of routing-update messages — must be
            // identical, ordering included.
            let compact_lines: Vec<Vec<RouteEntry>> = compact.iter().map(|t| t.lines()).collect();
            let reference_lines: Vec<Vec<RouteEntry>> =
                reference.iter().map(|t| t.lines()).collect();
            prop_assert_eq!(&compact_lines, &reference_lines);
            // The receive step: merge every neighbor's snapshot.
            for s in net.sites() {
                for &(nb, delay) in net.neighbors(s) {
                    let changed_compact =
                        compact[s.0].merge_from_neighbor(nb, delay, &compact_lines[nb.0]);
                    let improved = reference[s.0].merge(nb, delay, &reference_lines[nb.0]);
                    prop_assert_eq!(changed_compact, !improved.is_empty(), "site {} from {}", s, nb);
                }
            }
        }
        for s in net.sites() {
            prop_assert_eq!(compact[s.0].lines(), reference[s.0].lines(), "site {}", s);
            prop_assert_eq!(compact[s.0].len(), reference[s.0].routes.len());
            for d in net.sites() {
                prop_assert_eq!(
                    compact[s.0].route(d),
                    reference[s.0].routes.get(&d.0).copied(),
                    "route {} -> {}", s, d
                );
            }
        }
    }

    /// Any sequence of constructions and merges — lines sorted or not,
    /// duplicated, self-addressed, tied to within 1e-12 — leaves the compact
    /// table and the ordered-map model with the same routes, the same
    /// answers to every lookup and the same report of what improved.
    #[test]
    fn routing_table_matches_the_map_model(
        ops in proptest::collection::vec(arbitrary_op(), 1..24),
    ) {
        let mut table = RoutingTable::initial(SiteId(0), &[]);
        let mut model = Model::initial(SiteId(0), &[]);
        for op in ops {
            match op {
                TableOp::Initial(owner, neighbors) => {
                    let owner = SiteId(owner);
                    let neighbors: Vec<(SiteId, f64)> =
                        neighbors.into_iter().map(|(n, d)| (SiteId(n), d)).collect();
                    table = RoutingTable::initial(owner, &neighbors);
                    model = Model::initial(owner, &neighbors);
                }
                TableOp::FromEntries(owner, entries) => {
                    table = RoutingTable::from_entries(SiteId(owner), entries.iter().copied());
                    model = Model::from_entries(SiteId(owner), &entries);
                }
                TableOp::Merge { tracked, neighbor, link_delay, lines } => {
                    let before = table.clone();
                    let mut expected = model.merge(SiteId(neighbor), link_delay, &lines);
                    expected.sort_unstable();
                    if tracked {
                        let mut improved = vec![SiteId(99)];
                        table.merge_tracked(SiteId(neighbor), link_delay, &lines, &mut improved);
                        prop_assert_eq!(improved[0], SiteId(99), "merge_tracked only appends");
                        improved[1..].sort_unstable();
                        prop_assert_eq!(&improved[1..], &expected[..]);
                    } else {
                        let changed = table.merge_from_neighbor(SiteId(neighbor), link_delay, &lines);
                        prop_assert_eq!(changed, !expected.is_empty());
                    }
                    prop_assert_eq!(table == before, expected.is_empty());
                }
            }
            let expected: Vec<RouteEntry> = model.routes.values().copied().collect();
            prop_assert_eq!(table.entries().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(table.lines(), expected.clone());
            prop_assert_eq!(table.owner(), model.owner);
            prop_assert_eq!(table.len(), expected.len());
            prop_assert_eq!(table.is_empty(), expected.len() <= 1);
            prop_assert_eq!(&table, &RoutingTable::from_entries(model.owner, expected.clone()));
            for id in (0..20).chain([u32::MAX as usize, u32::MAX as usize + 1, usize::MAX]) {
                let want = model.routes.get(&id).copied();
                prop_assert_eq!(table.route(SiteId(id)), want, "route to {}", id);
                prop_assert_eq!(table.distance(SiteId(id)), want.map(|e| e.distance));
                prop_assert_eq!(table.hops(SiteId(id)), want.map(|e| e.hops));
                prop_assert_eq!(table.next_hop(SiteId(id)), want.and_then(|e| e.next_hop));
            }
            let every_other: Vec<RouteEntry> = expected.iter().step_by(2).copied().collect();
            let picked: Vec<SiteId> = every_other.iter().map(|e| e.destination).collect();
            prop_assert_eq!(table.lines_of(&picked).collect::<Vec<_>>(), every_other);
            for h in 0..4 {
                let within: Vec<SiteId> = model
                    .routes
                    .values()
                    .filter(|e| e.hops <= h)
                    .map(|e| e.destination)
                    .collect();
                prop_assert_eq!(table.destinations_within_hops(h), within);
            }
        }
    }

    /// The sphere's bitset membership agrees with binary search over the
    /// sorted member vector for every site of the network.
    #[test]
    fn sphere_bitset_matches_sorted_members(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
        h in 1usize..4,
    ) {
        let net = build(topo, delays, seed);
        let result = phased_apsp(&net, 2 * h);
        for s in net.sites().take(4) {
            let sphere = Sphere::from_tables(&result.tables[s.0], &result.tables, h);
            let set = SiteSet::from_sites(&sphere.members);
            prop_assert_eq!(sphere.member_set(), &set);
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), sphere.members.clone());
            for d in net.sites() {
                prop_assert_eq!(
                    sphere.contains(d),
                    sphere.members.binary_search(&d).is_ok(),
                    "membership of {} in sphere of {}", d, s
                );
            }
            // Out-of-range probes are simply absent.
            prop_assert!(!sphere.contains(SiteId(net.site_count() + 1000)));
        }
    }

    /// The route memo answers exactly what a fresh `shortest_paths` run
    /// answers — distance bits and path — across random link delay,
    /// bandwidth, removal and restore mutations. Every pair is asked twice
    /// per network state, so hits are checked as well as misses.
    #[test]
    fn route_memo_matches_fresh_shortest_paths(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..4, 0usize..64, 0.5f64..6.0), 0..12),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..8),
    ) {
        let mut net = build(topo, delays, seed);
        let n = net.site_count();
        let mut memo = RouteMemo::default();
        let mut removed = Vec::new();
        for step in 0..=ops.len() {
            for &(a, b) in pairs.iter().chain(&pairs) {
                let (from, to) = (SiteId(a % n), SiteId(b % n));
                let fresh = shortest_paths(&net, from);
                let (dist, path) = memo.route(&net, from, to);
                prop_assert_eq!(dist.to_bits(), fresh.dist[to.0].to_bits(), "{} -> {}", from, to);
                prop_assert_eq!(path.to_vec(), fresh.path_to(to).unwrap_or_default());
            }
            let Some(&(kind, pick, value)) = ops.get(step) else {
                break;
            };
            let links: Vec<(SiteId, SiteId, f64)> = net.links().collect();
            match (kind, links.get(pick % links.len().max(1))) {
                (0, Some(&(a, b, _))) => net.set_link_delay(a, b, value).unwrap(),
                (1, Some(&(a, b, _))) => net.set_link_bandwidth(a, b, value).unwrap(),
                (2, Some(&(a, b, _))) => removed.push((a, b, net.remove_link(a, b).unwrap())),
                _ if !removed.is_empty() => {
                    let (a, b, state) = removed.swap_remove(pick % removed.len());
                    net.restore_link(a, b, state).unwrap();
                }
                _ => {}
            }
        }
    }

    /// Dijkstra path reconstruction yields paths whose total delay equals the
    /// reported distance.
    #[test]
    fn dijkstra_paths_are_consistent(
        topo in arbitrary_topo(),
        delays in arbitrary_delays(),
        seed in 0u64..500,
    ) {
        let net = build(topo, delays, seed);
        let sp = shortest_paths(&net, SiteId(0));
        for d in net.sites() {
            let path = sp.path_to(d).expect("connected network");
            prop_assert_eq!(path[0], SiteId(0));
            prop_assert_eq!(*path.last().unwrap(), d);
            let mut total = 0.0;
            for w in path.windows(2) {
                total += net.link_delay(w[0], w[1]).expect("path uses existing links");
            }
            prop_assert!((total - sp.dist[d.0]).abs() < 1e-6);
            prop_assert_eq!(path.len() - 1, sp.hops[d.0]);
        }
    }
}
