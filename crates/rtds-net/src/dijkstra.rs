//! Reference shortest-path computations.
//!
//! The distributed algorithm of §7 is validated against a plain centralized
//! Dijkstra: within the hop budget of the interrupted Bellman–Ford, both must
//! agree on minimum delays. Dijkstra is also used by the centralized-oracle
//! baseline and by analysis utilities (network delay diameter, ACS diameter
//! cross-checks).

use crate::topology::{Network, SiteId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShortestPaths {
    /// Source site.
    pub source: SiteId,
    /// `dist[i]` is the minimum delay from the source to site `i`
    /// (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// `parent[i]` is the predecessor of `i` on a shortest path, if any.
    pub parent: Vec<Option<SiteId>>,
    /// `hops[i]` is the number of links of the *delay-minimal* path found
    /// (ties broken towards fewer hops).
    pub hops: Vec<usize>,
}

impl ShortestPaths {
    /// Reconstructs the shortest path from the source to `target`
    /// (inclusive of both endpoints); `None` if unreachable.
    pub fn path_to(&self, target: SiteId) -> Option<Vec<SiteId>> {
        let mut path = Vec::new();
        self.path_into(target, &mut path).then_some(path)
    }

    /// [`ShortestPaths::path_to`] appended to `out`; returns `false`, and
    /// appends nothing, if `target` is unreachable.
    pub(crate) fn path_into(&self, target: SiteId, out: &mut Vec<SiteId>) -> bool {
        if self.dist[target.0].is_infinite() {
            return false;
        }
        let start = out.len();
        out.push(target);
        let mut cur = target;
        while let Some(p) = self.parent[cur.0] {
            out.push(p);
            cur = p;
        }
        out[start..].reverse();
        true
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    hops: usize,
    site: SiteId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (dist, hops, site): invert the comparison.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then(other.hops.cmp(&self.hops))
            .then(other.site.0.cmp(&self.site.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from a single source, breaking delay ties towards fewer hops
/// (this matches the paper's Computing-Sphere preference for "close" sites in
/// terms of both hops and delay).
pub fn shortest_paths(net: &Network, source: SiteId) -> ShortestPaths {
    let (mut tree, mut done, mut heap) = Default::default();
    search(net, source, &mut tree, &mut done, &mut heap);
    tree
}

/// The body of [`shortest_paths`], writing into `tree` and reusing the
/// settled flags and the heap, so a warm caller allocates nothing.
fn search(
    net: &Network,
    source: SiteId,
    tree: &mut ShortestPaths,
    done: &mut Vec<bool>,
    heap: &mut BinaryHeap<HeapEntry>,
) {
    let n = net.site_count();
    tree.source = source;
    let ShortestPaths {
        dist, parent, hops, ..
    } = tree;
    dist.clear();
    dist.resize(n, f64::INFINITY);
    hops.clear();
    hops.resize(n, usize::MAX);
    parent.clear();
    parent.resize(n, None);
    done.clear();
    done.resize(n, false);
    heap.clear();
    dist[source.0] = 0.0;
    hops[source.0] = 0;
    heap.push(HeapEntry {
        dist: 0.0,
        hops: 0,
        site: source,
    });
    while let Some(HeapEntry {
        dist: d,
        hops: h,
        site: u,
    }) = heap.pop()
    {
        if done[u.0] {
            continue;
        }
        done[u.0] = true;
        for &(v, w) in net.neighbors(u) {
            let nd = d + w;
            let nh = h + 1;
            let better =
                nd < dist[v.0] - 1e-12 || ((nd - dist[v.0]).abs() <= 1e-12 && nh < hops[v.0]);
            if better {
                dist[v.0] = nd;
                hops[v.0] = nh;
                parent[v.0] = Some(u);
                heap.push(HeapEntry {
                    dist: nd,
                    hops: nh,
                    site: v,
                });
            }
        }
    }
}

/// Minimum-delay routes of one [`Network`], memoised per `(from, to)` pair:
/// a miss runs the [`shortest_paths`] search over reusable buffers and keeps
/// only that route, so memory grows with the pairs asked about, not with
/// per-source trees. Any change of [`Network::version`] drops every route.
/// Versions are per instance (a rebuilt network restarts at 0): one memo
/// serves one network.
#[derive(Debug, Default)]
pub struct RouteMemo {
    /// The version the routes were computed at; `None` matches no version.
    version: Option<u64>,
    /// `(from, to)` → the minimum delay and the `[start, end)` range of the
    /// route's sites in `sites` (empty when unreachable).
    routes: BTreeMap<(SiteId, SiteId), (f64, usize, usize)>,
    sites: Vec<SiteId>,
    tree: ShortestPaths,
    done: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl RouteMemo {
    /// The minimum delay from `from` to `to` on `net` and the path realising
    /// it, both endpoints included: `shortest_paths(net, from).dist[to.0]`
    /// and `.path_to(to)`, with an infinite delay and an empty path when
    /// `to` is unreachable.
    pub fn route(&mut self, net: &Network, from: SiteId, to: SiteId) -> (f64, &[SiteId]) {
        if self.version != Some(net.version()) {
            self.version = Some(net.version());
            self.routes.clear();
            self.sites.clear();
        }
        let (dist, start, end) = match self.routes.get(&(from, to)) {
            Some(&route) => route,
            None => {
                search(net, from, &mut self.tree, &mut self.done, &mut self.heap);
                let start = self.sites.len();
                self.tree.path_into(to, &mut self.sites);
                let route = (self.tree.dist[to.0], start, self.sites.len());
                self.routes.insert((from, to), route);
                route
            }
        };
        (dist, &self.sites[start..end])
    }
}

/// All-pairs shortest paths (one Dijkstra per site).
pub fn all_pairs_shortest_paths(net: &Network) -> Vec<ShortestPaths> {
    net.sites().map(|s| shortest_paths(net, s)).collect()
}

/// Minimum delay achievable between two sites using paths of at most
/// `max_hops` links (brute-force dynamic program; used to validate the
/// interrupted Bellman–Ford, which has exactly this semantics).
pub fn hop_limited_distance(net: &Network, source: SiteId, max_hops: usize) -> Vec<f64> {
    let n = net.site_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.0] = 0.0;
    let mut current = dist.clone();
    for _ in 0..max_hops {
        let mut next = current.clone();
        for u in net.sites() {
            if current[u.0].is_finite() {
                for &(v, w) in net.neighbors(u) {
                    let nd = current[u.0] + w;
                    if nd < next[v.0] {
                        next[v.0] = nd;
                    }
                }
            }
        }
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid, line, DelayDistribution};

    fn triangle_no_triangle_inequality() -> Network {
        // Direct link 0--2 costs 5 but the two-hop path 0-1-2 costs 3, so the
        // triangle inequality is violated (as the paper explicitly allows).
        let mut n = Network::new(3);
        n.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        n.add_link(SiteId(1), SiteId(2), 2.0).unwrap();
        n.add_link(SiteId(0), SiteId(2), 5.0).unwrap();
        n
    }

    #[test]
    fn shortest_paths_prefer_multi_hop_when_cheaper() {
        let net = triangle_no_triangle_inequality();
        let sp = shortest_paths(&net, SiteId(0));
        assert_eq!(sp.dist, vec![0.0, 1.0, 3.0]);
        assert_eq!(sp.hops, vec![0, 1, 2]);
        assert_eq!(
            sp.path_to(SiteId(2)),
            Some(vec![SiteId(0), SiteId(1), SiteId(2)])
        );
    }

    #[test]
    fn unreachable_sites() {
        let mut net = Network::new(3);
        net.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        let sp = shortest_paths(&net, SiteId(0));
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.hops[2], usize::MAX);
        assert_eq!(sp.path_to(SiteId(2)), None);
    }

    #[test]
    fn diameter_of_line() {
        let net = line(5, DelayDistribution::Constant(2.0), 0);
        let aps = all_pairs_shortest_paths(&net);
        assert_eq!(aps.len(), 5);
        assert_eq!(aps[0].dist[4], 8.0);
        assert_eq!(aps[4].dist[0], 8.0);
    }

    #[test]
    fn tie_breaking_prefers_fewer_hops() {
        // Two equal-delay routes from 0 to 3: direct (1 hop, delay 4) and via
        // 1 and 2 (3 hops, delay 4). Dijkstra must report the 1-hop route.
        let mut net = Network::new(4);
        net.add_link(SiteId(0), SiteId(3), 4.0).unwrap();
        net.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        net.add_link(SiteId(1), SiteId(2), 1.0).unwrap();
        net.add_link(SiteId(2), SiteId(3), 2.0).unwrap();
        let sp = shortest_paths(&net, SiteId(0));
        assert_eq!(sp.dist[3], 4.0);
        assert_eq!(sp.hops[3], 1);
        assert_eq!(sp.path_to(SiteId(3)), Some(vec![SiteId(0), SiteId(3)]));
    }

    #[test]
    fn hop_limited_distances() {
        let net = triangle_no_triangle_inequality();
        let d1 = hop_limited_distance(&net, SiteId(0), 1);
        assert_eq!(d1, vec![0.0, 1.0, 5.0]);
        let d2 = hop_limited_distance(&net, SiteId(0), 2);
        assert_eq!(d2, vec![0.0, 1.0, 3.0]);
        let d0 = hop_limited_distance(&net, SiteId(0), 0);
        assert_eq!(d0[1], f64::INFINITY);
    }

    #[test]
    fn grid_distances_match_manhattan() {
        let net = grid(4, 4, false, DelayDistribution::Constant(1.0), 0);
        let sp = shortest_paths(&net, SiteId(0));
        // Site (3, 3) has index 15 and Manhattan distance 6.
        assert_eq!(sp.dist[15], 6.0);
        assert_eq!(sp.hops[15], 6);
    }
}
