//! Topology generators.
//!
//! The paper targets "arbitrary wide networks", so the experiment harness
//! exercises RTDS on a spectrum of topologies: regular (rings, grids, tori,
//! hypercubes), random flat (connected Erdős–Rényi, random geometric) and
//! heavy-tailed (Barabási–Albert), plus degenerate shapes (lines, stars,
//! trees, complete graphs) that stress the Computing-Sphere construction in
//! different ways.
//!
//! Every generator takes a [`DelayDistribution`] for link delays and a seed,
//! and always returns a *connected* network.

use crate::topology::{Network, SiteId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Distribution of link propagation delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDistribution {
    /// All links have the same delay.
    Constant(f64),
    /// Delays drawn uniformly from `[min, max]`.
    Uniform { min: f64, max: f64 },
    /// Delays proportional to Euclidean distance (only meaningful for the
    /// random-geometric generator; other generators fall back to the scale
    /// value as a constant delay).
    Euclidean { scale: f64 },
}

impl DelayDistribution {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Uniform { min, max } => {
                if max > min {
                    rng.random_range(min..=max)
                } else {
                    min
                }
            }
            DelayDistribution::Euclidean { scale } => scale,
        }
    }

    /// Mean delay of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Uniform { min, max } => 0.5 * (min + max),
            DelayDistribution::Euclidean { scale } => scale,
        }
    }
}

/// A ring of `n` sites.
pub fn ring(n: usize, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(n);
    if n <= 1 {
        return net;
    }
    for i in 0..n {
        let j = (i + 1) % n;
        if i < j || n > 2 && j == 0 {
            let d = delays.sample(&mut rng);
            let _ = net.add_link(SiteId(i), SiteId(j), d);
        }
    }
    net
}

/// A line (path) of `n` sites.
pub fn line(n: usize, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(n);
    for i in 1..n {
        let d = delays.sample(&mut rng);
        net.add_link(SiteId(i - 1), SiteId(i), d).unwrap();
    }
    net
}

/// A star: site 0 is the hub, all others are leaves.
pub fn star(n: usize, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(n);
    for i in 1..n {
        let d = delays.sample(&mut rng);
        net.add_link(SiteId(0), SiteId(i), d).unwrap();
    }
    net
}

/// A complete graph on `n` sites.
pub fn complete(n: usize, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = delays.sample(&mut rng);
            net.add_link(SiteId(i), SiteId(j), d).unwrap();
        }
    }
    net
}

/// A `width × height` 2-D grid; `wrap = true` produces a torus.
pub fn grid(
    width: usize,
    height: usize,
    wrap: bool,
    delays: DelayDistribution,
    seed: u64,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = width * height;
    let mut net = Network::new(n);
    let at = |x: usize, y: usize| SiteId(y * width + x);
    for y in 0..height {
        for x in 0..width {
            // Right neighbor.
            if x + 1 < width {
                let d = delays.sample(&mut rng);
                net.add_link(at(x, y), at(x + 1, y), d).unwrap();
            } else if wrap && width > 2 {
                let d = delays.sample(&mut rng);
                net.add_link(at(x, y), at(0, y), d).unwrap();
            }
            // Down neighbor.
            if y + 1 < height {
                let d = delays.sample(&mut rng);
                net.add_link(at(x, y), at(x, y + 1), d).unwrap();
            } else if wrap && height > 2 {
                let d = delays.sample(&mut rng);
                net.add_link(at(x, y), at(x, 0), d).unwrap();
            }
        }
    }
    net
}

/// A hypercube of dimension `dim` (`2^dim` sites).
pub fn hypercube(dim: usize, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 1usize << dim;
    let mut net = Network::new(n);
    for i in 0..n {
        for b in 0..dim {
            let j = i ^ (1 << b);
            if i < j {
                let d = delays.sample(&mut rng);
                net.add_link(SiteId(i), SiteId(j), d).unwrap();
            }
        }
    }
    net
}

/// A uniformly random spanning tree on `n` sites (random attachment).
pub fn random_tree(n: usize, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(n);
    for i in 1..n {
        let parent = rng.random_range(0..i);
        let d = delays.sample(&mut rng);
        net.add_link(SiteId(parent), SiteId(i), d).unwrap();
    }
    net
}

/// A connected Erdős–Rényi graph: a random spanning tree plus each remaining
/// pair linked with probability `p`.
pub fn erdos_renyi_connected(n: usize, p: f64, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(n);
    // Spanning tree first (guarantees connectivity).
    for i in 1..n {
        let parent = rng.random_range(0..i);
        let d = delays.sample(&mut rng);
        net.add_link(SiteId(parent), SiteId(i), d).unwrap();
    }
    let p = p.clamp(0.0, 1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if !net.has_link(SiteId(i), SiteId(j)) && rng.random_bool(p) {
                let d = delays.sample(&mut rng);
                net.add_link(SiteId(i), SiteId(j), d).unwrap();
            }
        }
    }
    net
}

/// A Barabási–Albert preferential-attachment graph: each new site attaches to
/// `m` existing sites chosen proportionally to their degree.
pub fn barabasi_albert(n: usize, m: usize, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = m.max(1);
    let mut net = Network::new(n);
    if n == 0 {
        return net;
    }
    let core = (m + 1).min(n);
    // Start from a small complete core.
    for i in 0..core {
        for j in (i + 1)..core {
            let d = delays.sample(&mut rng);
            net.add_link(SiteId(i), SiteId(j), d).unwrap();
        }
    }
    // Degree-proportional attachment via a repeated-endpoint urn.
    let mut urn: Vec<usize> = Vec::new();
    for i in 0..core {
        for _ in 0..net.degree(SiteId(i)).max(1) {
            urn.push(i);
        }
    }
    for i in core..n {
        let mut targets = Vec::new();
        let mut guard = 0;
        while targets.len() < m.min(i) && guard < 100 * m {
            guard += 1;
            let pick = urn[rng.random_range(0..urn.len())];
            if pick != i && !targets.contains(&pick) {
                targets.push(pick);
            }
        }
        if targets.is_empty() {
            targets.push(i - 1);
        }
        for &t in &targets {
            let d = delays.sample(&mut rng);
            let _ = net.add_link(SiteId(i), SiteId(t), d);
            urn.push(t);
            urn.push(i);
        }
    }
    net
}

/// A random geometric graph: `n` sites at uniform positions in the unit
/// square, linked when their Euclidean distance is at most `radius`
/// (Euclidean delays use distance × scale). Extra nearest-neighbour links are
/// added to guarantee connectivity.
pub fn random_geometric(n: usize, radius: f64, delays: DelayDistribution, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(n);
    if n == 0 {
        return net;
    }
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let dist = |i: usize, j: usize| -> f64 {
        let dx = pts[i].0 - pts[j].0;
        let dy = pts[i].1 - pts[j].1;
        (dx * dx + dy * dy).sqrt()
    };
    let delay_of = |d: f64, rng: &mut StdRng| -> f64 {
        match delays {
            DelayDistribution::Euclidean { scale } => (d * scale).max(1e-6),
            other => other.sample(rng),
        }
    };
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(i, j);
            if d <= radius {
                let delay = delay_of(d, &mut rng);
                net.add_link(SiteId(i), SiteId(j), delay).unwrap();
            }
        }
    }
    // Stitch disconnected components together through nearest pairs.
    loop {
        let comp = components(&net);
        if comp.component_count <= 1 {
            break;
        }
        // Find the closest pair of sites in different components.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                if comp.labels[i] != comp.labels[j] {
                    let d = dist(i, j);
                    if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                        best = Some((i, j, d));
                    }
                }
            }
        }
        let (i, j, d) = best.expect("disconnected network must have a bridging pair");
        let delay = delay_of(d, &mut rng);
        net.add_link(SiteId(i), SiteId(j), delay).unwrap();
    }
    net
}

struct Components {
    labels: Vec<usize>,
    component_count: usize,
}

fn components(net: &Network) -> Components {
    let n = net.site_count();
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        let label = count;
        count += 1;
        let mut stack = vec![SiteId(start)];
        labels[start] = label;
        while let Some(u) = stack.pop() {
            for (v, _) in net.neighbors(u) {
                if labels[v.0] == usize::MAX {
                    labels[v.0] = label;
                    stack.push(*v);
                }
            }
        }
    }
    Components {
        labels,
        component_count: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DelayDistribution = DelayDistribution::Constant(1.0);

    #[test]
    fn ring_topology() {
        let net = ring(6, D, 0);
        assert_eq!(net.site_count(), 6);
        assert_eq!(net.link_count(), 6);
        assert!(net.is_connected());
        for s in net.sites() {
            assert_eq!(net.degree(s), 2);
        }
        assert_eq!(ring(1, D, 0).link_count(), 0);
        assert_eq!(ring(2, D, 0).link_count(), 1);
        assert_eq!(ring(3, D, 0).link_count(), 3);
    }

    #[test]
    fn line_and_star() {
        let l = line(5, D, 0);
        assert_eq!(l.link_count(), 4);
        assert_eq!(l.hop_diameter(), Some(4));
        let s = star(5, D, 0);
        assert_eq!(s.link_count(), 4);
        assert_eq!(s.degree(SiteId(0)), 4);
        assert_eq!(s.hop_diameter(), Some(2));
    }

    #[test]
    fn complete_graph() {
        let c = complete(5, D, 0);
        assert_eq!(c.link_count(), 10);
        assert_eq!(c.hop_diameter(), Some(1));
    }

    #[test]
    fn grid_and_torus() {
        let g = grid(4, 3, false, D, 0);
        assert_eq!(g.site_count(), 12);
        assert_eq!(g.link_count(), 3 * 3 + 4 * 2); // horizontal 3*3, vertical 4*2
        assert!(g.is_connected());
        let t = grid(4, 4, true, D, 0);
        assert_eq!(t.site_count(), 16);
        assert_eq!(t.link_count(), 32);
        for s in t.sites() {
            assert_eq!(t.degree(s), 4);
        }
    }

    #[test]
    fn hypercube_topology() {
        let h = hypercube(4, D, 0);
        assert_eq!(h.site_count(), 16);
        assert_eq!(h.link_count(), 32);
        for s in h.sites() {
            assert_eq!(h.degree(s), 4);
        }
        assert_eq!(h.hop_diameter(), Some(4));
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..5 {
            let t = random_tree(20, D, seed);
            assert_eq!(t.link_count(), 19);
            assert!(t.is_connected());
        }
    }

    #[test]
    fn erdos_renyi_is_connected() {
        for seed in 0..5 {
            let g = erdos_renyi_connected(30, 0.05, D, seed);
            assert!(g.is_connected());
            assert!(g.link_count() >= 29);
        }
    }

    #[test]
    fn barabasi_albert_is_connected_and_heavy_tailed() {
        let g = barabasi_albert(100, 2, D, 3);
        assert!(g.is_connected());
        assert!(g.link_count() >= 99);
        let max_degree = g.sites().map(|s| g.degree(s)).max().unwrap();
        let min_degree = g.sites().map(|s| g.degree(s)).min().unwrap();
        assert!(
            max_degree >= 4 * min_degree.max(1),
            "expected a hub: max {max_degree}, min {min_degree}"
        );
    }

    #[test]
    fn random_geometric_is_connected() {
        for seed in 0..5 {
            let g = random_geometric(40, 0.18, DelayDistribution::Euclidean { scale: 10.0 }, seed);
            assert!(g.is_connected(), "seed {seed}");
            for (_, _, d) in g.links() {
                assert!(d > 0.0);
            }
        }
    }

    #[test]
    fn delay_distributions() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(DelayDistribution::Constant(2.0).sample(&mut rng), 2.0);
        assert_eq!(DelayDistribution::Constant(2.0).mean(), 2.0);
        let u = DelayDistribution::Uniform { min: 1.0, max: 3.0 };
        assert_eq!(u.mean(), 2.0);
        for _ in 0..50 {
            let d = u.sample(&mut rng);
            assert!((1.0..=3.0).contains(&d));
        }
        let degenerate = DelayDistribution::Uniform { min: 2.0, max: 2.0 };
        assert_eq!(degenerate.sample(&mut rng), 2.0);
        assert_eq!(DelayDistribution::Euclidean { scale: 4.0 }.mean(), 4.0);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = erdos_renyi_connected(
            25,
            0.1,
            DelayDistribution::Uniform { min: 1.0, max: 5.0 },
            7,
        );
        let b = erdos_renyi_connected(
            25,
            0.1,
            DelayDistribution::Uniform { min: 1.0, max: 5.0 },
            7,
        );
        assert_eq!(a, b);
    }
}
