//! The weighted site graph.
//!
//! Sites are identified by dense indices ([`SiteId`]). Links are undirected
//! (the paper's bidirectional communication links) and carry a propagation
//! delay. Delays do *not* have to satisfy the triangle inequality (§2), which
//! is why minimum-delay paths between physically adjacent sites may traverse
//! several links — the routing layer handles that.

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a site (a node of the communication network).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub usize);

impl SiteId {
    /// Raw index of the site.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<usize> for SiteId {
    fn from(v: usize) -> Self {
        SiteId(v)
    }
}

/// Errors raised while building a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// A link endpoint is not a valid site.
    UnknownSite(SiteId),
    /// A self-link was requested.
    SelfLink(SiteId),
    /// The two sites are already linked.
    DuplicateLink(SiteId, SiteId),
    /// A negative or non-finite delay was supplied.
    InvalidDelay(f64),
    /// A negative or NaN bandwidth was supplied (`f64::INFINITY` is the
    /// legal "unconstrained" capacity; zero models a stalled link).
    InvalidBandwidth(f64),
    /// The two sites are not linked (raised by mutation of a missing link,
    /// and by raw lists whose `a → b` entry has no matching `b → a`).
    MissingLink(SiteId, SiteId),
    /// Raw adjacency, bandwidth and speed lists disagree on their lengths.
    RaggedLists,
    /// A site speed that is not positive and finite.
    InvalidSpeed(f64),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownSite(s) => write!(f, "unknown site {s}"),
            NetworkError::SelfLink(s) => write!(f, "self link on {s}"),
            NetworkError::DuplicateLink(a, b) => write!(f, "duplicate link {a} -- {b}"),
            NetworkError::InvalidDelay(d) => write!(f, "invalid link delay {d}"),
            NetworkError::InvalidBandwidth(b) => write!(f, "invalid link bandwidth {b}"),
            NetworkError::MissingLink(a, b) => write!(f, "no link {a} -- {b}"),
            NetworkError::RaggedLists => {
                write!(f, "adjacency, bandwidth and speed lists differ in length")
            }
            NetworkError::InvalidSpeed(s) => write!(f, "invalid site speed {s}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// An arbitrary connected communication network: sites plus weighted,
/// bidirectional links.
///
/// Each site is assumed (paper §2) to consist of a computation processor and
/// a system-management processor; that distinction lives in the simulation
/// layer — the topology only records connectivity and delays, plus an
/// optional per-site relative *computing power* used by the §13
/// uniform-machines extension (1.0 for the identical-machines base model).
/// One site's adjacency: `(neighbor, delay)` pairs in insertion order
/// (which is semantic — see [`Network::raw_adjacency`]).
pub(crate) type NeighborList = Vec<(SiteId, f64)>;

/// The full state of one undirected link: propagation delay plus bandwidth
/// capacity (`f64::INFINITY` for the pure-latency base model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    /// Propagation delay of the link.
    pub delay: f64,
    /// Bandwidth capacity shared max-min fairly by concurrent transfers
    /// (see `rtds-flow`); `f64::INFINITY` means unconstrained.
    pub bandwidth: f64,
}

/// The mutations [`Network::mutate_link`] applies — the single internal
/// change path shared by delay jitter, bandwidth changes and link removal,
/// so adjacency and bandwidth lists can never drift apart and every change
/// bumps the same [`Network::version`] counter.
enum LinkChange {
    SetDelay(f64),
    SetBandwidth(f64),
    Remove,
}

#[derive(Debug, Clone)]
pub struct Network {
    /// `adjacency[i]` lists `(neighbor, delay)` pairs in insertion order.
    adjacency: Vec<NeighborList>,
    /// `bandwidths[i][k]` is the capacity of the link behind
    /// `adjacency[i][k]` — kept parallel by the single mutation path.
    bandwidths: Vec<Vec<f64>>,
    /// Relative computing power of every site (1.0 = reference speed).
    speeds: Vec<f64>,
    link_count: usize,
    /// Bumped by every successful link mutation (add / delay / bandwidth /
    /// remove); lets derived state (routing tables, in-flight flows)
    /// detect staleness cheaply. Excluded from equality.
    version: u64,
}

/// Structural equality ignores the mutation [`version`](Network::version):
/// two networks that agree on sites, links, delays, bandwidths and speeds
/// are equal however many mutations produced them.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.adjacency == other.adjacency
            && self.bandwidths == other.bandwidths
            && self.speeds == other.speeds
            && self.link_count == other.link_count
    }
}

impl Network {
    /// Creates a network with `n` isolated sites of unit computing power.
    pub fn new(n: usize) -> Self {
        Network {
            adjacency: vec![Vec::new(); n],
            bandwidths: vec![Vec::new(); n],
            speeds: vec![1.0; n],
            link_count: 0,
            version: 0,
        }
    }

    /// The raw adjacency lists, in per-site insertion order, plus the
    /// per-site speeds. Insertion order is semantic — neighbor iteration
    /// (and therefore protocol broadcast order) follows it — so a checkpoint
    /// record captures the lists verbatim rather than re-adding links.
    pub fn raw_adjacency(&self) -> (&[NeighborList], &[f64]) {
        (&self.adjacency, &self.speeds)
    }

    /// The raw per-neighbor bandwidth lists, parallel to
    /// [`Network::raw_adjacency`]'s adjacency lists entry-for-entry.
    pub fn raw_bandwidths(&self) -> &[Vec<f64>] {
        &self.bandwidths
    }

    /// Rebuilds a network from raw adjacency, bandwidth and speed lists
    /// (the checkpoint path, so the lists are untrusted). The bandwidth lists
    /// must be entry-parallel to the adjacency lists, every entry must
    /// satisfy the rules of [`Network::add_link_with_bandwidth`], every speed
    /// those of [`Network::set_speed`], and the lists must be symmetric: each
    /// `a → b` entry has exactly one `b → a` twin carrying the same delay and
    /// bandwidth bits. The rebuilt network starts at mutation version 0.
    pub fn from_raw_parts(
        adjacency: Vec<NeighborList>,
        bandwidths: Vec<Vec<f64>>,
        speeds: Vec<f64>,
    ) -> Result<Self, NetworkError> {
        let n = speeds.len();
        let parallel = adjacency.len() == n
            && bandwidths.len() == n
            && adjacency
                .iter()
                .zip(&bandwidths)
                .all(|(l, b)| l.len() == b.len());
        if !parallel {
            return Err(NetworkError::RaggedLists);
        }
        if let Some(&bad) = speeds.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
            return Err(NetworkError::InvalidSpeed(bad));
        }
        let mut directed = 0;
        for (a, (list, bws)) in adjacency.iter().zip(&bandwidths).enumerate() {
            for (k, (&(b, delay), &bandwidth)) in list.iter().zip(bws).enumerate() {
                if b.0 >= n {
                    return Err(NetworkError::UnknownSite(b));
                }
                if b.0 == a {
                    return Err(NetworkError::SelfLink(b));
                }
                if !(delay.is_finite() && delay >= 0.0) {
                    return Err(NetworkError::InvalidDelay(delay));
                }
                if bandwidth.is_nan() || bandwidth < 0.0 {
                    return Err(NetworkError::InvalidBandwidth(bandwidth));
                }
                if list[..k].iter().any(|(s, _)| *s == b) {
                    return Err(NetworkError::DuplicateLink(SiteId(a), b));
                }
                let twin = adjacency[b.0].iter().position(|(s, _)| s.0 == a);
                let mirrored = twin.is_some_and(|t| {
                    adjacency[b.0][t].1.to_bits() == delay.to_bits()
                        && bandwidths[b.0][t].to_bits() == bandwidth.to_bits()
                });
                if !mirrored {
                    return Err(NetworkError::MissingLink(b, SiteId(a)));
                }
                directed += 1;
            }
        }
        Ok(Network {
            adjacency,
            bandwidths,
            speeds,
            link_count: directed / 2,
            version: 0,
        })
    }

    /// The link-mutation version: bumped once per successful
    /// [`add_link`](Network::add_link) /
    /// [`set_link_delay`](Network::set_link_delay) /
    /// [`set_link_bandwidth`](Network::set_link_bandwidth) /
    /// [`remove_link`](Network::remove_link), so derived state (routing
    /// tables, in-flight flows) can detect topology change without
    /// diffing. Not part of structural equality and 0 in a network rebuilt
    /// by [`Network::from_raw_parts`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) links.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Iterator over all site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.adjacency.len()).map(SiteId)
    }

    /// Adds an undirected link with the given propagation delay and
    /// unconstrained (`f64::INFINITY`) bandwidth.
    pub fn add_link(&mut self, a: SiteId, b: SiteId, delay: f64) -> Result<(), NetworkError> {
        self.add_link_with_bandwidth(a, b, delay, f64::INFINITY)
    }

    /// Adds an undirected link with the given propagation delay and
    /// bandwidth capacity.
    pub fn add_link_with_bandwidth(
        &mut self,
        a: SiteId,
        b: SiteId,
        delay: f64,
        bandwidth: f64,
    ) -> Result<(), NetworkError> {
        let n = self.adjacency.len();
        if a.0 >= n {
            return Err(NetworkError::UnknownSite(a));
        }
        if b.0 >= n {
            return Err(NetworkError::UnknownSite(b));
        }
        if a == b {
            return Err(NetworkError::SelfLink(a));
        }
        if !(delay.is_finite() && delay >= 0.0) {
            return Err(NetworkError::InvalidDelay(delay));
        }
        if bandwidth.is_nan() || bandwidth < 0.0 {
            return Err(NetworkError::InvalidBandwidth(bandwidth));
        }
        if self.adjacency[a.0].iter().any(|(s, _)| *s == b) {
            return Err(NetworkError::DuplicateLink(a, b));
        }
        self.adjacency[a.0].push((b, delay));
        self.bandwidths[a.0].push(bandwidth);
        self.adjacency[b.0].push((a, delay));
        self.bandwidths[b.0].push(bandwidth);
        self.link_count += 1;
        self.version += 1;
        Ok(())
    }

    /// The shared mutation path: locates the `a -> b` and `b -> a`
    /// adjacency entries, applies the change to both sides (and the
    /// parallel bandwidth entries), and bumps the version exactly once.
    /// Every dynamic link mutator funnels through here so no caller can
    /// observe a half-applied change or a stale version.
    fn mutate_link(
        &mut self,
        a: SiteId,
        b: SiteId,
        change: LinkChange,
    ) -> Result<LinkState, NetworkError> {
        let n = self.adjacency.len();
        if a.0 >= n {
            return Err(NetworkError::UnknownSite(a));
        }
        if b.0 >= n {
            return Err(NetworkError::UnknownSite(b));
        }
        let forward = self.adjacency[a.0].iter().position(|(s, _)| *s == b);
        let fwd = match forward {
            Some(pos) => pos,
            None => return Err(NetworkError::MissingLink(a, b)),
        };
        let rev = self.adjacency[b.0]
            .iter()
            .position(|(s, _)| *s == a)
            .expect("adjacency lists are symmetric");
        let previous = LinkState {
            delay: self.adjacency[a.0][fwd].1,
            bandwidth: self.bandwidths[a.0][fwd],
        };
        match change {
            LinkChange::SetDelay(delay) => {
                self.adjacency[a.0][fwd].1 = delay;
                self.adjacency[b.0][rev].1 = delay;
            }
            LinkChange::SetBandwidth(bandwidth) => {
                self.bandwidths[a.0][fwd] = bandwidth;
                self.bandwidths[b.0][rev] = bandwidth;
            }
            LinkChange::Remove => {
                self.adjacency[a.0].remove(fwd);
                self.bandwidths[a.0].remove(fwd);
                self.adjacency[b.0].remove(rev);
                self.bandwidths[b.0].remove(rev);
                self.link_count -= 1;
            }
        }
        self.version += 1;
        Ok(previous)
    }

    /// Changes the propagation delay of an existing link (dynamic-network
    /// support: latency jitter applied by the fault-injection layer).
    pub fn set_link_delay(&mut self, a: SiteId, b: SiteId, delay: f64) -> Result<(), NetworkError> {
        if !(delay.is_finite() && delay >= 0.0) {
            return Err(NetworkError::InvalidDelay(delay));
        }
        self.mutate_link(a, b, LinkChange::SetDelay(delay))
            .map(|_| ())
    }

    /// Changes the bandwidth capacity of an existing link
    /// (dynamic-network support: brownouts and capacity upgrades applied
    /// by the fault-injection layer). `f64::INFINITY` removes the
    /// constraint; zero stalls in-flight transfers until a later change.
    pub fn set_link_bandwidth(
        &mut self,
        a: SiteId,
        b: SiteId,
        bandwidth: f64,
    ) -> Result<(), NetworkError> {
        if bandwidth.is_nan() || bandwidth < 0.0 {
            return Err(NetworkError::InvalidBandwidth(bandwidth));
        }
        self.mutate_link(a, b, LinkChange::SetBandwidth(bandwidth))
            .map(|_| ())
    }

    /// Removes an undirected link, returning its full state (dynamic-
    /// network support: link failure applied by the fault-injection layer,
    /// which re-adds the link with the same state on recovery). Returns
    /// `None` if the link does not exist.
    pub fn remove_link(&mut self, a: SiteId, b: SiteId) -> Option<LinkState> {
        self.mutate_link(a, b, LinkChange::Remove).ok()
    }

    /// Restores a link with the full state captured by
    /// [`Network::remove_link`].
    pub fn restore_link(
        &mut self,
        a: SiteId,
        b: SiteId,
        state: LinkState,
    ) -> Result<(), NetworkError> {
        self.add_link_with_bandwidth(a, b, state.delay, state.bandwidth)
    }

    /// Neighbors of a site with link delays.
    pub fn neighbors(&self, s: SiteId) -> &[(SiteId, f64)] {
        &self.adjacency[s.0]
    }

    /// Degree of a site.
    pub fn degree(&self, s: SiteId) -> usize {
        self.adjacency[s.0].len()
    }

    /// Delay of the direct link between two sites, if any.
    pub fn link_delay(&self, a: SiteId, b: SiteId) -> Option<f64> {
        self.adjacency[a.0]
            .iter()
            .find(|(s, _)| *s == b)
            .map(|(_, d)| *d)
    }

    /// Bandwidth capacity of the direct link between two sites, if any.
    pub fn link_bandwidth(&self, a: SiteId, b: SiteId) -> Option<f64> {
        self.adjacency[a.0]
            .iter()
            .position(|(s, _)| *s == b)
            .map(|pos| self.bandwidths[a.0][pos])
    }

    /// Returns `true` if a direct link exists between two sites.
    pub fn has_link(&self, a: SiteId, b: SiteId) -> bool {
        self.link_delay(a, b).is_some()
    }

    /// Iterator over every undirected link as `(a, b, delay)` with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = (SiteId, SiteId, f64)> + '_ {
        self.sites().flat_map(move |a| {
            self.adjacency[a.0]
                .iter()
                .filter(move |(b, _)| a.0 < b.0)
                .map(move |(b, d)| (a, *b, *d))
        })
    }

    /// Iterator over every undirected link as `(a, b, state)` with
    /// `a < b`, in the same order as [`Network::links`].
    pub fn link_states(&self) -> impl Iterator<Item = (SiteId, SiteId, LinkState)> + '_ {
        self.sites().flat_map(move |a| {
            self.adjacency[a.0]
                .iter()
                .enumerate()
                .filter(move |(_, (b, _))| a.0 < b.0)
                .map(move |(pos, (b, d))| {
                    (
                        a,
                        *b,
                        LinkState {
                            delay: *d,
                            bandwidth: self.bandwidths[a.0][pos],
                        },
                    )
                })
        })
    }

    /// Relative computing power of a site (§13 uniform machines; 1.0 for the
    /// identical-machines base model).
    pub fn speed(&self, s: SiteId) -> f64 {
        self.speeds[s.0]
    }

    /// Sets the relative computing power of a site.
    ///
    /// # Panics
    /// Panics if the speed is not strictly positive.
    pub fn set_speed(&mut self, s: SiteId, speed: f64) {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        self.speeds[s.0] = speed;
    }

    /// Returns `true` iff a path of links joins `a` and `b` (used by the
    /// fault-injection layer to decide whether a routed management-plane
    /// message can physically traverse the network).
    pub fn has_path(&self, a: SiteId, b: SiteId) -> bool {
        let n = self.site_count();
        if a.0 >= n || b.0 >= n {
            return false;
        }
        self.hop_distances(a)[b.0] != usize::MAX
    }

    /// Returns `true` iff every site can reach every other site.
    pub fn is_connected(&self) -> bool {
        let n = self.site_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(SiteId(0));
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for (v, _) in &self.adjacency[u.0] {
                if !seen[v.0] {
                    seen[v.0] = true;
                    count += 1;
                    queue.push_back(*v);
                }
            }
        }
        count == n
    }

    /// Hop distances (breadth-first, ignoring delays) from `src` to every
    /// site; unreachable sites get `usize::MAX`.
    pub fn hop_distances(&self, src: SiteId) -> Vec<usize> {
        let n = self.site_count();
        let mut dist = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        dist[src.0] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for (v, _) in &self.adjacency[u.0] {
                if dist[v.0] == usize::MAX {
                    dist[v.0] = dist[u.0] + 1;
                    queue.push_back(*v);
                }
            }
        }
        dist
    }

    /// Maximum hop-eccentricity over all sites (the hop diameter); `None` if
    /// the network is disconnected or empty. The generator tests measure
    /// topologies with it.
    #[cfg(test)]
    pub(crate) fn hop_diameter(&self) -> Option<usize> {
        if self.site_count() == 0 {
            return None;
        }
        let mut max = 0usize;
        for s in self.sites() {
            let d = self.hop_distances(s);
            for &x in &d {
                if x == usize::MAX {
                    return None;
                }
                max = max.max(x);
            }
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Network {
        let mut n = Network::new(3);
        n.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        n.add_link(SiteId(1), SiteId(2), 2.0).unwrap();
        n.add_link(SiteId(0), SiteId(2), 5.0).unwrap();
        n
    }

    #[test]
    fn construction_and_queries() {
        let n = triangle();
        assert_eq!(n.site_count(), 3);
        assert_eq!(n.link_count(), 3);
        assert_eq!(n.degree(SiteId(0)), 2);
        assert_eq!(n.link_delay(SiteId(0), SiteId(2)), Some(5.0));
        assert_eq!(n.link_delay(SiteId(2), SiteId(0)), Some(5.0));
        assert_eq!(n.link_delay(SiteId(0), SiteId(0)), None);
        assert!(n.has_link(SiteId(0), SiteId(1)));
        assert_eq!(n.links().count(), 3);
        assert_eq!(format!("{}", SiteId(3)), "s3");
        assert_eq!(SiteId::from(2).index(), 2);
    }

    #[test]
    fn link_errors() {
        let mut n = Network::new(2);
        assert_eq!(
            n.add_link(SiteId(0), SiteId(9), 1.0),
            Err(NetworkError::UnknownSite(SiteId(9)))
        );
        assert_eq!(
            n.add_link(SiteId(9), SiteId(0), 1.0),
            Err(NetworkError::UnknownSite(SiteId(9)))
        );
        assert_eq!(
            n.add_link(SiteId(0), SiteId(0), 1.0),
            Err(NetworkError::SelfLink(SiteId(0)))
        );
        assert_eq!(
            n.add_link(SiteId(0), SiteId(1), -2.0),
            Err(NetworkError::InvalidDelay(-2.0))
        );
        n.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        assert_eq!(
            n.add_link(SiteId(1), SiteId(0), 2.0),
            Err(NetworkError::DuplicateLink(SiteId(1), SiteId(0)))
        );
        assert!(NetworkError::SelfLink(SiteId(0))
            .to_string()
            .contains("self"));
    }

    #[test]
    fn connectivity() {
        let mut n = Network::new(4);
        n.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        n.add_link(SiteId(2), SiteId(3), 1.0).unwrap();
        assert!(!n.is_connected());
        n.add_link(SiteId(1), SiteId(2), 1.0).unwrap();
        assert!(n.is_connected());
        assert!(Network::new(0).is_connected());
        assert!(Network::new(1).is_connected());
    }

    #[test]
    fn pairwise_reachability() {
        let mut n = Network::new(4);
        n.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        n.add_link(SiteId(2), SiteId(3), 1.0).unwrap();
        assert!(n.has_path(SiteId(0), SiteId(1)));
        assert!(n.has_path(SiteId(1), SiteId(0)));
        assert!(!n.has_path(SiteId(0), SiteId(2)));
        assert!(n.has_path(SiteId(2), SiteId(2)));
        assert!(!n.has_path(SiteId(0), SiteId(9)));
        n.add_link(SiteId(1), SiteId(2), 1.0).unwrap();
        assert!(n.has_path(SiteId(0), SiteId(3)));
    }

    #[test]
    fn hop_distances_and_diameter() {
        let mut n = Network::new(4);
        n.add_link(SiteId(0), SiteId(1), 10.0).unwrap();
        n.add_link(SiteId(1), SiteId(2), 10.0).unwrap();
        n.add_link(SiteId(2), SiteId(3), 10.0).unwrap();
        assert_eq!(n.hop_distances(SiteId(0)), vec![0, 1, 2, 3]);
        assert_eq!(n.hop_diameter(), Some(3));
        let disconnected = Network::new(2);
        assert_eq!(disconnected.hop_diameter(), None);
        assert_eq!(Network::new(0).hop_diameter(), None);
    }

    #[test]
    fn link_delay_mutation() {
        let mut n = triangle();
        n.set_link_delay(SiteId(0), SiteId(1), 4.5).unwrap();
        assert_eq!(n.link_delay(SiteId(0), SiteId(1)), Some(4.5));
        assert_eq!(n.link_delay(SiteId(1), SiteId(0)), Some(4.5));
        assert_eq!(
            n.set_link_delay(SiteId(0), SiteId(1), -1.0),
            Err(NetworkError::InvalidDelay(-1.0))
        );
        assert_eq!(
            n.set_link_delay(SiteId(0), SiteId(9), 1.0),
            Err(NetworkError::UnknownSite(SiteId(9)))
        );
        assert_eq!(
            n.set_link_delay(SiteId(9), SiteId(0), 1.0),
            Err(NetworkError::UnknownSite(SiteId(9)))
        );
        let mut m = Network::new(3);
        m.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        assert_eq!(
            m.set_link_delay(SiteId(0), SiteId(2), 1.0),
            Err(NetworkError::MissingLink(SiteId(0), SiteId(2)))
        );
        assert!(NetworkError::MissingLink(SiteId(0), SiteId(2))
            .to_string()
            .contains("no link"));
    }

    #[test]
    fn link_removal_and_restoration() {
        let mut n = triangle();
        assert_eq!(
            n.remove_link(SiteId(0), SiteId(1)),
            Some(LinkState {
                delay: 1.0,
                bandwidth: f64::INFINITY
            })
        );
        assert_eq!(n.link_count(), 2);
        assert!(!n.has_link(SiteId(0), SiteId(1)));
        assert!(!n.has_link(SiteId(1), SiteId(0)));
        assert!(n.is_connected()); // still connected through site 2
        assert_eq!(n.remove_link(SiteId(0), SiteId(1)), None);
        assert_eq!(n.remove_link(SiteId(0), SiteId(9)), None);
        // Restoring the link brings the triangle back.
        n.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        assert_eq!(n.link_count(), 3);
        assert_eq!(n.link_delay(SiteId(0), SiteId(1)), Some(1.0));
    }

    #[test]
    fn bandwidth_defaults_and_mutation() {
        let mut n = triangle();
        assert_eq!(n.link_bandwidth(SiteId(0), SiteId(1)), Some(f64::INFINITY));
        assert_eq!(n.link_bandwidth(SiteId(0), SiteId(0)), None);
        n.set_link_bandwidth(SiteId(0), SiteId(1), 4.0).unwrap();
        assert_eq!(n.link_bandwidth(SiteId(0), SiteId(1)), Some(4.0));
        assert_eq!(n.link_bandwidth(SiteId(1), SiteId(0)), Some(4.0));
        assert_eq!(n.link_delay(SiteId(0), SiteId(1)), Some(1.0));
        // Delay mutation leaves bandwidth alone and vice versa.
        n.set_link_delay(SiteId(0), SiteId(1), 2.5).unwrap();
        assert_eq!(n.link_delay(SiteId(0), SiteId(1)), Some(2.5));
        assert_eq!(n.link_bandwidth(SiteId(0), SiteId(1)), Some(4.0));
        assert_eq!(
            n.set_link_bandwidth(SiteId(0), SiteId(1), -1.0),
            Err(NetworkError::InvalidBandwidth(-1.0))
        );
        assert_eq!(
            n.set_link_bandwidth(SiteId(0), SiteId(9), 1.0),
            Err(NetworkError::UnknownSite(SiteId(9)))
        );
        assert_eq!(
            n.set_link_bandwidth(SiteId(9), SiteId(0), 1.0),
            Err(NetworkError::UnknownSite(SiteId(9)))
        );
        let mut m = Network::new(3);
        m.add_link_with_bandwidth(SiteId(0), SiteId(1), 1.0, 8.0)
            .unwrap();
        assert_eq!(m.link_bandwidth(SiteId(0), SiteId(1)), Some(8.0));
        assert_eq!(
            m.set_link_bandwidth(SiteId(0), SiteId(2), 1.0),
            Err(NetworkError::MissingLink(SiteId(0), SiteId(2)))
        );
        assert!(matches!(
            m.add_link_with_bandwidth(SiteId(0), SiteId(2), 1.0, f64::NAN),
            Err(NetworkError::InvalidBandwidth(b)) if b.is_nan()
        ));
        assert!(NetworkError::InvalidBandwidth(-1.0)
            .to_string()
            .contains("bandwidth"));
    }

    #[test]
    fn every_link_mutation_bumps_the_shared_version() {
        let mut n = triangle();
        let v0 = n.version();
        assert_eq!(v0, 3); // three add_link calls
        n.set_link_delay(SiteId(0), SiteId(1), 2.0).unwrap();
        assert_eq!(n.version(), v0 + 1);
        n.set_link_bandwidth(SiteId(0), SiteId(1), 9.0).unwrap();
        assert_eq!(n.version(), v0 + 2);
        let state = n.remove_link(SiteId(0), SiteId(1)).unwrap();
        assert_eq!(n.version(), v0 + 3);
        n.restore_link(SiteId(0), SiteId(1), state).unwrap();
        assert_eq!(n.version(), v0 + 4);
        assert_eq!(n.link_delay(SiteId(0), SiteId(1)), Some(2.0));
        assert_eq!(n.link_bandwidth(SiteId(0), SiteId(1)), Some(9.0));
        // Failed mutations do not bump the version.
        assert!(n.set_link_delay(SiteId(0), SiteId(1), -1.0).is_err());
        assert!(n.set_link_bandwidth(SiteId(0), SiteId(9), 1.0).is_err());
        assert!(n.remove_link(SiteId(0), SiteId(9)).is_none());
        assert_eq!(n.version(), v0 + 4);
    }

    #[test]
    fn structural_equality_ignores_version() {
        let a = triangle();
        let mut b = triangle();
        b.set_link_delay(SiteId(0), SiteId(1), 7.0).unwrap();
        b.set_link_delay(SiteId(0), SiteId(1), 1.0).unwrap();
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b);
        b.set_link_bandwidth(SiteId(0), SiteId(1), 3.0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn raw_parts_round_trip_preserves_bandwidths() {
        let mut n = triangle();
        n.set_link_bandwidth(SiteId(1), SiteId(2), 6.5).unwrap();
        let (adjacency, speeds) = n.raw_adjacency();
        let rebuild = |adjacency: &[NeighborList], bandwidths: &[Vec<f64>]| {
            Network::from_raw_parts(adjacency.to_vec(), bandwidths.to_vec(), speeds.to_vec())
        };
        let rebuilt = rebuild(adjacency, n.raw_bandwidths()).unwrap();
        assert_eq!(rebuilt, n);
        assert_eq!(rebuilt.version(), 0);
        assert_eq!(rebuilt.link_bandwidth(SiteId(2), SiteId(1)), Some(6.5));
        // Raw lists are untrusted: an unknown neighbour, a one-sided link,
        // a one-sided bandwidth and ragged lists are typed errors.
        let mut hostile = adjacency.to_vec();
        hostile[0][0].0 = SiteId(9);
        assert_eq!(
            rebuild(&hostile, n.raw_bandwidths()),
            Err(NetworkError::UnknownSite(SiteId(9)))
        );
        let mut hostile = adjacency.to_vec();
        hostile[0][0].1 += 1.0;
        assert!(matches!(
            rebuild(&hostile, n.raw_bandwidths()),
            Err(NetworkError::MissingLink(..))
        ));
        let mut lopsided = n.raw_bandwidths().to_vec();
        lopsided[1][0] = 0.5;
        assert!(matches!(
            rebuild(adjacency, &lopsided),
            Err(NetworkError::MissingLink(..))
        ));
        assert_eq!(
            rebuild(&adjacency[..2], n.raw_bandwidths()),
            Err(NetworkError::RaggedLists)
        );
        let mut speeds = speeds.to_vec();
        speeds[1] = f64::NAN;
        assert!(matches!(
            Network::from_raw_parts(adjacency.to_vec(), n.raw_bandwidths().to_vec(), speeds),
            Err(NetworkError::InvalidSpeed(s)) if s.is_nan()
        ));
    }

    #[test]
    fn link_states_parallel_links_iterator() {
        let mut n = triangle();
        n.set_link_bandwidth(SiteId(0), SiteId(2), 2.0).unwrap();
        let plain: Vec<_> = n.links().collect();
        let full: Vec<_> = n.link_states().collect();
        assert_eq!(plain.len(), full.len());
        for ((a1, b1, d1), (a2, b2, st)) in plain.iter().zip(&full) {
            assert_eq!((a1, b1), (a2, b2));
            assert_eq!(*d1, st.delay);
            assert_eq!(st.bandwidth, n.link_bandwidth(*a2, *b2).unwrap());
        }
    }

    #[test]
    fn speeds() {
        let mut n = Network::new(2);
        assert_eq!(n.speed(SiteId(0)), 1.0);
        n.set_speed(SiteId(1), 2.5);
        assert_eq!(n.speed(SiteId(1)), 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_speed_rejected() {
        let mut n = Network::new(1);
        n.set_speed(SiteId(0), 0.0);
    }
}
