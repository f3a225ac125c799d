//! Routing tables as maintained by the distributed algorithm of §7.1.
//!
//! "Each node maintains a routing table consisting of route lines like
//! `<destination, distance, next hop>`." We additionally record the hop count
//! of the route so the Potential Computing Sphere — whose radius is defined
//! in *hops* — can be read straight off the table.

use crate::topology::SiteId;

/// One line of a routing table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// Destination site.
    pub destination: SiteId,
    /// Minimum known delay to the destination.
    pub distance: f64,
    /// Neighbor to which messages for the destination are forwarded
    /// (`None` only for the self-entry).
    pub next_hop: Option<SiteId>,
    /// Number of links of the recorded route.
    pub hops: usize,
}

/// A route as the table stores it: the destination lives in the key array,
/// ids and hop counts are 32-bit (16 bytes against [`RouteEntry`]'s 40).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedRoute {
    distance: f64,
    /// [`NO_HOP`] for `None`.
    next_hop: u32,
    hops: u32,
}

const NO_HOP: u32 = u32::MAX;

/// What a slot holds between the table growing and the slot being filled.
const VACANT: PackedRoute = PackedRoute {
    distance: 0.0,
    next_hop: NO_HOP,
    hops: 0,
};

fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("site ids and hop counts fit in 32 bits")
}

impl PackedRoute {
    fn pack(entry: &RouteEntry) -> Self {
        PackedRoute {
            distance: entry.distance,
            next_hop: entry.next_hop.map_or(NO_HOP, |hop| narrow(hop.0)),
            hops: narrow(entry.hops),
        }
    }

    /// The §7.1 preference: strictly shorter, or as short (to 1e-12) over
    /// fewer links.
    fn improves(&self, existing: &PackedRoute) -> bool {
        self.distance < existing.distance - 1e-12
            || ((self.distance - existing.distance).abs() <= 1e-12 && self.hops < existing.hops)
    }

    fn unpack(&self, key: u32) -> RouteEntry {
        RouteEntry {
            destination: SiteId(key as usize),
            distance: self.distance,
            next_hop: (self.next_hop != NO_HOP).then_some(SiteId(self.next_hop as usize)),
            hops: self.hops as usize,
        }
    }
}

/// Routing table of one site: destination → best known route.
///
/// The table holds only the destinations it knows — after the interrupted
/// §7 exchange that is the `2h`-hop neighbourhood, whatever the width of the
/// network. Destinations sit in an ascending `u32` key array with the routes
/// in a parallel array, so a lookup binary-searches a few contiguous cache
/// lines and reads one 16-byte record. Iteration runs in destination order,
/// which keeps routing-update messages deterministic.
///
/// Site ids and hop counts are stored in 32 bits; building or merging a line
/// that exceeds them panics.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    owner: SiteId,
    /// Known destinations, strictly ascending.
    keys: Vec<u32>,
    /// `routes[i]` is the best known route to `keys[i]`.
    routes: Vec<PackedRoute>,
}

impl RoutingTable {
    /// Creates the initial routing table of a site: one self-entry of
    /// distance 0 plus one entry per adjacent link (§7.1 start conditions).
    pub fn initial(owner: SiteId, neighbors: &[(SiteId, f64)]) -> Self {
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
        Self::from_entries(owner, std::iter::once(own).chain(links))
    }

    /// Builds a table from route lines, e.g. those captured by
    /// [`RoutingTable::entries`]; a later line for the same destination
    /// replaces an earlier one.
    pub fn from_entries(owner: SiteId, entries: impl IntoIterator<Item = RouteEntry>) -> Self {
        let entries = entries.into_iter();
        // Room for 16 routes up front: the first phases of an exchange would
        // regrow anything smaller two or three times.
        let capacity = entries.size_hint().0.max(16);
        let mut table = RoutingTable {
            owner,
            keys: Vec::with_capacity(capacity),
            routes: Vec::with_capacity(capacity),
        };
        for entry in entries {
            table.set(narrow(entry.destination.0), PackedRoute::pack(&entry));
        }
        table
    }

    /// Inserts or replaces the route to `key`. Appending past the last key
    /// (ascending input) costs no search and no shift.
    fn set(&mut self, key: u32, route: PackedRoute) {
        if self.keys.last().map_or(true, |&last| last < key) {
            self.keys.push(key);
            self.routes.push(route);
            return;
        }
        match self.keys.binary_search(&key) {
            Ok(i) => self.routes[i] = route,
            Err(i) => {
                self.keys.insert(i, key);
                self.routes.insert(i, route);
            }
        }
    }

    /// The site owning this table.
    pub fn owner(&self) -> SiteId {
        self.owner
    }

    /// Number of known destinations (including the owner itself).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the table only knows the owner.
    pub fn is_empty(&self) -> bool {
        self.keys.len() <= 1
    }

    /// Route to a destination, if known.
    #[inline]
    pub fn route(&self, destination: SiteId) -> Option<RouteEntry> {
        let key = u32::try_from(destination.0).ok()?;
        let i = self.keys.binary_search(&key).ok()?;
        Some(self.routes[i].unpack(key))
    }

    /// Minimum known delay to a destination.
    pub fn distance(&self, destination: SiteId) -> Option<f64> {
        self.route(destination).map(|e| e.distance)
    }

    /// Hop count of the best known route to a destination.
    pub fn hops(&self, destination: SiteId) -> Option<usize> {
        self.route(destination).map(|e| e.hops)
    }

    /// Next hop towards a destination (None for the owner itself).
    pub fn next_hop(&self, destination: SiteId) -> Option<SiteId> {
        self.route(destination).and_then(|e| e.next_hop)
    }

    /// Iterator over all route lines in destination order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = RouteEntry> + '_ {
        self.keys
            .iter()
            .zip(&self.routes)
            .map(|(&key, route)| route.unpack(key))
    }

    /// All destinations whose recorded route uses at most `max_hops` links —
    /// the membership test behind the Potential Computing Sphere.
    pub fn destinations_within_hops(&self, max_hops: usize) -> Vec<SiteId> {
        self.entries()
            .filter(|e| e.hops <= max_hops)
            .map(|e| e.destination)
            .collect()
    }

    /// Receiving step of §7.1: merge a neighbor's route lines, reached over a
    /// link of delay `link_delay`. Returns `true` if any entry changed (the
    /// classical "send updates only when the vector changed" optimisation).
    pub fn merge_from_neighbor(
        &mut self,
        neighbor: SiteId,
        link_delay: f64,
        lines: &[RouteEntry],
    ) -> bool {
        let mut changed = false;
        self.merge(neighbor, link_delay, lines, |_| changed = true);
        changed
    }

    /// [`RoutingTable::merge_from_neighbor`], additionally appending the
    /// destination of every line that improved to `improved` (possibly with
    /// duplicates across calls — callers sort and dedup). This is the
    /// tracking half of the classical delta optimisation: a line that did
    /// not improve in a phase was already broadcast at its current value in
    /// an earlier phase, so re-sending it is provably a no-op for every
    /// neighbor and the next broadcast can carry only the improved lines.
    pub fn merge_tracked(
        &mut self,
        neighbor: SiteId,
        link_delay: f64,
        lines: &[RouteEntry],
        improved: &mut Vec<SiteId>,
    ) {
        self.merge(neighbor, link_delay, lines, |dest| improved.push(dest));
    }

    /// The §7.1 merge, reporting every improved destination in line order.
    ///
    /// Lines in strictly ascending destination order — what
    /// [`RoutingTable::lines`] and the delta broadcast emit — are merged by
    /// one forward walk that improves known destinations in place and counts
    /// the unknown ones, then one backward walk that slots those in; the
    /// table grows at most once. Anything else is merged line by line.
    fn merge(
        &mut self,
        neighbor: SiteId,
        link_delay: f64,
        lines: &[RouteEntry],
        mut improved: impl FnMut(SiteId),
    ) {
        let via = narrow(neighbor.0);
        let candidate = |line: &RouteEntry| PackedRoute {
            distance: line.distance + link_delay,
            next_hop: via,
            hops: narrow(line.hops + 1),
        };
        let owner = self.owner;
        let foreign = |line: &&RouteEntry| line.destination != owner;
        let ascending = lines
            .windows(2)
            .all(|w| w[0].destination < w[1].destination);
        if !ascending {
            for line in lines.iter().filter(foreign) {
                let (key, route) = (narrow(line.destination.0), candidate(line));
                let known = self.keys.binary_search(&key).ok();
                if known.map_or(true, |i| route.improves(&self.routes[i])) {
                    self.set(key, route);
                    improved(line.destination);
                }
            }
            return;
        }
        let mut unknown = 0;
        let mut i = 0;
        for line in lines.iter().filter(foreign) {
            let key = narrow(line.destination.0);
            while i < self.keys.len() && self.keys[i] < key {
                i += 1;
            }
            if self.keys.get(i) != Some(&key) {
                unknown += 1;
            } else {
                let route = candidate(line);
                if !route.improves(&self.routes[i]) {
                    continue;
                }
                self.routes[i] = route;
            }
            improved(line.destination);
        }
        if unknown == 0 {
            return;
        }
        // Backward walk: `read` old entries remain to be placed, everything
        // from `write` up is final, and the gap between the two is exactly
        // the unknown lines not yet slotted in.
        let mut read = self.keys.len();
        let mut write = read + unknown;
        self.keys.resize(write, 0);
        self.routes.resize(write, VACANT);
        for line in lines.iter().rev().filter(foreign) {
            if read == write {
                break;
            }
            let key = narrow(line.destination.0);
            while read > 0 && self.keys[read - 1] > key {
                read -= 1;
                write -= 1;
                self.keys[write] = self.keys[read];
                self.routes[write] = self.routes[read];
            }
            if read == 0 || self.keys[read - 1] != key {
                write -= 1;
                self.keys[write] = key;
                self.routes[write] = candidate(line);
            }
        }
        debug_assert_eq!(read, write);
    }

    /// Snapshot of the route lines, suitable for inclusion in a routing-update
    /// message (the §7.1 send step).
    pub fn lines(&self) -> Vec<RouteEntry> {
        self.entries().collect()
    }

    /// The route lines of the destinations in `ascending` — a delta
    /// broadcast's payload — found by one walk over the table instead of a
    /// search per destination.
    ///
    /// # Panics
    /// Panics unless `ascending` is strictly ascending and every destination
    /// in it is known.
    pub fn lines_of<'a>(
        &'a self,
        ascending: &'a [SiteId],
    ) -> impl ExactSizeIterator<Item = RouteEntry> + 'a {
        let mut rest = 0;
        ascending.iter().map(move |destination| {
            let found = self.keys[rest..]
                .iter()
                .position(|&key| key as usize == destination.0);
            rest += found.expect("destinations are ascending and known");
            self.routes[rest].unpack(self.keys[rest])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_table() {
        let t = RoutingTable::initial(SiteId(0), &[(SiteId(1), 2.0), (SiteId(2), 4.0)]);
        assert_eq!(t.owner(), SiteId(0));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.distance(SiteId(0)), Some(0.0));
        assert_eq!(t.distance(SiteId(1)), Some(2.0));
        assert_eq!(t.hops(SiteId(2)), Some(1));
        assert_eq!(t.next_hop(SiteId(1)), Some(SiteId(1)));
        assert_eq!(t.next_hop(SiteId(0)), None);
        assert_eq!(t.distance(SiteId(9)), None);
        let isolated = RoutingTable::initial(SiteId(5), &[]);
        assert!(isolated.is_empty());
    }

    #[test]
    fn merge_improves_routes() {
        // Owner 0 with neighbors 1 (delay 2) and 2 (delay 10).
        let mut t = RoutingTable::initial(SiteId(0), &[(SiteId(1), 2.0), (SiteId(2), 10.0)]);
        // Neighbor 1 knows 2 at distance 3 and 3 at distance 1.
        let lines = vec![
            RouteEntry {
                destination: SiteId(2),
                distance: 3.0,
                next_hop: Some(SiteId(2)),
                hops: 1,
            },
            RouteEntry {
                destination: SiteId(3),
                distance: 1.0,
                next_hop: Some(SiteId(3)),
                hops: 1,
            },
            RouteEntry {
                destination: SiteId(0),
                distance: 2.0,
                next_hop: Some(SiteId(0)),
                hops: 1,
            },
        ];
        let changed = t.merge_from_neighbor(SiteId(1), 2.0, &lines);
        assert!(changed);
        // 0 -> 2 now goes through 1: 2 + 3 = 5 < 10.
        assert_eq!(t.distance(SiteId(2)), Some(5.0));
        assert_eq!(t.next_hop(SiteId(2)), Some(SiteId(1)));
        assert_eq!(t.hops(SiteId(2)), Some(2));
        // New destination 3 learned at 2 + 1 = 3.
        assert_eq!(t.distance(SiteId(3)), Some(3.0));
        // The self-entry is never overwritten.
        assert_eq!(t.distance(SiteId(0)), Some(0.0));
        // Merging the same lines again changes nothing.
        assert!(!t.merge_from_neighbor(SiteId(1), 2.0, &lines));
    }

    #[test]
    fn merge_prefers_fewer_hops_on_delay_ties() {
        let mut t = RoutingTable::initial(SiteId(0), &[(SiteId(1), 1.0)]);
        // Learn destination 5 via a 3-hop route of total delay 4.
        t.merge_from_neighbor(
            SiteId(1),
            1.0,
            &[RouteEntry {
                destination: SiteId(5),
                distance: 3.0,
                next_hop: Some(SiteId(4)),
                hops: 3,
            }],
        );
        assert_eq!(t.hops(SiteId(5)), Some(4));
        // A same-delay but shorter-hop route replaces it.
        let changed = t.merge_from_neighbor(
            SiteId(1),
            1.0,
            &[RouteEntry {
                destination: SiteId(5),
                distance: 3.0,
                next_hop: Some(SiteId(5)),
                hops: 1,
            }],
        );
        assert!(changed);
        assert_eq!(t.hops(SiteId(5)), Some(2));
        assert_eq!(t.distance(SiteId(5)), Some(4.0));
    }

    #[test]
    fn destinations_within_hops() {
        let mut t = RoutingTable::initial(SiteId(0), &[(SiteId(1), 1.0)]);
        t.merge_from_neighbor(
            SiteId(1),
            1.0,
            &[RouteEntry {
                destination: SiteId(2),
                distance: 1.0,
                next_hop: Some(SiteId(2)),
                hops: 1,
            }],
        );
        assert_eq!(t.destinations_within_hops(0), vec![SiteId(0)]);
        assert_eq!(t.destinations_within_hops(1), vec![SiteId(0), SiteId(1)]);
        assert_eq!(
            t.destinations_within_hops(2),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
        assert_eq!(t.lines().len(), 3);
    }
}
