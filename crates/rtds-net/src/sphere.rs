//! Hop-bounded spheres — the structural core of the Computing Sphere (§6).
//!
//! A sphere of radius `h` rooted at site `k` is the set of sites whose best
//! known route from `k` uses at most `h` links. §6 lists the properties the
//! Computing Sphere enjoys once the interrupted APSP has run for `2h` phases:
//!
//! * every member has a unique minimum-communication-delay path to `k`
//!   (materialised here by the `next_hop` chain of `k`'s routing table),
//! * the hop diameter of the sphere is bounded by a constant (`≤ 2h`),
//! * minimum-delay paths exist between any pair of sphere members (within the
//!   `2h`-hop horizon), which is what allows the delay-diameter of the sphere
//!   to be computed and later over-approximate task-to-task communication in
//!   the Mapper (§12).

use crate::routing::RoutingTable;
use crate::siteset::SiteSet;
use crate::topology::SiteId;

/// A hop-bounded sphere around a centre site.
///
/// Membership is answered by a fixed-width [`SiteSet`] bitset (O(1) per
/// probe); the sorted `members` vector is kept alongside it for ordered
/// iteration and the parallel `delays`.
///
/// The bitset is derived from `members` by the constructors and is the
/// *only* source [`Sphere::contains`] consults — a sphere is an immutable
/// snapshot. Do not mutate the public fields in place; build a new sphere
/// via [`Sphere::new`] instead, or `contains` will disagree with the
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Sphere {
    /// The root site `k`.
    pub center: SiteId,
    /// Hop radius `h`.
    pub radius: usize,
    /// Members of the sphere (always includes the centre), sorted by site id.
    pub members: Vec<SiteId>,
    /// Minimum delay from the centre to each member (same order as
    /// `members`).
    pub delays: Vec<f64>,
    /// Delay diameter of the sphere: the largest pairwise minimum delay known
    /// between two members (used by the Mapper as the communication-delay
    /// over-estimate ω).
    pub delay_diameter: f64,
    /// Bitset over `members` (derived, kept in sync by the constructor).
    members_set: SiteSet,
}

impl Sphere {
    /// Assembles a sphere from its parts, deriving the membership bitset.
    /// `members` must be sorted by site id with `delays` parallel to it.
    pub fn new(
        center: SiteId,
        radius: usize,
        members: Vec<SiteId>,
        delays: Vec<f64>,
        delay_diameter: f64,
    ) -> Self {
        debug_assert_eq!(members.len(), delays.len());
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
        let members_set = SiteSet::from_sites(&members);
        Sphere {
            center,
            radius,
            members,
            delays,
            delay_diameter,
            members_set,
        }
    }

    /// Builds the sphere of hop radius `h` around the owner of `center_table`,
    /// using the member tables to compute the pairwise delay diameter.
    ///
    /// `tables` must contain a routing table for every site id referenced by
    /// the centre table (indexed by site id); tables of non-member sites are
    /// simply ignored.
    pub fn from_tables(
        center_table: &RoutingTable,
        tables: &[RoutingTable],
        radius: usize,
    ) -> Self {
        let center = center_table.owner();
        let mut members = center_table.destinations_within_hops(radius);
        members.sort_unstable();
        let delays = members
            .iter()
            .map(|m| center_table.distance(*m).unwrap_or(f64::INFINITY))
            .collect::<Vec<_>>();
        let mut diameter = 0.0f64;
        for &a in &members {
            for &b in &members {
                if a == b {
                    continue;
                }
                if let Some(d) = tables.get(a.0).and_then(|t| t.distance(b)) {
                    diameter = diameter.max(d);
                }
            }
        }
        Sphere::new(center, radius, members, delays, diameter)
    }

    /// Returns `true` if the given site belongs to the sphere (O(1) bitset
    /// probe).
    #[inline]
    pub fn contains(&self, s: SiteId) -> bool {
        self.members_set.contains(s)
    }

    /// The membership bitset.
    pub fn member_set(&self) -> &SiteSet {
        &self.members_set
    }

    /// Minimum known delay from the centre to a member site.
    pub fn delay_to(&self, s: SiteId) -> Option<f64> {
        self.members
            .binary_search(&s)
            .ok()
            .map(|idx| self.delays[idx])
    }

    /// Members other than the centre.
    pub fn peers(&self) -> impl Iterator<Item = SiteId> + '_ {
        let center = self.center;
        self.members.iter().copied().filter(move |m| *m != center)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bellman_ford::phased_apsp;
    use crate::generators::{line, ring, DelayDistribution};
    use crate::topology::Network;

    #[test]
    fn sphere_on_a_line() {
        let net = line(9, DelayDistribution::Constant(2.0), 0);
        let result = phased_apsp(&net, 8);
        let sphere = Sphere::from_tables(&result.tables[4], &result.tables, 2);
        assert_eq!(sphere.center, SiteId(4));
        assert_eq!(
            sphere.members,
            vec![SiteId(2), SiteId(3), SiteId(4), SiteId(5), SiteId(6)]
        );
        assert!(sphere.contains(SiteId(2)));
        assert!(!sphere.contains(SiteId(0)));
        assert_eq!(sphere.delay_to(SiteId(6)), Some(4.0));
        assert_eq!(sphere.delay_to(SiteId(0)), None);
        // Farthest pair inside the sphere: sites 2 and 6, delay 8.
        assert_eq!(sphere.delay_diameter, 8.0);
        assert_eq!(sphere.peers().count(), 4);
    }

    #[test]
    fn radius_zero_is_only_the_center() {
        let net = ring(5, DelayDistribution::Constant(1.0), 0);
        let result = phased_apsp(&net, 4);
        let sphere = Sphere::from_tables(&result.tables[0], &result.tables, 0);
        assert_eq!(sphere.members, vec![SiteId(0)]);
        assert_eq!(sphere.delay_diameter, 0.0);
    }

    #[test]
    fn sphere_respects_2h_phase_budget() {
        // With only 2h phases of table exchange, the sphere of radius h is
        // complete and pairwise distances inside it are known.
        let h = 2;
        let net = ring(12, DelayDistribution::Constant(1.0), 0);
        let result = phased_apsp(&net, 2 * h);
        let sphere = Sphere::from_tables(&result.tables[0], &result.tables, h);
        // On a ring, radius-2 sphere = 5 consecutive sites.
        assert_eq!(sphere.members.len(), 5);
        // Diameter between extreme members (2 hops each side of the centre) is
        // 4 links of delay 1 — and it is visible within the 2h-hop horizon.
        assert_eq!(sphere.delay_diameter, 4.0);
    }

    #[test]
    fn delay_diameter_uses_member_tables_not_center_only() {
        // Star with distinct delays: the diameter is between two leaves, a
        // quantity the centre's own table alone cannot provide.
        let mut net = Network::new(4);
        net.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        net.add_link(SiteId(0), SiteId(2), 5.0).unwrap();
        net.add_link(SiteId(0), SiteId(3), 2.0).unwrap();
        let result = phased_apsp(&net, 4);
        let sphere = Sphere::from_tables(&result.tables[0], &result.tables, 1);
        assert_eq!(sphere.members.len(), 4);
        // Leaf 2 to leaf 3 = 5 + 2 = 7, the largest pairwise distance.
        assert_eq!(sphere.delay_diameter, 7.0);
    }
}
