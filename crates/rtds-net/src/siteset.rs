//! A bitset over site ids.
//!
//! Sphere membership is asked on the hot paths (the Mapper's peer
//! selection, the engine's reachability checks, every `Sphere::contains`),
//! where binary-searching the sorted member vector is an O(log n) probe.
//! Site ids are small integers, so membership fits `u64` blocks reaching up
//! to the largest member id — one bit per site id, against the eight bytes
//! a member costs: O(1) insert/contains, word-at-a-time equality and an
//! ascending iterator that matches the sorted-vector order exactly.

use crate::topology::SiteId;

const BITS: usize = u64::BITS as usize;

/// A set of [`SiteId`]s backed by `u64` blocks.
#[derive(Debug, Clone, Default)]
pub struct SiteSet {
    blocks: Vec<u64>,
    len: usize,
}

impl PartialEq for SiteSet {
    /// Equality compares membership only — trailing all-zero blocks (an
    /// artifact of the capacity the set was created with) are ignored.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (short, long) = if self.blocks.len() <= other.blocks.len() {
            (&self.blocks, &other.blocks)
        } else {
            (&other.blocks, &self.blocks)
        };
        short
            .iter()
            .chain(std::iter::repeat(&0))
            .zip(long.iter())
            .all(|(a, b)| a == b)
    }
}

impl Eq for SiteSet {}

impl SiteSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        SiteSet::default()
    }

    /// Creates an empty set pre-sized for sites `0..n_sites` (no block
    /// growth as long as only those are inserted).
    pub(crate) fn with_site_capacity(n_sites: usize) -> Self {
        SiteSet {
            blocks: vec![0; n_sites.div_ceil(BITS)],
            len: 0,
        }
    }

    /// Builds the set of the given sites.
    pub fn from_sites(sites: &[SiteId]) -> Self {
        let mut set = SiteSet::with_site_capacity(sites.iter().map(|s| s.0 + 1).max().unwrap_or(0));
        for &s in sites {
            set.insert(s);
        }
        set
    }

    /// Inserts a site; returns `true` if it was not already a member.
    pub(crate) fn insert(&mut self, site: SiteId) -> bool {
        let (block, bit) = (site.0 / BITS, site.0 % BITS);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Membership test.
    #[inline]
    pub(crate) fn contains(&self, site: SiteId) -> bool {
        self.blocks
            .get(site.0 / BITS)
            .is_some_and(|word| word & (1 << (site.0 % BITS)) != 0)
    }

    /// Iterator over the member sites in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(SiteId(i * BITS + bit))
            })
        })
    }
}

impl FromIterator<SiteId> for SiteSet {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        let mut set = SiteSet::new();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut set = SiteSet::new();
        assert_eq!(set.iter().count(), 0);
        assert!(!set.contains(SiteId(3)));
        assert!(set.insert(SiteId(3)));
        assert!(!set.insert(SiteId(3)));
        assert!(set.insert(SiteId(200)));
        assert_eq!(set.iter().count(), 2);
        assert!(set.contains(SiteId(3)));
        assert!(set.contains(SiteId(200)));
        assert!(!set.contains(SiteId(4)));
        assert!(!set.contains(SiteId(100_000)));
    }

    #[test]
    fn iteration_is_ascending_and_matches_sorted_vec() {
        let members = vec![SiteId(65), SiteId(0), SiteId(64), SiteId(7), SiteId(130)];
        let set = SiteSet::from_sites(&members);
        let mut sorted = members.clone();
        sorted.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
        assert_eq!(set.iter().count(), 5);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = SiteSet::with_site_capacity(1000);
        let mut b = SiteSet::new();
        a.insert(SiteId(9));
        b.insert(SiteId(9));
        assert_eq!(a, b);
        b.insert(SiteId(10));
        assert_ne!(a, b);
        assert_eq!(SiteSet::new(), SiteSet::with_site_capacity(512));
    }

    #[test]
    fn collect_from_iterator() {
        let set: SiteSet = (0..70).map(SiteId).collect();
        assert_eq!(set.iter().count(), 70);
        assert!(set.contains(SiteId(69)));
        assert!(!set.contains(SiteId(70)));
    }
}
