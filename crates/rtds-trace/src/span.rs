//! Deterministic span identities.
//!
//! A span groups the trace events of one protocol stage for one job on one
//! site. Its identity is *derived*, not allocated: [`SpanId::derive`] hashes
//! `(job_seed, phase, site, seq)` with a splitmix64-style mixer, so the same
//! protocol step produces the same span id in every run, on every thread
//! count, with no global counter to synchronise. Two traces of the same
//! seeded run are therefore byte-identical, and a sweep sharded over worker
//! threads produces the same per-cell trace as a single-threaded sweep.

/// Identity of one span. `SpanId::NONE` (the zero id) marks "no span" — the
/// parent of a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The protocol stage a span belongs to (folded into the span id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// The per-job root span (arrival and final verdict).
    Job = 1,
    /// The §5 local guarantee test on the arrival site.
    Acceptance = 2,
    /// The §8 ACS enrollment (initiator fan-out and member locks).
    Enrollment = 3,
    /// The §9/§12 Mapper and trial-mapping broadcast.
    Mapping = 4,
    /// The §10 validation round on a member site.
    Validation = 5,
    /// The §11 permutation dispatch and reservation commit.
    Dispatch = 6,
    /// Per-site routing spans (the §7 PCS construction — not job-scoped).
    Routing = 7,
    /// Protocol-agnostic spans (engine tests, custom protocols).
    Custom = 8,
}

/// One round of the splitmix64 output mixer (public-domain constants).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SpanId {
    /// The null span: parent of roots, never a real span identity.
    pub const NONE: SpanId = SpanId(0);

    /// Returns `true` for [`SpanId::NONE`].
    pub(crate) fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Derives the span id for `(job_seed, phase, site, seq)`. For RTDS the
    /// job seed is the job id (deterministic per run); `seq` disambiguates
    /// repeated spans of the same phase on the same site (0 for the single
    /// occurrence the base protocol produces). The result is never
    /// [`SpanId::NONE`].
    pub fn derive(job_seed: u64, phase: Phase, site: u32, seq: u32) -> SpanId {
        let a = splitmix64(job_seed ^ ((phase as u64) << 56));
        let b = splitmix64(a ^ (((site as u64) << 32) | seq as u64));
        SpanId(if b == 0 { 1 } else { b })
    }

    /// The per-job root span (site-independent: every site talking about the
    /// job's final outcome records onto the same root).
    pub fn job_root(job_seed: u64) -> SpanId {
        SpanId::derive(job_seed, Phase::Job, u32::MAX, 0)
    }

    /// The per-site root span for non-job work (the PCS routing exchange).
    pub fn site_root(site: u32) -> SpanId {
        SpanId::derive(site as u64, Phase::Routing, site, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable_and_collision_free_locally() {
        let a = SpanId::derive(11, Phase::Acceptance, 3, 0);
        assert_eq!(a, SpanId::derive(11, Phase::Acceptance, 3, 0));
        assert_ne!(a, SpanId::derive(11, Phase::Acceptance, 4, 0));
        assert_ne!(a, SpanId::derive(11, Phase::Enrollment, 3, 0));
        assert_ne!(a, SpanId::derive(12, Phase::Acceptance, 3, 0));
        assert_ne!(a, SpanId::derive(11, Phase::Acceptance, 3, 1));
        assert!(!a.is_none());
        assert!(SpanId::NONE.is_none());
    }

    #[test]
    fn phase_and_site_do_not_alias_through_packing() {
        // A dense neighborhood of (job, phase, site, seq) values must stay
        // distinct — the packing puts phase and (site, seq) in separate
        // mixer rounds precisely so nearby inputs cannot cancel out.
        let mut seen = std::collections::BTreeSet::new();
        for job in 0..8u64 {
            for phase in [Phase::Job, Phase::Acceptance, Phase::Dispatch] {
                for site in 0..8u32 {
                    for seq in 0..2u32 {
                        assert!(seen.insert(SpanId::derive(job, phase, site, seq).0));
                    }
                }
            }
        }
        assert_eq!(seen.len(), 8 * 3 * 8 * 2);
    }

    #[test]
    fn roots_are_distinct_from_derived_spans() {
        assert_ne!(SpanId::job_root(5), SpanId::derive(5, Phase::Job, 0, 0));
        assert_ne!(SpanId::site_root(2), SpanId::site_root(3));
    }
}
