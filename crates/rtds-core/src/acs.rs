//! Available Computing Sphere construction (§8) — initiator-side bookkeeping.
//!
//! When a job cannot be guaranteed locally, the initiator `k` enrols a subset
//! of its PCS. Each enrolled site locks itself for `k` and replies with its
//! surplus. `AcsCollection` tracks the outstanding answers and produces the
//! final ACS — the logical-processor list handed to the Mapper, sorted by
//! decreasing surplus as §9 requires — once every contacted site has
//! answered.

use crate::mapper::ProcessorSpec;
use rtds_net::SiteId;

/// One member of a constructed ACS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AcsMember {
    /// The member site.
    pub site: SiteId,
    /// Its reported surplus.
    pub surplus: f64,
    /// Its relative computing power.
    pub speed: f64,
    /// Minimum known delay from the initiator to this site (0 for the
    /// initiator itself).
    pub delay: f64,
}

/// Initiator-side state of one ACS construction round.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AcsCollection {
    /// Sites contacted and not yet heard from, with the initiator-to-site
    /// delay, sorted by site.
    outstanding: Vec<(SiteId, f64)>,
    /// Positive answers, including the initiator's own entry.
    members: Vec<AcsMember>,
    /// Sites that answered busy.
    busy: Vec<SiteId>,
}

impl AcsCollection {
    /// Starts a collection round. `own` is the initiator's own entry
    /// (surplus, speed); `contacted` lists the enrolled candidates with the
    /// initiator-to-candidate delay (a site listed twice is contacted once,
    /// at the delay listed last).
    pub(crate) fn new(
        initiator: SiteId,
        own_surplus: f64,
        own_speed: f64,
        contacted: &[(SiteId, f64)],
    ) -> Self {
        let mut outstanding = contacted.to_vec();
        outstanding.sort_by_key(|&(site, _)| site);
        outstanding.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        // Sized for the round in which everybody joins.
        let mut members = Vec::with_capacity(outstanding.len() + 1);
        members.push(AcsMember {
            site: initiator,
            surplus: own_surplus,
            speed: own_speed,
            delay: 0.0,
        });
        AcsCollection {
            outstanding,
            members,
            busy: Vec::new(),
        }
    }

    /// Takes `site` off the outstanding list; its delay if it was there.
    fn answered(&mut self, site: SiteId) -> Option<f64> {
        let at = self
            .outstanding
            .binary_search_by_key(&site, |&(s, _)| s)
            .ok()?;
        Some(self.outstanding.remove(at).1)
    }

    /// Records a positive answer. Unknown senders are ignored (stale
    /// replies).
    pub(crate) fn record_ack(&mut self, from: SiteId, surplus: f64, speed: f64) {
        if let Some(delay) = self.answered(from) {
            self.members.push(AcsMember {
                site: from,
                surplus,
                speed,
                delay,
            });
        }
    }

    /// Records a negative (busy) answer.
    pub(crate) fn record_busy(&mut self, from: SiteId) {
        if self.answered(from).is_some() {
            self.busy.push(from);
        }
    }

    /// Returns `true` once every contacted site has answered.
    pub(crate) fn is_complete(&self) -> bool {
        self.outstanding.is_empty()
    }

    /// The members collected so far (initiator first, then in answer order).
    pub(crate) fn members(&self) -> &[AcsMember] {
        &self.members
    }

    /// Produces the Mapper input in caller-owned buffers: the members sorted
    /// by decreasing surplus (§9), with ties broken by increasing delay then
    /// site id for determinism, and the matching [`ProcessorSpec`] list.
    pub(crate) fn sorted_for_mapper(
        &self,
        ordered: &mut Vec<AcsMember>,
        specs: &mut Vec<ProcessorSpec>,
    ) {
        ordered.clear();
        ordered.extend_from_slice(&self.members);
        ordered.sort_unstable_by(|a, b| {
            b.surplus
                .partial_cmp(&a.surplus)
                .unwrap()
                .then(a.delay.partial_cmp(&b.delay).unwrap())
                .then(a.site.0.cmp(&b.site.0))
        });
        specs.clear();
        specs.extend(ordered.iter().map(|m| ProcessorSpec {
            surplus: m.surplus,
            speed: m.speed,
        }));
    }

    /// Conservative ACS delay-diameter computable from the initiator's local
    /// knowledge only: `max_{a,b} (δ(k,a) + δ(k,b))` over distinct members —
    /// the sum of the two largest member delays.
    pub(crate) fn local_diameter_estimate(&self) -> f64 {
        let (mut largest, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for member in &self.members {
            if member.delay > largest {
                (largest, second) = (member.delay, largest);
            } else if member.delay > second {
                second = member.delay;
            }
        }
        // Fewer than two members: no pair, no diameter.
        (largest + second).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(acs: &AcsCollection) -> (Vec<AcsMember>, Vec<ProcessorSpec>) {
        let (mut ordered, mut specs) = (Vec::new(), Vec::new());
        acs.sorted_for_mapper(&mut ordered, &mut specs);
        (ordered, specs)
    }

    #[test]
    fn collection_round_tracks_answers() {
        let contacted = vec![(SiteId(1), 2.0), (SiteId(2), 5.0), (SiteId(3), 1.0)];
        let mut acs = AcsCollection::new(SiteId(0), 0.8, 1.0, &contacted);
        assert!(!acs.is_complete());
        assert_eq!(acs.outstanding.len(), 3);
        acs.record_ack(SiteId(2), 0.4, 1.0);
        acs.record_busy(SiteId(3));
        assert!(!acs.is_complete());
        acs.record_ack(SiteId(1), 0.5, 2.0);
        assert!(acs.is_complete());
        assert_eq!(acs.members().len(), 3); // initiator + 2 acks
        assert_eq!(acs.busy, vec![SiteId(3)]);
        // Stale/duplicate answers are ignored.
        acs.record_ack(SiteId(2), 0.9, 1.0);
        acs.record_busy(SiteId(9));
        assert_eq!(acs.members().len(), 3);
        assert_eq!(acs.busy.len(), 1);
    }

    #[test]
    fn mapper_order_is_by_decreasing_surplus() {
        let contacted = vec![(SiteId(1), 2.0), (SiteId(2), 5.0)];
        let mut acs = AcsCollection::new(SiteId(0), 0.5, 1.0, &contacted);
        acs.record_ack(SiteId(1), 0.9, 1.0);
        acs.record_ack(SiteId(2), 0.7, 1.5);
        let (ordered, specs) = sorted(&acs);
        assert_eq!(
            ordered.iter().map(|m| m.site).collect::<Vec<_>>(),
            vec![SiteId(1), SiteId(2), SiteId(0)]
        );
        assert_eq!(specs[0].surplus, 0.9);
        assert_eq!(specs[1].speed, 1.5);
        assert_eq!(specs[2].surplus, 0.5);
    }

    #[test]
    fn surplus_ties_break_by_delay_then_id() {
        let contacted = vec![(SiteId(5), 3.0), (SiteId(2), 1.0)];
        let mut acs = AcsCollection::new(SiteId(0), 0.5, 1.0, &contacted);
        acs.record_ack(SiteId(5), 0.5, 1.0);
        acs.record_ack(SiteId(2), 0.5, 1.0);
        let (ordered, _) = sorted(&acs);
        // All surpluses equal: initiator (delay 0) first, then site 2
        // (delay 1), then site 5 (delay 3).
        assert_eq!(
            ordered.iter().map(|m| m.site).collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(2), SiteId(5)]
        );
    }

    #[test]
    fn diameter_estimate() {
        let contacted = vec![(SiteId(1), 2.0), (SiteId(2), 5.0)];
        let mut acs = AcsCollection::new(SiteId(0), 0.5, 1.0, &contacted);
        assert_eq!(acs.local_diameter_estimate(), 0.0); // only the initiator
        acs.record_ack(SiteId(1), 0.9, 1.0);
        assert_eq!(acs.local_diameter_estimate(), 2.0); // k <-> 1
        acs.record_ack(SiteId(2), 0.7, 1.0);
        assert_eq!(acs.local_diameter_estimate(), 7.0); // 1 <-> 2 via k
    }

    #[test]
    fn empty_contact_list_is_immediately_complete() {
        let acs = AcsCollection::new(SiteId(0), 1.0, 1.0, &[]);
        assert!(acs.is_complete());
        assert_eq!(acs.members().len(), 1);
        let (ordered, specs) = sorted(&acs);
        assert_eq!(ordered.len(), 1);
        assert_eq!(specs.len(), 1);
    }
}
