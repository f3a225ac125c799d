//! Fault injection: perturbation events and the engine-side fault state.
//!
//! The paper's base model (§2) assumes faithful, loss-less links and
//! reliable sites; its §13 sketches dynamic networks and sporadic overload
//! without evaluating them. This module supplies the engine hooks that make
//! such scenarios simulable: timed [`FaultEvent`]s scheduled by the
//! experiment driver mutate the topology (link latency jitter, link
//! failure/recovery), crash and recover whole sites, and switch a
//! probabilistic message-loss plane on and off.
//!
//! Semantics (documented deviations from a physical system):
//!
//! * a *failed link* silently drops every direct send over it (counted as
//!   `sim_lost_link_down`); recovery restores the link with the delay it had
//!   when it failed unless the fault specifies a new one;
//! * *latency jitter* changes the delay charged to sends issued after the
//!   fault; messages already in flight keep their scheduled delivery time,
//!   so a delay drop lets later messages overtake earlier ones — per-link
//!   FIFO (paper §2) holds only between consecutive jitter events;
//! * a *down site* stops processing: deliveries, external injections and
//!   timers targeting it are discarded (counted); on recovery the site
//!   resumes with its pre-crash protocol state (crash with persistent
//!   memory);
//! * *message loss* applies an i.i.d. Bernoulli drop to every message handed
//!   to the engine while the loss probability is positive, drawn from a
//!   dedicated seeded RNG so protocol-level randomness is unaffected;
//! * *routed* sends ([`crate::engine::Context::send_routed`]) model a
//!   management-plane path as one delayed delivery: they are subject to
//!   message loss and down-site discard, and they are lost (counted as
//!   `sim_lost_unreachable`) when link failures have physically cut the
//!   sender off from the target — but a failed link on the *nominal* route
//!   does not lose them while an alternative path exists (the management
//!   plane is assumed to reroute).
//!
//! All fault processing is single-threaded inside the engine, so perturbed
//! runs stay bit-for-bit deterministic given the fault seed.

use rand::prelude::*;
use rand::rngs::StdRng;
use rtds_net::{LinkState, Network, SiteId};
use std::collections::BTreeMap;

/// A timed perturbation applied by the engine between protocol events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Sets the propagation delay of an existing link (latency jitter). If
    /// the link is currently failed, the remembered recovery delay is updated
    /// instead.
    SetLinkDelay {
        /// One endpoint.
        a: SiteId,
        /// Other endpoint.
        b: SiteId,
        /// New propagation delay.
        delay: f64,
    },
    /// Fails a link: it disappears from the topology and direct sends over
    /// it are lost until recovery.
    LinkDown {
        /// One endpoint.
        a: SiteId,
        /// Other endpoint.
        b: SiteId,
    },
    /// Recovers a previously failed link with its remembered delay.
    LinkUp {
        /// One endpoint.
        a: SiteId,
        /// Other endpoint.
        b: SiteId,
    },
    /// Crashes a site: it stops receiving messages and timers.
    SiteDown {
        /// The crashed site.
        site: SiteId,
    },
    /// Recovers a crashed site (its protocol state is retained).
    SiteUp {
        /// The recovered site.
        site: SiteId,
    },
    /// Sets the engine-wide message-loss probability (0 disables loss).
    SetMessageLoss {
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Sets the bandwidth capacity of an existing link (brownout or
    /// capacity upgrade). In-flight flows re-solve their fair-share rates
    /// at the fault time; zero stalls them until a later change. If the
    /// link is currently failed, the remembered recovery bandwidth is
    /// updated instead.
    SetLinkBandwidth {
        /// One endpoint.
        a: SiteId,
        /// Other endpoint.
        b: SiteId,
        /// New bandwidth capacity (`f64::INFINITY` removes the constraint).
        bandwidth: f64,
    },
}

fn link_key(a: SiteId, b: SiteId) -> (usize, usize) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Engine-side fault bookkeeping: which links are failed (with the state to
/// restore), which sites are down, and the message-loss plane.
#[derive(Debug)]
pub(crate) struct FaultState {
    failed_links: BTreeMap<(usize, usize), LinkState>,
    down_sites: Vec<bool>,
    loss_probability: f64,
    rng: StdRng,
}

impl FaultState {
    /// Creates a quiet fault plane for `site_count` sites, with the RNG for
    /// message-loss draws seeded by `seed`.
    pub(crate) fn new(site_count: usize, seed: u64) -> Self {
        FaultState {
            failed_links: BTreeMap::new(),
            down_sites: vec![false; site_count],
            loss_probability: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Reseeds the message-loss RNG (only meaningful before any loss draw).
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Returns `true` if the link between `a` and `b` is currently failed.
    pub(crate) fn link_is_failed(&self, a: SiteId, b: SiteId) -> bool {
        self.failed_links.contains_key(&link_key(a, b))
    }

    /// Returns `true` if any link is currently failed (guards the routed
    /// reachability check so unperturbed runs never pay for it).
    pub(crate) fn has_failed_links(&self) -> bool {
        !self.failed_links.is_empty()
    }

    /// Returns `true` if the site is currently down.
    pub(crate) fn site_is_down(&self, s: SiteId) -> bool {
        self.down_sites.get(s.0).copied().unwrap_or(false)
    }

    /// Sets the message-loss probability directly (clamped to `[0, 1]`).
    pub(crate) fn set_loss_probability(&mut self, p: f64) {
        self.loss_probability = if p.is_finite() {
            p.clamp(0.0, 1.0)
        } else {
            0.0
        };
    }

    /// Decides whether the next message is lost. Draws from the RNG only
    /// while loss is active, so a zero-probability plane leaves the stream —
    /// and hence the run — untouched.
    pub(crate) fn roll_message_loss(&mut self) -> bool {
        self.loss_probability > 0.0 && self.rng.random_bool(self.loss_probability)
    }

    /// Applies a fault to the topology and to this state. Faults referring
    /// to links or sites that do not exist (or are already in the target
    /// state) are ignored — perturbation plans are generated against the
    /// initial topology and may race with each other.
    pub(crate) fn apply(&mut self, fault: FaultEvent, network: &mut Network) {
        match fault {
            FaultEvent::SetLinkDelay { a, b, delay } => {
                if !(delay.is_finite() && delay >= 0.0) {
                    return;
                }
                if let Some(remembered) = self.failed_links.get_mut(&link_key(a, b)) {
                    remembered.delay = delay;
                } else {
                    let _ = network.set_link_delay(a, b, delay);
                }
            }
            FaultEvent::SetLinkBandwidth { a, b, bandwidth } => {
                if bandwidth.is_nan() || bandwidth < 0.0 {
                    return;
                }
                if let Some(remembered) = self.failed_links.get_mut(&link_key(a, b)) {
                    remembered.bandwidth = bandwidth;
                } else {
                    let _ = network.set_link_bandwidth(a, b, bandwidth);
                }
            }
            FaultEvent::LinkDown { a, b } => {
                if let Some(state) = network.remove_link(a, b) {
                    self.failed_links.insert(link_key(a, b), state);
                }
            }
            FaultEvent::LinkUp { a, b } => {
                if let Some(state) = self.failed_links.remove(&link_key(a, b)) {
                    let _ = network.restore_link(a, b, state);
                }
            }
            FaultEvent::SiteDown { site } => {
                if let Some(flag) = self.down_sites.get_mut(site.0) {
                    *flag = true;
                }
            }
            FaultEvent::SiteUp { site } => {
                if let Some(flag) = self.down_sites.get_mut(site.0) {
                    *flag = false;
                }
            }
            FaultEvent::SetMessageLoss { probability } => {
                self.set_loss_probability(probability);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::generators::{line, DelayDistribution};

    #[test]
    fn link_failure_and_recovery_round_trip() {
        let mut net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut faults = FaultState::new(3, 0);
        faults.apply(
            FaultEvent::LinkDown {
                a: SiteId(1),
                b: SiteId(0),
            },
            &mut net,
        );
        assert!(faults.link_is_failed(SiteId(0), SiteId(1)));
        assert!(!net.has_link(SiteId(0), SiteId(1)));
        // Jitter while failed updates the remembered delay.
        faults.apply(
            FaultEvent::SetLinkDelay {
                a: SiteId(0),
                b: SiteId(1),
                delay: 5.0,
            },
            &mut net,
        );
        faults.apply(
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
            &mut net,
        );
        assert!(!faults.link_is_failed(SiteId(0), SiteId(1)));
        assert_eq!(net.link_delay(SiteId(0), SiteId(1)), Some(5.0));
        // Recovering an up link is a no-op.
        faults.apply(
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
            &mut net,
        );
        assert_eq!(net.link_count(), 2);
    }

    #[test]
    fn jitter_mutates_live_links_and_ignores_garbage() {
        let mut net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut faults = FaultState::new(3, 0);
        faults.apply(
            FaultEvent::SetLinkDelay {
                a: SiteId(0),
                b: SiteId(1),
                delay: 7.5,
            },
            &mut net,
        );
        assert_eq!(net.link_delay(SiteId(0), SiteId(1)), Some(7.5));
        // Negative delay, missing link, unknown site: all ignored.
        faults.apply(
            FaultEvent::SetLinkDelay {
                a: SiteId(0),
                b: SiteId(1),
                delay: -1.0,
            },
            &mut net,
        );
        assert_eq!(net.link_delay(SiteId(0), SiteId(1)), Some(7.5));
        faults.apply(
            FaultEvent::SetLinkDelay {
                a: SiteId(0),
                b: SiteId(2),
                delay: 1.0,
            },
            &mut net,
        );
        faults.apply(
            FaultEvent::LinkDown {
                a: SiteId(0),
                b: SiteId(2),
            },
            &mut net,
        );
        assert_eq!(net.link_count(), 2);
    }

    #[test]
    fn bandwidth_faults_hit_live_links_and_failed_link_memory() {
        let mut net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut faults = FaultState::new(3, 0);
        faults.apply(
            FaultEvent::SetLinkBandwidth {
                a: SiteId(0),
                b: SiteId(1),
                bandwidth: 4.0,
            },
            &mut net,
        );
        assert_eq!(net.link_bandwidth(SiteId(0), SiteId(1)), Some(4.0));
        // Invalid bandwidth and missing links are ignored.
        faults.apply(
            FaultEvent::SetLinkBandwidth {
                a: SiteId(0),
                b: SiteId(1),
                bandwidth: -1.0,
            },
            &mut net,
        );
        assert_eq!(net.link_bandwidth(SiteId(0), SiteId(1)), Some(4.0));
        faults.apply(
            FaultEvent::SetLinkBandwidth {
                a: SiteId(0),
                b: SiteId(2),
                bandwidth: 1.0,
            },
            &mut net,
        );
        // A brownout while failed updates the remembered recovery state.
        faults.apply(
            FaultEvent::LinkDown {
                a: SiteId(0),
                b: SiteId(1),
            },
            &mut net,
        );
        faults.apply(
            FaultEvent::SetLinkBandwidth {
                a: SiteId(0),
                b: SiteId(1),
                bandwidth: 0.5,
            },
            &mut net,
        );
        faults.apply(
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
            &mut net,
        );
        assert_eq!(net.link_delay(SiteId(0), SiteId(1)), Some(2.0));
        assert_eq!(net.link_bandwidth(SiteId(0), SiteId(1)), Some(0.5));
    }

    #[test]
    fn site_crash_and_recovery() {
        let mut net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut faults = FaultState::new(2, 0);
        assert!(!faults.site_is_down(SiteId(1)));
        faults.apply(FaultEvent::SiteDown { site: SiteId(1) }, &mut net);
        assert!(faults.site_is_down(SiteId(1)));
        faults.apply(FaultEvent::SiteUp { site: SiteId(1) }, &mut net);
        assert!(!faults.site_is_down(SiteId(1)));
        // Out-of-range sites are ignored.
        faults.apply(FaultEvent::SiteDown { site: SiteId(9) }, &mut net);
        assert!(!faults.site_is_down(SiteId(9)));
    }

    #[test]
    fn recovery_before_failure_is_a_noop() {
        // LinkUp without a prior LinkDown must not invent a link or corrupt
        // the remembered-delay table used by later recoveries.
        let mut net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut faults = FaultState::new(3, 0);
        faults.apply(
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
            &mut net,
        );
        assert_eq!(net.link_count(), 2);
        assert_eq!(net.link_delay(SiteId(0), SiteId(1)), Some(2.0));
        faults.apply(
            FaultEvent::LinkDown {
                a: SiteId(0),
                b: SiteId(1),
            },
            &mut net,
        );
        assert!(faults.link_is_failed(SiteId(0), SiteId(1)));
    }

    #[test]
    fn duplicate_failures_keep_the_original_recovery_delay() {
        let mut net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut faults = FaultState::new(3, 0);
        let down = FaultEvent::LinkDown {
            a: SiteId(0),
            b: SiteId(1),
        };
        faults.apply(down, &mut net);
        // Jitter the *live* remainder of the network, then fail the same
        // link again: the second failure sees no link and must not clobber
        // the remembered delay of 2.0.
        faults.apply(down, &mut net);
        faults.apply(
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
            &mut net,
        );
        assert_eq!(net.link_delay(SiteId(0), SiteId(1)), Some(2.0));
        assert!(!faults.link_is_failed(SiteId(0), SiteId(1)));
    }

    #[test]
    fn duplicate_site_crashes_collapse_to_one_state_flag() {
        let mut net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut faults = FaultState::new(2, 0);
        faults.apply(FaultEvent::SiteDown { site: SiteId(0) }, &mut net);
        faults.apply(FaultEvent::SiteDown { site: SiteId(0) }, &mut net);
        assert!(faults.site_is_down(SiteId(0)));
        faults.apply(FaultEvent::SiteUp { site: SiteId(0) }, &mut net);
        assert!(!faults.site_is_down(SiteId(0)));
    }

    #[test]
    fn message_loss_probability_and_rolls() {
        let mut faults = FaultState::new(1, 42);
        assert_eq!(faults.loss_probability, 0.0);
        // Zero probability never draws (and never loses).
        for _ in 0..100 {
            assert!(!faults.roll_message_loss());
        }
        faults.set_loss_probability(1.0);
        assert!(faults.roll_message_loss());
        faults.set_loss_probability(2.0);
        assert_eq!(faults.loss_probability, 1.0);
        faults.set_loss_probability(f64::NAN);
        assert_eq!(faults.loss_probability, 0.0);
        // Around half the rolls at p = 0.5.
        faults.set_loss_probability(0.5);
        let lost = (0..1000).filter(|_| faults.roll_message_loss()).count();
        assert!((300..700).contains(&lost), "lost {lost} of 1000");
    }
}
