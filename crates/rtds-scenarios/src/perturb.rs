//! Perturbation plans: declarative fault recipes expanded into timed
//! [`FaultEvent`]s.
//!
//! A plan is part of a [`crate::Scenario`] and is expanded against the
//! concrete network with a dedicated stream seed, so the same `(scenario,
//! seed)` pair always injects the same faults at the same times. Plans
//! should start perturbing only after the one-time PCS construction has
//! finished (a few tens of time units on the built-in topologies):
//! perturbing the §7 routing exchange itself stalls every site in its
//! initialisation phase and the run degenerates (every arrival stays
//! deferred). The built-in registry keeps `start >= 30.0` for this reason.
//!
//! Model caveats (see [`rtds_sim::faults`]): link failure affects *direct*
//! sends only — routed management-plane messages are modeled as one delayed
//! delivery and are subject to message loss and site crashes but not to
//! per-link failure.

use crate::spec::mix_seed;
use rand::prelude::*;
use rand::rngs::StdRng;
use rtds_net::{Network, SiteId};
use rtds_sim::FaultEvent;

/// One declarative fault recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Every `period` time units in `[start, end)`, re-draw the delay of a
    /// random `fraction` of links, scaling the *original* delay by a factor
    /// drawn uniformly from `factor`.
    LinkJitter {
        start: f64,
        end: f64,
        period: f64,
        fraction: f64,
        factor: (f64, f64),
    },
    /// `count` link failures at uniform random times in `[start, end)`,
    /// each link recovering `downtime` time units later.
    LinkFailures {
        start: f64,
        end: f64,
        count: usize,
        downtime: f64,
    },
    /// Cuts the network into two halves (by site index) at `at` and heals
    /// every cut link at `heal_at`.
    Partition { at: f64, heal_at: f64 },
    /// `count` site crashes at uniform random times in `[start, end)`, each
    /// site recovering `downtime` time units later (state preserved).
    SiteCrashes {
        start: f64,
        end: f64,
        count: usize,
        downtime: f64,
    },
    /// Every `period` time units in `[start, end)`, set the bandwidth of a
    /// random `fraction` of links to a capacity drawn uniformly from
    /// `capacity` (absolute volume-per-time units) — brownouts on the flow
    /// plane. In-flight transfers crossing an affected link re-solve their
    /// fair-share rates at the fault instant.
    BandwidthBrownout {
        start: f64,
        end: f64,
        period: f64,
        fraction: f64,
        capacity: (f64, f64),
    },
    /// Bernoulli message loss with the given probability over `[start, end)`
    /// (an explicit `SetMessageLoss` pair is emitted even when the
    /// probability is zero — a zero-probability plane is a no-op by
    /// construction, which the test-suite pins).
    MessageLoss {
        start: f64,
        end: f64,
        probability: f64,
    },
}

/// An ordered collection of perturbations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerturbationPlan {
    /// The recipes, expanded independently and merged by time.
    pub perturbations: Vec<Perturbation>,
}

impl PerturbationPlan {
    /// The empty (quiet) plan.
    pub(crate) fn none() -> Self {
        PerturbationPlan::default()
    }

    /// A plan with the given recipes.
    pub fn new(perturbations: Vec<Perturbation>) -> Self {
        PerturbationPlan { perturbations }
    }

    /// Returns `true` if the plan contains no recipes at all.
    pub fn is_empty(&self) -> bool {
        self.perturbations.is_empty()
    }

    /// Expands the plan against a concrete network into timed fault events,
    /// sorted by time (stable: recipe order breaks ties, matching the
    /// engine's scheduling-order tie-break).
    pub fn expand(&self, network: &Network, seed: u64) -> Vec<(f64, FaultEvent)> {
        let mut events: Vec<(f64, FaultEvent)> = Vec::new();
        let links: Vec<(SiteId, SiteId, f64)> = network.links().collect();
        for (index, p) in self.perturbations.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, index as u64));
            expand_one(*p, network, &links, &mut rng, &mut events);
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        events
    }
}

fn expand_one(
    p: Perturbation,
    network: &Network,
    links: &[(SiteId, SiteId, f64)],
    rng: &mut StdRng,
    events: &mut Vec<(f64, FaultEvent)>,
) {
    match p {
        Perturbation::LinkJitter {
            start,
            end,
            period,
            fraction,
            factor,
        } => {
            if fraction <= 0.0 || period <= 0.0 || links.is_empty() {
                return;
            }
            let per_tick = ((links.len() as f64 * fraction.clamp(0.0, 1.0)).round() as usize)
                .clamp(1, links.len());
            let mut t = start;
            while t < end {
                for _ in 0..per_tick {
                    let (a, b, base_delay) = links[rng.random_range(0..links.len())];
                    let f = if factor.1 > factor.0 {
                        rng.random_range(factor.0..=factor.1)
                    } else {
                        factor.0
                    };
                    let delay = (base_delay * f).max(1e-6);
                    events.push((t, FaultEvent::SetLinkDelay { a, b, delay }));
                }
                t += period;
            }
        }
        Perturbation::LinkFailures {
            start,
            end,
            count,
            downtime,
        } => {
            if links.is_empty() {
                return;
            }
            for _ in 0..count {
                let t = sample_time(start, end, rng);
                let (a, b, _) = links[rng.random_range(0..links.len())];
                events.push((t, FaultEvent::LinkDown { a, b }));
                events.push((t + downtime.max(0.0), FaultEvent::LinkUp { a, b }));
            }
        }
        Perturbation::Partition { at, heal_at } => {
            let half = network.site_count() / 2;
            for &(a, b, _) in links {
                if (a.0 < half) != (b.0 < half) {
                    events.push((at, FaultEvent::LinkDown { a, b }));
                    if heal_at > at {
                        events.push((heal_at, FaultEvent::LinkUp { a, b }));
                    }
                }
            }
        }
        Perturbation::SiteCrashes {
            start,
            end,
            count,
            downtime,
        } => {
            let n = network.site_count();
            if n == 0 {
                return;
            }
            for _ in 0..count {
                let t = sample_time(start, end, rng);
                let site = SiteId(rng.random_range(0..n));
                events.push((t, FaultEvent::SiteDown { site }));
                events.push((t + downtime.max(0.0), FaultEvent::SiteUp { site }));
            }
        }
        Perturbation::BandwidthBrownout {
            start,
            end,
            period,
            fraction,
            capacity,
        } => {
            if fraction <= 0.0 || period <= 0.0 || links.is_empty() {
                return;
            }
            let per_tick = ((links.len() as f64 * fraction.clamp(0.0, 1.0)).round() as usize)
                .clamp(1, links.len());
            let mut t = start;
            while t < end {
                for _ in 0..per_tick {
                    let (a, b, _) = links[rng.random_range(0..links.len())];
                    let bandwidth = if capacity.1 > capacity.0 {
                        rng.random_range(capacity.0..=capacity.1)
                    } else {
                        capacity.0
                    };
                    let bandwidth = bandwidth.max(1e-6);
                    events.push((t, FaultEvent::SetLinkBandwidth { a, b, bandwidth }));
                }
                t += period;
            }
        }
        Perturbation::MessageLoss {
            start,
            end,
            probability,
        } => {
            events.push((
                start,
                FaultEvent::SetMessageLoss {
                    probability: probability.clamp(0.0, 1.0),
                },
            ));
            if end > start {
                events.push((end, FaultEvent::SetMessageLoss { probability: 0.0 }));
            }
        }
    }
}

fn sample_time(start: f64, end: f64, rng: &mut StdRng) -> f64 {
    if end > start {
        rng.random_range(start..end)
    } else {
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::generators::{grid, DelayDistribution};

    fn net() -> Network {
        grid(4, 4, false, DelayDistribution::Constant(1.0), 0)
    }

    #[test]
    fn expansion_is_deterministic_and_time_sorted() {
        let plan = PerturbationPlan::new(vec![
            Perturbation::LinkFailures {
                start: 30.0,
                end: 200.0,
                count: 5,
                downtime: 20.0,
            },
            Perturbation::LinkJitter {
                start: 40.0,
                end: 140.0,
                period: 25.0,
                fraction: 0.2,
                factor: (0.5, 3.0),
            },
            Perturbation::MessageLoss {
                start: 50.0,
                end: 150.0,
                probability: 0.2,
            },
        ]);
        let n = net();
        let a = plan.expand(&n, 9);
        let b = plan.expand(&n, 9);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        let c = plan.expand(&n, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn partition_cuts_exactly_the_cross_links_and_heals_them() {
        let n = net();
        let plan = PerturbationPlan::new(vec![Perturbation::Partition {
            at: 80.0,
            heal_at: 160.0,
        }]);
        let events = plan.expand(&n, 1);
        let downs = events
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::LinkDown { .. }))
            .count();
        let ups = events
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::LinkUp { .. }))
            .count();
        // A 4x4 grid split at site 8 severs the 4 vertical links between
        // rows 1 and 2.
        assert_eq!(downs, 4);
        assert_eq!(ups, 4);
        assert!(events.iter().all(|(t, _)| *t == 80.0 || *t == 160.0));
        // Never-healing partition emits no LinkUp.
        let forever = PerturbationPlan::new(vec![Perturbation::Partition {
            at: 80.0,
            heal_at: 0.0,
        }]);
        assert!(forever
            .expand(&n, 1)
            .iter()
            .all(|(_, e)| matches!(e, FaultEvent::LinkDown { .. })));
    }

    #[test]
    fn zero_rate_recipes_expand_to_noops_only() {
        let n = net();
        let plan = PerturbationPlan::new(vec![
            Perturbation::LinkJitter {
                start: 30.0,
                end: 100.0,
                period: 10.0,
                fraction: 0.0,
                factor: (0.5, 2.0),
            },
            Perturbation::LinkFailures {
                start: 30.0,
                end: 100.0,
                count: 0,
                downtime: 10.0,
            },
            Perturbation::SiteCrashes {
                start: 30.0,
                end: 100.0,
                count: 0,
                downtime: 10.0,
            },
            Perturbation::MessageLoss {
                start: 30.0,
                end: 100.0,
                probability: 0.0,
            },
        ]);
        let events = plan.expand(&n, 4);
        // Only the explicit zero-probability loss pair remains, and it is a
        // no-op by construction.
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(
            |(_, e)| matches!(e, FaultEvent::SetMessageLoss { probability } if *probability == 0.0)
        ));
    }

    #[test]
    fn bandwidth_brownouts_emit_bounded_set_bandwidth_events() {
        let n = net();
        let plan = PerturbationPlan::new(vec![Perturbation::BandwidthBrownout {
            start: 30.0,
            end: 90.0,
            period: 20.0,
            fraction: 0.25,
            capacity: (0.2, 1.0),
        }]);
        let events = plan.expand(&n, 3);
        // A 4x4 grid has 24 links; 25% rounds to 6 links per tick, with
        // ticks at t = 30, 50 and 70.
        assert_eq!(events.len(), 18);
        for (t, e) in &events {
            assert!((30.0..90.0).contains(t));
            match e {
                FaultEvent::SetLinkBandwidth { bandwidth, .. } => {
                    assert!((0.2..=1.0).contains(bandwidth), "capacity {bandwidth}");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(events, plan.expand(&n, 3));
    }

    #[test]
    fn crash_and_failure_recipes_pair_down_with_up() {
        let n = net();
        let plan = PerturbationPlan::new(vec![Perturbation::SiteCrashes {
            start: 30.0,
            end: 60.0,
            count: 3,
            downtime: 15.0,
        }]);
        let events = plan.expand(&n, 2);
        assert_eq!(events.len(), 6);
        let downs: Vec<SiteId> = events
            .iter()
            .filter_map(|(_, e)| match e {
                FaultEvent::SiteDown { site } => Some(*site),
                _ => None,
            })
            .collect();
        let ups: Vec<SiteId> = events
            .iter()
            .filter_map(|(_, e)| match e {
                FaultEvent::SiteUp { site } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(downs.len(), 3);
        let mut downs_sorted = downs.clone();
        let mut ups_sorted = ups.clone();
        downs_sorted.sort();
        ups_sorted.sort();
        assert_eq!(downs_sorted, ups_sorted);
    }
}
