//! # rtds-flow — shared-bandwidth flow-level network model
//!
//! A dependency-free max-min fair-share flow model in the style of
//! flow-level network simulators (SimGrid, dslab-network): a *flow* is a
//! transfer of `volume` bytes across a fixed set of links, and all flows
//! crossing a link split its capacity **max-min fairly** — the solver
//! progressively fills rates until every flow is blocked by a saturated
//! bottleneck link on which it holds a maximal rate.
//!
//! The crate is pure bookkeeping plus arithmetic: it knows nothing about
//! events, sites or messages. The simulation engine drives it
//! *event-sparsely* — rates only change when a flow starts or finishes (or
//! a link's capacity changes), so the engine
//!
//! 1. calls [`FlowModel::advance_to`] to integrate `remaining -= rate · Δt`
//!    up to the current simulation time,
//! 2. mutates the flow set ([`FlowModel::start`] / [`FlowModel::finish`])
//!    or a capacity ([`FlowModel::set_link_capacity`]),
//! 3. calls [`FlowModel::recompute`] to re-solve the bottleneck
//!    assignment, and
//! 4. reads [`FlowModel::finish_time`] for each flow to (re)schedule
//!    completion events.
//!
//! ## Determinism
//!
//! Everything here is exact IEEE-754 arithmetic applied in a fixed order:
//! links are scanned in ascending [`LinkId`] order and flows in ascending
//! id order (a `BTreeMap` walk), so the same flow set always
//! produces bit-identical rates. There is no randomness, no wall-clock and
//! no hashing — so a run that replays the same events reproduces every rate
//! bit-for-bit.
//!
//! ## The solver
//!
//! [`max_min_rates`] implements classic progressive filling: repeatedly
//! find the link whose residual capacity divided by its number of
//! still-unfrozen flows is smallest, freeze every flow crossing such a
//! bottleneck at that fair share, charge the frozen rates to every link
//! they cross, and repeat. Each round freezes at least one flow, so the
//! loop runs at most `flows` times. Links with `f64::INFINITY` capacity
//! never constrain anything; a flow whose every link is unconstrained gets
//! an infinite rate (the engine treats that as "completes instantly").
//!
//! ```
//! use rtds_flow::FlowModel;
//!
//! let mut model = FlowModel::new();
//! let link = model.add_link(10.0);
//! let a = model.start(vec![link], 100.0);
//! let b = model.start(vec![link], 100.0);
//! model.recompute();
//! // Two flows share the 10-unit link max-min fairly: 5 units each.
//! assert_eq!(model.rate(a), 5.0);
//! assert_eq!(model.rate(b), 5.0);
//! assert_eq!(model.finish_time(a), 20.0);
//! ```

use std::collections::BTreeMap;
use std::ops::Range;

/// Identifier of a link inside a [`FlowModel`]; allocated densely by
/// [`FlowModel::add_link`].
pub type LinkId = u32;

/// Identifier of a flow inside a [`FlowModel`]; monotonically increasing,
/// never reused, so a stale reference can always be detected.
pub(crate) type FlowId = u64;

/// One in-flight transfer: the links it crosses, the volume still to move
/// and the rate assigned by the last [`max_min_rates`] solve.
#[derive(Debug, Clone, PartialEq)]
struct FlowState {
    links: Vec<LinkId>,
    remaining: f64,
    rate: f64,
}

/// Max-min fair-share flow model over a set of capacitated links.
///
/// See the [crate docs](crate) for the drive protocol and the determinism
/// argument. Equality compares state (links, flows, ids, clock), not the
/// solver's buffers or the per-link totals derived from the last solve.
#[derive(Debug, Clone, Default)]
pub struct FlowModel {
    capacities: Vec<f64>,
    flows: BTreeMap<FlowId, FlowState>,
    next_id: FlowId,
    time: f64,
    solver: Solver,
    /// Per link, the total finite rate the last recompute assigned.
    link_rates: Vec<f64>,
}

impl PartialEq for FlowModel {
    fn eq(&self, other: &Self) -> bool {
        self.capacities == other.capacities
            && self.flows == other.flows
            && self.next_id == other.next_id
            && self.time == other.time
    }
}

impl FlowModel {
    /// An empty model at time 0 with no links and no flows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a link with the given capacity (use `f64::INFINITY` for an
    /// unconstrained link) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is NaN or negative.
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(
            capacity >= 0.0,
            "link capacity must be non-negative, got {capacity}"
        );
        let id = self.capacities.len() as LinkId;
        self.capacities.push(capacity);
        id
    }

    /// Capacity of a link.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.capacities[link as usize]
    }

    /// Updates a link's capacity. Existing rates keep their old values
    /// until the next [`recompute`](Self::recompute) — callers must
    /// [`advance_to`](Self::advance_to) the mutation time first so the
    /// old rate is integrated over the interval it was actually valid.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity: f64) {
        assert!(
            capacity >= 0.0,
            "link capacity must be non-negative, got {capacity}"
        );
        self.capacities[link as usize] = capacity;
    }

    /// Per [`LinkId`], the finite rates the last [`recompute`](Self::recompute)
    /// assigned to the flows crossing it, summed in ascending flow id order
    /// (utilisation telemetry).
    pub fn link_rates(&self) -> &[f64] {
        &self.link_rates
    }

    /// The model's current time (the argument of the last
    /// [`advance_to`](Self::advance_to)).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Integrates every flow's progress up to `time`:
    /// `remaining -= rate · (time − self.time)`, clamped at zero.
    ///
    /// # Panics
    ///
    /// Panics if `time` is non-finite or moves backwards by more than a
    /// rounding epsilon.
    pub fn advance_to(&mut self, time: f64) {
        assert!(
            time.is_finite() && time + 1e-9 >= self.time,
            "flow model time must advance monotonically ({} -> {time})",
            self.time
        );
        let dt = time - self.time;
        if dt > 0.0 {
            for flow in self.flows.values_mut() {
                if flow.rate.is_infinite() {
                    flow.remaining = 0.0;
                } else {
                    flow.remaining = (flow.remaining - flow.rate * dt).max(0.0);
                }
            }
            self.time = time;
        }
    }

    /// Registers a new flow over `links` carrying `volume` units and
    /// returns its id. The new flow's rate is zero until the next
    /// [`recompute`](Self::recompute).
    ///
    /// An empty link set models a transfer that crosses no constrained
    /// resource (e.g. a site talking to itself): it gets an infinite rate
    /// and finishes immediately.
    ///
    /// # Panics
    ///
    /// Panics if `volume` is non-finite or negative, or any link id is out
    /// of range.
    pub fn start(&mut self, links: Vec<LinkId>, volume: f64) -> FlowId {
        assert!(
            volume.is_finite() && volume >= 0.0,
            "flow volume must be finite and non-negative, got {volume}"
        );
        for &link in &links {
            assert!(
                (link as usize) < self.capacities.len(),
                "unknown link {link} in flow"
            );
        }
        let id = self.next_id;
        self.next_id += 1;
        self.flows.insert(
            id,
            FlowState {
                links,
                remaining: volume,
                rate: 0.0,
            },
        );
        id
    }

    /// Removes a flow (normally because it finished). Returns `true` if
    /// the flow existed. Remaining flows keep their rates until the next
    /// [`recompute`](Self::recompute).
    pub fn finish(&mut self, flow: FlowId) -> bool {
        self.flows.remove(&flow).is_some()
    }

    /// Re-solves the max-min fair-share assignment for the current flow
    /// set, overwriting every flow's rate and the per-link totals. A solver
    /// that has held a flow set this large allocates nothing.
    pub fn recompute(&mut self) {
        let flows = self.flows.values().map(|f| f.links.as_slice());
        self.solver.solve(&self.capacities, flows);
        self.link_rates.clear();
        self.link_rates.resize(self.capacities.len(), 0.0);
        for (flow, &rate) in self.flows.values_mut().zip(&self.solver.rates) {
            flow.rate = rate;
            if rate.is_finite() {
                for &link in &flow.links {
                    self.link_rates[link as usize] += rate;
                }
            }
        }
    }

    /// The absolute time at which a flow completes at its current rate:
    /// `time + remaining / rate`. Returns the current time for finished or
    /// infinite-rate flows and `f64::INFINITY` for stalled (zero-rate)
    /// flows, which must not be scheduled until a recompute revives them.
    pub fn finish_time(&self, flow: FlowId) -> f64 {
        let f = &self.flows[&flow];
        if f.remaining <= 0.0 || f.rate.is_infinite() {
            self.time
        } else if f.rate <= 0.0 {
            f64::INFINITY
        } else {
            self.time + f.remaining / f.rate
        }
    }

    /// Current rate of a flow (as of the last recompute).
    pub fn rate(&self, flow: FlowId) -> f64 {
        self.flows[&flow].rate
    }

    /// Volume still to transfer (as of the last advance).
    pub fn remaining(&self, flow: FlowId) -> f64 {
        self.flows[&flow].remaining
    }

    /// Live flow ids in ascending order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.flows.keys().copied()
    }
}

/// Solves the max-min fair-share rate assignment by progressive filling.
///
/// `capacities[l]` is the capacity of link `l`; `flows[i]` lists the links
/// flow `i` crosses. Returns one rate per flow. Flows crossing no links
/// (and flows all of whose links are infinite-capacity) get
/// `f64::INFINITY`; flows crossing a zero-capacity link get `0.0`.
///
/// The result is the unique max-min fair allocation: every flow with a
/// finite rate is blocked by at least one *saturated* link on which its
/// rate is maximal, so no flow's rate can be increased without decreasing
/// that of some flow with an equal-or-smaller rate.
pub fn max_min_rates(capacities: &[f64], flows: &[&[LinkId]]) -> Vec<f64> {
    let mut solver = Solver::default();
    solver.solve(capacities, flows.iter().copied());
    solver.rates
}

/// The buffers of the progressive-filling solve, reused from one
/// [`FlowModel::recompute`] to the next. Every solve overwrites all of them.
#[derive(Debug, Clone, Default)]
struct Solver {
    /// Every flow's links back to back; flow `i`'s are `links[spans[i]]`.
    links: Vec<LinkId>,
    spans: Vec<Range<usize>>,
    /// Per flow: the rate, and whether it is fixed yet.
    rates: Vec<f64>,
    frozen: Vec<bool>,
    /// Per link: capacity already committed to frozen flows, unfrozen flows
    /// crossing it, and whether it is a bottleneck this round.
    used: Vec<f64>,
    count: Vec<u32>,
    bottleneck: Vec<bool>,
}

impl Solver {
    /// Progressive filling over `flows`' link lists, in order: the body of
    /// [`max_min_rates`], leaving one rate per flow in `rates`.
    fn solve<'a>(&mut self, capacities: &[f64], flows: impl Iterator<Item = &'a [LinkId]>) {
        let Solver {
            links,
            spans,
            rates,
            frozen,
            used,
            count,
            bottleneck,
        } = self;
        links.clear();
        spans.clear();
        for flow in flows {
            spans.push(links.len()..links.len() + flow.len());
            links.extend_from_slice(flow);
        }
        let (links, spans) = (&*links, &*spans);
        let flows = || spans.iter().map(move |span| &links[span.clone()]);
        let (n, l) = (spans.len(), capacities.len());
        rates.clear();
        rates.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        used.clear();
        used.resize(l, 0.0);
        count.clear();
        count.resize(l, 0);
        bottleneck.clear();
        bottleneck.resize(l, false);
        let mut unfrozen = 0usize;
        for (i, links) in flows().enumerate() {
            if links.is_empty() {
                rates[i] = f64::INFINITY;
                frozen[i] = true;
            } else {
                unfrozen += 1;
            }
        }
        while unfrozen > 0 {
            count.iter_mut().for_each(|c| *c = 0);
            for (i, links) in flows().enumerate() {
                if frozen[i] {
                    continue;
                }
                for &link in links {
                    count[link as usize] += 1;
                }
            }
            // The tightest fair share over all contended links.
            let mut share = f64::INFINITY;
            for link in 0..l {
                if count[link] == 0 {
                    continue;
                }
                let residual = (capacities[link] - used[link]).max(0.0);
                let s = residual / count[link] as f64;
                if s < share {
                    share = s;
                }
            }
            if share.is_infinite() {
                // Every remaining flow crosses only unconstrained links.
                for (i, rate) in rates.iter_mut().enumerate() {
                    if !frozen[i] {
                        *rate = f64::INFINITY;
                        frozen[i] = true;
                    }
                }
                break;
            }
            // Freeze every flow crossing a bottleneck link at the fair share.
            for link in 0..l {
                bottleneck[link] = if count[link] == 0 {
                    false
                } else {
                    let residual = (capacities[link] - used[link]).max(0.0);
                    residual / count[link] as f64 <= share
                };
            }
            let mut froze_any = false;
            for (i, links) in flows().enumerate() {
                if frozen[i] || !links.iter().any(|&lk| bottleneck[lk as usize]) {
                    continue;
                }
                rates[i] = share;
                frozen[i] = true;
                unfrozen -= 1;
                froze_any = true;
                for &link in links {
                    used[link as usize] += share;
                }
            }
            debug_assert!(froze_any, "progressive filling froze no flow");
            if !froze_any {
                break; // defensive: avoid an infinite loop on fp pathology
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Independent reference: freeze exactly one bottleneck link per
    /// round, recomputing everything from scratch. Structurally different
    /// from the production solver (which freezes all tied bottlenecks at
    /// once and maintains incremental residuals), but computes the same
    /// allocation.
    fn reference_rates(capacities: &[f64], flows: &[&[LinkId]]) -> Vec<f64> {
        let n = flows.len();
        let mut rates = vec![f64::NAN; n];
        let mut frozen: Vec<bool> = flows.iter().map(|links| links.is_empty()).collect();
        for (i, done) in frozen.iter().enumerate() {
            if *done {
                rates[i] = f64::INFINITY;
            }
        }
        loop {
            if frozen.iter().all(|&f| f) {
                break;
            }
            // Residual capacity after charging every frozen flow.
            let mut best: Option<(f64, usize)> = None;
            for (link, &cap) in capacities.iter().enumerate() {
                let mut used = 0.0;
                let mut waiting = 0u32;
                for (i, links) in flows.iter().enumerate() {
                    if !links.contains(&(link as LinkId)) {
                        continue;
                    }
                    if frozen[i] {
                        if rates[i].is_finite() {
                            used += rates[i];
                        }
                    } else {
                        waiting += 1;
                    }
                }
                if waiting == 0 {
                    continue;
                }
                let share = (cap - used).max(0.0) / waiting as f64;
                if best.is_none() || share < best.unwrap().0 {
                    best = Some((share, link));
                }
            }
            match best {
                Some((share, link)) if share.is_finite() => {
                    for (i, links) in flows.iter().enumerate() {
                        if !frozen[i] && links.contains(&(link as LinkId)) {
                            rates[i] = share;
                            frozen[i] = true;
                        }
                    }
                }
                _ => {
                    // Only unconstrained flows left.
                    for (i, done) in frozen.iter_mut().enumerate() {
                        if !*done {
                            rates[i] = f64::INFINITY;
                            *done = true;
                        }
                    }
                }
            }
        }
        rates
    }

    #[test]
    fn single_flow_gets_the_bottleneck_capacity() {
        let rates = max_min_rates(&[10.0, 4.0], &[&[0, 1]]);
        assert_eq!(rates, vec![4.0]);
    }

    #[test]
    fn two_flows_split_a_link_evenly() {
        let rates = max_min_rates(&[10.0], &[&[0], &[0]]);
        assert_eq!(rates, vec![5.0, 5.0]);
    }

    #[test]
    fn classic_three_flow_line_network() {
        // Links A and B in series; flow 0 crosses both, flows 1 and 2 use
        // one each. With caps 1.0 each: flow 0 and flow 1 share A (0.5
        // each), flow 2 then gets the residual 0.5 on B... except flow 0
        // is already limited to 0.5, so flow 2 gets 1.0 - 0.5 = 0.5.
        let rates = max_min_rates(&[1.0, 1.0], &[&[0, 1], &[0], &[1]]);
        assert_eq!(rates, vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn unequal_bottlenecks_give_unequal_rates() {
        // Flow 0 pinned by a tight private link; flow 1 then takes the
        // rest of the shared link.
        let rates = max_min_rates(&[1.0, 10.0], &[&[0, 1], &[1]]);
        assert_eq!(rates, vec![1.0, 9.0]);
    }

    #[test]
    fn infinite_capacity_never_constrains() {
        let rates = max_min_rates(&[f64::INFINITY, 6.0], &[&[0], &[0, 1], &[1]]);
        assert_eq!(rates, vec![f64::INFINITY, 3.0, 3.0]);
    }

    #[test]
    fn zero_capacity_stalls_its_flows() {
        let rates = max_min_rates(&[0.0, 8.0], &[&[0, 1], &[1]]);
        assert_eq!(rates[0], 0.0);
        assert_eq!(rates[1], 8.0);
    }

    #[test]
    fn empty_link_set_is_unconstrained() {
        let rates = max_min_rates(&[1.0], &[&[], &[0]]);
        assert_eq!(rates, vec![f64::INFINITY, 1.0]);
    }

    #[test]
    fn model_advances_and_finishes_flows() {
        let mut model = FlowModel::new();
        let link = model.add_link(10.0);
        let a = model.start(vec![link], 100.0);
        let b = model.start(vec![link], 40.0);
        model.recompute();
        assert_eq!(model.rate(a), 5.0);
        assert_eq!(model.finish_time(b), 8.0);

        // b finishes at t=8; a has moved 40 of its 100 units.
        model.advance_to(8.0);
        assert!(model.finish(b));
        model.recompute();
        assert_eq!(model.remaining(a), 60.0);
        assert_eq!(model.rate(a), 10.0);
        assert_eq!(model.finish_time(a), 14.0);
    }

    #[test]
    fn capacity_change_reshapes_in_flight_rates() {
        let mut model = FlowModel::new();
        let link = model.add_link(8.0);
        let a = model.start(vec![link], 80.0);
        model.recompute();
        assert_eq!(model.finish_time(a), 10.0);

        model.advance_to(5.0);
        model.set_link_capacity(link, 2.0);
        model.recompute();
        assert_eq!(model.remaining(a), 40.0);
        assert_eq!(model.finish_time(a), 25.0);

        // Starving the link entirely stalls the flow.
        model.set_link_capacity(link, 0.0);
        model.recompute();
        assert_eq!(model.finish_time(a), f64::INFINITY);
    }

    #[test]
    fn stalled_then_revived_flow_resumes() {
        let mut model = FlowModel::new();
        let link = model.add_link(0.0);
        let a = model.start(vec![link], 10.0);
        model.recompute();
        assert_eq!(model.rate(a), 0.0);
        model.advance_to(100.0);
        assert_eq!(model.remaining(a), 10.0);
        model.set_link_capacity(link, 5.0);
        model.recompute();
        assert_eq!(model.finish_time(a), 102.0);
    }

    #[test]
    fn flow_ids_are_never_reused() {
        let mut model = FlowModel::new();
        let link = model.add_link(1.0);
        let a = model.start(vec![link], 1.0);
        model.finish(a);
        let b = model.start(vec![link], 1.0);
        assert_ne!(a, b);
        assert!(!model.flows.contains_key(&a));
        assert!(model.flows.contains_key(&b));
    }

    /// Max-min optimality certificate: every finite-rate flow crosses a
    /// saturated link on which its rate is maximal.
    fn assert_max_min(capacities: &[f64], flows: &[&[LinkId]], rates: &[f64]) {
        let tol = 1e-9;
        // Rates are non-negative and links respect capacity.
        for &r in rates {
            assert!(r >= 0.0, "negative rate {r}");
        }
        for (link, &cap) in capacities.iter().enumerate() {
            if cap.is_infinite() {
                continue;
            }
            let total: f64 = flows
                .iter()
                .zip(rates)
                .filter(|(links, _)| links.contains(&(link as LinkId)))
                .map(|(_, &r)| r)
                .sum();
            assert!(
                total <= cap + tol * (1.0 + cap),
                "link {link} over capacity: {total} > {cap}"
            );
        }
        // Bottleneck certificate.
        for (i, links) in flows.iter().enumerate() {
            if rates[i].is_infinite() {
                continue;
            }
            let has_bottleneck = links.iter().any(|&lk| {
                let link = lk as usize;
                let cap = capacities[link];
                if cap.is_infinite() {
                    return false;
                }
                let total: f64 = flows
                    .iter()
                    .zip(rates)
                    .filter(|(ls, _)| ls.contains(&lk))
                    .map(|(_, &r)| r)
                    .sum();
                let saturated = total >= cap - tol * (1.0 + cap);
                let maximal = flows
                    .iter()
                    .zip(rates)
                    .filter(|(ls, _)| ls.contains(&lk))
                    .all(|(_, &r)| rates[i] >= r - tol * (1.0 + r.abs()));
                saturated && maximal
            });
            assert!(
                has_bottleneck,
                "flow {i} (rate {}) has no saturated bottleneck link",
                rates[i]
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn solver_satisfies_max_min_optimality(
            caps in proptest::collection::vec(0.5f64..16.0, 1..6),
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..6, 1..4), 1..7),
        ) {
            let flows: Vec<Vec<LinkId>> = picks
                .iter()
                .map(|p| {
                    let mut links: Vec<LinkId> = p
                        .iter()
                        .map(|&x| (x % caps.len()) as LinkId)
                        .collect();
                    links.sort_unstable();
                    links.dedup();
                    links
                })
                .collect();
            let views: Vec<&[LinkId]> = flows.iter().map(|f| f.as_slice()).collect();
            let rates = max_min_rates(&caps, &views);
            prop_assert_eq!(rates.len(), views.len());
            assert_max_min(&caps, &views, &rates);
        }

        #[test]
        fn solver_matches_brute_force_reference(
            caps in proptest::collection::vec(0.5f64..16.0, 1..5),
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..5, 1..4), 1..6),
        ) {
            let flows: Vec<Vec<LinkId>> = picks
                .iter()
                .map(|p| {
                    let mut links: Vec<LinkId> = p
                        .iter()
                        .map(|&x| (x % caps.len()) as LinkId)
                        .collect();
                    links.sort_unstable();
                    links.dedup();
                    links
                })
                .collect();
            let views: Vec<&[LinkId]> = flows.iter().map(|f| f.as_slice()).collect();
            let fast = max_min_rates(&caps, &views);
            let slow = reference_rates(&caps, &views);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                if f.is_infinite() || s.is_infinite() {
                    prop_assert_eq!(f, s, "flow {} infinite mismatch", i);
                } else {
                    prop_assert!(
                        (f - s).abs() <= 1e-6 * (1.0 + s.abs()),
                        "flow {}: fast {} vs reference {}", i, f, s
                    );
                }
            }
        }

        #[test]
        fn mixed_infinite_capacities_stay_max_min(
            caps in proptest::collection::vec(
                prop_oneof![Just(f64::INFINITY), 0.5f64..8.0], 1..5),
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..5, 1..3), 1..6),
        ) {
            let flows: Vec<Vec<LinkId>> = picks
                .iter()
                .map(|p| {
                    let mut links: Vec<LinkId> = p
                        .iter()
                        .map(|&x| (x % caps.len()) as LinkId)
                        .collect();
                    links.sort_unstable();
                    links.dedup();
                    links
                })
                .collect();
            let views: Vec<&[LinkId]> = flows.iter().map(|f| f.as_slice()).collect();
            let rates = max_min_rates(&caps, &views);
            assert_max_min(&caps, &views, &rates);
        }
    }
}
