//! Engine-side bandwidth plane.
//!
//! Binds the pure [`rtds_flow::FlowModel`] max-min fair-share solver to the
//! simulated network: paths are resolved against the live topology when a
//! transfer's [`crate::event::EventPayload::FlowStart`] fires and pinned for
//! the flow's lifetime, link capacities are mirrored from
//! [`rtds_net::Network`] bandwidths (lazily, only for links a flow actually
//! crosses), and every start/finish/fault re-solves the rate assignment and
//! reschedules in-flight completions.
//!
//! # Routes and buffers
//!
//! A transfer's head delay and pinned path come from the engine's
//! [`rtds_net::RouteMemo`]: one Dijkstra per `(from, to)` pair, keeping that
//! pair's route only, dropped on any change of [`Network::version`]. A
//! re-solve runs
//! over the rate model's own buffers, fills an engine-owned buffer and
//! visits link utilizations, so once warm it allocates nothing.
//!
//! # Rescheduling and epochs
//!
//! Each flow carries a monotonically increasing *epoch*, and every scheduled
//! completion carries the epoch it was predicted under. The queue forgets an
//! event only by popping it, and the epoch travels inside the event, so a
//! superseded completion is recognised whenever it pops. A recomputation that
//! changes a flow's predicted completion (bit-compared, so byte-identical
//! re-solves never churn the queue) bumps the epoch and pushes a fresh
//! [`crate::event::EventPayload::FlowFinish`]; an event whose epoch no
//! longer matches is stale and ignored. A stalled flow (rate zero — for
//! example a failed link pinning its path) gets an infinite prediction and
//! *no* event; the next recomputation revives it.
//!
//! # Determinism
//!
//! All state lives in `BTreeMap`s keyed by flow id and normalized site
//! pair; recomputation visits flows in ascending id order and links in
//! ascending allocation order, so the plane is a pure function of the
//! event history.

use rtds_flow::{FlowModel, LinkId};
use rtds_net::{Network, SiteId};
use std::collections::BTreeMap;

/// One in-flight transfer tracked by the engine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EngineFlow<M> {
    /// Initiating site.
    pub from: SiteId,
    /// Destination site (the message is delivered here on completion).
    pub to: SiteId,
    /// Message delivered when the transfer completes.
    pub message: M,
    /// Total data volume of the transfer.
    pub volume: f64,
    /// Simulated time at which the flow started occupying bandwidth.
    pub started: f64,
    /// Scheduling epoch of the currently pending completion event.
    pub epoch: u64,
    /// Pinned path as normalized `(a, b)` site-pair keys with `a < b`.
    pub links: Vec<(usize, usize)>,
    /// Currently predicted completion time (`f64::INFINITY` while stalled,
    /// in which case no completion event is pending).
    pub finish: f64,
}

/// A completion event the engine must (re)schedule after a recomputation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FinishSchedule {
    /// Engine flow id (same id space as the rate model).
    pub flow: u64,
    /// Epoch stamped into the event for staleness detection.
    pub epoch: u64,
    /// Predicted completion time.
    pub time: f64,
    /// Destination site (the completion event's target).
    pub to: SiteId,
}

/// The shared-bandwidth plane owned by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlowPlane<M> {
    /// Fair-share rate model; link ids are plane-allocated.
    pub model: FlowModel,
    /// In-flight transfers keyed by model flow id.
    pub flows: BTreeMap<u64, EngineFlow<M>>,
    /// Site-pair → model link id, allocated on first use.
    pub link_ids: BTreeMap<(usize, usize), LinkId>,
    /// Next epoch to stamp on a rescheduled completion.
    pub next_epoch: u64,
    /// Network mutation version the link capacities were last mirrored at.
    pub topo_version: u64,
}

impl<M> Default for FlowPlane<M> {
    fn default() -> Self {
        FlowPlane {
            model: FlowModel::new(),
            flows: BTreeMap::new(),
            link_ids: BTreeMap::new(),
            next_epoch: 0,
            topo_version: 0,
        }
    }
}

impl<M> FlowPlane<M> {
    /// Returns `true` when no transfer is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Number of in-flight transfers.
    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }

    /// Model link id for the site pair, allocating it (with the network's
    /// current bandwidth as capacity) on first use. A link the network no
    /// longer has gets capacity zero, stalling flows pinned across it.
    fn link_id(&mut self, a: usize, b: usize, network: &Network) -> LinkId {
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.link_ids.get(&key) {
            return id;
        }
        let capacity = network
            .link_bandwidth(SiteId(key.0), SiteId(key.1))
            .unwrap_or(0.0);
        let id = self.model.add_link(capacity);
        self.link_ids.insert(key, id);
        id
    }

    /// Mirrors link capacities from the network if its topology/attribute
    /// version moved since the last sync. Removed links become capacity
    /// zero (their pinned flows stall until re-solved against a revived
    /// link). Returns `true` when anything was refreshed.
    pub(crate) fn sync_with_network(&mut self, network: &Network) -> bool {
        if self.topo_version == network.version() {
            return false;
        }
        self.topo_version = network.version();
        for (&(a, b), &id) in &self.link_ids {
            let capacity = network.link_bandwidth(SiteId(a), SiteId(b)).unwrap_or(0.0);
            self.model.set_link_capacity(id, capacity);
        }
        true
    }

    /// Registers a transfer whose start event just fired, pinning `path`
    /// (sites, inclusive of both endpoints) as its links. The caller must
    /// follow up with [`FlowPlane::reschedule`] to assign rates and obtain
    /// completion events.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        &mut self,
        now: f64,
        from: SiteId,
        to: SiteId,
        volume: f64,
        message: M,
        path: &[SiteId],
        network: &Network,
    ) -> u64 {
        self.model.advance_to(now);
        let mut links = Vec::with_capacity(path.len().saturating_sub(1));
        let mut model_links = Vec::with_capacity(links.capacity());
        for pair in path.windows(2) {
            let (a, b) = (pair[0].0.min(pair[1].0), pair[0].0.max(pair[1].0));
            links.push((a, b));
            model_links.push(self.link_id(a, b, network));
        }
        let id = self.model.start(model_links, volume);
        self.flows.insert(
            id,
            EngineFlow {
                from,
                to,
                message,
                volume,
                started: now,
                epoch: 0,
                links,
                finish: f64::INFINITY,
            },
        );
        id
    }

    /// Checks a completion event against the flow's current epoch. Returns
    /// `false` for stale events (superseded by a reschedule) and for flows
    /// that no longer exist.
    pub(crate) fn finish_is_current(&self, flow: u64, epoch: u64) -> bool {
        self.flows.get(&flow).is_some_and(|f| f.epoch == epoch)
    }

    /// Removes a completed flow, returning its record for delivery.
    pub(crate) fn finish(&mut self, now: f64, flow: u64) -> Option<EngineFlow<M>> {
        self.model.advance_to(now);
        if !self.model.finish(flow) {
            return None;
        }
        self.flows.remove(&flow)
    }

    /// Advances the model to `now`, re-solves the fair-share assignment and
    /// fills `out` with the completion events to (re)schedule: one entry per
    /// flow whose predicted completion changed bit-for-bit and is finite.
    /// Flows whose prediction is unchanged keep their pending event; flows
    /// that stalled (infinite prediction) get their epoch bumped with no
    /// event, orphaning any pending one.
    pub(crate) fn reschedule(&mut self, now: f64, out: &mut Vec<FinishSchedule>) {
        self.model.advance_to(now);
        self.model.recompute();
        out.clear();
        for (&id, flow) in &mut self.flows {
            let predicted = self.model.finish_time(id);
            if predicted.to_bits() == flow.finish.to_bits() {
                continue;
            }
            flow.finish = predicted;
            flow.epoch = self.next_epoch;
            self.next_epoch += 1;
            if predicted.is_finite() {
                out.push(FinishSchedule {
                    flow: id,
                    epoch: flow.epoch,
                    time: predicted,
                    to: flow.to,
                });
            }
        }
    }

    /// Hands `visit` a utilization sample `(a, b, rate / capacity)` for every
    /// link with finite positive capacity that the last
    /// [`FlowPlane::reschedule`] loaded, in ascending site-pair order. Used
    /// for telemetry after a recomputation.
    pub(crate) fn link_utilization_with(&self, mut visit: impl FnMut(usize, usize, f64)) {
        let rates = self.model.link_rates();
        for (&(a, b), &id) in &self.link_ids {
            let capacity = self.model.link_capacity(id);
            if !capacity.is_finite() || capacity <= 0.0 {
                continue;
            }
            let rate = rates[id as usize];
            if rate > 0.0 {
                visit(a, b, rate / capacity);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::Network;

    fn line3() -> Network {
        // 0 —1.0— 1 —1.0— 2, both links bandwidth 2.0.
        let mut net = Network::new(3);
        net.add_link_with_bandwidth(SiteId(0), SiteId(1), 1.0, 2.0)
            .unwrap();
        net.add_link_with_bandwidth(SiteId(1), SiteId(2), 1.0, 2.0)
            .unwrap();
        net
    }

    #[test]
    fn start_reschedule_finish_lifecycle() {
        let net = line3();
        let mut plane: FlowPlane<u32> = FlowPlane::default();
        let path = [SiteId(0), SiteId(1), SiteId(2)];
        let id = plane.start(0.0, SiteId(0), SiteId(2), 4.0, 7, &path, &net);
        let mut scheds = Vec::new();
        plane.reschedule(0.0, &mut scheds);
        assert_eq!(scheds.len(), 1);
        assert_eq!(scheds[0].flow, id);
        // 4.0 volume at bandwidth 2.0 → completion at t = 2.0.
        assert_eq!(scheds[0].time, 2.0);
        assert!(plane.finish_is_current(id, scheds[0].epoch));
        assert!(!plane.finish_is_current(id, scheds[0].epoch + 1));
        let done = plane.finish(2.0, id).unwrap();
        assert_eq!(done.message, 7);
        assert!(plane.is_empty());
    }

    #[test]
    fn unchanged_predictions_do_not_churn_the_queue() {
        let net = line3();
        let mut plane: FlowPlane<u32> = FlowPlane::default();
        let path = [SiteId(0), SiteId(1)];
        plane.start(0.0, SiteId(0), SiteId(1), 4.0, 1, &path, &net);
        let mut scheds = Vec::new();
        plane.reschedule(0.0, &mut scheds);
        assert_eq!(scheds.len(), 1);
        // Re-solving with nothing changed must not emit new events.
        plane.reschedule(0.5, &mut scheds);
        assert!(scheds.is_empty());
    }

    #[test]
    fn contention_splits_and_second_start_reschedules_the_first() {
        let net = line3();
        let mut plane: FlowPlane<u32> = FlowPlane::default();
        let a = plane.start(
            0.0,
            SiteId(0),
            SiteId(1),
            4.0,
            1,
            &[SiteId(0), SiteId(1)],
            &net,
        );
        let mut scheds = Vec::new();
        plane.reschedule(0.0, &mut scheds);
        assert_eq!(scheds[0].time, 2.0);
        // Second flow on the same link at t = 1.0: the first has 2.0 volume
        // left, now moving at rate 1.0 → finishes at 3.0.
        let b = plane.start(
            1.0,
            SiteId(0),
            SiteId(1),
            4.0,
            2,
            &[SiteId(0), SiteId(1)],
            &net,
        );
        plane.reschedule(1.0, &mut scheds);
        let times: BTreeMap<u64, f64> = scheds.iter().map(|s| (s.flow, s.time)).collect();
        assert_eq!(times[&a], 3.0);
        assert_eq!(times[&b], 5.0);
    }

    #[test]
    fn network_mutation_resyncs_capacities_and_stalls_removed_links() {
        let mut net = line3();
        let mut plane: FlowPlane<u32> = FlowPlane {
            topo_version: net.version(),
            ..FlowPlane::default()
        };
        plane.start(
            0.0,
            SiteId(0),
            SiteId(1),
            4.0,
            1,
            &[SiteId(0), SiteId(1)],
            &net,
        );
        let mut scheds = Vec::new();
        plane.reschedule(0.0, &mut scheds);
        assert!(!plane.sync_with_network(&net), "no mutation yet");
        net.remove_link(SiteId(0), SiteId(1)).unwrap();
        assert!(plane.sync_with_network(&net));
        plane.reschedule(1.0, &mut scheds);
        assert!(scheds.is_empty(), "stalled flow must not schedule an event");
        let flow = plane.flows.values().next().unwrap();
        assert!(flow.finish.is_infinite());
    }

    #[test]
    fn utilization_reports_only_loaded_finite_links() {
        let net = line3();
        let mut plane: FlowPlane<u32> = FlowPlane::default();
        plane.start(
            0.0,
            SiteId(0),
            SiteId(1),
            4.0,
            1,
            &[SiteId(0), SiteId(1)],
            &net,
        );
        plane.reschedule(0.0, &mut Vec::new());
        let mut util = Vec::new();
        plane.link_utilization_with(|a, b, u| util.push((a, b, u)));
        assert_eq!(util, vec![(0, 1, 1.0)]);
    }
}
