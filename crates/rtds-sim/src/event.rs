//! Simulation events and the event queue.
//!
//! The queue is a binary heap keyed by the explicit total order
//! `(time, class, sequence)`:
//!
//! * `time` — simulated firing time;
//! * `class` — `EventPayload::class_rank`: fault/perturbation events rank
//!   before everything else at the same timestamp, so a link that fails at
//!   time `t` already affects every message delivered at `t`; external
//!   arrivals rank next, before deliveries and timers, so the position of a
//!   same-time arrival does not depend on *when* it was scheduled — a
//!   pre-materialized workload (all arrivals injected before the run, with
//!   the lowest sequence numbers) and a streaming workload (arrivals pulled
//!   from an [`crate::engine::ArrivalSource`] mid-run) produce the identical
//!   event order, which the record/replay equivalence of the workload layer
//!   relies on;
//! * `sequence` — assigned at scheduling time and strictly increasing.
//!
//! This order gives two guarantees the paper relies on:
//!
//! * determinism — ties in simulated time are broken by the explicit class
//!   rank and then by scheduling order, so a run is a pure function of its
//!   inputs;
//! * per-link FIFO — while a link's delay is constant, two messages sent
//!   over it experience the same propagation delay, hence the earlier-sent
//!   one is delivered first (order-preserving links, §2). A latency-jitter
//!   fault ([`FaultEvent::SetLinkDelay`]) deliberately breaks this for
//!   messages straddling the change: a message sent after a delay *drop*
//!   can overtake one still in flight — exactly the reordering a dynamic
//!   network inflicts, and part of what jitter scenarios test. Unperturbed
//!   runs keep the full FIFO guarantee.

use crate::faults::FaultEvent;
use rtds_net::SiteId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload<M> {
    /// A message from `from` is delivered to the target site.
    Deliver { from: SiteId, message: M },
    /// A timer previously set by the target site fires.
    Timer { timer_id: u64 },
    /// An external stimulus injected by the experiment driver (for example a
    /// job arrival). Delivered like a message from the site to itself.
    External { message: M },
    /// A perturbation applied by the engine itself (never dispatched to a
    /// protocol handler). The target site is ignored.
    Fault { fault: FaultEvent },
    /// A data transfer initiated by [`crate::engine::Context::transfer`]
    /// begins occupying bandwidth toward the target site. Fires after the
    /// path's propagation delay; the engine then registers a flow in the
    /// shared-bandwidth model and schedules its completion.
    FlowStart {
        /// The site that initiated the transfer.
        from: SiteId,
        /// Data volume to move across the path.
        volume: f64,
        /// Message delivered to the target when the transfer completes.
        message: M,
    },
    /// A previously started flow is predicted to complete. Carries the
    /// epoch at which the prediction was made: rate recomputations bump
    /// the flow's epoch and schedule a fresh completion, so a mismatching
    /// event is stale and ignored (counted as `sim_flow_stale_finish`).
    FlowFinish {
        /// Engine-side flow id.
        flow: u64,
        /// Scheduling epoch of the prediction.
        epoch: u64,
    },
}

impl<M> EventPayload<M> {
    /// Tie-breaking class of the payload at equal timestamps: faults apply
    /// before any protocol event, external arrivals before deliveries and
    /// timers (so arrival position is independent of scheduling time — see
    /// the module docs), deliveries/timers keep their scheduling order
    /// relative to each other, and flow events rank last so a same-time
    /// delivery (whose handler may start or reshape transfers) is applied
    /// before the bandwidth plane is re-solved.
    pub(crate) fn class_rank(&self) -> u8 {
        match self {
            EventPayload::Fault { .. } => 0,
            EventPayload::External { .. } => 1,
            EventPayload::Deliver { .. } | EventPayload::Timer { .. } => 2,
            EventPayload::FlowStart { .. } | EventPayload::FlowFinish { .. } => 3,
        }
    }
}

/// A scheduled event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<M> {
    /// Simulated time at which the event fires.
    pub time: f64,
    /// Scheduling sequence number (total order tie-breaker).
    pub seq: u64,
    /// Site handling the event.
    pub target: SiteId,
    /// Payload.
    pub payload: EventPayload<M>,
}

impl<M: PartialEq> Eq for Event<M> {}

impl<M: PartialEq> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first under the
        // explicit total order (time, class, seq).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.payload.class_rank().cmp(&self.payload.class_rank()))
            .then(other.seq.cmp(&self.seq))
    }
}

impl<M: PartialEq> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of pending events.
#[derive(Debug)]
pub struct EventQueue<M: PartialEq> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M: PartialEq> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<M: PartialEq> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event, assigning it the next sequence number.
    pub fn push(&mut self, time: f64, target: SiteId, payload: EventPayload<M>) {
        assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            time,
            seq,
            target,
            payload,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5.0, SiteId(0), EventPayload::Timer { timer_id: 1 });
        q.push(1.0, SiteId(1), EventPayload::Timer { timer_id: 2 });
        q.push(3.0, SiteId(2), EventPayload::Timer { timer_id: 3 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(1.0));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(
            2.0,
            SiteId(0),
            EventPayload::Deliver {
                from: SiteId(1),
                message: "first",
            },
        );
        q.push(
            2.0,
            SiteId(0),
            EventPayload::Deliver {
                from: SiteId(1),
                message: "second",
            },
        );
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        match (a.payload, b.payload) {
            (
                EventPayload::Deliver { message: m1, .. },
                EventPayload::Deliver { message: m2, .. },
            ) => {
                assert_eq!(m1, "first");
                assert_eq!(m2, "second");
            }
            other => panic!("unexpected payloads {other:?}"),
        }
        assert!(a.seq < b.seq);
    }

    #[test]
    fn faults_rank_before_protocol_events_at_the_same_time() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Scheduled last, but a same-time fault must pop first.
        q.push(2.0, SiteId(0), EventPayload::Timer { timer_id: 1 });
        q.push(
            2.0,
            SiteId(0),
            EventPayload::Deliver {
                from: SiteId(1),
                message: 9,
            },
        );
        q.push(
            2.0,
            SiteId(0),
            EventPayload::Fault {
                fault: FaultEvent::SiteDown { site: SiteId(0) },
            },
        );
        let order: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| e.payload.class_rank())
            .collect();
        assert_eq!(order, vec![0, 2, 2]);
    }

    #[test]
    fn external_arrivals_rank_before_deliveries_at_the_same_time() {
        // Scheduled after the delivery (higher seq), but the same-time
        // arrival must still pop first — this pins streaming injection to
        // the pre-materialized order.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(
            3.0,
            SiteId(0),
            EventPayload::Deliver {
                from: SiteId(1),
                message: 1,
            },
        );
        q.push(3.0, SiteId(0), EventPayload::External { message: 2 });
        let order: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| e.payload.class_rank())
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn flow_events_rank_after_protocol_events_at_the_same_time() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(
            2.0,
            SiteId(0),
            EventPayload::FlowFinish { flow: 0, epoch: 0 },
        );
        q.push(
            2.0,
            SiteId(0),
            EventPayload::FlowStart {
                from: SiteId(1),
                volume: 3.0,
                message: 7,
            },
        );
        q.push(
            2.0,
            SiteId(0),
            EventPayload::Deliver {
                from: SiteId(1),
                message: 9,
            },
        );
        q.push(
            2.0,
            SiteId(0),
            EventPayload::Fault {
                fault: FaultEvent::SiteDown { site: SiteId(0) },
            },
        );
        let order: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| e.payload.class_rank())
            .collect();
        assert_eq!(order, vec![0, 2, 3, 3]);
    }

    #[test]
    fn earlier_protocol_events_still_precede_later_faults() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(
            2.0,
            SiteId(0),
            EventPayload::Fault {
                fault: FaultEvent::SetMessageLoss { probability: 0.5 },
            },
        );
        q.push(1.0, SiteId(0), EventPayload::Timer { timer_id: 1 });
        let first = q.pop().unwrap();
        assert_eq!(first.time, 1.0);
        assert_eq!(first.payload.class_rank(), 2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_times_rejected() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(f64::NAN, SiteId(0), EventPayload::Timer { timer_id: 0 });
    }
}
