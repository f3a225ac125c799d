//! Differential tests of the event core: the slab-backed
//! [`CalendarQueue`] that now powers the engine against the retained
//! binary-heap [`EventQueue`] oracle, over arbitrary interleavings of
//! pushes, pops and batched pops.
//!
//! The two structures promise the same total order — `(time, class, seq)`
//! with faults before external arrivals before deliveries/timers — but get
//! there very differently (bucketed calendar + serving heap + free-list
//! slab vs. one `BinaryHeap`), so any divergence here is a real ordering or
//! slab-soundness bug, not a test artifact. Timestamps are drawn from a
//! small grid of quarter-ticks to force plenty of exact collisions, which
//! is where the tie-breaking (and the same-timestamp batching) lives.

use proptest::collection::vec;
use proptest::prelude::*;
use rtds::net::SiteId;
use rtds::sim::event::EventQueue;
use rtds::sim::{CalendarQueue, EventPayload, FaultEvent};

type Msg = u64;

/// One scripted step against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push with a time from the collision-heavy grid and a payload class.
    Push { ticks: u16, class: u8 },
    /// Pop one event from both queues and compare.
    Pop,
}

fn arbitrary_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u16..64), (0u8..6)).prop_map(|(ticks, class)| Op::Push { ticks, class }),
        Just(Op::Pop),
    ]
}

/// Payloads covering every tie-breaking class (including the flow-plane
/// events, which rank last at equal timestamps); `tag` makes each push
/// distinguishable so order comparisons are exact.
fn payload(class: u8, tag: u64) -> EventPayload<Msg> {
    match class % 6 {
        0 => EventPayload::Fault {
            fault: FaultEvent::SetLinkDelay {
                a: SiteId((tag % 3) as usize),
                b: SiteId((tag % 3) as usize + 1),
                delay: 1.0 + (tag % 5) as f64,
            },
        },
        1 => EventPayload::External { message: tag },
        2 => EventPayload::Deliver {
            from: SiteId((tag % 7) as usize),
            message: tag,
        },
        3 => EventPayload::Timer { timer_id: tag },
        4 => EventPayload::FlowStart {
            from: SiteId((tag % 7) as usize),
            volume: 1.0 + (tag % 9) as f64,
            message: tag,
        },
        _ => EventPayload::FlowFinish {
            flow: tag,
            epoch: tag % 3,
        },
    }
}

fn grid_time(ticks: u16) -> f64 {
    ticks as f64 * 0.25
}

proptest! {
    /// Interleaved pushes and pops agree event-for-event (time, sequence
    /// number, target and payload) between the calendar and the heap.
    #[test]
    fn calendar_pops_in_heap_order(ops in vec(arbitrary_op(), 0..400)) {
        let mut calendar: CalendarQueue<Msg> = CalendarQueue::new();
        let mut oracle: EventQueue<Msg> = EventQueue::new();
        let mut tag = 0u64;
        for op in ops {
            match op {
                Op::Push { ticks, class } => {
                    let time = grid_time(ticks);
                    let target = SiteId((tag % 9) as usize);
                    calendar.push(time, target, payload(class, tag));
                    oracle.push(time, target, payload(class, tag));
                    tag += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(calendar.peek_time(), oracle.peek_time());
                    prop_assert_eq!(calendar.pop(), oracle.pop());
                }
            }
            prop_assert_eq!(calendar.len(), oracle.len());
        }
        // Drain whatever is left: the tails must agree too, whatever the
        // bucket layout and re-anchors left behind.
        while let Some(expected) = oracle.pop() {
            prop_assert_eq!(calendar.pop(), Some(expected));
        }
        prop_assert!(oracle.is_empty());
        prop_assert!(calendar.is_empty());
        prop_assert_eq!(calendar.pop(), None);
    }

    /// Draining through the same-timestamp batch interface yields exactly
    /// the heap's pop sequence, and every batch really is one timestamp.
    #[test]
    fn batched_dispatch_preserves_pop_order(
        ops in vec(((0u16..32), (0u8..6)), 1..300),
        max in 1usize..17,
    ) {
        let mut calendar: CalendarQueue<Msg> = CalendarQueue::new();
        let mut oracle: EventQueue<Msg> = EventQueue::new();
        for (tag, &(ticks, class)) in ops.iter().enumerate() {
            let time = grid_time(ticks);
            let target = SiteId(tag % 5);
            calendar.push(time, target, payload(class, tag as u64));
            oracle.push(time, target, payload(class, tag as u64));
        }
        let mut batch = Vec::new();
        loop {
            calendar.pop_batch(&mut batch, max);
            if batch.is_empty() {
                break;
            }
            prop_assert!(batch.len() <= max);
            for event in &batch {
                prop_assert_eq!(event.time.to_bits(), batch[0].time.to_bits());
                prop_assert_eq!(Some(event), oracle.pop().as_ref());
            }
        }
        prop_assert!(oracle.is_empty());
        prop_assert!(calendar.is_empty());
    }
}
