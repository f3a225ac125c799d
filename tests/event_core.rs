//! Differential tests of the event core: the slab-backed
//! [`CalendarQueue`] that now powers the engine against the retained
//! binary-heap [`EventQueue`] oracle, over arbitrary interleavings of
//! pushes, pops and batched pops, plus the sorted snapshot view
//! ([`CalendarQueue::for_each_sorted`]) the checkpoint layer reads.
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
        // The snapshot view lists the tail in exactly the order the oracle
        // pops it, whatever the bucket layout and re-anchors left behind.
        let mut listed = Vec::new();
        calendar.for_each_sorted(|time, seq, target, payload| {
            listed.push((time, seq, target, payload.clone()));
        });
        prop_assert_eq!(listed.len(), oracle.len());
        // Drain whatever is left: the tails must agree too.
        for (time, seq, target, payload) in listed {
            let expected = oracle.pop().expect("oracle holds as many events");
            prop_assert_eq!(
                (time, seq, target, &payload),
                (expected.time, expected.seq, expected.target, &expected.payload)
            );
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

/// The snapshot view ([`CalendarQueue::for_each_sorted`]) lists pending
/// events in exact pop order regardless of the internal bucket layout, and
/// rebuilding through `push_raw` + `set_next_seq` reproduces the queue.
#[test]
fn sorted_view_matches_pop_order_and_round_trips() {
    let mut q: CalendarQueue<Msg> = CalendarQueue::new();
    for tag in 0u64..200 {
        // A mix of far-flung and colliding timestamps across all classes.
        let time = ((tag * 37) % 50) as f64 * 0.5;
        q.push(
            time,
            SiteId((tag % 6) as usize),
            payload((tag % 4) as u8, tag),
        );
    }
    // Pop a prefix so the serving heap, buckets and free list all hold state.
    for _ in 0..60 {
        q.pop();
    }
    let mut listed = Vec::new();
    q.for_each_sorted(|time, seq, target, payload| {
        listed.push((time, seq, target, payload.clone()));
    });
    let mut rebuilt: CalendarQueue<Msg> = CalendarQueue::new();
    for (time, seq, target, payload) in &listed {
        rebuilt.push_raw(*time, *seq, *target, payload.clone());
    }
    rebuilt.set_next_seq(q.next_seq());
    for (time, seq, target, payload) in listed {
        let original = q.pop().expect("listed events are pending");
        assert_eq!(
            (
                original.time,
                original.seq,
                original.target,
                &original.payload
            ),
            (time, seq, target, &payload)
        );
        assert_eq!(rebuilt.pop(), Some(original));
    }
    assert!(q.is_empty());
    assert!(rebuilt.is_empty());
    assert_eq!(rebuilt.next_seq(), q.next_seq());
}
