//! The slab-backed calendar queue behind [`crate::engine::Simulator`].
//!
//! [`crate::event::EventQueue`] (a `BinaryHeap<Event<M>>`) defines the
//! engine's total order: events pop by `(time, class, seq)` — time
//! ascending, then `EventPayload::class_rank` (faults before externals
//! before deliveries/timers), then insertion sequence. That structure moves
//! whole `Event<M>` values (≈ 100 bytes for the production message type)
//! on every sift, and costs `O(log n)` comparisons per operation.
//!
//! [`CalendarQueue`] keeps the *identical* pop order while making the hot
//! loop allocation-free and mostly `O(1)`:
//!
//! * **Packed keys.** Each pending event is a 128-bit key
//!   `time_bits(time) << 64 | class_rank << 62 | seq`, where `time_bits`
//!   is the standard IEEE-754 total-order mapping (flip all bits of
//!   negatives, set the sign bit of non-negatives, normalize `-0.0` to
//!   `+0.0`). Unsigned comparison of keys is exactly the
//!   `(time, class, seq)` order of the heap — the differential suite in
//!   `tests/event_core.rs` pins this against the retained heap oracle.
//! * **Slab payloads.** Payloads live in a slab of reusable slots; the
//!   priority structure only ever moves `(u128, u32)` pairs. A slot is
//!   either a pending event or a link in an intrusive free list, and the
//!   queue forgets an event only by popping it, so every key the calendar
//!   holds names a pending event. (A superseded flow completion is not
//!   removed here: the flow plane recognises it by its epoch stamp when it
//!   pops.)
//! * **Calendar buckets.** Future keys are binned by
//!   `floor(time / width)` into a bounded window of buckets
//!   (`NUM_BUCKETS`); the earliest bucket is kept as a small binary
//!   min-heap (the *serving* set), and keys beyond the window wait in an
//!   overflow list. When the window is exhausted the calendar re-anchors
//!   on the overflow and re-tunes the bucket width from what it observed
//!   since the last re-anchor: the width that would have put
//!   `BUCKET_TARGET` of the events it popped into each bucket it stepped
//!   over — a pure function of the push/pop history, so runs stay
//!   deterministic. The pace is taken from the events popped, never from
//!   the span of the overflow list: that is a handful of keys whatever the
//!   event rate, and a width tuned to it overflows most pushes (each filed
//!   twice) and steps over dozens of empty buckets per event.
//!   The queue's layout counters (`QueueStats`) count both.
//!
//! Why the pop order cannot depend on the calendar layout: `bucket_of` is
//! a monotone function of time, so every key in a future bucket has a
//! strictly greater time than every key in the serving set, and keys with
//! equal times always land in the same bucket, where the serving heap
//! orders them by the packed key. So a queue pops the same sequence
//! whatever width it re-tunes to.

use crate::event::{Event, EventPayload};
use rtds_net::SiteId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of calendar buckets in the active window. Keys further than
/// `NUM_BUCKETS × width` ahead of the serving bucket wait in the overflow
/// list until the calendar re-anchors.
const NUM_BUCKETS: i64 = 512;

/// Lower bound for the re-tuned bucket width (guards against a burst of
/// near-simultaneous events collapsing the calendar).
const MIN_WIDTH: f64 = 1e-9;

/// Events per bucket the width is tuned for: few enough that the serving
/// heap stays four levels deep, enough that stepping from bucket to bucket
/// costs a fraction of a pop and that the window of `NUM_BUCKETS` buckets
/// reaches past the scheduling horizon of all but the fullest queues.
const BUCKET_TARGET: f64 = 16.0;

/// What the calendar layout has cost so far (the pop order never depends on
/// it): counters the width-tuning regression test divides by its own event
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QueueStats {
    /// Pushes that landed beyond the bucket window and were filed a second
    /// time at a later re-anchor.
    pub overflow_pushes: u64,
    /// Steps from one calendar bucket to the next.
    pub bucket_steps: u64,
    /// Times the window was exhausted and the calendar re-anchored on the
    /// overflow list.
    pub reanchors: u64,
}

/// One slab slot: either a pending event (its sequence number lives in
/// the packed key) or a link in the free list.
#[derive(Debug, Clone)]
enum Slot<M> {
    Occupied {
        time: f64,
        target: SiteId,
        payload: EventPayload<M>,
    },
    Free {
        next_free: u32,
    },
}

/// Maps a finite `f64` timestamp to a `u64` whose unsigned order is the
/// numeric order (IEEE-754 total-order trick; `-0.0` normalized to `+0.0`
/// so the two zeros compare equal, exactly as the heap's `partial_cmp`
/// treats them).
#[inline]
fn time_bits(time: f64) -> u64 {
    let time = if time == 0.0 { 0.0 } else { time };
    let bits = time.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Packs `(time, class, seq)` into the 128-bit comparison key.
#[inline]
fn pack_key(time: f64, class: u8, seq: u64) -> u128 {
    debug_assert!(seq < (1 << 62), "event sequence space exhausted");
    ((time_bits(time) as u128) << 64) | ((class as u128) << 62) | seq as u128
}

/// The slab-backed calendar queue. Generic over the protocol message type
/// `M`; see the module docs for the design.
#[derive(Debug, Clone)]
pub struct CalendarQueue<M> {
    slab: Vec<Slot<M>>,
    free_head: u32,
    /// Pending (not yet popped) events.
    live: usize,
    next_seq: u64,
    /// Keys due in the current serving bucket (or earlier), as a min-heap.
    serving: BinaryHeap<Reverse<(u128, u32)>>,
    /// Consecutive buckets after the serving one: `buckets[i]` holds keys
    /// with `bucket_of(time) == cur_bucket + 1 + i`, unsorted.
    buckets: std::collections::VecDeque<Vec<(u128, u32)>>,
    /// Recycled bucket vectors (keeps steady-state pushes allocation-free).
    spare: Vec<Vec<(u128, u32)>>,
    /// Keys beyond the bucket window.
    overflow: Vec<(u128, u32)>,
    /// The emptied overflow list of the last re-anchor, kept for its
    /// capacity: the next re-anchor swaps it back in.
    refiling: Vec<(u128, u32)>,
    cur_bucket: i64,
    /// Last bucket index of the current window (fixed at anchor time).
    /// Every overflow key has a bucket index past `window_end`, so it is
    /// strictly later than every bucketed key — even after `cur_bucket`
    /// advances within the window.
    window_end: i64,
    width: f64,
    /// What the next re-tune goes by: the time the window was anchored at,
    /// and the number and latest time of the events popped since.
    anchor_time: f64,
    pops_since_anchor: u64,
    last_pop_time: f64,
    stats: QueueStats,
}

const NO_SLOT: u32 = u32::MAX;

impl<M> CalendarQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue::with_capacity(0)
    }

    /// Creates an empty queue with slab space for `capacity` events.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        CalendarQueue {
            slab: Vec::with_capacity(capacity),
            free_head: NO_SLOT,
            live: 0,
            next_seq: 0,
            serving: BinaryHeap::with_capacity(64),
            buckets: std::collections::VecDeque::new(),
            spare: Vec::new(),
            overflow: Vec::new(),
            refiling: Vec::new(),
            cur_bucket: 0,
            window_end: NUM_BUCKETS,
            width: 0.25,
            anchor_time: 0.0,
            pops_since_anchor: 0,
            last_pop_time: 0.0,
            stats: QueueStats::default(),
        }
    }

    /// The layout counters accumulated since construction.
    #[cfg(test)]
    fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn bucket_of(&self, time: f64) -> i64 {
        (time / self.width).floor() as i64
    }

    fn alloc_slot(&mut self, time: f64, target: SiteId, payload: EventPayload<M>) -> u32 {
        let occupied = Slot::Occupied {
            time,
            target,
            payload,
        };
        if self.free_head != NO_SLOT {
            let index = self.free_head;
            self.free_head = match self.slab[index as usize] {
                Slot::Free { next_free } => next_free,
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            self.slab[index as usize] = occupied;
            index
        } else {
            self.slab.push(occupied);
            (self.slab.len() - 1) as u32
        }
    }

    /// Files a packed key into the serving heap, a calendar bucket or the
    /// overflow list; `true` if it went to the overflow list.
    fn file(&mut self, key: u128, slot: u32, time: f64) -> bool {
        let b = self.bucket_of(time);
        if b <= self.cur_bucket {
            self.serving.push(Reverse((key, slot)));
        } else if b <= self.window_end {
            let idx = (b - self.cur_bucket - 1) as usize;
            while self.buckets.len() <= idx {
                let v = self.spare.pop().unwrap_or_default();
                self.buckets.push_back(v);
            }
            self.buckets[idx].push((key, slot));
        } else {
            self.overflow.push((key, slot));
            return true;
        }
        false
    }

    /// Schedules an event; the next sequence number is assigned
    /// automatically (same contract as `EventQueue::push`).
    pub fn push(&mut self, time: f64, target: SiteId, payload: EventPayload<M>) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack_key(time, payload.class_rank(), seq);
        let slot = self.alloc_slot(time, target, payload);
        if self.file(key, slot, time) {
            self.stats.overflow_pushes += 1;
        }
        self.live += 1;
    }

    /// Advances the calendar until the serving heap holds the globally
    /// minimal key (or the queue is empty).
    fn settle(&mut self) {
        while self.serving.is_empty() && self.live > 0 {
            if let Some(mut front) = self.buckets.pop_front() {
                self.cur_bucket += 1;
                self.stats.bucket_steps += 1;
                self.serving.extend(front.drain(..).map(Reverse));
                self.spare.push(front);
            } else {
                self.reanchor();
            }
        }
    }

    /// Re-anchors the calendar on the overflow list, re-tuning the bucket
    /// width from the events popped since the last re-anchor (a pure
    /// function of the push/pop history, so deterministic): had they come
    /// at an even pace, the new width would have put `BUCKET_TARGET` of them
    /// in every bucket. A window in which nothing was popped, or everything
    /// at one instant, says nothing about the pace and keeps the width.
    fn reanchor(&mut self) {
        debug_assert!(!self.overflow.is_empty());
        self.stats.reanchors += 1;
        let elapsed = self.last_pop_time - self.anchor_time;
        if self.pops_since_anchor > 0 && elapsed > 0.0 {
            let per_event = elapsed / self.pops_since_anchor as f64;
            self.width = (BUCKET_TARGET * per_event).max(MIN_WIDTH);
        }
        let min_bits = (self.overflow.iter().map(|&(k, _)| k).min().unwrap() >> 64) as u64;
        let tmin = bits_time(min_bits);
        self.anchor_time = tmin;
        self.pops_since_anchor = 0;
        self.cur_bucket = self.bucket_of(tmin);
        self.window_end = self.cur_bucket.saturating_add(NUM_BUCKETS);
        // The list being re-filed is owned here while `file` fills the other
        // one; the two swap roles, so neither gives its capacity back.
        let spare = std::mem::take(&mut self.refiling);
        let mut pending = std::mem::replace(&mut self.overflow, spare);
        for &(key, slot) in &pending {
            self.file(key, slot, bits_time((key >> 64) as u64));
        }
        pending.clear();
        self.refiling = pending;
    }

    /// Notes `count` events popped at `time` for the next re-tune.
    fn note_popped(&mut self, count: usize, time: f64) {
        self.pops_since_anchor += count as u64;
        self.last_pop_time = time;
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.settle();
        let &Reverse((key, _)) = self.serving.peek()?;
        Some(bits_time((key >> 64) as u64))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.settle();
        let Reverse((key, slot)) = self.serving.pop()?;
        let seq = (key & ((1 << 62) - 1)) as u64;
        let (time, target, payload) = self.take_slot(slot);
        self.live -= 1;
        self.note_popped(1, time);
        Some(Event {
            time,
            seq,
            target,
            payload,
        })
    }

    /// Pops every event sharing the earliest pending timestamp (bit-equal
    /// times) into `batch`, up to `max` events. Events scheduled *during*
    /// the batch's dispatch carry higher sequence numbers, so deferring
    /// them to the next batch preserves the heap's pop order exactly.
    pub fn pop_batch(&mut self, batch: &mut Vec<Event<M>>, max: usize) {
        batch.clear();
        if max == 0 {
            return;
        }
        self.settle();
        let Some(&Reverse((first_key, _))) = self.serving.peek() else {
            return;
        };
        let batch_bits = (first_key >> 64) as u64;
        while batch.len() < max {
            match self.serving.peek() {
                Some(&Reverse((key, _))) if (key >> 64) as u64 == batch_bits => {}
                _ => break,
            }
            let Reverse((key, slot)) = self.serving.pop().expect("peeked key exists");
            let seq = (key & ((1 << 62) - 1)) as u64;
            let (time, target, payload) = self.take_slot(slot);
            self.live -= 1;
            batch.push(Event {
                time,
                seq,
                target,
                payload,
            });
        }
        self.note_popped(batch.len(), bits_time(batch_bits));
    }

    fn take_slot(&mut self, slot: u32) -> (f64, SiteId, EventPayload<M>) {
        let free = Slot::Free {
            next_free: self.free_head,
        };
        self.free_head = slot;
        match std::mem::replace(&mut self.slab[slot as usize], free) {
            Slot::Occupied {
                time,
                target,
                payload,
            } => (time, target, payload),
            Slot::Free { .. } => unreachable!("popped key points at free slot"),
        }
    }
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

/// Inverse of [`time_bits`].
#[inline]
fn bits_time(bits: u64) -> f64 {
    if bits >> 63 == 1 {
        f64::from_bits(bits ^ (1 << 63))
    } else {
        f64::from_bits(!bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    fn payload(tag: u32) -> EventPayload<u32> {
        EventPayload::External { message: tag }
    }

    #[test]
    fn key_order_is_time_class_seq() {
        let fault = pack_key(
            1.0,
            EventPayload::<u32>::Fault {
                fault: crate::faults::FaultEvent::SiteDown { site: SiteId(0) },
            }
            .class_rank(),
            5,
        );
        let external = pack_key(1.0, payload(0).class_rank(), 4);
        let deliver = pack_key(
            1.0,
            EventPayload::Deliver {
                from: SiteId(0),
                message: 0u32,
            }
            .class_rank(),
            3,
        );
        let later = pack_key(1.5, 0, 0);
        assert!(fault < external && external < deliver && deliver < later);
        // Equal time and class: sequence breaks the tie.
        assert!(pack_key(1.0, 2, 7) < pack_key(1.0, 2, 8));
        // Negative and zero timestamps order numerically; -0.0 == +0.0.
        assert!(pack_key(-1.0, 0, 0) < pack_key(-0.5, 0, 0));
        assert!(pack_key(-0.5, 0, 0) < pack_key(0.0, 0, 0));
        assert_eq!(time_bits(-0.0), time_bits(0.0));
        // The time mapping round-trips.
        for t in [-3.5, -0.0, 0.0, 1e-300, 2.25, 1e12] {
            assert_eq!(bits_time(time_bits(t)), if t == 0.0 { 0.0 } else { t });
        }
    }

    #[test]
    fn matches_heap_order_across_bucket_boundaries() {
        let times = [
            0.0, 0.1, 0.1, 5.0, 1000.0, 1000.0, 0.25, 3.75, 999.875, 0.1, 250.0, 0.5,
        ];
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            cal.push(t, SiteId(i % 3), payload(i as u32));
            heap.push(t, SiteId(i % 3), payload(i as u32));
        }
        assert_eq!(cal.len(), heap.len());
        loop {
            match (cal.pop(), heap.pop()) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        (a.time, a.seq, a.target, a.payload),
                        (b.time, b.seq, b.target, b.payload)
                    );
                }
                (None, None) => break,
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn interleaved_push_pop_reanchors() {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        // Push far-future events (overflow), drain a little, then push
        // near-term events, forcing re-anchor and width re-tuning.
        for i in 0..50u32 {
            let t = 1_000.0 + i as f64 * 17.0;
            cal.push(t, SiteId(0), payload(i));
            heap.push(t, SiteId(0), payload(i));
        }
        for _ in 0..10 {
            let a = cal.pop().unwrap();
            let b = heap.pop().unwrap();
            assert_eq!((a.time, a.seq), (b.time, b.seq));
        }
        for i in 50..80u32 {
            let t = 1_200.0 + (i as f64 - 50.0) * 0.001;
            cal.push(t, SiteId(1), payload(i));
            heap.push(t, SiteId(1), payload(i));
        }
        while let Some(b) = heap.pop() {
            let a = cal.pop().unwrap();
            assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
        }
        assert!(cal.is_empty());
        assert_eq!(cal.peek_time(), None);
    }

    /// The §7 start-up burst followed by a sparse stream: the burst must
    /// not pin the bucket width. Every event of the sparse phase schedules
    /// its successor, as a simulation does.
    #[test]
    fn a_dense_burst_does_not_pin_the_width() {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for i in 0..2_000u32 {
            let t = i as f64 / 2_000.0;
            cal.push(t, SiteId(0), payload(i));
            heap.push(t, SiteId(0), payload(i));
        }
        for _ in 0..1_999 {
            assert_eq!(cal.pop().map(|e| e.seq), heap.pop().map(|e| e.seq));
        }
        let burst = cal.stats();
        let (pops, pushes) = (2_000, 2_000);
        for i in 0..pops {
            let (a, b) = (cal.pop().unwrap(), heap.pop().unwrap());
            assert_eq!((a.time, a.seq), (b.time, b.seq));
            if i + 1 < pushes {
                cal.push(a.time + 4.0, SiteId(0), payload(i));
                heap.push(a.time + 4.0, SiteId(0), payload(i));
            }
        }
        assert!(cal.is_empty() && heap.is_empty());
        let sparse = cal.stats();
        let steps = sparse.bucket_steps - burst.bucket_steps;
        let overflowed = sparse.overflow_pushes - burst.overflow_pushes;
        assert!(
            steps <= 2 * pops as u64,
            "{steps} bucket steps for {pops} sparse pops"
        );
        assert!(
            overflowed * 20 < pushes as u64,
            "{overflowed} of {pushes} sparse pushes overflowed"
        );
        assert!(sparse.reanchors - burst.reanchors <= 8, "{sparse:?}");
    }

    #[test]
    fn pop_batch_groups_equal_timestamps() {
        let mut cal = CalendarQueue::new();
        for i in 0..4u32 {
            cal.push(1.0, SiteId(i as usize), payload(i));
        }
        cal.push(2.0, SiteId(0), payload(9));
        let mut batch = Vec::new();
        cal.pop_batch(&mut batch, usize::MAX);
        assert_eq!(batch.len(), 4);
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        cal.pop_batch(&mut batch, usize::MAX);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].time, 2.0);
        cal.pop_batch(&mut batch, usize::MAX);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_respects_cap() {
        let mut cal = CalendarQueue::new();
        for i in 0..5u32 {
            cal.push(1.0, SiteId(0), payload(i));
        }
        let mut batch = Vec::new();
        cal.pop_batch(&mut batch, 2);
        assert_eq!(batch.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(cal.len(), 3);
        cal.pop_batch(&mut batch, 0);
        assert!(batch.is_empty());
        assert_eq!(cal.len(), 3);
    }
}
