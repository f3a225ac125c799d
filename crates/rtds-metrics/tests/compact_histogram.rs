//! The compact histogram against a dense reference.
//!
//! A `Histogram` stores only the span of buckets it uses, inline until the
//! span outgrows a small window and then in the full bucket array. None of
//! that may show: for any sequence of records and merges, the count, the
//! exact bounds, every quantile, the non-zero buckets and equality must be
//! those of a plain 65-bucket array. The reference below restates the
//! bucket scheme by comparison against exact powers of two, without reading
//! exponent bits. Recording into the window must not allocate, which the
//! counting allocator at the end checks.

use proptest::prelude::*;
use rtds_metrics::{Histogram, BUCKET_COUNT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const MIN_EXP: i32 = -21;
const MAX_EXP: i32 = 41;

/// The bucket of `v`: 0 below `2^MIN_EXP` (zero, negatives, NaN,
/// subnormals), the overflow bucket from `2^(MAX_EXP + 1)`, else the bucket
/// whose power-of-two range holds it.
fn reference_bucket(v: f64) -> usize {
    if v.is_nan() || v < 2f64.powi(MIN_EXP) {
        return 0;
    }
    (1..BUCKET_COUNT - 1)
        .find(|&i| v < 2f64.powi(MIN_EXP + i as i32))
        .unwrap_or(BUCKET_COUNT - 1)
}

/// The histogram as a full bucket array.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    count: u64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKET_COUNT],
}

impl Dense {
    fn new() -> Self {
        Dense {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKET_COUNT],
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.buckets[reference_bucket(v)] += 1;
        if !v.is_nan() {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    fn merge(&mut self, other: &Dense) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The reported bounds: 0 unless a sample other than NaN was recorded.
    fn shown(&self) -> (f64, f64) {
        if self.min <= self.max {
            (self.min, self.max)
        } else {
            (0.0, 0.0)
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        let (min, max) = self.shown();
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return min;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = match i {
                    0 => 2f64.powi(MIN_EXP),
                    i if i == BUCKET_COUNT - 1 => f64::INFINITY,
                    i => 2f64.powi(MIN_EXP + i as i32),
                };
                return upper.clamp(min, max);
            }
        }
        max
    }

    fn nonzero(&self) -> Vec<(usize, u64)> {
        (0..BUCKET_COUNT)
            .filter(|&i| self.buckets[i] > 0)
            .map(|i| (i, self.buckets[i]))
            .collect()
    }
}

const QUANTILES: [f64; 11] = [
    0.0, 0.01, 0.1, 0.25, 0.5, 0.5001, 0.75, 0.9, 0.99, 0.999, 1.0,
];

/// Everything observable about `h` agrees with `dense`.
fn agrees(h: &Histogram, dense: &Dense) -> Result<(), String> {
    let check = |what: &str, ok: bool| if ok { Ok(()) } else { Err(what.to_string()) };
    check("count", h.count() == dense.count)?;
    check("bounds", (h.min(), h.max()) == dense.shown())?;
    check(
        "buckets",
        h.buckets().collect::<Vec<_>>() == dense.nonzero(),
    )?;
    for q in QUANTILES {
        let (got, want) = (h.quantile(q), dense.quantile(q));
        check(&format!("quantile {q}: {got} vs {want}"), got == want)?;
    }
    Ok(())
}

/// Zero and negatives, NaN, subnormals, values under `2^-21`, every resolved
/// bucket, values past `2^42` and both infinities.
fn sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        -1e6f64..0.0,
        Just(f64::NAN),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 3.0),
        1e-12f64..4.7e-7,
        (MIN_EXP..=MAX_EXP, 1.0f64..2.0).prop_map(|(e, m)| m * 2f64.powi(e)),
        1e13f64..1e300,
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// A run of samples one bucket apart from a random start, upward or
/// downward: it widens a span one bucket at a time, so it crosses the
/// inline window from either side.
fn sweep() -> impl Strategy<Value = Vec<f64>> {
    (MIN_EXP - 3..MAX_EXP + 3, 0i32..2, 1usize..20).prop_map(|(start, down, len)| {
        let step = if down == 1 { -1 } else { 1 };
        (0..len as i32)
            .map(|k| 1.5 * 2f64.powi(start + step * k))
            .collect()
    })
}

fn samples() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        proptest::collection::vec(sample(), 0..40),
        sweep(),
        (sweep(), proptest::collection::vec(sample(), 0..6)).prop_map(|(mut run, extra)| {
            run.extend(extra);
            run
        }),
    ]
}

/// One step of a random history over three histograms.
#[derive(Debug, Clone)]
enum Op {
    /// Record these samples into histogram `.0`.
    Record(usize, Vec<f64>),
    /// Merge histogram `.1` into histogram `.0`.
    Merge(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, samples()).prop_map(|(i, v)| Op::Record(i, v)),
        (0usize..3, 0usize..3).prop_map(|(i, j)| Op::Merge(i, j)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn records_and_merges_match_the_dense_reference(
        ops in proptest::collection::vec(op(), 1..12),
    ) {
        let mut compact = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut dense = [Dense::new(), Dense::new(), Dense::new()];
        for op in &ops {
            match op {
                Op::Record(i, values) => {
                    for &v in values {
                        compact[*i].record(v);
                        dense[*i].record(v);
                    }
                }
                Op::Merge(i, j) => {
                    let (from, from_dense) = (compact[*j].clone(), dense[*j].clone());
                    compact[*i].merge(&from);
                    dense[*i].merge(&from_dense);
                }
            }
            for (h, d) in compact.iter().zip(&dense) {
                if let Err(what) = agrees(h, d) {
                    prop_assert!(false, "{what} after {op:?}");
                }
            }
        }
        // Equality is equality of the dense state, whatever form holds it.
        for a in 0..3 {
            for b in 0..3 {
                prop_assert_eq!(compact[a] == compact[b], dense[a] == dense[b]);
            }
        }
        // Every merge order of the three gives the same histogram.
        let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let mut all = Dense::new();
        for d in &dense {
            all.merge(d);
        }
        for order in orders {
            let mut merged = Histogram::new();
            for i in order {
                merged.merge(&compact[i]);
            }
            if let Err(what) = agrees(&merged, &all) {
                prop_assert!(false, "{what} merging in order {order:?}");
            }
        }
    }

    #[test]
    fn a_histogram_equals_one_fed_the_same_samples_otherwise(
        values in samples(),
        cut in 0usize..40,
    ) {
        // Fed one by one, in reverse, or as two merged halves, the state is
        // the same: equal, although one may have spilled where the other
        // did not.
        let fill = |values: &[f64]| {
            let mut h = Histogram::new();
            values.iter().for_each(|&v| h.record(v));
            h
        };
        let whole = fill(&values);
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        prop_assert_eq!(&fill(&reversed), &whole);
        let cut = cut.min(values.len());
        let mut halves = fill(&values[cut..]);
        halves.merge(&fill(&values[..cut]));
        prop_assert_eq!(&halves, &whole);
        let mut one_more = whole.clone();
        one_more.record(1.0);
        prop_assert!(one_more != whole);
    }
}

#[test]
fn equality_ignores_how_the_span_is_held() {
    // 2^-1 .. 2^10 is twelve buckets: the first histogram spills once it
    // holds them all, the second holds the same samples.
    let mut spilled = Histogram::new();
    for e in -1..=10 {
        spilled.record(2f64.powi(e));
    }
    let mut other = Histogram::new();
    for e in (-1..=10).rev() {
        other.record(2f64.powi(e));
    }
    assert_eq!(spilled, other);
    assert!(spilled.buckets().eq(other.buckets()));
}

/// Counts this thread's heap allocations, so tests running in parallel do
/// not see each other's.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

#[test]
fn recording_within_the_window_allocates_nothing() {
    let mut h = Histogram::new();
    let mut other = Histogram::new();
    let inline = allocations_during(|| {
        // Eight buckets from 2^0 to 2^7, entered from the middle outwards,
        // plus the underflow bucket, which lies outside the window.
        for e in [3, 4, 2, 5, 1, 6, 0, 7, 3, 3] {
            h.record(1.5 * 2f64.powi(e));
        }
        for v in [0.0, -2.0, f64::NAN, 1e-9] {
            h.record(v);
        }
        other.record(4.0);
        other.record(0.0);
        h.merge(&other);
    });
    assert_eq!(inline, 0);
    assert_eq!(h.count(), 16);
    // A ninth bucket spills the span to the full array: one allocation,
    // and none after it.
    let spill = allocations_during(|| h.record(1.5 * 2f64.powi(8)));
    assert_eq!(spill, 1);
    assert_eq!(allocations_during(|| h.record(1e12)), 0);
    assert!(std::mem::size_of::<Histogram>() <= 104);
}
