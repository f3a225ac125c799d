//! Log-bucketed streaming histograms with deterministic percentile
//! summaries.
//!
//! A [`Histogram`] counts samples in [`BUCKET_COUNT`] power-of-two buckets:
//! bucket `i` (for `1 <= i < BUCKET_COUNT - 1`) counts samples in
//! `[2^(MIN_EXP + i - 1), 2^(MIN_EXP + i))`, bucket `0` is the underflow
//! bucket (everything below `2^MIN_EXP`, including zero and negative
//! values), and the last bucket is the overflow bucket. Classifying a
//! sample reads the IEEE-754 exponent bits directly — no `log2` call, so
//! the bucket of a value is exact and identical on every platform.
//!
//! A histogram stores only the buckets it uses: the underflow count, and
//! the contiguous span from the first occupied bucket above it to the
//! last, kept in an inline window of a few slots. A span that outgrows the
//! window spills to the full bucket array. A run's histograms mostly
//! occupy two to five buckets, so a histogram is 104 B instead of the
//! 544 B of the full array, and recording into the window never
//! allocates. Neither form shows through the API: equality, merge and
//! quantiles see the same buckets.
//!
//! Because the state is nothing but unsigned bucket counts plus the exact
//! running minimum and maximum, [`Histogram::merge`] is associative and
//! commutative *bit-for-bit* (`u64` addition and `f64` min/max over
//! non-NaN values are both), and a percentile query walks the bucket
//! counts — so the summary of a merged histogram never depends on merge
//! order, sample order or thread count. That is the property the sharded
//! sweep runner relies on to produce byte-identical reports at any
//! parallelism.
//!
//! The price of determinism is resolution: a percentile is reported as the
//! upper bound of the bucket containing the requested rank (clamped into
//! the exact observed `[min, max]` range), i.e. within a factor of two of
//! the true order statistic. For latency distributions spanning orders of
//! magnitude this is the standard trade (HdrHistogram makes the same one
//! with finer sub-buckets).

/// Smallest resolved exponent: values below `2^MIN_EXP` underflow into
/// bucket 0. `2^-21` is far below any simulated-time quantity we track.
pub(crate) const MIN_EXP: i32 = -21;

/// Largest resolved exponent: values at or above `2^(MAX_EXP + 1)` overflow
/// into the top bucket. `2^42` is far above any simulated-time quantity.
pub(crate) const MAX_EXP: i32 = 41;

/// Number of buckets: one underflow + one per exponent + one overflow.
pub const BUCKET_COUNT: usize = (MAX_EXP - MIN_EXP + 2) as usize + 1;

/// `floor(log2(v))` for positive finite `v`, read straight off the IEEE-754
/// exponent field (subnormals collapse to the underflow range).
fn floor_log2(v: f64) -> i32 {
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal: below 2^-1022, far under MIN_EXP either way.
        -1023
    } else {
        biased - 1023
    }
}

/// The bucket a sample lands in (see the module docs for the scheme).
pub(crate) fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < f64::MIN_POSITIVE {
        // NaN, zero, negatives and subnormals all underflow; the exact
        // value still reaches min/max, so nothing is silently lost.
        return 0;
    }
    if v.is_infinite() {
        return BUCKET_COUNT - 1;
    }
    let e = floor_log2(v);
    if e < MIN_EXP {
        0
    } else if e > MAX_EXP {
        BUCKET_COUNT - 1
    } else {
        (e - MIN_EXP) as usize + 1
    }
}

/// Upper bound of a bucket (`+inf` for the overflow bucket); percentile
/// queries report this bound clamped into the observed range.
fn bucket_upper_bound(index: usize) -> f64 {
    if index == 0 {
        exp2(MIN_EXP)
    } else if index >= BUCKET_COUNT - 1 {
        f64::INFINITY
    } else {
        exp2(MIN_EXP + index as i32)
    }
}

/// Exact `2^e` for the exponent range the buckets cover.
fn exp2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Occupied buckets a histogram keeps inline before it spills to the full
/// array. A registry sweep's histograms span 2.9 buckets above the
/// underflow bucket on average, and one in twenty is wider than eight.
const WINDOW: usize = 8;

/// A log-bucketed histogram (see the module docs) that stores only the
/// buckets it uses.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    /// Exact running minimum (`+inf` when empty — the merge identity).
    min: f64,
    /// Exact running maximum (`-inf` when empty — the merge identity).
    max: f64,
    /// Bucket 0, kept apart from the span: a latency histogram with both
    /// zero and large samples would otherwise span most of the scheme.
    underflow: u64,
    /// Buckets `1..BUCKET_COUNT`.
    span: Span,
}

/// The buckets above the underflow bucket, from the first non-zero one to
/// the last. Counts only grow, so the span only widens, and two histograms
/// with equal buckets have equal spans whichever form holds them.
#[derive(Debug, Clone)]
enum Span {
    /// `len` buckets from bucket `lo`, in `slots[..len]`; the other slots
    /// are zero. `len == 0` is the empty span.
    Inline {
        lo: u8,
        len: u8,
        slots: [u64; WINDOW],
    },
    /// Wider than the window: every bucket at its own index, occupied from
    /// `lo` for `len` buckets.
    Spilled {
        lo: u8,
        len: u8,
        buckets: Box<[u64; BUCKET_COUNT]>,
    },
}

impl Span {
    const EMPTY: Span = Span::Inline {
        lo: 0,
        len: 0,
        slots: [0; WINDOW],
    };

    /// The first occupied bucket and the counts from it to the last.
    fn occupied(&self) -> (usize, &[u64]) {
        match self {
            Span::Inline { lo, len, slots } => (usize::from(*lo), &slots[..usize::from(*len)]),
            Span::Spilled { lo, len, buckets } => {
                let lo = usize::from(*lo);
                (lo, &buckets[lo..lo + usize::from(*len)])
            }
        }
    }

    /// Adds `n > 0` samples to bucket `index` (`1 <= index < BUCKET_COUNT`),
    /// widening the span to take it and spilling if it outgrows the window.
    #[inline]
    fn add(&mut self, index: usize, n: u64) {
        if let Span::Inline { lo, len, slots } = self {
            // The common case: a bucket the inline span already covers.
            let offset = index.wrapping_sub(usize::from(*lo));
            if offset < usize::from(*len) {
                slots[offset] += n;
                return;
            }
        }
        self.widen_and_add(index, n);
    }

    /// [`Span::add`] for a spilled span or a bucket outside the span.
    fn widen_and_add(&mut self, index: usize, n: u64) {
        let (lo, len) = match self {
            Span::Inline { lo, len, .. } | Span::Spilled { lo, len, .. } => {
                (usize::from(*lo), usize::from(*len))
            }
        };
        let (first, end) = if len == 0 {
            (index, index + 1)
        } else {
            (lo.min(index), (lo + len).max(index + 1))
        };
        // Both fit a `u8`: BUCKET_COUNT is 65.
        let (new_lo, new_len) = (first as u8, (end - first) as u8);
        match self {
            Span::Inline {
                lo: lo_slot,
                len: len_slot,
                slots,
            } if end - first <= WINDOW => {
                if len > 0 && first < lo {
                    slots.copy_within(..len, lo - first);
                    slots[..lo - first].fill(0);
                }
                (*lo_slot, *len_slot) = (new_lo, new_len);
                slots[index - first] += n;
            }
            Span::Inline { slots, .. } => {
                let mut buckets = Box::new([0; BUCKET_COUNT]);
                buckets[lo..lo + len].copy_from_slice(&slots[..len]);
                buckets[index] += n;
                *self = Span::Spilled {
                    lo: new_lo,
                    len: new_len,
                    buckets,
                };
            }
            Span::Spilled {
                lo: lo_slot,
                len: len_slot,
                buckets,
            } => {
                (*lo_slot, *len_slot) = (new_lo, new_len);
                buckets[index] += n;
            }
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            underflow: 0,
            span: Span::EMPTY,
        }
    }
}

impl PartialEq for Histogram {
    /// Equal samples-per-bucket and bounds; whether the span is inline or
    /// spilled does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.min == other.min
            && self.max == other.max
            && self.underflow == other.underflow
            && self.span.occupied() == other.span.occupied()
    }
}

impl Histogram {
    /// An empty histogram (the identity element of [`Histogram::merge`]).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Adds `n > 0` samples to bucket `index`.
    fn add_to_bucket(&mut self, index: usize, n: u64) {
        if index == 0 {
            self.underflow += n;
        } else {
            self.span.add(index, n);
        }
    }

    /// Records one sample. NaN samples are counted in the underflow bucket
    /// but excluded from min/max (a NaN min would poison the merge
    /// algebra).
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.add_to_bucket(bucket_index(value), 1);
        if !value.is_nan() {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether a sample other than NaN was recorded: the empty sentinels
    /// are the only bounds with `min > max`.
    fn has_bounds(&self) -> bool {
        self.min <= self.max
    }

    /// Exact smallest recorded sample (0 when empty or only NaN was
    /// recorded).
    pub fn min(&self) -> f64 {
        if self.has_bounds() {
            self.min
        } else {
            0.0
        }
    }

    /// Exact largest recorded sample (0 when empty or only NaN was
    /// recorded).
    pub fn max(&self) -> f64 {
        if self.has_bounds() {
            self.max
        } else {
            0.0
        }
    }

    /// Whether no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another histogram into this one. Associative and commutative
    /// bit-for-bit: bucket counts add, min/max fold exactly.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (index, n) in other.buckets() {
            self.add_to_bucket(index, n);
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the bucket
    /// holding the requested rank, clamped into the exact observed
    /// `[min, max]` range. Deterministic: a pure function of the bucket
    /// counts. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            // The 0-quantile is the exact observed minimum, not a bucket
            // bound.
            return self.min();
        }
        // 1-based rank of the requested order statistic.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(index).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// The fixed percentile summary every report surfaces.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }

    /// The non-zero buckets as `(index, count)` in index order.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (lo, occupied) = self.span.occupied();
        let underflow = (self.underflow > 0).then_some((0, self.underflow));
        underflow.into_iter().chain(
            occupied
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(move |(offset, &n)| (lo + offset, n)),
        )
    }
}

/// The deterministic summary of a [`Histogram`]: count, exact min/max and
/// bucket-resolved p50/p90/p99. All zeros when empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median (bucket upper bound, clamped to the observed range).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_power_of_two() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-12), 0); // below 2^-21
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(1e30), BUCKET_COUNT - 1); // above 2^42
                                                          // 1.0 = 2^0 lands in the bucket covering [1, 2).
        let one = bucket_index(1.0);
        assert_eq!(one, (0 - MIN_EXP) as usize + 1);
        assert_eq!(bucket_index(1.999), one);
        assert_eq!(bucket_index(2.0), one + 1);
        assert_eq!(bucket_index(0.5), one - 1);
        // Exact powers of two start a new bucket.
        for e in MIN_EXP..=MAX_EXP {
            let v = exp2(e);
            assert_eq!(bucket_index(v), (e - MIN_EXP) as usize + 1, "2^{e}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(
            h.summary(),
            HistogramSummary {
                count: 0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0
            }
        );
    }

    #[test]
    fn single_sample_summary_is_exact() {
        let mut h = Histogram::new();
        h.record(3.25);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 3.25);
        assert_eq!(s.max, 3.25);
        // One sample: every percentile clamps onto it exactly.
        assert_eq!(s.p50, 3.25);
        assert_eq!(s.p99, 3.25);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = Histogram::new();
        // 90 samples near 1, 10 samples near 100.
        for _ in 0..90 {
            h.record(1.5);
        }
        for _ in 0..10 {
            h.record(100.0);
        }
        assert_eq!(h.count(), 100);
        // p50 and p90 are in the [1, 2) bucket: upper bound 2.
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.9), 2.0);
        // p99 lands among the 100s: bucket [64, 128) -> upper bound 128,
        // clamped to the exact max 100.
        assert_eq!(h.quantile(0.99), 100.0);
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn negative_and_nan_samples_underflow_without_poisoning() {
        let mut h = Histogram::new();
        h.record(-4.0);
        h.record(f64::NAN);
        h.record(8.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -4.0);
        assert_eq!(h.max(), 8.0);
        // The summary stays NaN-free.
        let s = h.summary();
        assert!(s.p50.is_finite() && s.p99.is_finite());
    }

    #[test]
    fn merge_is_order_independent() {
        let samples = [0.25, 1.0, 7.5, 7.5, 300.0, 0.0, 42.0];
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, rl);
        assert_eq!(lr, whole);
        // Identity element.
        let mut with_empty = whole.clone();
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, whole);
    }
}
