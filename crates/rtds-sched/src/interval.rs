//! Time intervals and idle-window arithmetic.
//!
//! Intervals are closed-open `[start, end)`; an interval with `end <= start`
//! is empty. The local scheduler reasons exclusively in terms of the idle
//! windows left between committed reservations, so interval arithmetic is the
//! foundation of every admission and validation test.

/// A closed-open time interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeInterval {
    /// Inclusive start.
    pub start: f64,
    /// Exclusive end.
    pub end: f64,
}

impl TimeInterval {
    /// Creates an interval; `end < start` is normalised to an empty interval
    /// at `start`.
    pub fn new(start: f64, end: f64) -> Self {
        TimeInterval {
            start,
            end: end.max(start),
        }
    }

    /// Length of the interval (zero if empty).
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// Returns `true` if the interval has zero length.
    pub fn is_empty(&self) -> bool {
        self.duration() <= 0.0
    }

    /// Returns `true` if the two intervals share a positive-length overlap.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Intersection of two intervals (possibly empty).
    pub fn intersect(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval::new(self.start.max(other.start), self.end.min(other.end))
    }
}

/// Subtracts a set of (possibly overlapping, unsorted) busy intervals from a
/// window, returning the idle sub-windows in increasing time order.
///
/// This is the workhorse of the local scheduler: "idle windows of the plan
/// over `[from, to)`" is `subtract_busy(window, reservations)`.
pub fn subtract_busy(window: TimeInterval, busy: &[TimeInterval]) -> Vec<TimeInterval> {
    if window.is_empty() {
        return Vec::new();
    }
    let mut clipped: Vec<TimeInterval> = busy
        .iter()
        .map(|b| b.intersect(&window))
        .filter(|b| !b.is_empty())
        .collect();
    clipped.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
    let mut idle = Vec::new();
    let mut cursor = window.start;
    for b in clipped {
        if b.start > cursor {
            idle.push(TimeInterval::new(cursor, b.start));
        }
        cursor = cursor.max(b.end);
    }
    if cursor < window.end {
        idle.push(TimeInterval::new(cursor, window.end));
    }
    idle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_interval_operations() {
        let i = TimeInterval::new(2.0, 5.0);
        assert_eq!(i.duration(), 3.0);
        assert!(!i.is_empty());
        let empty = TimeInterval::new(3.0, 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.duration(), 0.0);
        assert_eq!(empty.start, 3.0);
    }

    #[test]
    fn overlap_and_intersection() {
        let a = TimeInterval::new(0.0, 10.0);
        let b = TimeInterval::new(5.0, 15.0);
        let c = TimeInterval::new(10.0, 20.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // closed-open: touching is not overlapping
        assert_eq!(a.intersect(&b), TimeInterval::new(5.0, 10.0));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn subtract_busy_basic() {
        let window = TimeInterval::new(0.0, 100.0);
        let busy = vec![TimeInterval::new(10.0, 20.0), TimeInterval::new(40.0, 60.0)];
        let idle = subtract_busy(window, &busy);
        assert_eq!(
            idle,
            vec![
                TimeInterval::new(0.0, 10.0),
                TimeInterval::new(20.0, 40.0),
                TimeInterval::new(60.0, 100.0),
            ]
        );
    }

    #[test]
    fn subtract_busy_handles_overlapping_and_unsorted_input() {
        let window = TimeInterval::new(0.0, 50.0);
        let busy = vec![
            TimeInterval::new(30.0, 45.0),
            TimeInterval::new(5.0, 20.0),
            TimeInterval::new(15.0, 35.0), // overlaps both
        ];
        let idle = subtract_busy(window, &busy);
        assert_eq!(
            idle,
            vec![TimeInterval::new(0.0, 5.0), TimeInterval::new(45.0, 50.0)]
        );
    }

    #[test]
    fn subtract_busy_edge_cases() {
        let window = TimeInterval::new(10.0, 20.0);
        // Busy fully outside the window.
        assert_eq!(
            subtract_busy(window, &[TimeInterval::new(0.0, 5.0)]),
            vec![window]
        );
        // Busy covering the whole window.
        assert!(subtract_busy(window, &[TimeInterval::new(0.0, 30.0)]).is_empty());
        // Empty window.
        assert!(subtract_busy(TimeInterval::new(5.0, 5.0), &[]).is_empty());
        // No busy intervals at all.
        assert_eq!(subtract_busy(window, &[]), vec![window]);
        // Busy exactly aligned with the window boundaries.
        assert_eq!(
            subtract_busy(
                window,
                &[TimeInterval::new(10.0, 12.0), TimeInterval::new(18.0, 20.0)]
            ),
            vec![TimeInterval::new(12.0, 18.0)]
        );
    }
}
