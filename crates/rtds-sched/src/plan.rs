//! The scheduling plan of one site's computation processor.
//!
//! A plan is the ordered set of task reservations the site has *committed*
//! to. Everything the paper asks of the local scheduler reduces to questions
//! about this plan:
//!
//! * §5 local test — can a DAG be interleaved with the committed
//!   reservations before its deadline?
//! * §10 validation — can a set of tasks with releases and deadlines be
//!   interleaved with the committed reservations?
//! * §2 surplus — how much of the observation window is still idle?
//!
//! Insertion is *non-preemptive* by default (each task occupies one
//! contiguous slot) with a preemptive variant (a task may be split across
//! idle windows) supporting the §13 preemptive generalisation.
//!
//! # Invariant and query cost
//!
//! Reservations are kept **sorted by start**, and every positive-length
//! reservation is **disjoint** from every other one ([`SchedulePlan::insert`]
//! refuses anything else, [`SchedulePlan::from_reservations`] checks it).
//! Every query leans on that: it binary-searches the first reservation that
//! can matter and walks forward lazily (`IdleGaps`), stopping at the first
//! answer or at the end of the window — `O(log R + gaps walked)` time and no
//! heap allocation.

use crate::interval::TimeInterval;
use rtds_graph::{JobId, TaskId};

/// Tolerance used when comparing times; all workloads in this crate operate
/// on times well above this scale.
pub(crate) const TIME_EPS: f64 = 1e-9;

/// A committed reservation: one task of one job occupying `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    /// Owning job.
    pub job: JobId,
    /// Task within the job.
    pub task: TaskId,
    /// Start time.
    pub start: f64,
    /// End time (exclusive).
    pub end: f64,
}

impl Reservation {
    /// The occupied interval.
    pub fn interval(&self) -> TimeInterval {
        TimeInterval::new(self.start, self.end)
    }

    /// Duration of the reservation.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// `Err(Malformed)` unless both ends are finite and in order.
    pub(crate) fn check_well_formed(&self) -> Result<(), PlanError> {
        if self.start.is_finite() && self.end.is_finite() && self.end >= self.start - TIME_EPS {
            Ok(())
        } else {
            Err(PlanError::Malformed)
        }
    }
}

/// Errors raised by plan mutations and by rebuilding a plan from a
/// reservation list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// The new reservation overlaps an existing one.
    Overlap,
    /// The reservation is malformed (non-finite or non-positive length).
    Malformed,
    /// A reservation list is not in start-time order.
    Unordered,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Overlap => write!(f, "reservation overlaps the committed plan"),
            PlanError::Malformed => write!(f, "malformed reservation"),
            PlanError::Unordered => write!(f, "reservations are not sorted by start time"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Index of the first reservation of a sorted, disjoint list that can reach
/// past `from`. Of the reservations starting before `from` only the last
/// positive-length one can (disjointness); zero-length ones never do.
fn first_reaching(reservations: &[Reservation], from: f64) -> usize {
    let first = reservations.partition_point(|r| r.start < from);
    match reservations[..first].iter().rposition(|r| r.end > r.start) {
        Some(last) if reservations[last].end > from => last,
        _ => first,
    }
}

/// `true` if no reservation of a sorted, disjoint list overlaps `interval`
/// (closed-open; a zero-length reservation strictly inside counts).
fn list_is_idle(reservations: &[Reservation], interval: TimeInterval) -> bool {
    let starting_before_end = reservations.partition_point(|r| r.start < interval.end);
    for r in reservations[..starting_before_end].iter().rev() {
        if r.start > interval.start {
            return false;
        }
        if r.end > r.start {
            // The last positive-length reservation starting at or before the
            // interval; earlier ones end before this one starts.
            return r.end <= interval.start;
        }
    }
    true
}

/// One core's busy time as two start-sorted reservation lists: the committed
/// plan, and the reservations a trial placement has tentatively put on top
/// of it (empty for queries on the committed state). Together they satisfy
/// the plan invariant, so every query is one merged walk — no copy of the
/// plan is ever made to answer "what if".
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timeline<'a> {
    committed: &'a [Reservation],
    trial: &'a [Reservation],
}

impl<'a> Timeline<'a> {
    pub(crate) fn new(committed: &'a [Reservation], trial: &'a [Reservation]) -> Self {
        Timeline { committed, trial }
    }

    /// Both reservation lists, committed first.
    pub(crate) fn reservations(&self) -> impl Iterator<Item = &'a Reservation> {
        self.committed.iter().chain(self.trial)
    }

    /// The idle gaps inside `[from, to)`, lazily, in time order.
    pub(crate) fn idle_gaps(&self, from: f64, to: f64) -> IdleGaps<'a> {
        IdleGaps {
            committed: &self.committed[first_reaching(self.committed, from)..],
            trial: &self.trial[first_reaching(self.trial, from)..],
            from,
            to,
            cursor: from,
            // An empty (or NaN-bounded) window has no gaps at all.
            finished: TimeInterval::new(from, to).is_empty(),
        }
    }

    pub(crate) fn is_idle(&self, interval: TimeInterval) -> bool {
        interval.is_empty()
            || (list_is_idle(self.committed, interval) && list_is_idle(self.trial, interval))
    }

    pub(crate) fn earliest_fit(&self, earliest: f64, deadline: f64, duration: f64) -> Option<f64> {
        if duration < 0.0 || earliest + duration > deadline + TIME_EPS {
            return None;
        }
        if duration == 0.0 {
            return Some(earliest);
        }
        for gap in self.idle_gaps(earliest, deadline) {
            if gap.start + duration > deadline + TIME_EPS {
                // Later gaps start later still.
                return None;
            }
            if gap.start + duration <= gap.end + TIME_EPS {
                return Some(gap.start);
            }
        }
        None
    }

    /// Preemptive fit: greedily fills idle gaps from `earliest` on, appending
    /// the chunks used to `chunks` (in time order). Returns `false`, leaving
    /// `chunks` as it was, if the whole duration does not fit before the
    /// deadline.
    pub(crate) fn fit_preemptive(
        &self,
        earliest: f64,
        deadline: f64,
        duration: f64,
        chunks: &mut Vec<TimeInterval>,
    ) -> bool {
        if duration < 0.0 {
            return false;
        }
        let kept = chunks.len();
        let mut remaining = duration;
        if remaining > 0.0 {
            for gap in self.idle_gaps(earliest, deadline) {
                if remaining <= TIME_EPS {
                    break;
                }
                let usable = gap.duration().min(remaining);
                if usable > TIME_EPS {
                    chunks.push(TimeInterval::new(gap.start, gap.start + usable));
                    remaining -= usable;
                }
            }
        }
        if remaining > TIME_EPS {
            chunks.truncate(kept);
        }
        remaining <= TIME_EPS
    }
}

/// Lazy walk over the idle gaps of a [`Timeline`] inside a window: merges
/// the two start-sorted lists, clips each busy interval to the window and
/// yields the space between them. Stops looking at the first reservation
/// starting at or after the window's end.
#[derive(Debug, Clone)]
pub(crate) struct IdleGaps<'a> {
    committed: &'a [Reservation],
    trial: &'a [Reservation],
    from: f64,
    to: f64,
    /// End of the busy time seen so far.
    cursor: f64,
    finished: bool,
}

impl<'a> IdleGaps<'a> {
    /// The next reservation in start order across both lists.
    fn next_busy(&mut self) -> Option<&'a Reservation> {
        let from_trial = match (self.committed.first(), self.trial.first()) {
            (Some(c), Some(t)) => t.start < c.start,
            (None, Some(_)) => true,
            _ => false,
        };
        let list = if from_trial {
            &mut self.trial
        } else {
            &mut self.committed
        };
        let (next, rest) = list.split_first()?;
        *list = rest;
        Some(next)
    }
}

impl Iterator for IdleGaps<'_> {
    type Item = TimeInterval;

    fn next(&mut self) -> Option<TimeInterval> {
        if self.finished {
            return None;
        }
        while let Some(r) = self.next_busy() {
            if r.start >= self.to {
                break;
            }
            let (start, end) = (r.start.max(self.from), r.end.min(self.to));
            if end <= start {
                continue;
            }
            let idle_since = self.cursor;
            self.cursor = self.cursor.max(end);
            if start > idle_since {
                return Some(TimeInterval::new(idle_since, start));
            }
        }
        self.finished = true;
        (self.cursor < self.to).then(|| TimeInterval::new(self.cursor, self.to))
    }
}

/// The committed schedule of one site, kept sorted by start time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulePlan {
    reservations: Vec<Reservation>,
}

impl SchedulePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        SchedulePlan::default()
    }

    /// Rebuilds a plan from reservations captured by
    /// [`SchedulePlan::reservations`], refusing a list that breaks the
    /// sorted-and-disjoint invariant every query relies on (a list read
    /// from a plan always satisfies it).
    pub fn from_reservations(reservations: Vec<Reservation>) -> Result<Self, PlanError> {
        let plan = SchedulePlan { reservations };
        plan.validate()?;
        Ok(plan)
    }

    /// Committed reservations in start-time order.
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Number of committed reservations.
    pub(crate) fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Returns `true` if nothing is committed.
    pub(crate) fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// The committed reservations as a [`Timeline`] with nothing on top.
    pub(crate) fn timeline(&self) -> Timeline<'_> {
        Timeline::new(&self.reservations, &[])
    }

    /// Returns `true` if the given interval does not overlap any committed
    /// reservation.
    pub fn is_idle(&self, interval: TimeInterval) -> bool {
        self.timeline().is_idle(interval)
    }

    /// Idle windows of the plan inside `[from, to)`.
    pub fn idle_windows(&self, from: f64, to: f64) -> Vec<TimeInterval> {
        self.timeline().idle_gaps(from, to).collect()
    }

    /// Total busy time inside `[from, to)`.
    pub fn busy_time(&self, from: f64, to: f64) -> f64 {
        let window = TimeInterval::new(from, to);
        self.reservations[first_reaching(&self.reservations, from)..]
            .iter()
            .take_while(|r| r.start < window.end)
            .fold(0.0, |busy, r| {
                busy + r.interval().intersect(&window).duration()
            })
    }

    /// Earliest start `s >= earliest` such that `[s, s + duration)` is idle
    /// and `s + duration <= deadline`. Returns `None` if no such slot exists.
    ///
    /// This is the §5/§10 insertion primitive for the non-preemptive model.
    pub fn earliest_fit(&self, earliest: f64, deadline: f64, duration: f64) -> Option<f64> {
        self.timeline().earliest_fit(earliest, deadline, duration)
    }

    /// Preemptive variant of [`SchedulePlan::earliest_fit`]: greedily fills
    /// idle windows from `earliest` on and returns the chunks used (in time
    /// order) if the whole duration fits before the deadline.
    pub fn earliest_fit_preemptive(
        &self,
        earliest: f64,
        deadline: f64,
        duration: f64,
    ) -> Option<Vec<TimeInterval>> {
        let mut chunks = Vec::new();
        self.timeline()
            .fit_preemptive(earliest, deadline, duration, &mut chunks)
            .then_some(chunks)
    }

    /// Commits a reservation.
    pub fn insert(&mut self, reservation: Reservation) -> Result<(), PlanError> {
        reservation.check_well_formed()?;
        if !self.is_idle(reservation.interval()) {
            return Err(PlanError::Overlap);
        }
        let pos = self
            .reservations
            .partition_point(|r| r.start <= reservation.start);
        self.reservations.insert(pos, reservation);
        Ok(())
    }

    /// Takes back the most recent [`SchedulePlan::insert`] that has not been
    /// taken back yet (it sits after every other reservation with the same
    /// start). This is how a refused batch is undone without a backup copy.
    pub(crate) fn undo_insert(&mut self, reservation: &Reservation) {
        let pos = self
            .reservations
            .partition_point(|r| r.start <= reservation.start)
            - 1;
        debug_assert_eq!(&self.reservations[pos], reservation);
        self.reservations.remove(pos);
    }

    /// Removes every reservation of a job (used when a trial mapping is
    /// invalidated or a lock is released without selection).
    pub(crate) fn remove_job(&mut self, job: JobId) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.job != job);
        before - self.reservations.len()
    }

    /// [`SchedulePlan::drain_completed`] handing each drained reservation
    /// to `visit` (in plan order) instead of collecting them.
    pub(crate) fn drain_completed_with(&mut self, cutoff: f64, mut visit: impl FnMut(Reservation)) {
        self.reservations.retain(|r| {
            let done = r.end <= cutoff + TIME_EPS;
            if done {
                visit(*r);
            }
            !done
        });
    }

    /// Surplus over the observation window `[now, now + window)`: the §2
    /// ratio of idle time to window length. An empty window yields 1.0.
    pub fn surplus(&self, now: f64, window: f64) -> f64 {
        if window <= 0.0 {
            return 1.0;
        }
        let idle = window - self.busy_time(now, now + window);
        (idle / window).clamp(0.0, 1.0)
    }

    /// Checks the sorted-and-disjoint invariant (used by property tests and
    /// debug assertions in the protocol layer).
    pub fn check_invariants(&self) -> bool {
        self.validate().is_ok()
    }

    /// The invariant [`SchedulePlan::insert`] maintains: well-formed
    /// reservations in start order, each positive-length one starting at or
    /// after the end of the previous positive-length one.
    fn validate(&self) -> Result<(), PlanError> {
        let (mut last_start, mut busy_until) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for r in &self.reservations {
            r.check_well_formed()?;
            if r.start < last_start {
                return Err(PlanError::Unordered);
            }
            last_start = r.start;
            if r.end > r.start {
                if r.start < busy_until {
                    return Err(PlanError::Overlap);
                }
                busy_until = r.end;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(job: u64, task: usize, start: f64, end: f64) -> Reservation {
        Reservation {
            job: JobId(job),
            task: TaskId(task),
            start,
            end,
        }
    }

    #[test]
    fn insert_and_query() {
        let mut plan = SchedulePlan::new();
        assert!(plan.is_empty());
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 35.0)).unwrap();
        plan.insert(res(2, 0, 0.0, 5.0)).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(plan.check_invariants());
        // Sorted by start.
        let starts: Vec<f64> = plan.reservations().iter().map(|r| r.start).collect();
        assert_eq!(starts, vec![0.0, 10.0, 30.0]);
        assert!(plan.is_idle(TimeInterval::new(5.0, 10.0)));
        assert!(!plan.is_idle(TimeInterval::new(4.0, 6.0)));
        assert_eq!(plan.busy_time(0.0, 40.0), 20.0);
        assert_eq!(plan.reservations()[0].duration(), 5.0);
    }

    #[test]
    fn overlap_and_malformed_rejected() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        assert_eq!(plan.insert(res(2, 0, 15.0, 25.0)), Err(PlanError::Overlap));
        assert_eq!(plan.insert(res(2, 0, 5.0, 11.0)), Err(PlanError::Overlap));
        assert_eq!(
            plan.insert(res(2, 0, f64::NAN, 1.0)),
            Err(PlanError::Malformed)
        );
        assert_eq!(plan.insert(res(2, 0, 5.0, 3.0)), Err(PlanError::Malformed));
        // Touching intervals are fine (closed-open semantics).
        plan.insert(res(2, 0, 20.0, 22.0)).unwrap();
        assert_eq!(plan.len(), 2);
        assert!(PlanError::Overlap.to_string().contains("overlap"));
    }

    #[test]
    fn from_reservations_checks_the_invariant() {
        // Back-to-back slots and a zero-length marker are what `insert`
        // itself produces.
        let sound = vec![
            res(1, 0, 0.0, 5.0),
            res(1, 1, 5.0, 5.0),
            res(2, 0, 5.0, 9.0),
        ];
        let plan = SchedulePlan::from_reservations(sound.clone()).unwrap();
        assert_eq!(plan.reservations(), &sound[..]);
        assert!(plan.check_invariants());
        let rebuilt = |rows: &[Reservation]| SchedulePlan::from_reservations(rows.to_vec());
        assert_eq!(
            rebuilt(&[sound[2], sound[0]]).unwrap_err(),
            PlanError::Unordered
        );
        assert_eq!(
            rebuilt(&[sound[0], res(2, 0, 4.0, 9.0)]).unwrap_err(),
            PlanError::Overlap
        );
        // The overlap need not be between neighbours.
        assert_eq!(
            rebuilt(&[res(1, 0, 0.0, 8.0), sound[1], sound[2]]).unwrap_err(),
            PlanError::Overlap
        );
        assert_eq!(
            rebuilt(&[res(1, 0, 0.0, f64::INFINITY)]).unwrap_err(),
            PlanError::Malformed
        );
        assert!(PlanError::Unordered.to_string().contains("sorted"));
    }

    #[test]
    fn idle_windows_and_earliest_fit() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 40.0)).unwrap();
        let idle = plan.idle_windows(0.0, 50.0);
        assert_eq!(
            idle,
            vec![
                TimeInterval::new(0.0, 10.0),
                TimeInterval::new(20.0, 30.0),
                TimeInterval::new(40.0, 50.0),
            ]
        );
        // Fits in the first window.
        assert_eq!(plan.earliest_fit(0.0, 50.0, 8.0), Some(0.0));
        // Too long for the first window, fits in the second.
        assert_eq!(plan.earliest_fit(5.0, 50.0, 9.0), Some(20.0));
        // Release inside a busy interval.
        assert_eq!(plan.earliest_fit(12.0, 50.0, 5.0), Some(20.0));
        // Deadline too tight.
        assert_eq!(plan.earliest_fit(12.0, 24.0, 5.0), None);
        // Exactly fitting against the deadline.
        assert_eq!(plan.earliest_fit(20.0, 30.0, 10.0), Some(20.0));
        // Zero duration always fits.
        assert_eq!(plan.earliest_fit(15.0, 15.0, 0.0), Some(15.0));
        // Infeasible by definition.
        assert_eq!(plan.earliest_fit(40.0, 45.0, 10.0), None);
    }

    #[test]
    fn preemptive_fit_spans_windows() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 40.0)).unwrap();
        // 15 units must split across [0,10) and [20,30).
        let chunks = plan.earliest_fit_preemptive(0.0, 40.0, 15.0).unwrap();
        assert_eq!(
            chunks,
            vec![TimeInterval::new(0.0, 10.0), TimeInterval::new(20.0, 25.0)]
        );
        // Exactly the available idle time in [0, 40): 10 + 10 = 20.
        assert!(plan.earliest_fit_preemptive(0.0, 40.0, 20.0).is_some());
        assert!(plan.earliest_fit_preemptive(0.0, 40.0, 20.5).is_none());
        assert_eq!(plan.earliest_fit_preemptive(0.0, 40.0, 0.0), Some(vec![]));
        // A non-preemptive fit of 15 would have to wait until t = 40.
        assert_eq!(plan.earliest_fit(0.0, 60.0, 15.0), Some(40.0));
    }

    #[test]
    fn remove_job_drops_all_its_reservations() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 0.0, 10.0)).unwrap();
        plan.insert(res(2, 0, 10.0, 15.0)).unwrap();
        plan.insert(res(1, 1, 15.0, 20.0)).unwrap();
        assert_eq!(plan.remove_job(JobId(1)), 2);
        assert_eq!(plan.reservations(), &[res(2, 0, 10.0, 15.0)]);
        assert_eq!(plan.remove_job(JobId(99)), 0);
    }

    #[test]
    fn drain_completed_prunes_the_past_only() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 0.0, 10.0)).unwrap();
        plan.insert(res(2, 0, 10.0, 30.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 35.0)).unwrap();
        let drain = |plan: &mut SchedulePlan, cutoff| {
            let mut done = Vec::new();
            plan.drain_completed_with(cutoff, |r| done.push(r));
            done
        };
        let drained = drain(&mut plan, 10.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].job, JobId(1));
        assert_eq!(drained[0].end, 10.0);
        assert_eq!(plan.len(), 2);
        assert!(plan.check_invariants());
        // Queries over the remaining window are unaffected by pruning.
        assert_eq!(plan.earliest_fit(10.0, 60.0, 5.0), Some(35.0));
        assert_eq!(plan.reservations()[0], res(2, 0, 10.0, 30.0));
        // Draining everything empties the plan.
        let rest = drain(&mut plan, f64::INFINITY);
        assert_eq!(rest.len(), 2);
        assert!(plan.is_empty());
        assert!(drain(&mut plan, 100.0).is_empty());
    }

    #[test]
    fn surplus_matches_definition() {
        let mut plan = SchedulePlan::new();
        assert_eq!(plan.surplus(0.0, 100.0), 1.0);
        plan.insert(res(1, 0, 0.0, 50.0)).unwrap();
        assert_eq!(plan.surplus(0.0, 100.0), 0.5);
        // Paper's example surpluses: 0.5 and 0.4 are plain idle ratios.
        plan.insert(res(1, 1, 60.0, 70.0)).unwrap();
        assert!((plan.surplus(0.0, 100.0) - 0.4).abs() < 1e-12);
        // Window starting mid-run only counts the overlap.
        assert!((plan.surplus(50.0, 50.0) - 0.8).abs() < 1e-12);
        // Degenerate window.
        assert_eq!(plan.surplus(0.0, 0.0), 1.0);
    }
}
