//! Trial placement without copying plans.
//!
//! Admission (§5), validation (§10) and atomic commits all ask "what if these
//! reservations were added?". A [`Trial`] answers over the committed per-core
//! plans plus a small per-core list of the reservations tried so far
//! ([`Timeline`] merges the two on the fly), so nothing is cloned and a
//! rejected trial leaves nothing to roll back. Its lists, and the other
//! buffers of those paths, live in one per-thread [`Scratch`] that is reused
//! from call to call: after warm-up a query allocates only what it returns.

use crate::interval::TimeInterval;
use crate::plan::{PlanError, Reservation, SchedulePlan, Timeline, TIME_EPS};
use crate::scheduler::{CoreId, MemHold, Placement};
use rtds_graph::TaskId;
use std::cell::RefCell;

/// Reusable buffers of the admission, validation and commit paths. Every
/// user clears what it uses first; nothing is carried between calls.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The per-core trial lists behind a [`Trial`].
    pub(crate) added: Vec<Vec<Reservation>>,
    /// Placements of a request set, in the order they were made, and the
    /// memory residencies of a whole-DAG admission.
    pub(crate) placed: Vec<Placement>,
    pub(crate) holds: Vec<MemHold>,
    /// Indices of a request set in placement order.
    pub(crate) order: Vec<usize>,
    /// Preemptive chunks on the core being tried / on the best core so far.
    pub(crate) chunks: Vec<TimeInterval>,
    pub(crate) best_chunks: Vec<TimeInterval>,
    /// Candidate start times of a gang task.
    pub(crate) starts: Vec<f64>,
    /// `(time, memory delta)` events of the peak-memory check.
    pub(crate) events: Vec<(f64, f64)>,
    /// Per-task working vectors of a whole-DAG admission: a topological
    /// order, the list-scheduling priorities and order built from it, the
    /// durations on this site and the finish times of the placed tasks.
    pub(crate) topo: Vec<TaskId>,
    pub(crate) in_degrees: Vec<usize>,
    pub(crate) ranks: Vec<f64>,
    pub(crate) task_order: Vec<TaskId>,
    pub(crate) durations: Vec<f64>,
    pub(crate) finish: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` with this thread's [`Scratch`]. Not re-entrant: `f` receives the
/// only handle and passes it down explicitly.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Committed per-core plans plus the reservations tentatively placed on top.
#[derive(Debug)]
pub(crate) struct Trial<'a> {
    cores: &'a [SchedulePlan],
    /// One start-sorted list per core.
    added: &'a mut [Vec<Reservation>],
}

impl<'a> Trial<'a> {
    /// An empty trial over `cores`, reusing the lists of `added`.
    pub(crate) fn new(cores: &'a [SchedulePlan], added: &'a mut Vec<Vec<Reservation>>) -> Self {
        if added.len() < cores.len() {
            added.resize_with(cores.len(), Vec::new);
        }
        let added = &mut added[..cores.len()];
        added.iter_mut().for_each(Vec::clear);
        Trial { cores, added }
    }

    pub(crate) fn core_count(&self) -> usize {
        self.cores.len()
    }

    pub(crate) fn timeline(&self, core: CoreId) -> Timeline<'_> {
        Timeline::new(self.cores[core].reservations(), &self.added[core])
    }

    pub(crate) fn timelines(&self) -> impl Iterator<Item = Timeline<'_>> {
        (0..self.cores.len()).map(|core| self.timeline(core))
    }

    /// Tentatively places a reservation under the rule of
    /// [`SchedulePlan::insert`]; returns its position in the core's trial
    /// list for [`Trial::remove`].
    pub(crate) fn insert(&mut self, core: CoreId, r: Reservation) -> Result<usize, PlanError> {
        r.check_well_formed()?;
        if !self.timeline(core).is_idle(r.interval()) {
            return Err(PlanError::Overlap);
        }
        let pos = self.added[core].partition_point(|a| a.start <= r.start);
        self.added[core].insert(pos, r);
        Ok(pos)
    }

    /// [`Trial::insert`] on behalf of a placement list: records the placement
    /// in `out`, or returns `None` if the reservation does not fit.
    pub(crate) fn place(
        &mut self,
        core: CoreId,
        reservation: Reservation,
        out: &mut Vec<Placement>,
    ) -> Option<()> {
        self.insert(core, reservation).ok()?;
        out.push(Placement { core, reservation });
        Some(())
    }

    /// Takes back the reservation [`Trial::insert`] put at `pos`.
    pub(crate) fn remove(&mut self, core: CoreId, pos: usize) {
        self.added[core].remove(pos);
    }

    /// Earliest single-core fit across all cores: `(core, start, finish)`.
    pub(crate) fn best_single_fit(
        &self,
        ready: f64,
        deadline: f64,
        duration: f64,
    ) -> Option<(CoreId, f64, f64)> {
        let mut best: Option<(CoreId, f64, f64)> = None;
        for (core, timeline) in self.timelines().enumerate() {
            if let Some(start) = timeline.earliest_fit(ready, deadline, duration) {
                // Homogeneous cores: earliest start == earliest finish, so
                // the protocol and HEFT selection rules coincide per task;
                // ties go to the lowest core id for determinism.
                if best.map_or(true, |(_, s, _)| start < s - TIME_EPS) {
                    best = Some((core, start, start + duration));
                }
            }
        }
        best
    }

    /// Preemptive fit on the core whose chunks complete earliest (ties to
    /// the lowest core id): `(core, end)`, with the chunks in `best`.
    pub(crate) fn best_preemptive_fit(
        &self,
        ready: f64,
        deadline: f64,
        duration: f64,
        chunks: &mut Vec<TimeInterval>,
        best: &mut Vec<TimeInterval>,
    ) -> Option<(CoreId, f64)> {
        let mut found: Option<(CoreId, f64)> = None;
        for (core, timeline) in self.timelines().enumerate() {
            chunks.clear();
            if timeline.fit_preemptive(ready, deadline, duration, chunks) {
                let end = chunks.last().map_or(ready, |chunk| chunk.end);
                if found.map_or(true, |(_, e)| end < e - TIME_EPS) {
                    found = Some((core, end));
                    std::mem::swap(chunks, best);
                }
            }
        }
        found
    }
}
