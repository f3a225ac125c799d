//! Task identities and per-task attributes.
//!
//! A task is the atomic unit of work in the RTDS model. Its only mandatory
//! attribute is its *Computational Complexity* `c(t)`: the execution time of
//! the task on an idle unit-speed site. On a site whose surplus is `I`, the
//! Mapper estimates the execution duration as `c(t) / I` (paper §12); on a
//! uniform machine of speed `s` the duration is `c(t) / s` (paper §13).

use std::fmt;

/// Identifier of a task inside one job.
///
/// Task ids are dense indices (`0..n`) into the owning [`TaskGraph`](crate::TaskGraph)
/// (crate::TaskGraph); they are *not* globally unique across jobs. The paper's
/// worked example numbers tasks from 1; the crate uses 0-based ids internally
/// and the paper-facing binaries print them 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<usize> for TaskId {
    fn from(v: usize) -> Self {
        TaskId(v)
    }
}

/// A task of a job: a name plus its computational complexity.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Identifier within the owning graph.
    pub id: TaskId,
    /// Computational complexity `c(t)` (execution time on an idle unit-speed
    /// site). Non-negative by construction.
    pub cost: f64,
    /// Optional human-readable label (used by examples and traces).
    pub label: Option<String>,
}

impl Task {
    /// Creates a task with the given id and computational complexity.
    ///
    /// # Panics
    /// Panics if `cost` is negative or not finite — the paper assumes all
    /// weights are non-negative (§2).
    pub fn new(id: TaskId, cost: f64) -> Self {
        assert!(
            cost.is_finite() && cost >= 0.0,
            "task cost must be finite and non-negative, got {cost}"
        );
        Task {
            id,
            cost,
            label: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display_and_labels() {
        let id = TaskId(4);
        assert_eq!(format!("{id}"), "t4");
        assert_eq!(TaskId::from(7), TaskId(7));
    }

    #[test]
    fn task_construction() {
        let t = Task::new(TaskId(0), 6.0);
        assert_eq!(t.cost, 6.0);
        assert!(t.label.is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_rejected() {
        let _ = Task::new(TaskId(0), -1.0);
    }
}
