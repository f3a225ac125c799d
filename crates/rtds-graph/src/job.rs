//! Jobs: a task graph plus its real-time parameters and arrival metadata.
//!
//! In the paper, a job is a sporadic arrival of a DAG with a release `r` and a
//! deadline `d` at some site of the network. The release of the worked example
//! is 0 and its deadline 66; generators usually derive deadlines from the
//! critical path length and a *laxity factor*.

use crate::critical_path::critical_path_length;
use crate::dag::TaskGraph;

/// Globally unique job identifier (unique within one simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Real-time parameters of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobParams {
    /// Release time `r` (absolute simulation time).
    pub release: f64,
    /// Deadline `d` (absolute simulation time, `d > r`).
    pub deadline: f64,
}

impl JobParams {
    /// Creates job parameters, checking `deadline > release`.
    ///
    /// # Panics
    /// Panics if the window is empty or the values are not finite.
    pub fn new(release: f64, deadline: f64) -> Self {
        assert!(release.is_finite() && deadline.is_finite());
        assert!(
            deadline > release,
            "job deadline ({deadline}) must be after its release ({release})"
        );
        JobParams { release, deadline }
    }

    /// Length of the execution window `d - r`.
    pub(crate) fn window(&self) -> f64 {
        self.deadline - self.release
    }
}

/// A job: a DAG, its real-time window and where/when it entered the system.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique identifier.
    pub id: JobId,
    /// The precedence graph.
    pub graph: TaskGraph,
    /// Release and deadline.
    pub params: JobParams,
    /// Index of the site on which the job arrived (interpretation is left to
    /// the network layer; stored here so workload generators can emit complete
    /// arrival records).
    pub arrival_site: usize,
    /// Arrival time (usually equal to the release).
    pub arrival_time: f64,
}

impl Job {
    /// Creates a job arriving at `arrival_site` at its release time.
    pub fn new(id: JobId, graph: TaskGraph, params: JobParams, arrival_site: usize) -> Self {
        let arrival_time = params.release;
        Job {
            id,
            graph,
            params,
            arrival_site,
            arrival_time,
        }
    }

    /// Release time `r`.
    pub fn release(&self) -> f64 {
        self.params.release
    }

    /// Deadline `d`.
    pub fn deadline(&self) -> f64 {
        self.params.deadline
    }

    /// Execution window `d - r`.
    pub fn window(&self) -> f64 {
        self.params.window()
    }

    /// Critical-path length of the job's graph (node weights only).
    pub fn critical_path_length(&self) -> f64 {
        critical_path_length(&self.graph)
    }

    /// Total computational demand of the job.
    pub fn total_cost(&self) -> f64 {
        self.graph.total_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn chain_graph() -> TaskGraph {
        let mut g = TaskGraph::from_costs(&[2.0, 3.0, 5.0]);
        g.add_edge(TaskId(0), TaskId(1)).unwrap();
        g.add_edge(TaskId(1), TaskId(2)).unwrap();
        g
    }

    #[test]
    fn params_window() {
        let p = JobParams::new(10.0, 30.0);
        assert_eq!(p.window(), 20.0);
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn empty_window_rejected() {
        let _ = JobParams::new(5.0, 5.0);
    }

    #[test]
    fn job_accessors() {
        let job = Job::new(JobId(7), chain_graph(), JobParams::new(0.0, 40.0), 3);
        assert_eq!(job.id, JobId(7));
        assert_eq!(format!("{}", job.id), "job7");
        assert_eq!(job.release(), 0.0);
        assert_eq!(job.deadline(), 40.0);
        assert_eq!(job.window(), 40.0);
        assert_eq!(job.arrival_site, 3);
        assert_eq!(job.arrival_time, 0.0);
        assert_eq!(job.total_cost(), 10.0);
        assert_eq!(job.critical_path_length(), 10.0);
    }
}
