//! Run-time execution of committed plans.
//!
//! Once a job's tasks are inserted into the scheduling plans of the selected
//! sites (§11), execution is deterministic: the computation processor simply
//! honours its reservations. The executor folds a set of plans into per-job
//! completion times and checks the paper's run-time safety property —
//! an accepted job never misses its deadline under faithful execution —
//! which the integration tests and the simulation report rely on.

use crate::plan::SchedulePlan;
use rtds_graph::JobId;
use std::collections::BTreeMap;

/// Completion time of every job appearing in any of the given plans: the
/// latest reservation end across all of them. One pass over the
/// reservations, so a report looks each accepted job up instead of scanning
/// every plan once per job.
pub fn job_completions<'a>(
    plans: impl IntoIterator<Item = &'a SchedulePlan>,
) -> BTreeMap<JobId, f64> {
    let mut completions = BTreeMap::new();
    for r in plans.into_iter().flat_map(SchedulePlan::reservations) {
        let end = completions.entry(r.job).or_insert(f64::NEG_INFINITY);
        *end = r.end.max(*end);
    }
    completions
}

/// Whether a completion time looked up in [`job_completions`] meets the
/// deadline (a job with nothing committed anywhere does not).
pub fn meets_deadline(completion: Option<f64>, deadline: f64) -> bool {
    completion.is_some_and(|c| c <= deadline + 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Reservation;
    use rtds_graph::TaskId;

    fn res(job: u64, task: usize, start: f64, end: f64) -> Reservation {
        Reservation {
            job: JobId(job),
            task: TaskId(task),
            start,
            end,
        }
    }

    #[test]
    fn outcomes_across_sites() {
        let mut p1 = SchedulePlan::new();
        p1.insert(res(1, 0, 0.0, 10.0)).unwrap();
        p1.insert(res(1, 2, 15.0, 20.0)).unwrap();
        p1.insert(res(2, 0, 20.0, 30.0)).unwrap();
        let mut p2 = SchedulePlan::new();
        p2.insert(res(1, 1, 0.0, 12.0)).unwrap();
        let completions = job_completions([&p1, &p2]);
        assert_eq!(completions.len(), 2);
        assert_eq!(completions.get(&JobId(1)), Some(&20.0));
        assert_eq!(completions.get(&JobId(2)), Some(&30.0));
        assert_eq!(completions.get(&JobId(9)), None);

        let of = |job: u64| completions.get(&JobId(job)).copied();
        assert!(meets_deadline(of(1), 20.0));
        assert!(meets_deadline(of(1), 25.0));
        assert!(!meets_deadline(of(1), 19.0));
        assert!(!meets_deadline(of(9), 100.0));
    }

    #[test]
    fn empty_plans_have_no_outcomes() {
        let p = SchedulePlan::new();
        assert!(job_completions([&p]).is_empty());
        assert!(job_completions([]).is_empty());
    }
}
