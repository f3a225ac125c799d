//! Trial-Mapping validation (§10).
//!
//! Two halves:
//!
//! * the *member side* — given the trial mapping and the site's own
//!   scheduler, compute the list of logical processors whose task set
//!   `T_i` is locally satisfiable (`endorsable_with`),
//! * the *initiator side* — collect those lists, compute the maximum
//!   coupling between logical processors and sites, and either extract the
//!   execution permutation (coupling of size `|U|`) or reject the job
//!   (`ValidationRound`).

use crate::matching::{matching_size, maximum_bipartite_matching_csr, with_matching_workspace};
use crate::messages::TaskSpec;
use rtds_graph::JobId;
use rtds_net::SiteId;
use rtds_sched::{SiteScheduler, TaskRequest};
use std::sync::Arc;

/// Refills `requests` with the §10 question for one logical processor's
/// task set on a site of the given speed (durations are `cost / speed`).
pub(crate) fn task_requests(
    requests: &mut Vec<TaskRequest>,
    job: JobId,
    specs: &[TaskSpec],
    speed: f64,
) {
    requests.clear();
    requests.extend(specs.iter().map(|s| TaskRequest {
        job,
        task: s.task,
        release: s.release,
        deadline: s.deadline,
        duration: s.cost / speed,
    }));
}

/// Member side: which logical processors of the trial mapping can this site
/// endorse, given its scheduler's committed per-core plans? Durations are
/// `cost / speed` with the given effective site speed. Only the verdict of
/// each §10 test is asked for, through `requests` (a buffer the caller
/// keeps): the answer is the only allocation.
pub(crate) fn endorsable_with(
    scheduler: &SiteScheduler,
    job: JobId,
    tasks_per_logical: &[Arc<[TaskSpec]>],
    speed: f64,
    requests: &mut Vec<TaskRequest>,
) -> Vec<usize> {
    assert!(speed > 0.0, "site speed must be positive");
    let mut endorsable = Vec::new();
    for (i, specs) in tasks_per_logical.iter().enumerate() {
        task_requests(requests, job, specs, speed);
        if scheduler.can_satisfy(requests) {
            if endorsable.is_empty() {
                endorsable.reserve_exact(tasks_per_logical.len() - i);
            }
            endorsable.push(i);
        }
    }
    endorsable
}

/// Outcome of the initiator-side validation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ValidationOutcome {
    /// A perfect coupling exists: `assignment[i]` is the site chosen to
    /// endorse logical processor `i`.
    Accepted {
        /// Per-logical-processor selected site.
        assignment: Vec<SiteId>,
    },
    /// The maximum coupling is smaller than `|U|`: the job is rejected.
    Rejected {
        /// Size of the best coupling found.
        coupling_size: usize,
        /// Required size `|U|`.
        required: usize,
    },
}

/// Initiator-side state: collects validation replies from the ACS members and
/// computes the coupling once everyone has answered.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ValidationRound {
    logical_count: usize,
    /// The sites a reply is expected from, in the order given, each with
    /// its reply once it has arrived.
    expected: Vec<(SiteId, Option<Vec<usize>>)>,
    /// The positions of `expected` by increasing site: the index replies are
    /// looked up in, and the site order of the coupling.
    by_site: Vec<usize>,
    received: usize,
}

impl ValidationRound {
    /// Starts a round for `logical_count` logical processors, expecting a
    /// reply from every listed site.
    pub(crate) fn new(logical_count: usize, expected: impl IntoIterator<Item = SiteId>) -> Self {
        let expected: Vec<_> = expected.into_iter().map(|site| (site, None)).collect();
        let mut by_site: Vec<usize> = (0..expected.len()).collect();
        by_site.sort_by_key(|&at| expected[at].0);
        ValidationRound {
            logical_count,
            expected,
            by_site,
            received: 0,
        }
    }

    /// Records a member's reply (unknown or duplicate senders are ignored).
    pub(crate) fn record_reply(&mut self, from: SiteId, endorsable: Vec<usize>) {
        let site_at = |&at: &usize| self.expected[at].0;
        let Ok(rank) = self.by_site.binary_search_by_key(&from, site_at) else {
            return;
        };
        let reply = &mut self.expected[self.by_site[rank]].1;
        if reply.is_none() {
            *reply = Some(endorsable);
            self.received += 1;
        }
    }

    /// Returns `true` once every expected site has answered.
    pub(crate) fn is_complete(&self) -> bool {
        self.received == self.expected.len()
    }

    /// The replies received so far, by increasing site.
    fn replies(&self) -> impl Iterator<Item = (SiteId, &Vec<usize>)> + Clone {
        self.by_site.iter().filter_map(|&at| {
            let (site, reply) = &self.expected[at];
            reply.as_ref().map(|reply| (*site, reply))
        })
    }

    /// Computes the §10 maximum coupling and extracts the permutation.
    ///
    /// # Panics
    /// Panics if called before the round is complete.
    pub(crate) fn conclude(&self) -> ValidationOutcome {
        assert!(self.is_complete(), "validation round is not complete");
        // Bipartite CSR: left = logical processors, right = sites by
        // increasing id. Pairs are fed right-major, reproducing the
        // historical per-left edge order (and thereby the exact permutation
        // the solver extracts); out-of-range logical indices are dropped by
        // the builder. The CSR and solver scratch are thread-locals reused
        // across every Trial-Mapping validation of the run.
        let pairs = self
            .replies()
            .enumerate()
            .flat_map(|(right_idx, (_, reply))| reply.iter().map(move |&l| (l, right_idx)));
        let matching = with_matching_workspace(|csr, scratch| {
            csr.rebuild_from_pairs(self.logical_count, self.expected.len(), pairs);
            maximum_bipartite_matching_csr(csr, scratch)
        });
        let size = matching_size(&matching);
        if size < self.logical_count {
            return ValidationOutcome::Rejected {
                coupling_size: size,
                required: self.logical_count,
            };
        }
        let site = |right_idx: usize| self.expected[self.by_site[right_idx]].0;
        let assignment = matching
            .into_iter()
            .map(|r| site(r.expect("perfect matching")))
            .collect();
        ValidationOutcome::Accepted { assignment }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::TaskId;
    use rtds_sched::{Reservation, SchedulePlan, SchedulerKind, SiteResources};

    fn spec(task: usize, release: f64, deadline: f64, cost: f64) -> TaskSpec {
        TaskSpec {
            task: TaskId(task),
            release,
            deadline,
            cost,
        }
    }

    /// A protocol site holding `plans`, one per core.
    fn site(plans: Vec<SchedulePlan>) -> SiteScheduler {
        SiteScheduler::from_parts(
            SchedulerKind::Protocol,
            SiteResources::multicore(plans.len(), 1.0),
            1.0,
            false,
            plans,
            Vec::new(),
        )
        .unwrap()
    }

    #[test]
    fn member_side_endorsement() {
        // Plan busy on [0, 30): logical processor 0 (needs [0, 20)) cannot be
        // endorsed, logical processor 1 (window up to 60) can.
        let mut plan = SchedulePlan::new();
        plan.insert(Reservation {
            job: JobId(9),
            task: TaskId(0),
            start: 0.0,
            end: 30.0,
        })
        .unwrap();
        let mapping: Vec<Arc<[TaskSpec]>> = vec![
            vec![spec(0, 0.0, 20.0, 10.0)].into(),
            vec![spec(1, 0.0, 60.0, 10.0), spec(2, 0.0, 60.0, 5.0)].into(),
        ];
        let mut requests = Vec::new();
        let mut endorsable = |site: &SiteScheduler, mapping: &[Arc<[TaskSpec]>], speed: f64| {
            endorsable_with(site, JobId(1), mapping, speed, &mut requests)
        };
        let busy = site(vec![plan.clone()]);
        assert_eq!(endorsable(&busy, &mapping, 1.0), vec![1]);
        // A fast site (speed 4) can also endorse processor 0: 10/4 = 2.5
        // units... still needs idle time before t = 20, which does not exist.
        assert_eq!(endorsable(&busy, &mapping, 4.0), vec![1]);
        // An empty plan endorses everything.
        let idle = site(vec![SchedulePlan::new()]);
        assert_eq!(endorsable(&idle, &mapping, 1.0), vec![0, 1]);
        // An empty mapping is trivially endorsed (no logical processors).
        assert!(endorsable(&idle, &[], 1.0).is_empty());
        // A second core lets the blocked logical processor through.
        let dual = site(vec![plan, SchedulePlan::new()]);
        assert_eq!(endorsable(&dual, &mapping, 1.0), vec![0, 1]);
    }

    #[test]
    fn round_accepts_with_perfect_coupling() {
        let mut round = ValidationRound::new(2, vec![SiteId(0), SiteId(1), SiteId(2)]);
        assert!(!round.is_complete());
        assert_eq!(round.expected.len() - round.received, 3);
        round.record_reply(SiteId(0), vec![0]);
        round.record_reply(SiteId(1), vec![0, 1]);
        round.record_reply(SiteId(2), vec![]);
        assert!(round.is_complete());
        match round.conclude() {
            ValidationOutcome::Accepted { assignment } => {
                assert_eq!(assignment.len(), 2);
                // Logical 0 must go to site 0 (the only way to cover both).
                assert_eq!(assignment[0], SiteId(0));
                assert_eq!(assignment[1], SiteId(1));
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    #[test]
    fn round_rejects_without_perfect_coupling() {
        let mut round = ValidationRound::new(2, vec![SiteId(0), SiteId(1)]);
        round.record_reply(SiteId(0), vec![1]);
        round.record_reply(SiteId(1), vec![1]);
        match round.conclude() {
            ValidationOutcome::Rejected {
                coupling_size,
                required,
            } => {
                assert_eq!(coupling_size, 1);
                assert_eq!(required, 2);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_unknown_replies_are_ignored() {
        let mut round = ValidationRound::new(1, vec![SiteId(0)]);
        round.record_reply(SiteId(5), vec![0]); // unknown
        assert!(!round.is_complete());
        round.record_reply(SiteId(0), vec![0]);
        round.record_reply(SiteId(0), vec![]); // duplicate, ignored
        assert!(round.is_complete());
        match round.conclude() {
            ValidationOutcome::Accepted { assignment } => assert_eq!(assignment, vec![SiteId(0)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_logical_processors_is_vacuously_accepted() {
        let mut round = ValidationRound::new(0, vec![SiteId(0)]);
        round.record_reply(SiteId(0), vec![]);
        match round.conclude() {
            ValidationOutcome::Accepted { assignment } => assert!(assignment.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not complete")]
    fn concluding_early_panics() {
        let round = ValidationRound::new(1, vec![SiteId(0)]);
        let _ = round.conclude();
    }

    #[test]
    fn out_of_range_endorsements_are_ignored() {
        let mut round = ValidationRound::new(1, vec![SiteId(0)]);
        round.record_reply(SiteId(0), vec![0, 7]); // 7 does not exist
        match round.conclude() {
            ValidationOutcome::Accepted { assignment } => assert_eq!(assignment, vec![SiteId(0)]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
