//! What every policy shares: the per-site scheduling state, the loop that
//! feeds it a workload and accounts for the outcome, and the two ways a
//! policy commits a job to it — whole on one site, or task by task across
//! all of them.

use crate::policy::PolicyReport;
use rtds_graph::Job;
use rtds_net::dijkstra::ShortestPaths;
use rtds_net::{Network, SiteId};
use rtds_sched::admission::priority_order;
use rtds_sched::executor;
use rtds_sched::{Placement, Reservation, Scheduler, SchedulerKind, SiteResources, SiteScheduler};

/// Where a policy committed a job it accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placed {
    /// Entirely on the arrival site.
    Locally,
    /// At least partly elsewhere.
    Remotely,
}

/// Runs a policy over a workload. Every site is the paper's site — one
/// protocol-scheduled core at the network's speed for it — and jobs are
/// offered in arrival-time order (ties by job id). `place` is the policy: it
/// commits the job to the sites and says where, or leaves them untouched and
/// returns `None`; protocol traffic goes into its `&mut u64` message count.
/// The run ends with the run-time safety check: every accepted job's last
/// reservation must end by its deadline.
pub(crate) fn run_policy(
    network: &Network,
    jobs: &[Job],
    preemptive: bool,
    mut place: impl FnMut(&mut [SiteScheduler], &Job, &mut u64) -> Option<Placed>,
) -> PolicyReport {
    let mut sites: Vec<SiteScheduler> = network
        .sites()
        .map(|s| {
            let resources = SiteResources::default();
            SiteScheduler::new(
                SchedulerKind::Protocol,
                resources,
                network.speed(s),
                preemptive,
            )
        })
        .collect();
    let mut report = PolicyReport::default();
    let mut ordered: Vec<&Job> = jobs.iter().collect();
    ordered.sort_by(|a, b| {
        a.arrival_time
            .partial_cmp(&b.arrival_time)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    let mut accepted = Vec::new();
    for job in ordered {
        report.submitted += 1;
        match place(&mut sites, job, &mut report.distribution_messages) {
            Some(Placed::Locally) => report.accepted_locally += 1,
            Some(Placed::Remotely) => report.accepted_remotely += 1,
            None => {
                report.rejected += 1;
                continue;
            }
        }
        accepted.push(job);
    }
    let completions = executor::job_completions(sites.iter().flat_map(|s| s.core_plans()));
    for job in accepted {
        let completion = completions.get(&job.id).copied();
        if !executor::meets_deadline(completion, job.deadline()) {
            report.deadline_misses += 1;
        }
    }
    report
}

/// Offers the whole DAG to one site at time `now` (the §5 test) and commits
/// it if it fits.
pub(crate) fn admit_on(site: &mut SiteScheduler, job: &Job, now: f64) -> bool {
    let Some(schedule) = site.admit_dag(job, now, None) else {
        return false;
    };
    site.reserve_dag(&schedule)
        .expect("admission placements fit");
    true
}

/// Greedy global list scheduling of one DAG across all sites with exact
/// knowledge: tasks in `rank` order, each placed contiguously on the site
/// where it finishes earliest against the *live* plans (insertion-based:
/// idle gaps between existing reservations are candidates too), inputs
/// charged at the exact pairwise delay in `aps`. Tasks go straight into the
/// sites' plans; if one does not fit before the deadline the job is taken
/// back and nothing is left behind.
pub(crate) fn place_across_sites(
    network: &Network,
    aps: &[ShortestPaths],
    sites: &mut [SiteScheduler],
    job: &Job,
    rank: &[f64],
) -> Option<Placed> {
    let graph = &job.graph;
    let arrival = SiteId(job.arrival_site);
    let deadline = job.deadline();
    let floor = job.arrival_time.max(job.release());
    let mut placed_site = vec![arrival; graph.task_count()];
    let mut finish = vec![0.0f64; graph.task_count()];
    let mut verdict = Placed::Locally;
    for t in priority_order(graph, rank) {
        let mut best: Option<(SiteId, f64, f64)> = None;
        for s in network.sites() {
            let transfer = aps[arrival.0].dist[s.0];
            if !transfer.is_finite() {
                continue;
            }
            let mut ready = floor + transfer;
            for p in graph.predecessors(t) {
                let delay = if placed_site[p.0] == s {
                    0.0
                } else {
                    aps[placed_site[p.0].0].dist[s.0]
                };
                ready = ready.max(finish[p.0] + delay);
            }
            let duration = graph.cost(t) / network.speed(s);
            if let Some(start) = sites[s.0].core_plans()[0].earliest_fit(ready, deadline, duration)
            {
                let end = start + duration;
                if best.map_or(true, |(_, _, e)| end < e - 1e-12) {
                    best = Some((s, start, end));
                }
            }
        }
        let committed = best.and_then(|(s, start, end)| {
            let reservation = Reservation {
                job: job.id,
                task: t,
                start,
                end,
            };
            let placement = Placement {
                core: 0,
                reservation,
            };
            sites[s.0].reserve(&[placement]).ok()?;
            Some((s, end))
        });
        let Some((s, end)) = committed else {
            // A fresh job has nothing else committed, so releasing it on
            // the sites used so far restores them exactly.
            placed_site.sort_unstable();
            placed_site.dedup();
            for s in placed_site {
                sites[s.0].release(job.id);
            }
            return None;
        };
        placed_site[t.0] = s;
        finish[t.0] = end;
        if s != arrival {
            verdict = Placed::Remotely;
        }
    }
    Some(verdict)
}
