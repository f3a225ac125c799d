//! Property-based tests for the local scheduler: plans never overlap,
//! admission/feasibility results always respect releases, deadlines and
//! precedence, surplus stays within [0, 1] — and every answer equals, bit
//! for bit, the one the pre-rewrite scheduler kept in `reference/` gives.

mod reference;

use proptest::prelude::*;
use reference::{brute_force_satisfiable, RefPlan, RefSite};
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::{Job, JobId, TaskId};
use rtds_sched::plan::{Reservation, SchedulePlan};
use rtds_sched::{
    MemHold, Placement, Scheduler, SchedulerKind, SiteResources, SiteScheduler, SpeedupFn,
    TaskDemand, TaskRequest, TimeInterval,
};

/// The paper's site: one protocol-scheduled core holding `plan`.
fn paper_site(plan: &SchedulePlan, speed: f64, preemptive: bool) -> SiteScheduler {
    SiteScheduler::from_parts(
        SchedulerKind::Protocol,
        SiteResources::default(),
        speed,
        preemptive,
        vec![plan.clone()],
        vec![],
    )
    .unwrap()
}

fn reservations(placements: &[Placement]) -> Vec<Reservation> {
    placements.iter().map(|p| p.reservation).collect()
}

/// Builds a plan from arbitrary (start, duration) pairs, skipping the ones
/// that would overlap — mirrors how a site accumulates commitments over time.
fn plan_from_pairs(pairs: &[(f64, f64)]) -> SchedulePlan {
    let mut plan = SchedulePlan::new();
    for (i, &(start, dur)) in pairs.iter().enumerate() {
        let r = Reservation {
            job: JobId(1000 + i as u64),
            task: TaskId(0),
            start,
            end: start + dur,
        };
        let _ = plan.insert(r);
    }
    plan
}

fn arbitrary_busy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..200.0, 0.5f64..20.0), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Plans built incrementally never contain overlapping reservations and
    /// their idle windows tile the observation window exactly.
    #[test]
    fn plan_invariants(pairs in arbitrary_busy()) {
        let plan = plan_from_pairs(&pairs);
        prop_assert!(plan.check_invariants());
        let from = 0.0;
        let to = 300.0;
        let idle: f64 = plan.idle_windows(from, to).iter().map(|w| w.duration()).sum();
        let busy = plan.busy_time(from, to);
        prop_assert!((idle + busy - (to - from)).abs() < 1e-6);
        let s = plan.surplus(from, to - from);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((s - idle / (to - from)).abs() < 1e-6);
        // Idle windows really are idle and maximal.
        for w in plan.idle_windows(from, to) {
            prop_assert!(plan.is_idle(w));
            prop_assert!(w.duration() > 0.0);
        }
    }

    /// earliest_fit returns slots that are idle, after the release, and end
    /// before the deadline; when it returns None, no single idle window can
    /// hold the task.
    #[test]
    fn earliest_fit_is_sound_and_complete(
        pairs in arbitrary_busy(),
        release in 0.0f64..150.0,
        extra in 1.0f64..100.0,
        duration in 0.5f64..30.0,
    ) {
        let plan = plan_from_pairs(&pairs);
        let deadline = release + extra;
        match plan.earliest_fit(release, deadline, duration) {
            Some(start) => {
                prop_assert!(start + 1e-9 >= release);
                prop_assert!(start + duration <= deadline + 1e-6);
                prop_assert!(plan.is_idle(TimeInterval::new(start + 1e-9, start + duration - 1e-9)));
            }
            None => {
                // No idle window inside [release, deadline) can hold it.
                for w in plan.idle_windows(release, deadline) {
                    let usable = (w.end.min(deadline) - w.start.max(release)).max(0.0);
                    prop_assert!(usable < duration - 1e-9,
                        "window {w:?} could hold duration {duration}");
                }
            }
        }
    }

    /// Preemptive fit uses only idle time, never exceeds the deadline and
    /// sums exactly to the requested duration; it succeeds whenever the
    /// non-preemptive fit does.
    #[test]
    fn preemptive_fit_dominates_non_preemptive(
        pairs in arbitrary_busy(),
        release in 0.0f64..150.0,
        extra in 1.0f64..100.0,
        duration in 0.5f64..30.0,
    ) {
        let plan = plan_from_pairs(&pairs);
        let deadline = release + extra;
        let np = plan.earliest_fit(release, deadline, duration);
        let p = plan.earliest_fit_preemptive(release, deadline, duration);
        if np.is_some() {
            prop_assert!(p.is_some(), "preemption must not lose feasibility");
        }
        if let Some(chunks) = p {
            let total: f64 = chunks.iter().map(|c| c.duration()).sum();
            prop_assert!((total - duration).abs() < 1e-6);
            for c in &chunks {
                prop_assert!(c.start + 1e-9 >= release);
                prop_assert!(c.end <= deadline + 1e-6);
                prop_assert!(plan.is_idle(TimeInterval::new(c.start + 1e-9, c.end - 1e-9)));
            }
            // Chunks are disjoint and ordered.
            for w in chunks.windows(2) {
                prop_assert!(w[0].end <= w[1].start + 1e-9);
            }
        }
    }

    /// The §10 satisfiability test only ever returns placements that respect
    /// each task's release/deadline and the committed plan.
    #[test]
    fn satisfiable_placements_are_valid(
        pairs in arbitrary_busy(),
        reqs in proptest::collection::vec((0.0f64..100.0, 1.0f64..40.0, 0.5f64..15.0), 1..6),
        preemptive in proptest::bool::ANY,
    ) {
        let plan = plan_from_pairs(&pairs);
        let requests: Vec<TaskRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(release, window, duration))| TaskRequest {
                job: JobId(7),
                task: TaskId(i),
                release,
                deadline: release + window,
                duration,
            })
            .collect();
        if let Some(placed) = paper_site(&plan, 1.0, preemptive).satisfiable(&requests) {
            let placed = reservations(&placed);
            // Every placement is inside its own request window and on idle time.
            let mut check = plan.clone();
            for r in &placed {
                let req = requests.iter().find(|q| q.task == r.task).unwrap();
                prop_assert!(r.start + 1e-9 >= req.release);
                prop_assert!(r.end <= req.deadline + 1e-6);
                prop_assert!(check.insert(*r).is_ok(), "placement overlaps");
            }
            // Total placed time per task equals the requested duration.
            for req in &requests {
                let total: f64 = placed
                    .iter()
                    .filter(|r| r.task == req.task)
                    .map(|r| r.duration())
                    .sum();
                prop_assert!((total - req.duration).abs() < 1e-6);
            }
        }
    }

    /// The §5 whole-DAG admission respects precedence, the deadline and the
    /// committed plan, for random DAGs and random background load.
    #[test]
    fn dag_admission_respects_precedence_and_deadline(
        pairs in arbitrary_busy(),
        n_tasks in 1usize..15,
        laxity in 1.2f64..6.0,
        seed in 0u64..500,
        preemptive in proptest::bool::ANY,
    ) {
        let cfg = GeneratorConfig {
            task_count: n_tasks,
            shape: DagShape::LayeredRandom { layers: 3, edge_prob: 0.3 },
            costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
            ccr: 0.0,
            laxity_factor: (laxity, laxity),
        };
        let mut generator = DagGenerator::new(cfg, seed);
        let job = generator.generate_job(0, 10.0);
        let plan = plan_from_pairs(&pairs);
        if let Some(adm) = paper_site(&plan, 1.0, preemptive).admit_dag(&job, 0.0, None) {
            prop_assert!(adm.completion <= job.deadline() + 1e-6);
            let placed = reservations(&adm.placements);
            // Build per-task finish times and verify precedence.
            let mut finish = vec![0.0f64; job.graph.task_count()];
            let mut start = vec![f64::INFINITY; job.graph.task_count()];
            let mut check = plan.clone();
            for r in &placed {
                prop_assert!(r.start + 1e-9 >= job.release());
                prop_assert!(r.end <= job.deadline() + 1e-6);
                finish[r.task.0] = finish[r.task.0].max(r.end);
                start[r.task.0] = start[r.task.0].min(r.start);
                prop_assert!(check.insert(*r).is_ok(), "admission overlaps the plan");
            }
            for t in job.graph.task_ids() {
                for p in job.graph.predecessors(t) {
                    prop_assert!(start[t.0] + 1e-9 >= finish[p.0],
                        "task {t} starts before predecessor {p} finishes");
                }
            }
            // Total reserved time equals the total cost (unit speed).
            let reserved: f64 = placed.iter().map(|r| r.duration()).sum();
            prop_assert!((reserved - job.total_cost()).abs() < 1e-6);
        }
    }

    /// Every `Scheduler` implementation agrees with the brute-force
    /// feasibility oracle: whenever a policy accepts a request set, the
    /// oracle confirms a schedule exists, and the returned placements are
    /// in-window and committable. For singleton sets the policies are also
    /// complete (accept whenever the oracle does).
    #[test]
    fn schedulers_agree_with_the_brute_force_oracle(
        busy in proptest::collection::vec(
            proptest::collection::vec((0.0f64..60.0, 1.0f64..10.0), 0..4), 1..4),
        reqs in proptest::collection::vec((0.0f64..40.0, 4.0f64..30.0, 0.5f64..8.0), 0..5),
        kind_index in 0usize..3,
    ) {
        let cores: Vec<SchedulePlan> = busy.iter().map(|p| plan_from_pairs(p)).collect();
        let requests: Vec<TaskRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(release, window, duration))| TaskRequest {
                job: JobId(7),
                task: TaskId(i),
                release,
                deadline: release + window,
                duration,
            })
            .collect();
        let kind = SchedulerKind::all()[kind_index];
        let mut sched = SiteScheduler::from_parts(
            kind,
            SiteResources::multicore(cores.len(), 1.0),
            1.0,
            false,
            cores.clone(),
            Vec::new(),
        ).unwrap();
        if let Some(placed) = sched.satisfiable(&requests) {
            prop_assert!(
                brute_force_satisfiable(&cores, &requests),
                "{kind:?} accepted a set the exact oracle rejects"
            );
            for p in &placed {
                let req = requests.iter().find(|q| q.task == p.reservation.task).unwrap();
                prop_assert!(p.reservation.start + 1e-9 >= req.release);
                prop_assert!(p.reservation.end <= req.deadline + 1e-6);
            }
            // The answer is constructive: committing it succeeds as-is.
            prop_assert!(sched.reserve(&placed).is_ok());
            prop_assert!(sched.core_plans().iter().all(SchedulePlan::check_invariants));
        } else if requests.len() == 1 {
            prop_assert!(
                !brute_force_satisfiable(&cores, &requests),
                "{kind:?} rejected a single request the oracle can place"
            );
        }
    }

    /// On the degenerate single-core bundle, HEFT admissions are a valid
    /// schedule under the old single-capacity checker: every reservation
    /// inserts into the pre-existing `SchedulePlan`, stays inside the job
    /// window and respects precedence.
    #[test]
    fn single_core_heft_is_valid_under_the_old_checker(
        pairs in arbitrary_busy(),
        n_tasks in 1usize..12,
        laxity in 1.5f64..6.0,
        seed in 0u64..300,
    ) {
        let cfg = GeneratorConfig {
            task_count: n_tasks,
            shape: DagShape::LayeredRandom { layers: 3, edge_prob: 0.3 },
            costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
            ccr: 0.5,
            laxity_factor: (laxity, laxity),
        };
        let mut generator = DagGenerator::new(cfg, seed);
        let job = generator.generate_job(0, 10.0);
        let plan = plan_from_pairs(&pairs);
        let sched = SiteScheduler::from_parts(
            SchedulerKind::Heft,
            SiteResources::default(),
            1.0,
            false,
            vec![plan.clone()],
            Vec::new(),
        ).unwrap();
        if let Some(schedule) = sched.admit_dag(&job, 0.0, None) {
            prop_assert!(schedule.completion <= job.deadline() + 1e-6);
            let mut check = plan.clone();
            let mut finish = vec![0.0f64; job.graph.task_count()];
            let mut start = vec![f64::INFINITY; job.graph.task_count()];
            for p in &schedule.placements {
                prop_assert_eq!(p.core, 0, "single-core HEFT must stay on core 0");
                let r = p.reservation;
                prop_assert!(r.start + 1e-9 >= job.release());
                prop_assert!(r.end <= job.deadline() + 1e-6);
                finish[r.task.0] = finish[r.task.0].max(r.end);
                start[r.task.0] = start[r.task.0].min(r.start);
                prop_assert!(check.insert(r).is_ok(), "HEFT overlaps the old plan");
            }
            for t in job.graph.task_ids() {
                for p in job.graph.predecessors(t) {
                    prop_assert!(start[t.0] + 1e-9 >= finish[p.0]);
                }
            }
        }
    }
}

fn req(task: usize, release: f64, deadline: f64, duration: f64) -> TaskRequest {
    TaskRequest {
        job: JobId(7),
        task: TaskId(task),
        release,
        deadline,
        duration,
    }
}

#[test]
fn brute_force_oracle_is_exact_on_hand_checked_sets() {
    let cores = vec![SchedulePlan::new()];
    // The classic trap: a long early-deadline task and a release-constrained
    // short one. EDF (deadline 11 first) places task 1 at [10, 11), then
    // task 0 cannot fit 10 units by 12; the order 0 then 1 works ([0, 10)
    // then [10, 11)). The oracle tries both orders:
    let trap = vec![req(0, 0.0, 12.0, 10.0), req(1, 10.0, 11.0, 1.0)];
    assert!(brute_force_satisfiable(&cores, &trap));
    // Truly infeasible: 3 × 10 units due by 20 on two cores.
    let cores2 = vec![SchedulePlan::new(), SchedulePlan::new()];
    let over = vec![
        req(0, 0.0, 20.0, 10.0),
        req(1, 0.0, 20.0, 10.0),
        req(2, 0.0, 15.0, 10.0),
        req(3, 0.0, 20.0, 15.0),
    ];
    assert!(!brute_force_satisfiable(&cores2, &over));
    let ok = vec![req(0, 0.0, 20.0, 10.0), req(1, 0.0, 20.0, 10.0)];
    assert!(brute_force_satisfiable(&cores2, &ok));
    assert!(brute_force_satisfiable(&cores, &[]));
    assert!(!brute_force_satisfiable(&cores, &[req(0, 5.0, 6.0, 3.0)]));
}

// ----- equivalence with the pre-rewrite scheduler (`reference/`) ------------

/// Gaps and lengths that put reservations back to back, a hair apart (below,
/// at and above `TIME_EPS`), or make them zero-length.
fn tight_length() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(5e-10),
        Just(1e-9),
        Just(2e-9),
        0.0f64..3.0,
        0.5f64..15.0,
    ]
}

/// A plan laid out left to right as (gap, length) runs — so `TIME_EPS`-close
/// neighbours and zero-length reservations are common — plus a few
/// reservations inserted at arbitrary places (refused when they overlap).
fn tight_plan() -> impl Strategy<Value = SchedulePlan> {
    (
        proptest::collection::vec((tight_length(), tight_length()), 0..10),
        arbitrary_busy(),
    )
        .prop_map(|(runs, extra)| {
            let mut plan = SchedulePlan::new();
            let mut at = 0.0;
            for (i, (gap, length)) in runs.into_iter().enumerate() {
                at += gap;
                let _ = plan.insert(Reservation {
                    job: JobId(i as u64),
                    task: TaskId(0),
                    start: at,
                    end: at + length,
                });
                at += length;
            }
            for (i, (start, length)) in extra.into_iter().take(3).enumerate() {
                let _ = plan.insert(Reservation {
                    job: JobId(500 + i as u64),
                    task: TaskId(0),
                    start,
                    end: start + length,
                });
            }
            plan
        })
}

/// A time on, next to, or away from a reservation boundary of `plan`.
fn probe_time(plan: &SchedulePlan, pick: usize, nudge: f64, free: f64) -> f64 {
    let edges: Vec<f64> = plan
        .reservations()
        .iter()
        .flat_map(|r| [r.start, r.end])
        .collect();
    if edges.is_empty() || pick % 3 == 0 {
        free
    } else {
        edges[pick % edges.len()] + nudge
    }
}

fn nudge() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1e-9),
        Just(-1e-9),
        Just(5e-10),
        -2.0f64..2.0
    ]
}

fn arbitrary_kind() -> impl Strategy<Value = SchedulerKind> {
    (0usize..3).prop_map(|i| SchedulerKind::all()[i])
}

fn arbitrary_cores() -> impl Strategy<Value = Vec<SchedulePlan>> {
    proptest::collection::vec(tight_plan(), 1..5)
}

fn arbitrary_requests() -> impl Strategy<Value = Vec<TaskRequest>> {
    proptest::collection::vec(
        (0.0f64..60.0, 0.5f64..40.0, tight_length(), 0usize..4),
        0..7,
    )
    .prop_map(|reqs| {
        reqs.into_iter()
            .enumerate()
            // A few repeated task ids and equal windows exercise the EDF
            // tie-breaks.
            .map(|(i, (release, window, duration, twin))| {
                req(
                    i.min(twin + 2),
                    release.floor(),
                    release.floor() + window,
                    duration,
                )
            })
            .collect()
    })
}

fn arbitrary_job() -> impl Strategy<Value = Job> {
    (1usize..12, 1.2f64..6.0, 0u64..500, 0usize..3).prop_map(|(n, laxity, seed, shape)| {
        let cfg = GeneratorConfig {
            task_count: n,
            shape: [
                DagShape::LayeredRandom {
                    layers: 3,
                    edge_prob: 0.3,
                },
                DagShape::ForkJoin,
                DagShape::ErdosRenyi { edge_prob: 0.3 },
            ][shape],
            costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
            ccr: 0.5,
            laxity_factor: (laxity, laxity),
        };
        DagGenerator::new(cfg, seed).generate_job(0, 10.0)
    })
}

fn arbitrary_demand() -> impl Strategy<Value = TaskDemand> {
    (1usize..4, 0.0f64..2.0, 0usize..3, 0.0f64..1.0).prop_map(|(cores, memory, law, p)| {
        TaskDemand {
            cores,
            memory: if memory < 0.5 { 0.0 } else { memory },
            speedup: [
                SpeedupFn::Flat,
                SpeedupFn::Linear,
                SpeedupFn::Amdahl {
                    parallel_fraction: p,
                },
            ][law],
        }
    })
}

/// The scheduler under test and the reference site over the same state.
fn site_pair(
    kind: SchedulerKind,
    cores: &[SchedulePlan],
    memory: f64,
    preemptive: bool,
    holds: Vec<MemHold>,
) -> (SiteScheduler, RefSite) {
    let mut resources = SiteResources::multicore(cores.len(), 1.25);
    resources.memory = memory;
    let sched = SiteScheduler::from_parts(
        kind,
        resources,
        0.8,
        preemptive,
        cores.to_vec(),
        holds.clone(),
    )
    .unwrap();
    let reference = RefSite {
        kind,
        resources,
        base_speed: 0.8,
        preemptive,
        cores: cores.iter().map(RefPlan::of).collect(),
        holds,
    };
    (sched, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lazy gap walk gives the answers of the scan-everything,
    /// materialise-and-sort implementation, bit for bit — on windows clipped
    /// at both ends, empty and inverted windows, zero durations and
    /// `TIME_EPS`-adjacent reservations.
    #[test]
    fn plan_queries_match_the_materialising_reference(
        plan in tight_plan(),
        picks in (0usize..64, 0usize..64),
        nudges in (nudge(), nudge()),
        free in (-5.0f64..120.0, -5.0f64..120.0),
        duration in tight_length(),
    ) {
        let reference = RefPlan::of(&plan);
        let from = probe_time(&plan, picks.0, nudges.0, free.0);
        let to = probe_time(&plan, picks.1, nudges.1, free.1);
        for (from, to) in [(from, to), (to, from), (from, from)] {
            prop_assert_eq!(plan.idle_windows(from, to), reference.idle_windows(from, to));
            prop_assert_eq!(
                plan.earliest_fit(from, to, duration),
                reference.earliest_fit(from, to, duration)
            );
            prop_assert_eq!(
                plan.earliest_fit_preemptive(from, to, duration),
                reference.earliest_fit_preemptive(from, to, duration)
            );
            let window = TimeInterval::new(from, to);
            prop_assert_eq!(plan.is_idle(window), reference.is_idle(window));
            prop_assert_eq!(plan.busy_time(from, to), reference.busy_time(from, to));
            prop_assert_eq!(
                plan.surplus(from, to - from).to_bits(),
                {
                    // `SchedulePlan::surplus` over the reference busy time.
                    let w = to - from;
                    if w <= 0.0 {
                        1.0f64
                    } else {
                        ((w - reference.busy_time(from, from + w)) / w).clamp(0.0, 1.0)
                    }
                }
                .to_bits()
            );
        }
        prop_assert!(plan.check_invariants());
        prop_assert_eq!(
            SchedulePlan::from_reservations(plan.reservations().to_vec()).as_ref(),
            Ok(&plan)
        );
    }

    /// §10 on a trial overlay places exactly what the clone-and-insert
    /// reference places — every kind, 1–4 cores, preemptive or not — and
    /// committing the answer (or a batch that must be refused) leaves the
    /// same plans behind.
    #[test]
    fn satisfiable_and_reserve_match_the_clone_based_reference(
        cores in arbitrary_cores(),
        requests in arbitrary_requests(),
        kind in arbitrary_kind(),
        preemptive in proptest::bool::ANY,
    ) {
        let (mut sched, mut reference) =
            site_pair(kind, &cores, f64::INFINITY, preemptive, Vec::new());
        let placed = sched.satisfiable(&requests);
        prop_assert_eq!(&placed, &reference.satisfiable(&requests));
        prop_assert_eq!(&placed, &reference.satisfiable_multi(&requests));
        // The paper's site is the same rule on one plan.
        let single = paper_site(&cores[0], 1.0, preemptive).satisfiable(&requests);
        prop_assert_eq!(
            single.as_deref().map(reservations),
            reference::satisfiable_single(&reference.cores[0], &requests, preemptive)
        );
        let same_plans = |sched: &SiteScheduler, reference: &RefSite| {
            sched
                .core_plans()
                .iter()
                .zip(&reference.cores)
                .all(|(a, b)| a.reservations() == b.reservations())
        };
        if let Some(placed) = placed {
            // A batch whose last entry collides (or names no core) is
            // refused whole, with the same error (a zero-length duplicate
            // collides with nothing and is accepted by both).
            if let Some(last) = placed.last() {
                let mut bad = placed.clone();
                bad.push(Placement { core: last.core + requests.len() % 2 * 9, ..*last });
                let (mut sched, mut reference) = (sched.clone(), reference.clone());
                let refused = sched.reserve(&bad);
                prop_assert_eq!(refused, reference.reserve(&bad));
                prop_assert!(refused.is_err() || last.reservation.duration() == 0.0);
                prop_assert!(same_plans(&sched, &reference));
            }
            prop_assert_eq!(sched.reserve(&placed), Ok(()));
            prop_assert_eq!(reference.reserve(&placed), Ok(()));
            prop_assert!(same_plans(&sched, &reference));
            prop_assert!(sched.core_plans().iter().all(SchedulePlan::check_invariants));
        }
    }

    /// §5 on a trial overlay admits exactly what the clone-based reference
    /// admits: same placements, holds and completion for every kind, 1–4
    /// cores, preemptive or not, with and without demands and a memory cap —
    /// including the one-core protocol case the old code sent down a
    /// separate single-plan path.
    #[test]
    fn admission_matches_the_clone_based_reference(
        cores in arbitrary_cores(),
        job in arbitrary_job(),
        kind in arbitrary_kind(),
        preemptive in proptest::bool::ANY,
        demands in proptest::collection::vec(arbitrary_demand(), 12..13),
        with_demands in proptest::bool::ANY,
        memory in prop_oneof![Just(f64::INFINITY), 1.0f64..6.0],
        held in 0.0f64..2.0,
    ) {
        let holds = vec![MemHold { job: JobId(900), start: 5.0, end: 40.0, bytes: held }];
        let (sched, reference) = site_pair(kind, &cores, memory, preemptive, holds);
        let demands = with_demands.then(|| &demands[..job.graph.task_count()]);
        for now in [0.0, 12.5] {
            let admitted = sched.admit_dag(&job, now, demands);
            prop_assert_eq!(&admitted, &reference.admit_dag(&job, now, demands));
            prop_assert_eq!(&admitted, &reference.admit_multi(&job, now, demands));
        }
        // The paper's site is the protocol rule on one plan.
        let single = paper_site(&cores[0], 1.5, preemptive)
            .admit_dag(&job, 0.0, None)
            .map(|a| (reservations(&a.placements), a.completion));
        prop_assert_eq!(
            single,
            reference::admit_single(&reference.cores[0], &job, 0.0, 1.5, preemptive)
        );
    }
}
