//! The per-site RTDS state machine.
//!
//! Each [`RtdsNode`] is the system-management processor of one site. It runs
//! every stage of the paper's protocol (Fig. 1):
//!
//! 1. at start-up, the §7 PCS construction (routing exchange for `2h`
//!    phases),
//! 2. on a job arrival, the §5 local guarantee test,
//! 3. on local failure, the §8 ACS enrollment (locks + surplus collection),
//! 4. the §9/§12 Mapper and the §12.2 release/deadline adjustment,
//! 5. the §10 validation round concluded by a maximum coupling,
//! 6. the §11 permutation dispatch and reservation commit.
//!
//! Implementation notes (documented deviations, see DESIGN.md):
//!
//! * locked sites answer `EnrollBusy` instead of staying silent, so the
//!   initiator's collection round terminates without a timeout;
//! * while a site is locked it defers its *own* new job arrivals (they are
//!   queued and re-examined at unlock time), which guarantees that the plan a
//!   site validated against is exactly the plan it commits into when the
//!   permutation arrives;
//! * the Mapper anchors the trial schedule at
//!   `max(job release, now + 3 × max ACS delay)` — the §13 remark that "the
//!   job release must be augmented by the computation time taken by the
//!   mapper, the time taken by Trial-Mapping validation and also by the
//!   dispatching of tasks code" — so committed reservations never start in
//!   the past.

use crate::acs::{AcsCollection, AcsMember};
use crate::config::RtdsConfig;
use crate::mapper::MapperInput;
use crate::messages::{RtdsMsg, TaskSpec};
use crate::pcs::PcsState;
use crate::validate::{endorsable_with, task_requests, ValidationOutcome, ValidationRound};
use crate::workspace::{with_workspace, Workspace};
use rtds_graph::{Job, JobId, TaskGraph, TaskId};
use rtds_net::sphere::Sphere;
use rtds_net::{RoutingTable, SiteId};
use rtds_sched::{SchedulePlan, Scheduler, SiteResources, SiteScheduler, TaskRequest};
use rtds_sim::engine::Context;
use rtds_sim::trace::{DeferReason, Phase, RejectReason, SpanId, TracePayload};
use rtds_sim::Protocol;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Exact pairwise site distances, shared by all nodes when the
/// `exact_acs_diameter` configuration is enabled.
pub(crate) type GlobalDistances = Arc<Vec<Vec<f64>>>;

/// A job accepted by this site acting as initiator (drained by the run
/// loop's harvest, which marks the job accepted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptedJob {
    /// The job id.
    pub job: JobId,
    /// Whether it was distributed over an ACS (vs. kept local).
    pub distributed: bool,
}

/// Initiator-side state of one in-flight distribution.
#[derive(Debug, Clone)]
struct Inflight {
    job: Job,
    acs: AcsCollection,
    members: Vec<AcsMember>,
    /// Shared with the §10 `TrialMapping` broadcast (one `Arc` for the
    /// initiator's own copy and every member's message), and each `T_i`
    /// with the §11 `Permutation` of the member that runs it.
    tasks_per_logical: Arc<[Arc<[TaskSpec]>]>,
    validation: Option<ValidationRound>,
    /// Simulated time the distribution started (enrollment fan-out), for
    /// the `distribution_latency` histogram.
    started_at: f64,
    /// Simulated time the Trial-Mapping broadcast went out, for the
    /// `trial_mapping_latency` histogram (mapping → validation verdict).
    mapped_at: Option<f64>,
}

/// The RTDS protocol instance running on one site.
#[derive(Debug, Clone)]
pub struct RtdsNode {
    site: SiteId,
    config: RtdsConfig,
    pcs: PcsState,
    sphere: Option<Sphere>,
    /// The local scheduler: per-core committed plans plus the policy chosen
    /// by [`RtdsConfig::scheduler`] over this site's [`SiteResources`].
    pub(crate) sched: SiteScheduler,
    /// Current lock: the initiator holding it and the job it serves.
    lock: Option<(SiteId, JobId)>,
    /// Arrivals deferred while locked.
    queued: VecDeque<Job>,
    /// In-flight distributions initiated by this site.
    inflight: BTreeMap<JobId, Inflight>,
    /// Jobs this site accepted (locally or after distribution).
    pub accepted: Vec<AcceptedJob>,
    /// Optional exact global distances (ablation of the ACS-diameter
    /// estimate).
    global_distances: Option<GlobalDistances>,
    /// Reused buffer for the §10 request set of an endorsement or a commit
    /// (not state).
    requests: Vec<TaskRequest>,
}

/// Builder for [`RtdsNode`]. Every field has a sensible default (no
/// neighbors, unit speed, default configuration, single-core resources), so
/// adding site parameters never ripples through call sites again.
#[derive(Debug, Clone)]
pub struct NodeBuilder {
    site: SiteId,
    neighbors: Vec<(SiteId, f64)>,
    speed: f64,
    config: RtdsConfig,
    resources: SiteResources,
    global_distances: Option<GlobalDistances>,
}

impl NodeBuilder {
    /// Starts a builder for the node of `site`.
    pub fn new(site: SiteId) -> Self {
        NodeBuilder {
            site,
            neighbors: Vec::new(),
            speed: 1.0,
            config: RtdsConfig::default(),
            resources: SiteResources::default(),
            global_distances: None,
        }
    }

    /// Adjacency of the site: `(neighbor, link delay)` pairs.
    pub fn neighbors(mut self, neighbors: Vec<(SiteId, f64)>) -> Self {
        self.neighbors = neighbors;
        self
    }

    /// Relative computing power (honoured when `uniform_machines` is set).
    pub(crate) fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Protocol configuration.
    pub fn config(mut self, config: RtdsConfig) -> Self {
        self.config = config;
        self
    }

    /// Compute resources of the site (cores, speed multiplier, memory). The
    /// default single-core bundle reproduces the paper's model exactly.
    pub fn resources(mut self, resources: SiteResources) -> Self {
        self.resources = resources;
        self
    }

    /// Shared exact-distance table for the `exact_acs_diameter` ablation.
    pub(crate) fn global_distances(mut self, global_distances: Option<GlobalDistances>) -> Self {
        self.global_distances = global_distances;
        self
    }

    /// Builds the node.
    pub fn build(self) -> RtdsNode {
        let pcs = PcsState::new(self.site, self.neighbors, self.config.sphere_radius);
        let base_speed = if self.config.uniform_machines {
            self.speed
        } else {
            1.0
        };
        let sched = SiteScheduler::new(
            self.config.scheduler,
            self.resources,
            base_speed,
            self.config.preemptive,
        );
        RtdsNode {
            site: self.site,
            config: self.config,
            pcs,
            sphere: None,
            sched,
            lock: None,
            queued: VecDeque::new(),
            inflight: BTreeMap::new(),
            accepted: Vec::new(),
            global_distances: self.global_distances,
            requests: Vec::new(),
        }
    }
}

impl RtdsNode {
    /// The Potential Computing Sphere, once the §7 construction finished.
    pub fn sphere(&self) -> Option<&Sphere> {
        self.sphere.as_ref()
    }

    /// The routing table the §7 exchange has built so far.
    pub fn routing_table(&self) -> &RoutingTable {
        self.pcs.table()
    }

    /// Returns `true` if the node currently holds a lock.
    pub fn is_locked(&self) -> bool {
        self.lock.is_some()
    }

    /// Number of deferred arrivals.
    pub fn queued_len(&self) -> usize {
        self.queued.len()
    }

    /// The site's local scheduler (policy + per-core committed plans).
    pub(crate) fn scheduler(&self) -> &SiteScheduler {
        &self.sched
    }

    /// Total committed reservations across all cores.
    pub(crate) fn plan_len(&self) -> usize {
        self.sched.reservation_count()
    }

    /// Returns `true` when no core holds a reservation.
    pub fn plan_is_empty(&self) -> bool {
        self.sched.reservation_count() == 0
    }

    /// Removes every placement whose reservation ends at or before
    /// `cutoff`, handing each to `visit`, and prunes the matching memory
    /// holds.
    pub fn drain_completed_with(&mut self, cutoff: f64, visit: impl FnMut(rtds_sched::Placement)) {
        self.sched.drain_completed_with(cutoff, visit);
    }

    /// Plan invariants hold on every core.
    pub fn check_plan_invariants(&self) -> bool {
        self.sched
            .core_plans()
            .iter()
            .all(SchedulePlan::check_invariants)
    }

    fn effective_speed(&self) -> f64 {
        // The scheduler composes the uniform-machines base speed with the
        // resource bundle's multiplier.
        self.sched.effective_speed()
    }

    fn send_protocol(&self, ctx: &mut Context<'_, RtdsMsg>, to: SiteId, msg: RtdsMsg) {
        let kind = msg.kind();
        ctx.count(kind, 1);
        let route = self.routing_table().route(to);
        if msg.is_distribution_message() {
            ctx.count("distribution_messages", 1);
            if let Some(route) = &route {
                ctx.count("link_traversals", route.hops as u64);
            }
        }
        // A peer outside the table is at most a sphere diameter away.
        let delay = route.map_or_else(
            || self.sphere.as_ref().map_or(0.0, |s| s.delay_diameter),
            |route| route.distance,
        );
        ctx.send_routed(to, delay, msg);
    }

    fn ensure_sphere(&mut self) {
        if self.sphere.is_none() && self.pcs.is_finished() {
            self.sphere = Some(self.pcs.sphere());
        }
    }

    // ----- job arrival handling (initiator side) -------------------------

    fn handle_arrival(&mut self, job: Job, ctx: &mut Context<'_, RtdsMsg>, first_arrival: bool) {
        let id = job.id;
        let tasks = job.graph.task_count() as u32;
        let deadline = job.deadline();
        if first_arrival {
            // Root of this job's span tree: every later stage links back
            // (directly or transitively) to this event.
            ctx.trace(root_span(id), SpanId::NONE, || TracePayload::Arrival {
                job: id.0,
                tasks,
                deadline,
            });
        }
        // Defer the job while the site is locked for another distribution or
        // while the one-time PCS construction has not completed yet (the
        // paper assumes PCS construction happens at system initialisation,
        // before any job arrives).
        if self.lock.is_some() || !self.pcs.is_finished() {
            let reason = if self.lock.is_some() {
                DeferReason::SiteLocked
            } else {
                DeferReason::PcsConstruction
            };
            ctx.trace(root_span(id), SpanId::NONE, || {
                TracePayload::ArrivalDeferred { job: id.0, reason }
            });
            self.queued.push_back(job);
            return;
        }
        let acceptance = phase_span(id, Phase::Acceptance, self.site);
        ctx.trace(acceptance, root_span(id), || TracePayload::LocalTest {
            job: id.0,
            tasks,
            deadline,
        });
        let now = ctx.now();
        // §5 local guarantee test, generalised to the site's scheduler (on
        // the default single-core bundle this is the original test
        // verbatim).
        let admitted = with_workspace(|ws| {
            let demands = self.config.demand.demands_into(&job.graph, &mut ws.demands);
            self.sched.admit_and_reserve(&job, now, demands)
        });
        if let Some(completion) = admitted {
            self.accepted.push(AcceptedJob {
                job: job.id,
                distributed: false,
            });
            ctx.count("accepted_local", 1);
            ctx.record("accept_latency", now - job.arrival_time.max(0.0));
            ctx.record("accept_laxity", job.deadline() - now);
            ctx.trace(acceptance, root_span(id), || TracePayload::LocalAccept {
                job: id.0,
                completion,
            });
            return;
        }
        ctx.trace(acceptance, root_span(id), || TracePayload::LocalReject {
            job: id.0,
        });
        self.start_distribution(job, ctx);
    }

    fn start_distribution(&mut self, job: Job, ctx: &mut Context<'_, RtdsMsg>) {
        self.ensure_sphere();
        let now = ctx.now();
        let id = job.id;
        let enrolled = with_workspace(|ws| {
            // The enrolment candidates, nearest first.
            let peers = &mut ws.peers;
            peers.clear();
            if let Some(sphere) = &self.sphere {
                peers.extend(
                    sphere
                        .peers()
                        .map(|p| (p, sphere.delay_to(p).unwrap_or(0.0))),
                );
                peers.sort_unstable_by(|a, b| {
                    a.1.partial_cmp(&b.1).unwrap().then(a.0 .0.cmp(&b.0 .0))
                });
                if self.config.max_acs_size > 0 {
                    peers.truncate(self.config.max_acs_size);
                }
            }
            if peers.is_empty() {
                return None;
            }
            // Lock ourselves: our own arrivals queue until this job is
            // resolved.
            self.lock = Some((self.site, id));
            let own_surplus = self
                .sched
                .surplus(now, self.config.observation_window)
                .max(self.config.surplus_floor);
            let acs = AcsCollection::new(self.site, own_surplus, self.effective_speed(), peers);
            let peer_count = peers.len() as u32;
            ctx.trace(
                phase_span(id, Phase::Enrollment, self.site),
                phase_span(id, Phase::Acceptance, self.site),
                || TracePayload::AcsEnroll {
                    job: id.0,
                    peers: peer_count,
                },
            );
            for (peer, _) in peers.iter() {
                self.send_protocol(
                    ctx,
                    *peer,
                    RtdsMsg::Enroll {
                        initiator: self.site,
                        job: id,
                    },
                );
            }
            Some(acs)
        });
        let Some(acs) = enrolled else {
            // No neighborhood to distribute over: the job is rejected.
            ctx.count("rejected_no_acs", 1);
            ctx.trace(root_span(id), SpanId::NONE, || TracePayload::Reject {
                job: id.0,
                reason: RejectReason::EmptySphere,
            });
            return;
        };
        self.inflight.insert(
            id,
            Inflight {
                job,
                acs,
                members: Vec::new(),
                tasks_per_logical: Vec::new().into(),
                validation: None,
                started_at: now,
                mapped_at: None,
            },
        );
    }

    fn try_finish_enrollment(&mut self, job_id: JobId, ctx: &mut Context<'_, RtdsMsg>) {
        let Some(inflight) = self.inflight.get(&job_id) else {
            return;
        };
        if !inflight.acs.is_complete() {
            return;
        }
        self.run_mapper_and_validate(job_id, ctx);
    }

    fn run_mapper_and_validate(&mut self, job_id: JobId, ctx: &mut Context<'_, RtdsMsg>) {
        let Some(mut inflight) = self.inflight.remove(&job_id) else {
            return;
        };
        // The workspace is handed back before anything that may start the
        // next distribution (a verdict releases the lock) runs.
        match with_workspace(|ws| self.map_and_broadcast(&mut inflight, ws, ctx)) {
            Ok(()) => {
                self.inflight.insert(job_id, inflight);
                self.try_finish_validation(job_id, ctx);
            }
            Err(reason) => self.finish_rejected(&inflight, ctx, reason),
        }
    }

    /// §9/§12 Mapper, §12.2 adjustment and the §10 broadcast of the trial
    /// mapping (with the initiator's own endorsement), computed in the
    /// thread's workspace: what is allocated is what the round keeps — the
    /// shared `T_i`, the ordered member list and the validation round.
    fn map_and_broadcast(
        &mut self,
        inflight: &mut Inflight,
        ws: &mut Workspace,
        ctx: &mut Context<'_, RtdsMsg>,
    ) -> Result<(), RejectReason> {
        let Workspace {
            mapping,
            adjustment,
            members,
            processors,
            ..
        } = ws;
        let job_id = inflight.job.id;
        let now = ctx.now();
        inflight.acs.sorted_for_mapper(members, processors);
        ctx.count("acs_members", members.len() as u64);

        // Communication-delay over-estimate ω: the ACS delay-diameter.
        let comm_delay = if self.config.exact_acs_diameter {
            self.exact_diameter(members)
                .unwrap_or_else(|| inflight.acs.local_diameter_estimate())
        } else {
            inflight.acs.local_diameter_estimate()
        };

        // §13: the job release is pushed past the mapper + validation +
        // dispatch pipeline so no reservation starts in the past.
        let max_member_delay = members.iter().map(|m| m.delay).fold(0.0f64, f64::max);
        let pipeline_margin = 3.0 * max_member_delay;
        // When input data ships through the shared-bandwidth flow plane the
        // dispatch pipeline also includes the transfer itself: charge an
        // upper bound — the largest single edge volume at nominal throughput
        // — into the release floor so the laxity the adjustment checks
        // against already accounts for data movement.
        let transfer_margin = if self.config.flow_transfers {
            let g = &inflight.job.graph;
            let max_edge_volume = g
                .task_ids()
                .flat_map(|t| g.successor_edges(t))
                .map(|(_, e)| e.data_volume)
                .fold(0.0f64, f64::max);
            max_edge_volume / self.config.throughput
        } else {
            0.0
        };
        let release_floor = inflight
            .job
            .release()
            .max(now + pipeline_margin + transfer_margin);

        let graph = &inflight.job.graph;
        let throughput = self.config.throughput;
        let volume_fn = |from: TaskId, to: TaskId| -> f64 {
            graph.data_volume(from, to).unwrap_or(0.0) / throughput
        };
        let input = MapperInput {
            graph,
            release: release_floor,
            processors,
            comm_delay,
            data_volume_delay: if self.config.data_volume_aware {
                Some(&volume_fn)
            } else {
                None
            },
            surplus_floor: self.config.surplus_floor,
        };
        if !mapping.map(&input) {
            return Err(RejectReason::MapperFailed);
        }
        let used = mapping.used_processors.len() as u32;
        let (makespan, makespan_star) = (mapping.makespan, mapping.makespan_star);
        ctx.trace(
            phase_span(job_id, Phase::Mapping, self.site),
            phase_span(job_id, Phase::Enrollment, self.site),
            || TracePayload::TrialMapping {
                job: job_id.0,
                used,
                makespan,
                makespan_star,
                omega: comm_delay,
            },
        );
        adjustment
            .adjust(
                graph,
                &mapping.view(),
                release_floor,
                inflight.job.deadline(),
                processors,
                self.config.laxity_dispatch,
            )
            .map_err(|_| RejectReason::AdjustmentWindow)?;

        // Build T_i per logical processor (compact numbering over the used
        // processors of the mapping). One shared allocation per T_i serves
        // the local endorsement, every member's TrialMapping message, the
        // Permutation of the member that runs it and the in-flight record.
        let tasks_per_logical: Arc<[Arc<[TaskSpec]>]> = mapping
            .used_processors
            .iter()
            .map(|&p| {
                mapping
                    .tasks_on(p)
                    .iter()
                    .map(|&t| TaskSpec {
                        task: t,
                        release: adjustment.release[t.0],
                        deadline: adjustment.deadline[t.0],
                        cost: graph.cost(t),
                    })
                    .collect()
            })
            .collect();

        // §10: broadcast the mapping in the ACS and collect validation lists.
        let expected = members.iter().map(|m| m.site);
        let mut validation = ValidationRound::new(tasks_per_logical.len(), expected);
        for member in members.iter() {
            if member.site == self.site {
                let endorsable = endorsable_with(
                    &self.sched,
                    job_id,
                    &tasks_per_logical,
                    self.effective_speed(),
                    &mut self.requests,
                );
                validation.record_reply(self.site, endorsable);
            } else {
                self.send_protocol(
                    ctx,
                    member.site,
                    RtdsMsg::TrialMapping {
                        job: job_id,
                        tasks_per_logical: Arc::clone(&tasks_per_logical),
                    },
                );
            }
        }
        inflight.members = members.clone();
        inflight.tasks_per_logical = tasks_per_logical;
        inflight.validation = Some(validation);
        inflight.mapped_at = Some(now);
        Ok(())
    }

    fn exact_diameter(&self, members: &[AcsMember]) -> Option<f64> {
        let dist = self.global_distances.as_ref()?;
        let mut best = 0.0f64;
        for a in members {
            for b in members {
                if a.site != b.site {
                    best = best.max(dist[a.site.0][b.site.0]);
                }
            }
        }
        Some(best)
    }

    fn try_finish_validation(&mut self, job_id: JobId, ctx: &mut Context<'_, RtdsMsg>) {
        let complete = match self.inflight.get(&job_id) {
            Some(inflight) => inflight
                .validation
                .as_ref()
                .map(|v| v.is_complete())
                .unwrap_or(false),
            None => false,
        };
        if !complete {
            return;
        }
        let inflight = self.inflight.remove(&job_id).expect("checked above");
        if let Some(mapped_at) = inflight.mapped_at {
            // Broadcast → full validation verdict, in simulated time.
            ctx.record("trial_mapping_latency", ctx.now() - mapped_at);
        }
        let outcome = inflight
            .validation
            .as_ref()
            .expect("validation round exists")
            .conclude();
        match outcome {
            ValidationOutcome::Accepted { assignment } => {
                let coupling = assignment.len() as u32;
                ctx.trace(
                    phase_span(job_id, Phase::Dispatch, self.site),
                    phase_span(job_id, Phase::Mapping, self.site),
                    || TracePayload::MappingValidated {
                        job: job_id.0,
                        coupling,
                    },
                );
                self.dispatch_permutation(&inflight, &assignment, ctx);
            }
            ValidationOutcome::Rejected {
                coupling_size,
                required,
            } => {
                self.finish_rejected(
                    &inflight,
                    ctx,
                    RejectReason::CouplingTooSmall {
                        size: coupling_size as u32,
                        required: required as u32,
                    },
                );
            }
        }
    }

    fn dispatch_permutation(
        &mut self,
        inflight: &Inflight,
        assignment: &[SiteId],
        ctx: &mut Context<'_, RtdsMsg>,
    ) {
        let job_id = inflight.job.id;
        // The initiator's dispatch span was opened by the mapping-validated
        // event; committed tasks and placement failures record under it.
        let dispatch = phase_span(job_id, Phase::Dispatch, self.site);
        let mapping = phase_span(job_id, Phase::Mapping, self.site);
        let flow_transfers = self.config.flow_transfers;
        with_workspace(|ws| {
            let logical_of_task = &mut ws.logical_of_task;
            if flow_transfers {
                let tasks = inflight.job.graph.task_count();
                index_logical(&inflight.tasks_per_logical, tasks, logical_of_task);
            }
            for member in &inflight.members {
                // Which logical processor (if any) the member must endorse.
                let logical = assignment.iter().position(|site| *site == member.site);
                let endorse = logical.map(|l| (l, &inflight.tasks_per_logical[l]));
                if member.site == self.site {
                    if let Some((_, tasks)) = endorse {
                        self.commit_logical(job_id, tasks, dispatch, mapping, ctx);
                    }
                    continue;
                }
                self.send_protocol(
                    ctx,
                    member.site,
                    RtdsMsg::Permutation {
                        job: job_id,
                        endorse: endorse.map(|(l, tasks)| (l, Arc::clone(tasks))),
                    },
                );
                // Ship the member's input data through the flow plane: the
                // volume of every edge crossing into its logical processor
                // contends for link bandwidth with all concurrent transfers.
                let Some((l, tasks)) = endorse.filter(|_| flow_transfers) else {
                    continue;
                };
                let volume = cross_input_volume(&inflight.job.graph, tasks, l, logical_of_task);
                if volume > 0.0 {
                    ctx.count("task_data_sent", 1);
                    ctx.record("task_data_volume", volume);
                    ctx.transfer(
                        member.site,
                        volume,
                        RtdsMsg::TaskData {
                            job: job_id,
                            volume,
                        },
                    );
                }
            }
        });
        self.accepted.push(AcceptedJob {
            job: job_id,
            distributed: true,
        });
        ctx.count("accepted_distributed", 1);
        let now = ctx.now();
        ctx.record("accept_latency", now - inflight.job.arrival_time.max(0.0));
        ctx.record("accept_laxity", inflight.job.deadline() - now);
        ctx.record("distribution_latency", now - inflight.started_at);
        ctx.trace(root_span(job_id), SpanId::NONE, || {
            TracePayload::JobAccepted {
                job: job_id.0,
                distributed: true,
            }
        });
        self.release_own_lock(job_id, ctx);
    }

    fn finish_rejected(
        &mut self,
        inflight: &Inflight,
        ctx: &mut Context<'_, RtdsMsg>,
        reason: RejectReason,
    ) {
        let job_id = inflight.job.id;
        // Unlock every remote member that positively enrolled.
        for member in inflight.acs.members() {
            if member.site != self.site {
                self.send_protocol(ctx, member.site, RtdsMsg::Unlock { job: job_id });
            }
        }
        ctx.count("rejected_distributed", 1);
        ctx.trace(root_span(job_id), SpanId::NONE, || TracePayload::Reject {
            job: job_id.0,
            reason,
        });
        self.release_own_lock(job_id, ctx);
    }

    fn release_own_lock(&mut self, job_id: JobId, ctx: &mut Context<'_, RtdsMsg>) {
        if let Some((holder, locked_job)) = self.lock {
            if holder == self.site && locked_job == job_id {
                self.lock = None;
            }
        }
        self.process_queue(ctx);
    }

    fn process_queue(&mut self, ctx: &mut Context<'_, RtdsMsg>) {
        if !self.pcs.is_finished() {
            return;
        }
        while self.lock.is_none() {
            let Some(job) = self.queued.pop_front() else {
                break;
            };
            self.handle_arrival(job, ctx, false);
        }
    }

    // ----- member side ----------------------------------------------------

    fn handle_enroll(&mut self, initiator: SiteId, job: JobId, ctx: &mut Context<'_, RtdsMsg>) {
        if self.lock.is_some() {
            self.send_protocol(ctx, initiator, RtdsMsg::EnrollBusy { job });
            ctx.count("enroll_refused", 1);
            return;
        }
        self.lock = Some((initiator, job));
        let surplus = self
            .sched
            .surplus(ctx.now(), self.config.observation_window)
            .max(self.config.surplus_floor);
        // Child of the *initiator's* enrollment span: the causal link that
        // stitches the member-side tree to the fan-out that triggered it.
        ctx.trace(
            phase_span(job, Phase::Enrollment, self.site),
            phase_span(job, Phase::Enrollment, initiator),
            || TracePayload::AcsJoined {
                job: job.0,
                initiator: initiator.0 as u32,
                surplus,
            },
        );
        self.send_protocol(
            ctx,
            initiator,
            RtdsMsg::EnrollAck {
                job,
                surplus,
                speed: self.effective_speed(),
            },
        );
    }

    fn handle_trial_mapping(
        &mut self,
        from: SiteId,
        job: JobId,
        tasks_per_logical: Arc<[Arc<[TaskSpec]>]>,
        ctx: &mut Context<'_, RtdsMsg>,
    ) {
        let endorsable = endorsable_with(
            &self.sched,
            job,
            &tasks_per_logical,
            self.effective_speed(),
            &mut self.requests,
        );
        let endorsable_count = endorsable.len() as u32;
        let total = tasks_per_logical.len() as u32;
        ctx.trace(
            phase_span(job, Phase::Validation, self.site),
            phase_span(job, Phase::Mapping, from),
            || TracePayload::Validation {
                job: job.0,
                endorsable: endorsable_count,
                total,
            },
        );
        self.send_protocol(ctx, from, RtdsMsg::ValidationReply { job, endorsable });
    }

    fn handle_permutation(
        &mut self,
        job: JobId,
        endorse: Option<(usize, Arc<[TaskSpec]>)>,
        ctx: &mut Context<'_, RtdsMsg>,
    ) {
        let dispatch = phase_span(job, Phase::Dispatch, self.site);
        // The permutation came from the initiator's dispatch fan-out; the
        // lock remembers who that was (fall back to a root span if the lock
        // was already cleared by an unlock race).
        let parent = match self.lock {
            Some((initiator, locked)) if locked == job => {
                phase_span(job, Phase::Dispatch, initiator)
            }
            _ => SpanId::NONE,
        };
        if let Some((l, tasks)) = endorse {
            let logical_index = l as u32;
            ctx.trace(dispatch, parent, || TracePayload::Execute {
                job: job.0,
                logical: logical_index,
            });
            self.commit_logical(job, &tasks, dispatch, parent, ctx);
        } else {
            ctx.trace(dispatch, parent, || TracePayload::NotSelected {
                job: job.0,
            });
        }
        self.unlock_for(job, ctx);
    }

    fn commit_logical(
        &mut self,
        job: JobId,
        tasks: &[TaskSpec],
        span: SpanId,
        parent: SpanId,
        ctx: &mut Context<'_, RtdsMsg>,
    ) {
        let speed = self.effective_speed();
        task_requests(&mut self.requests, job, tasks, speed);
        match self.sched.reserve_satisfiable(&self.requests) {
            Some(committed) => ctx.count("tasks_committed", committed as u64),
            None => {
                // Cannot happen while the locking discipline is respected
                // (the plan is frozen between validation and commit); counted
                // so experiments would surface a protocol bug immediately.
                ctx.count("placement_failures", 1);
                ctx.trace(span, parent, || TracePayload::PlacementFailure {
                    job: job.0,
                });
            }
        }
    }

    fn unlock_for(&mut self, job: JobId, ctx: &mut Context<'_, RtdsMsg>) {
        if let Some((_, locked_job)) = self.lock {
            if locked_job == job {
                self.lock = None;
            }
        }
        self.process_queue(ctx);
    }
}

/// Fills `logical_of_task[t]` with the logical processor task `t` of a
/// `tasks`-task job is mapped on (`usize::MAX` for a task no `T_i` lists).
fn index_logical(
    tasks_per_logical: &[Arc<[TaskSpec]>],
    tasks: usize,
    logical_of_task: &mut Vec<usize>,
) {
    logical_of_task.clear();
    logical_of_task.resize(tasks, usize::MAX);
    for (l, specs) in tasks_per_logical.iter().enumerate() {
        for spec in specs.iter() {
            logical_of_task[spec.task.0] = l;
        }
    }
}

/// Total data volume the tasks `T_l` of logical processor `l` consume from
/// predecessors mapped on *other* logical processors — the input data an
/// executing member must receive before running its share of the job.
fn cross_input_volume(
    graph: &TaskGraph,
    tasks: &[TaskSpec],
    l: usize,
    logical_of_task: &[usize],
) -> f64 {
    let mut volume = 0.0;
    for spec in tasks {
        for (pred, edge) in graph.predecessor_edges(spec.task) {
            if logical_of_task[pred.0] != l {
                volume += edge.data_volume;
            }
        }
    }
    volume
}

/// Records one `routing_fanout` sample per phase broadcast contained in a
/// PCS send batch (one `on_update` can cascade several phases), scoped by
/// routing phase so the per-phase fan-out distributions stay separable.
fn record_routing_fanout(sends: &[crate::pcs::PcsSend], ctx: &mut Context<'_, RtdsMsg>) {
    let site = ctx.site().0 as u32;
    let mut start = 0;
    while start < sends.len() {
        let phase = sends[start].phase;
        let run = sends[start..]
            .iter()
            .take_while(|s| s.phase == phase)
            .count();
        ctx.record_phase("routing_fanout", phase as u32, run as f64);
        // Routing work is site-scoped, not job-scoped: it records onto the
        // per-site routing root span.
        ctx.trace(SpanId::site_root(site), SpanId::NONE, || {
            TracePayload::RoutingFanout {
                phase: phase as u32,
                fanout: run as u32,
            }
        });
        start += run;
    }
}

/// The per-job root span (arrival + final verdict).
fn root_span(job: JobId) -> SpanId {
    SpanId::job_root(job.0)
}

/// The span of one protocol stage for one job on one site.
fn phase_span(job: JobId, phase: Phase, site: SiteId) -> SpanId {
    SpanId::derive(job.0, phase, site.0 as u32, 0)
}

impl Protocol for RtdsNode {
    type Msg = RtdsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, RtdsMsg>) {
        let sends = self.pcs.start();
        record_routing_fanout(&sends, ctx);
        for send in sends {
            ctx.count("routing_update", 1);
            ctx.send(
                send.to,
                RtdsMsg::RoutingUpdate {
                    phase: send.phase,
                    lines: send.lines,
                },
            );
        }
        self.ensure_sphere();
    }

    fn on_message(&mut self, from: SiteId, msg: RtdsMsg, ctx: &mut Context<'_, RtdsMsg>) {
        match msg {
            RtdsMsg::RoutingUpdate { phase, lines } => {
                let sends = self.pcs.on_update(from, phase, lines);
                record_routing_fanout(&sends, ctx);
                for send in sends {
                    ctx.count("routing_update", 1);
                    ctx.send(
                        send.to,
                        RtdsMsg::RoutingUpdate {
                            phase: send.phase,
                            lines: send.lines,
                        },
                    );
                }
                self.ensure_sphere();
                // Arrivals deferred during the PCS construction can now be
                // examined.
                if self.pcs.is_finished() {
                    self.process_queue(ctx);
                }
            }
            RtdsMsg::JobArrival { job } => {
                self.handle_arrival(job, ctx, true);
            }
            RtdsMsg::Enroll { initiator, job } => {
                self.handle_enroll(initiator, job, ctx);
            }
            RtdsMsg::EnrollAck {
                job,
                surplus,
                speed,
            } => {
                if let Some(inflight) = self.inflight.get_mut(&job) {
                    inflight.acs.record_ack(from, surplus, speed);
                }
                self.try_finish_enrollment(job, ctx);
            }
            RtdsMsg::EnrollBusy { job } => {
                if let Some(inflight) = self.inflight.get_mut(&job) {
                    inflight.acs.record_busy(from);
                }
                self.try_finish_enrollment(job, ctx);
            }
            RtdsMsg::TrialMapping {
                job,
                tasks_per_logical,
            } => {
                self.handle_trial_mapping(from, job, tasks_per_logical, ctx);
            }
            RtdsMsg::ValidationReply { job, endorsable } => {
                if let Some(inflight) = self.inflight.get_mut(&job) {
                    if let Some(validation) = inflight.validation.as_mut() {
                        validation.record_reply(from, endorsable);
                    }
                }
                self.try_finish_validation(job, ctx);
            }
            RtdsMsg::Permutation { job, endorse } => {
                self.handle_permutation(job, endorse, ctx);
            }
            RtdsMsg::TaskData { job: _, volume } => {
                // Input data landed after contending for bandwidth on the
                // flow plane; the reservation itself was committed when the
                // permutation arrived, so receipt is purely accounted.
                ctx.count("task_data_received", 1);
                ctx.record("task_data_volume_received", volume);
            }
            RtdsMsg::Unlock { job } => {
                let parent = match self.lock {
                    Some((initiator, locked)) if locked == job => {
                        phase_span(job, Phase::Enrollment, initiator)
                    }
                    _ => SpanId::NONE,
                };
                ctx.trace(
                    phase_span(job, Phase::Enrollment, self.site),
                    parent,
                    || TracePayload::Unlocked { job: job.0 },
                );
                self.unlock_for(job, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::generators::{line, DelayDistribution};

    #[test]
    fn node_construction_and_accessors() {
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let node = NodeBuilder::new(SiteId(1))
            .neighbors(net.neighbors(SiteId(1)).to_vec())
            .build();
        assert_eq!(node.site, SiteId(1));
        assert!(!node.is_locked());
        assert_eq!(node.queued_len(), 0);
        assert!(node.sphere().is_none());
        assert!(node.plan_is_empty());
        assert_eq!(node.plan_len(), 0);
        assert!(node.check_plan_invariants());
        assert_eq!(node.scheduler().core_plans().len(), 1);
        assert!(node.scheduler().resources().is_degenerate());
    }

    #[test]
    fn effective_speed_follows_uniform_machines_flag() {
        let net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut cfg = RtdsConfig::default();
        let node = NodeBuilder::new(SiteId(0))
            .neighbors(net.neighbors(SiteId(0)).to_vec())
            .speed(2.5)
            .config(cfg)
            .build();
        assert_eq!(node.effective_speed(), 1.0);
        cfg.uniform_machines = true;
        let node = NodeBuilder::new(SiteId(0))
            .neighbors(net.neighbors(SiteId(0)).to_vec())
            .speed(2.5)
            .config(cfg)
            .build();
        assert_eq!(node.effective_speed(), 2.5);
        // The resource multiplier composes with the uniform-machines speed.
        let node = NodeBuilder::new(SiteId(0))
            .speed(2.5)
            .config(cfg)
            .resources(SiteResources::single_core(2.0))
            .build();
        assert_eq!(node.effective_speed(), 5.0);
    }

    #[test]
    fn multicore_builder_sizes_the_scheduler() {
        let node = NodeBuilder::new(SiteId(0))
            .resources(SiteResources::multicore(4, 1.0))
            .build();
        assert_eq!(node.scheduler().core_plans().len(), 4);
        assert_eq!(node.scheduler().kind(), rtds_sched::SchedulerKind::Protocol);
    }
}
