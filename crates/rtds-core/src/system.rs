//! One-call deployment of an RTDS system over the simulator.
//!
//! [`RtdsSystem`] assembles a network, one [`RtdsNode`] per site and the
//! discrete-event engine, and runs workloads through the one run loop of
//! [`crate::streaming`]: [`RtdsSystem::run`] streams the jobs it is given
//! and returns the paper's metrics (guarantee ratio, message overhead, the
//! run-time safety check that accepted jobs never miss their deadline) plus
//! one [`JobReport`] per job; [`RtdsSystem::run_streaming`] pulls jobs from
//! an open-loop source.

use crate::config::RtdsConfig;
use crate::node::{GlobalDistances, NodeBuilder, RtdsNode};
use crate::snapshot::Construction;
use rtds_graph::JobId;
use rtds_net::dijkstra::all_pairs_shortest_paths;
use rtds_net::{Network, SiteId};
use rtds_sched::SiteResources;
use rtds_sim::json::Json;
use rtds_sim::snapshot::{Path, Snap, SnapshotError};
use rtds_sim::{FaultEvent, Simulator, Trace};
use std::sync::Arc;

/// How a submitted job ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcomeKind {
    /// Guaranteed by the arrival site's local scheduler.
    AcceptedLocally,
    /// Guaranteed after distribution over a Computing Sphere.
    AcceptedDistributed,
    /// Rejected (could not be guaranteed in time).
    Rejected,
}

/// Per-job record of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// Arrival site.
    pub arrival_site: usize,
    /// Arrival time (clamped to the start of the run).
    pub arrival: f64,
    /// Outcome.
    pub outcome: JobOutcomeKind,
    /// Completion time across all sites (None for rejected jobs and for
    /// accepted jobs with nothing committed).
    pub completion: Option<f64>,
    /// Absolute deadline of the job.
    pub deadline: f64,
    /// Whether an accepted job finished by its deadline (always true under
    /// faithful execution; kept as an explicit safety check).
    pub met_deadline: bool,
}

/// A deployed RTDS system: network + nodes + simulator, plus the inputs it
/// was built from (its checkpoint; see [`crate::snapshot`]).
pub struct RtdsSystem {
    sim: Simulator<RtdsNode>,
    record: Construction,
}

impl RtdsSystem {
    /// Builds a system over `network` with the given configuration. The seed
    /// is kept in the system's record, for future stochastic extensions and
    /// for symmetry with the baseline policies (the RTDS protocol itself is
    /// deterministic).
    pub fn new(network: Network, config: RtdsConfig, seed: u64) -> Self {
        let sites = network.site_count();
        Self::with_resources(network, config, seed, vec![SiteResources::default(); sites])
    }

    /// Builds a system whose sites carry explicit resource bundles (one
    /// entry per site, in site order). [`RtdsSystem::new`] is the
    /// all-default-bundles special case — the paper's single-capacity model.
    pub fn with_resources(
        network: Network,
        config: RtdsConfig,
        seed: u64,
        resources: Vec<SiteResources>,
    ) -> Self {
        config.validate().expect("invalid RTDS configuration");
        assert_eq!(
            resources.len(),
            network.site_count(),
            "one resource bundle per site"
        );
        for r in &resources {
            r.validate().expect("invalid site resources");
        }
        let global: Option<GlobalDistances> = if config.exact_acs_diameter {
            let aps = all_pairs_shortest_paths(&network);
            Some(Arc::new(aps.into_iter().map(|sp| sp.dist).collect()))
        } else {
            None
        };
        let topology = network.clone();
        let sim = Simulator::new(network, |site: SiteId| {
            NodeBuilder::new(site)
                .neighbors(topology.neighbors(site).to_vec())
                .speed(topology.speed(site))
                .config(config)
                .resources(resources[site.0])
                .global_distances(global.clone())
                .build()
        });
        let record = Construction {
            network: topology,
            config,
            seed,
            resources,
            faults: Vec::new(),
            fault_seed: None,
            max_events: None,
        };
        RtdsSystem { sim, record }
    }

    /// Enables structured tracing as a bounded flight recorder (used by the
    /// Fig. 1 walkthrough binary); see [`RtdsSystem::set_trace`] for
    /// explicit ring sizes or streaming JSONL sinks.
    pub fn enable_trace(&mut self) {
        self.sim.enable_trace();
    }

    /// Installs an explicit trace recorder (ring, streaming JSONL, or
    /// disabled).
    pub fn set_trace(&mut self, trace: Trace) {
        self.sim.set_trace(trace);
    }

    /// The structured trace recorded so far.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    /// Mutable access to the trace recorder (to flush a streaming sink).
    pub fn trace_mut(&mut self) -> &mut Trace {
        self.sim.trace_mut()
    }

    /// Enables engine self-profiling (per-event-class dispatch metrics; see
    /// [`rtds_sim::engine::Simulator::enable_profiling`]). Opt-in because
    /// the profile metrics become part of deterministic reports.
    pub fn enable_profiling(&mut self) {
        self.sim.enable_profiling();
    }

    /// The engine self-profile collected so far.
    pub fn profile(&self) -> rtds_sim::EngineProfile {
        self.sim.profile()
    }

    /// Read access to the simulated network.
    pub(crate) fn network(&self) -> &Network {
        self.sim.network()
    }

    /// Read access to a node (after or between runs).
    pub fn node(&self, site: SiteId) -> &RtdsNode {
        self.sim.node(site)
    }

    /// Schedules a perturbation (link jitter/failure, site crash, message
    /// loss) at an absolute simulated time. Used by the scenario layer to
    /// stress the §13 dynamic-network extensions.
    pub fn schedule_fault(&mut self, time: f64, fault: FaultEvent) {
        self.sim.schedule_fault(time, fault);
        self.record.faults.push((time, fault));
    }

    /// Seeds the RNG used exclusively for message-loss draws (the protocol
    /// itself stays deterministic either way).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.sim.set_fault_seed(seed);
        self.record.fault_seed = Some(seed);
    }

    /// Number of simulation events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Caps the number of processed events (safety net for perturbed runs).
    /// A capped run stops pulling jobs too: jobs it never reached are not
    /// counted as submitted.
    pub fn set_max_events(&mut self, max: u64) {
        self.sim.set_max_events(max);
        self.record.max_events = Some(max);
    }

    /// Engine access for the run loop (see [`crate::streaming`]).
    pub(crate) fn sim(&self) -> &Simulator<RtdsNode> {
        &self.sim
    }

    /// Mutable engine access for the run loop.
    pub(crate) fn sim_mut(&mut self) -> &mut Simulator<RtdsNode> {
        &mut self.sim
    }

    /// Enables the engine-level ordering log: the next `capacity` processed
    /// events record their `(time, class, seq)` dispatch triple (see
    /// [`rtds_sim::engine::Simulator::enable_order_log`]).
    pub fn enable_order_log(&mut self, capacity: usize) {
        self.sim.enable_order_log(capacity);
    }

    /// The ordering triples recorded so far.
    pub fn order_log(&self) -> &[(f64, u8, u64)] {
        self.sim.order_log()
    }

    /// The system's record (`rtds-system-record/1`): the inputs it was
    /// built from — network, configuration, seed, resource bundles — and
    /// every fault, fault seed and event cap set on it since, as a
    /// deterministic JSON document. [`RtdsSystem::resume`] rebuilds from it
    /// the system as it stood before its first event, which runs the same
    /// jobs the same way. A run in progress is checkpointed by
    /// [`RtdsSystem::run_streaming_checkpoint`] (whose document embeds this
    /// one) and continued by [`RtdsSystem::resume_streaming`]. Trace
    /// recorders, profiling and the ordering log are observability surfaces
    /// and are not recorded.
    pub fn checkpoint(&self) -> String {
        self.record.encode().render()
    }

    /// Rebuilds a system from a document written by
    /// [`RtdsSystem::checkpoint`].
    pub fn resume(text: &str) -> Result<RtdsSystem, SnapshotError> {
        let doc = Json::parse(text)
            .map_err(|e| SnapshotError(format!("checkpoint does not parse: {e}")))?;
        Construction::decode(&doc, &Path::root("system")).map(RtdsSystem::from_record)
    }

    /// The system's record (see [`RtdsSystem::checkpoint`]).
    pub(crate) fn record(&self) -> &Construction {
        &self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_graph::paper_instance::paper_job;
    use rtds_graph::{Job, JobParams, TaskGraph, TaskId};
    use rtds_net::generators::{line, ring, DelayDistribution};

    fn chain_job(id: u64, costs: &[f64], release: f64, deadline: f64, site: usize) -> Job {
        let mut g = TaskGraph::from_costs(costs);
        for i in 1..costs.len() {
            g.add_edge(TaskId(i - 1), TaskId(i)).unwrap();
        }
        Job::new(JobId(id), g, JobParams::new(release, deadline), site)
    }

    #[test]
    fn single_feasible_job_is_accepted_locally() {
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let mut system = RtdsSystem::new(net, RtdsConfig::default(), 1);
        let (report, jobs) = system.run(vec![chain_job(1, &[5.0, 5.0], 0.0, 50.0, 2)]);
        assert_eq!(report.guarantee.submitted, 1);
        assert_eq!(report.guarantee.accepted_locally, 1);
        assert_eq!(report.guarantee.rejected, 0);
        assert_eq!(report.deadline_misses(), 0);
        assert_eq!(jobs[0].outcome, JobOutcomeKind::AcceptedLocally);
        assert!(jobs[0].met_deadline);
        assert!(report.guarantee_ratio() > 0.99);
        // Only routing messages were needed.
        assert_eq!(report.stats.named("enroll"), 0);
    }

    #[test]
    fn overloaded_site_distributes_over_the_sphere() {
        // Site 2 of a 6-ring receives two heavy jobs with the same window:
        // the second cannot be guaranteed locally and must be distributed.
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let mut system = RtdsSystem::new(net, RtdsConfig::default(), 1);
        let (report, _) = system.run(vec![
            chain_job(1, &[30.0], 0.0, 40.0, 2),
            chain_job(2, &[30.0], 0.0, 40.0, 2),
        ]);
        assert_eq!(report.guarantee.submitted, 2);
        assert_eq!(report.guarantee.accepted_locally, 1);
        assert_eq!(
            report.guarantee.accepted_distributed + report.guarantee.rejected,
            1
        );
        // The distribution machinery was exercised.
        assert!(report.stats.named("enroll") > 0);
        assert_eq!(report.deadline_misses(), 0);
    }

    #[test]
    fn paper_job_runs_through_the_full_protocol() {
        let net = line(4, DelayDistribution::Constant(1.0), 0);
        let mut system = RtdsSystem::new(
            net,
            RtdsConfig {
                sphere_radius: 2,
                ..RtdsConfig::default()
            },
            7,
        );
        system.enable_trace();
        // Pre-load site 1 so the paper job cannot be guaranteed locally.
        let (report, jobs) = system.run(vec![
            chain_job(10, &[60.0], 0.0, 70.0, 1),
            paper_job(JobId(11), 1),
        ]);
        assert_eq!(report.guarantee.submitted, 2);
        assert_eq!(report.deadline_misses(), 0);
        // The first job is local; the paper job must have been distributed
        // (or rejected — but with three idle neighbors it is accepted).
        assert_eq!(report.guarantee.accepted_locally, 1);
        assert_eq!(report.guarantee.accepted_distributed, 1);
        let paper_report = jobs.iter().find(|j| j.job == JobId(11)).unwrap();
        assert_eq!(paper_report.outcome, JobOutcomeKind::AcceptedDistributed);
        assert!(paper_report.met_deadline);
        // The trace shows the full Fig. 1 pipeline.
        let trace = system.trace();
        assert!(trace.of_kind("local-reject").count() >= 1);
        assert!(trace.of_kind("acs-enroll").count() >= 1);
        assert!(trace.of_kind("trial-mapping").count() >= 1);
        assert!(trace.of_kind("mapping-validated").count() >= 1);
        assert!(trace.of_kind("job-accepted").count() >= 1);
    }

    #[test]
    fn flow_transfers_ship_input_data_through_the_flow_plane() {
        // A fork-join job with per-edge data volumes, distributed off a busy
        // site over a ring whose links have finite bandwidth: the committed
        // members' input data must travel as flows (started, finished,
        // counted on both ends) rather than as instantaneous sends.
        let fork_join = |id: u64, release: f64, deadline: f64, site: usize| {
            let mut g = TaskGraph::from_costs(&[1.0, 10.0, 10.0, 10.0, 1.0]);
            for mid in 1..=3 {
                g.add_edge_with_volume(TaskId(0), TaskId(mid), 2.0).unwrap();
                g.add_edge_with_volume(TaskId(mid), TaskId(4), 2.0).unwrap();
            }
            Job::new(JobId(id), g, JobParams::new(release, deadline), site)
        };
        let mut net = ring(6, DelayDistribution::Constant(1.0), 0);
        let links: Vec<(SiteId, SiteId)> = net.links().map(|(a, b, _)| (a, b)).collect();
        for (a, b) in links {
            net.set_link_bandwidth(a, b, 0.5).unwrap();
        }
        let config = RtdsConfig {
            data_volume_aware: true,
            flow_transfers: true,
            ..RtdsConfig::default()
        };
        let mut system = RtdsSystem::new(net, config, 1);
        // Pre-load site 2 so the fork-join job cannot be guaranteed locally.
        let (report, _) = system.run(vec![
            chain_job(10, &[60.0], 0.0, 70.0, 2),
            fork_join(11, 0.0, 55.0, 2),
        ]);
        assert_eq!(report.guarantee.accepted_locally, 1);
        assert_eq!(report.guarantee.accepted_distributed, 1);
        assert_eq!(report.deadline_misses(), 0);
        // Input data moved through the flow plane and fully arrived.
        let sent = report.stats.named("task_data_sent");
        assert!(sent >= 1, "expected at least one flow transfer, got {sent}");
        assert_eq!(report.stats.named("task_data_received"), sent);
        assert_eq!(report.stats.named("sim_flow_started"), sent);
        assert_eq!(report.stats.named("sim_flow_finished"), sent);
    }

    #[test]
    fn zero_volume_graphs_leave_flow_transfer_runs_identical() {
        // With no data volumes the flow path is never taken: a run with
        // `flow_transfers` enabled renders the exact same report as one
        // without it.
        let run = |flow_transfers: bool| {
            let net = ring(6, DelayDistribution::Constant(1.0), 0);
            let config = RtdsConfig {
                data_volume_aware: true,
                flow_transfers,
                ..RtdsConfig::default()
            };
            let mut system = RtdsSystem::new(net, config, 1);
            let (report, _) = system.run(vec![
                chain_job(1, &[30.0], 0.0, 40.0, 2),
                chain_job(2, &[30.0], 0.0, 40.0, 2),
            ]);
            let mut stats: Vec<(String, u64)> = report
                .stats
                .named_counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            stats.sort();
            (
                report.guarantee.accepted(),
                report.finished_at.to_bits(),
                stats,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn impossible_job_is_rejected_without_deadline_misses() {
        let net = ring(5, DelayDistribution::Constant(1.0), 0);
        let mut system = RtdsSystem::new(net, RtdsConfig::default(), 3);
        // 100 units of serial work in a 20-unit window: nobody can run it.
        let (report, jobs) = system.run(vec![chain_job(1, &[50.0, 50.0], 0.0, 20.0, 0)]);
        assert_eq!(report.guarantee.rejected, 1);
        assert_eq!(report.guarantee.accepted(), 0);
        assert_eq!(report.deadline_misses(), 0);
        assert_eq!(jobs[0].outcome, JobOutcomeKind::Rejected);
        assert_eq!(jobs[0].completion, None);
    }

    #[test]
    fn exact_diameter_mode_runs() {
        let net = ring(6, DelayDistribution::Uniform { min: 1.0, max: 3.0 }, 5);
        let config = RtdsConfig {
            exact_acs_diameter: true,
            ..RtdsConfig::default()
        };
        let mut system = RtdsSystem::new(net, config, 1);
        let (report, _) = system.run(vec![
            chain_job(1, &[30.0], 0.0, 40.0, 2),
            chain_job(2, &[30.0], 0.0, 40.0, 2),
        ]);
        assert_eq!(report.guarantee.submitted, 2);
        assert_eq!(report.deadline_misses(), 0);
    }

    #[test]
    fn crashed_arrival_site_loses_its_jobs() {
        // Identical workloads; in the perturbed run the arrival site is down
        // over the arrival window, so its jobs are lost and end up rejected:
        // a lost arrival still counts as submitted.
        let run = |crash: bool| {
            let net = ring(6, DelayDistribution::Constant(1.0), 0);
            let mut system = RtdsSystem::new(net, RtdsConfig::default(), 1);
            if crash {
                system.schedule_fault(5.0, FaultEvent::SiteDown { site: SiteId(2) });
                system.schedule_fault(40.0, FaultEvent::SiteUp { site: SiteId(2) });
            }
            system.run(vec![
                chain_job(1, &[5.0, 5.0], 10.0, 90.0, 2),
                chain_job(2, &[5.0, 5.0], 50.0, 140.0, 2),
            ])
        };
        let (healthy, _) = run(false);
        let (crashed, jobs) = run(true);
        assert_eq!(healthy.guarantee.accepted(), 2);
        assert_eq!(crashed.guarantee.accepted(), 1);
        assert_eq!(crashed.guarantee.submitted, 2);
        assert_eq!(crashed.guarantee.rejected, 1);
        assert_eq!(crashed.guarantee_ratio(), 0.5);
        assert_eq!(jobs[0].outcome, JobOutcomeKind::Rejected);
        assert_eq!(jobs[1].outcome, JobOutcomeKind::AcceptedLocally);
        assert_eq!(crashed.deadline_misses(), 0);
        assert_eq!(crashed.stats.named("sim_dropped_arrival_site_down"), 1);
    }

    #[test]
    fn message_loss_degrades_distribution() {
        // Two heavy same-window jobs force a distribution. Loss starts only
        // after the one-time PCS construction (loss from t = 0 would defer
        // every arrival forever — the routing exchange could not finish);
        // with total loss the ACS machinery cannot complete, so the second
        // job is rejected instead of accepted remotely.
        let run = |loss: f64| {
            let net = ring(6, DelayDistribution::Constant(1.0), 0);
            let mut system = RtdsSystem::new(net, RtdsConfig::default(), 1);
            system.set_fault_seed(7);
            system.schedule_fault(10.0, FaultEvent::SetMessageLoss { probability: loss });
            system
                .run(vec![
                    chain_job(1, &[30.0], 20.0, 60.0, 2),
                    chain_job(2, &[30.0], 20.0, 60.0, 2),
                ])
                .0
        };
        let clean = run(0.0);
        let lossy = run(1.0);
        assert_eq!(clean.guarantee.accepted_locally, 1);
        assert_eq!(lossy.guarantee.accepted_locally, 1);
        assert!(lossy.guarantee.accepted() < clean.guarantee.accepted());
        assert_eq!(lossy.guarantee.accepted_distributed, 0);
        assert!(lossy.stats.named("sim_lost_random") > 0);
        assert_eq!(lossy.deadline_misses(), 0);
    }

    #[test]
    #[should_panic(expected = "arrival site")]
    fn submitting_to_a_missing_site_panics() {
        let net = ring(3, DelayDistribution::Constant(1.0), 0);
        let mut system = RtdsSystem::new(net, RtdsConfig::default(), 1);
        system.run(vec![chain_job(1, &[1.0], 0.0, 10.0, 9)]);
    }
}
