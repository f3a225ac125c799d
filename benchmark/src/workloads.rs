//! The five workloads: how their inputs are made from the seed, and how one
//! repetition is set up, run and summarised.
//!
//! Every workload ends on a **job count**, never on an event cap or a
//! horizon, so a later change that removes events per job still measures
//! the same amount of work. The program under test receives only the
//! generated inputs (network, resource bundles, job stream); the seed stays
//! in this file.

use crate::alloc::AllocCounts;
use crate::spans::Recorder;
use rtds::core::{JobSource, RtdsConfig, RtdsSystem, StreamOptions, StreamReport};
use rtds::graph::Job;
use rtds::metrics::MetricsRegistry;
use rtds::net::generators::DelayDistribution;
use rtds::net::Network;
use rtds::scenarios::spec::BandwidthRecipe;
use rtds::scenarios::{
    builtin_scenarios, find_scenario, mix_seed, run_sweep, ResourceRecipe, Scenario, SpeedRecipe,
    SweepConfig, SweepReport, TopologyRecipe, TopologySpec,
};
use rtds::sched::SiteResources;
use rtds::sim::metrics_json::metrics_to_json;
use rtds::sim::{EngineProfile, Trace};
use rtds::workload::{JobFactory, JobTemplate, OpenLoopSource, OpenLoopSpec, RateProcess, SizeMix};
use std::time::Instant;

/// Everything a streaming repetition is built from. `jobs` is the exact
/// number of jobs the stream emits.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPlan {
    /// Network recipe.
    pub topology: TopologySpec,
    /// Protocol configuration.
    pub config: RtdsConfig,
    /// Per-site resource bundles.
    pub resources: ResourceRecipe,
    /// Arrival process, size mix and job cap.
    pub open_loop: OpenLoopSpec,
    /// DAG shape, costs, ccr and laxity of every job.
    pub template: JobTemplate,
}

impl StreamPlan {
    /// Jobs one repetition submits.
    pub fn jobs(&self) -> u64 {
        self.open_loop.max_jobs
    }

    /// Seed of the job stream for a benchmark seed (same salt the scenario
    /// runner uses).
    pub fn stream_seed(seed: u64) -> u64 {
        mix_seed(seed, 2)
    }

    /// The network for a benchmark seed.
    pub fn build_network(&self, seed: u64) -> Network {
        self.topology.build(mix_seed(seed, 1))
    }

    /// The job source for a network of `sites` sites.
    pub fn build_source(&self, sites: usize, seed: u64) -> JobFactory<OpenLoopSource> {
        JobFactory::new(
            self.open_loop.build(sites, Self::stream_seed(seed)),
            self.template,
        )
    }

    /// The first `count` jobs of the stream, materialised (kernel inputs).
    pub fn first_jobs(&self, sites: usize, seed: u64, count: usize) -> Vec<Job> {
        let mut source = self.build_source(sites, seed);
        std::iter::from_fn(|| source.next_job())
            .take(count)
            .collect()
    }
}

fn scaled(jobs: u64, scale: f64) -> u64 {
    ((jobs as f64 * scale).round() as u64).max(1)
}

fn poisson(rate: f64, sizes: SizeMix, hotspots: usize, jobs: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        process: RateProcess::Poisson { rate },
        sizes,
        hotspots,
        horizon: f64::INFINITY,
        max_jobs: jobs,
    }
}

fn grid(width: usize, height: usize, bandwidths: BandwidthRecipe) -> TopologySpec {
    TopologySpec {
        recipe: TopologyRecipe::Grid {
            width,
            height,
            wrap: false,
        },
        delays: DelayDistribution::Constant(1.0),
        bandwidths,
        speeds: SpeedRecipe::Identical,
    }
}

fn registry(name: &str) -> Scenario {
    find_scenario(name).unwrap_or_else(|| panic!("registry scenario {name} exists"))
}

/// The plan of a streaming workload at `scale` (1.0 = the contract sizes;
/// the tests run at 0.01). `None` for `sweep-registry`.
pub fn stream_plan(name: &str, scale: f64) -> Option<StreamPlan> {
    let sizes = SizeMix::Uniform { min: 5, max: 9 };
    match name {
        "stream-grid256" => Some(StreamPlan {
            topology: grid(16, 16, BandwidthRecipe::Unlimited),
            config: RtdsConfig::default(),
            resources: ResourceRecipe::SingleCore,
            open_loop: poisson(1.0, sizes, 0, scaled(80_000, scale)),
            template: JobTemplate::default(),
        }),
        "local-light" => Some(StreamPlan {
            topology: grid(16, 16, BandwidthRecipe::Unlimited),
            config: RtdsConfig::default(),
            resources: ResourceRecipe::SingleCore,
            open_loop: poisson(0.25, sizes, 0, scaled(200_000, scale)),
            template: JobTemplate {
                laxity: (3.0, 5.0),
                ..JobTemplate::default()
            },
        }),
        "wide-tree2048" => {
            // The registry's wide-low-degree recipe, widened from 64 sites.
            let recipe = registry("wide-low-degree");
            let sites = 2048;
            Some(StreamPlan {
                topology: TopologySpec {
                    recipe: TopologyRecipe::RandomTree { sites },
                    ..recipe.topology
                },
                config: recipe.config,
                resources: recipe.resources,
                open_loop: poisson(
                    0.01 * sites as f64,
                    SizeMix::Fixed {
                        tasks: recipe.workload.tasks_per_job,
                    },
                    0,
                    scaled(60_000, scale),
                ),
                template: recipe.job_template(),
            })
        }
        "multicore-flow" => {
            // The registry's hetero-multicore recipe with the flow plane on.
            let recipe = registry("hetero-multicore");
            Some(StreamPlan {
                topology: grid(8, 8, BandwidthRecipe::Constant(2.0)),
                config: RtdsConfig {
                    data_volume_aware: true,
                    flow_transfers: true,
                    ..recipe.config
                },
                resources: recipe.resources,
                open_loop: poisson(
                    0.5,
                    SizeMix::Uniform { min: 8, max: 14 },
                    16,
                    scaled(40_000, scale),
                ),
                template: recipe.job_template(),
            })
        }
        _ => None,
    }
}

/// Sweep seeds per scenario at `scale`.
pub fn sweep_seed_count(scale: f64) -> usize {
    scaled(64, scale) as usize
}

/// The sweep configuration for a benchmark seed: `count` consecutive sweep
/// seeds in a block of their own per benchmark seed.
pub fn sweep_config(seed: u64, count: usize, threads: usize) -> SweepConfig {
    SweepConfig::new(seed.wrapping_mul(1000).wrapping_add(1), count, threads)
}

/// The deterministic outcome of one repetition — everything that must
/// repeat exactly for the same seed, on any commit that only changes how
/// fast the simulator runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Jobs submitted.
    pub jobs: u64,
    /// Accepted by the arrival site.
    pub accepted_locally: u64,
    /// Accepted after distribution.
    pub accepted_distributed: u64,
    /// Rejected.
    pub rejected: u64,
    /// Jobs that count as failed operations: accepted jobs that missed
    /// their deadline or were finalised without a completion, and jobs left
    /// without a verdict at quiescence.
    pub failed: u64,
    /// Deadline misses inside fault-injection cells (sweep only; see
    /// [`summarise_sweep`]).
    pub fault_misses: u64,
    /// Engine events processed.
    pub events: u64,
    /// Distribution messages sent.
    pub distribution_messages: u64,
    /// FNV-1a hash of the report's deterministic rendering.
    pub digest: u64,
}

impl RunSummary {
    /// accepted ÷ submitted.
    pub fn guarantee_ratio(&self) -> f64 {
        (self.accepted_locally + self.accepted_distributed) as f64 / self.jobs.max(1) as f64
    }

    /// distribution messages ÷ submitted.
    pub fn messages_per_job(&self) -> f64 {
        self.distribution_messages as f64 / self.jobs.max(1) as f64
    }

    /// `submitted = local + distributed + rejected`.
    pub fn accounting_holds(&self) -> bool {
        self.jobs == self.accepted_locally + self.accepted_distributed + self.rejected
    }
}

/// FNV-1a over bytes (a stable digest; `DefaultHasher` is seeded per run).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Summarises a streaming report. The digest covers every deterministic
/// field, including the full metrics registry.
pub fn summarise_stream(report: &StreamReport) -> RunSummary {
    let g = &report.guarantee;
    let stats = &report.stats;
    let verdicts = stats.named("accepted_local")
        + stats.named("accepted_distributed")
        + stats.named("rejected_no_acs")
        + stats.named("rejected_distributed");
    let rendered = format!(
        "{:?}|{}|{}|{:x}|{}|{:x}|{:x}|{}|{}|{}|{}|{}|{}",
        g,
        stats.messages_sent,
        stats.messages_delivered,
        report.finished_at.to_bits(),
        report.events_processed,
        report.mean_slack.to_bits(),
        report.min_slack.to_bits(),
        report.peak_inflight_jobs,
        report.peak_plan_reservations,
        report.peak_queue_len,
        report.harvests,
        report.unharvested_completions,
        metrics_to_json(&report.metrics, true).render_compact(),
    );
    RunSummary {
        jobs: g.submitted,
        accepted_locally: g.accepted_locally,
        accepted_distributed: g.accepted_distributed,
        rejected: g.rejected,
        failed: g.deadline_misses
            + report.unharvested_completions
            + g.submitted.saturating_sub(verdicts),
        fault_misses: 0,
        events: report.events_processed,
        distribution_messages: stats.named("distribution_messages"),
        digest: fnv1a(rendered.as_bytes()),
    }
}

/// Every cell's registry merged (the sweep-wide protocol counters).
pub fn merged_sweep_metrics(report: &SweepReport) -> MetricsRegistry {
    let mut merged = MetricsRegistry::new();
    for scenario in &report.scenarios {
        merged.merge(&scenario.metrics);
    }
    merged
}

/// Summarises a sweep: sums over all cells; the digest is the hash of the
/// rendered JSON report. Fault cells legitimately lose arrivals and
/// messages, and an accepted job whose commit or input data is lost with
/// them misses its deadline: that is a simulated statistic of the fault
/// plan (deterministic, inside the digest, reported as
/// `scenarios.fault_deadline_misses`), not a failed operation. A miss in a
/// cell **without** a perturbation plan is a failure.
pub fn summarise_sweep(scenarios: &[Scenario], report: &SweepReport, json: &str) -> RunSummary {
    let cells = || report.scenarios.iter().flat_map(|s| s.cells.iter());
    let misses = |faulty: bool| -> u64 {
        report
            .scenarios
            .iter()
            .zip(scenarios)
            .filter(|(_, scenario)| scenario.perturbations.is_empty() != faulty)
            .map(|(summary, _)| summary.total_deadline_misses)
            .sum()
    };
    RunSummary {
        jobs: cells().map(|c| c.submitted).sum(),
        accepted_locally: cells().map(|c| c.accepted_locally).sum(),
        accepted_distributed: cells().map(|c| c.accepted_distributed).sum(),
        rejected: cells().map(|c| c.rejected).sum(),
        failed: misses(false),
        fault_misses: misses(true),
        events: cells().map(|c| c.events_processed).sum(),
        distribution_messages: merged_sweep_metrics(report).counter("distribution_messages"),
        digest: fnv1a(json.as_bytes()),
    }
}

/// What the traced repetition switches on, on top of the plain run.
#[derive(Default)]
pub struct Instrument {
    /// Engine self-profile (per-event-class dispatch counts and wall time).
    pub profiling: bool,
    /// Capacity of the engine's `(time, class, seq)` order log (0 = off).
    pub order_log: usize,
    /// Wrap the job source in the timing adapter.
    pub timed_source: bool,
    /// Protocol trace recorder to install.
    pub trace: Option<Trace>,
}

/// A `JobSource` adapter that times `next_job` from outside and forwards
/// everything else. The report must be equal with and without it.
pub struct TimedSource<S: JobSource> {
    inner: S,
    /// Calls made.
    pub calls: u64,
    /// Their summed duration.
    pub total_ns: u64,
}

impl<S: JobSource> TimedSource<S> {
    /// Wraps a source.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            calls: 0,
            total_ns: 0,
        }
    }
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_job(&mut self) -> Option<Job> {
        let started = Instant::now();
        let job = self.inner.next_job();
        self.total_ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        job
    }

    fn take_metrics(&mut self) -> MetricsRegistry {
        self.inner.take_metrics()
    }
}

/// What an instrumented streaming repetition hands back besides the report.
pub struct StreamExtras {
    /// Engine self-profile (wall fields zero unless profiling was on).
    pub profile: EngineProfile,
    /// The recorded dispatch order (empty unless requested).
    pub order_log: Vec<(f64, u8, u64)>,
    /// `(calls, total ns)` of the timing adapter, when it was installed.
    pub next_job: Option<(u64, u64)>,
    /// Protocol trace events recorded, when a recorder was installed.
    pub trace_recorded: u64,
}

/// One repetition of any workload.
pub struct Repetition {
    /// Set-up time: everything before the first timed event.
    pub setup_s: f64,
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// Heap allocations inside the timed region.
    pub allocs: AllocCounts,
    /// The deterministic outcome.
    pub summary: RunSummary,
}

/// The built inputs of one streaming repetition, ready to run.
pub struct StreamSetup {
    /// The deployed system.
    pub system: RtdsSystem,
    /// The job source.
    pub source: JobFactory<OpenLoopSource>,
    /// Time spent building both.
    pub setup_s: f64,
}

/// Builds the inputs of one streaming repetition afresh: topology, resource
/// bundles, the system and the job source. Spans: `net.build`,
/// `core.system_new`, `workload.source_new` under `bench.setup`.
pub fn set_up_stream(plan: &StreamPlan, seed: u64, rec: &mut Recorder) -> StreamSetup {
    let setup = rec.enter("bench.setup");
    let network = rec.time("net.build", || plan.build_network(seed));
    let sites = network.site_count();
    let resources: Vec<SiteResources> = plan.resources.bundles(sites);
    let mut system = rec.time("core.system_new", || {
        RtdsSystem::with_resources(network, plan.config, mix_seed(seed, 5), resources)
    });
    // A workload ends on its job count; a run that stops on the event cap
    // is a failed run, so the cap is out of reach.
    system.set_max_events(u64::MAX);
    let source = rec.time("workload.source_new", || plan.build_source(sites, seed));
    rec.exit(setup);
    StreamSetup {
        system,
        source,
        setup_s: rec.seconds(setup),
    }
}

/// Runs one streaming repetition: fresh set-up, then `run_streaming` as the
/// timed region (span `core.run`).
pub fn run_stream(
    plan: &StreamPlan,
    seed: u64,
    instrument: Instrument,
    rec: &mut Recorder,
) -> (Repetition, Box<StreamReport>, StreamExtras) {
    let StreamSetup {
        mut system,
        source,
        setup_s,
    } = set_up_stream(plan, seed, rec);
    if instrument.profiling {
        system.enable_profiling();
    }
    if instrument.order_log > 0 {
        system.enable_order_log(instrument.order_log);
    }
    if let Some(trace) = instrument.trace {
        system.set_trace(trace);
    }
    let options = StreamOptions::default();
    let before = AllocCounts::now();
    let run_span = rec.enter("core.run");
    let (report, next_job) = if instrument.timed_source {
        let mut timed = TimedSource::new(source);
        let report = system.run_streaming(&mut timed, &options);
        (report, Some((timed.calls, timed.total_ns)))
    } else {
        let mut source = source;
        (system.run_streaming(&mut source, &options), None)
    };
    rec.exit(run_span);
    let allocs = AllocCounts::since(before);
    if let Some((calls, total_ns)) = next_job {
        rec.add_aggregate("workload.next_job", run_span, total_ns, calls);
    }
    system.trace_mut().flush();
    let extras = StreamExtras {
        profile: system.profile(),
        order_log: system.order_log().to_vec(),
        next_job,
        trace_recorded: system.trace().recorded(),
    };
    let repetition = Repetition {
        setup_s,
        wall_s: rec.seconds(run_span),
        allocs,
        summary: summarise_stream(&report),
    };
    (repetition, Box::new(report), extras)
}

/// Builds what a sweep needs before its first round of cells: the scenario
/// list and, for every scenario, the inputs of its first cell (network,
/// materialised workload, expanded fault plan). The list alone takes 2 µs —
/// too little to time; `run_sweep` builds every cell's inputs again itself,
/// inside the timed region, because that is what a sweep user pays.
fn set_up_sweep(seed: u64, rec: &mut Recorder) -> (Vec<Scenario>, f64) {
    let setup = rec.enter("bench.setup");
    let scenarios = builtin_scenarios();
    let first = sweep_config(seed, 1, 1).seeds[0];
    for scenario in &scenarios {
        let network = scenario.build_network(first);
        if scenario.stream.is_none() {
            std::hint::black_box(scenario.build_workload(&network, first));
        }
        std::hint::black_box(scenario.perturbations.expand(&network, mix_seed(first, 3)));
    }
    rec.exit(setup);
    (scenarios, rec.seconds(setup))
}

/// Runs one sweep repetition. The timed region is `run_sweep` on `threads`
/// worker threads plus `SweepReport::to_json`.
pub fn run_sweep_rep(
    seed: u64,
    seeds_per_scenario: usize,
    threads: usize,
    rec: &mut Recorder,
) -> (Repetition, Box<SweepReport>, String) {
    let (scenarios, setup_s) = set_up_sweep(seed, rec);
    let config = sweep_config(seed, seeds_per_scenario, threads);
    let before = AllocCounts::now();
    let run = rec.enter("scenarios.sweep");
    let report = rec.time("scenarios.run_sweep", || run_sweep(&scenarios, &config));
    let json = rec.time("scenarios.report_render", || report.to_json());
    rec.exit(run);
    let allocs = AllocCounts::since(before);
    let repetition = Repetition {
        setup_s,
        wall_s: rec.seconds(run),
        allocs,
        summary: summarise_sweep(&scenarios, &report, &json),
    };
    (repetition, Box::new(report), json)
}

/// Runs one plain (uninstrumented) repetition of any workload at `scale`
/// (`sweep-registry` being the one workload without a stream plan).
pub fn run_plain(name: &str, seed: u64, scale: f64, rec: &mut Recorder) -> Repetition {
    match stream_plan(name, scale) {
        Some(plan) => run_stream(&plan, seed, Instrument::default(), rec).0,
        None => run_sweep_rep(seed, sweep_seed_count(scale), 1, rec).0,
    }
}

/// Sets a workload up once more without running it, and returns the set-up
/// time: one more `setup_s` sample at a fraction of a repetition's cost.
pub fn set_up_only(name: &str, seed: u64, scale: f64, rec: &mut Recorder) -> f64 {
    match stream_plan(name, scale) {
        Some(plan) => set_up_stream(&plan, seed, rec).setup_s,
        None => set_up_sweep(seed, rec).1,
    }
}
