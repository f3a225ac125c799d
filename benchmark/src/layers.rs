//! The traced run behind the per-layer metrics (layers are the crates).
//!
//! Three sources, all outside the program:
//!
//! * **(a) spans** recorded by [`crate::spans::Recorder`] around each call
//!   into a layer, written as a Chrome trace file,
//! * **(b) counts** the program already exposes through public API: report
//!   fields, the named counters of the metrics registry, and the engine's
//!   per-event-class self-profile,
//! * **(c) kernels**: the workload's own network and first jobs (same seed)
//!   fed through one layer's public functions in isolation, each for at
//!   least 10 000 calls or 50 ms.
//!
//! A metric that does not apply to a workload (flow solves without flows,
//! scheduler kernels on the sweep) is reported as 0, never left out: the
//! driver expects every per-layer metric from every workload.

use crate::contract::Contract;
use crate::e2e::{check_repetition, Outcome};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    merged_sweep_metrics, run_stream, run_sweep_rep, set_up_stream, stream_plan, summarise_stream,
    sweep_config, sweep_seed_count, Instrument, Repetition, StreamExtras, StreamPlan,
};
use rtds::baselines::{run_global_heft, run_local_only};
use rtds::core::matching::{maximum_bipartite_matching_csr, with_matching_workspace};
use rtds::core::pcs::{PcsSend, PcsState};
use rtds::core::{
    adjust_mapping, map_dag, LaxityDispatch, MapperInput, MapperResult, ProcessorSpec, RtdsSystem,
    StreamOptions, StreamPause, StreamReport, StreamRun,
};
use rtds::flow::{max_min_rates, LinkId};
use rtds::graph::generators::GeneratorConfig;
use rtds::graph::{critical_path_tasks, DagGenerator, Job};
use rtds::metrics::MetricsRegistry;
use rtds::net::{Network, RouteEntry, RoutingTable, SiteId};
use rtds::scenarios::{builtin_scenarios, mix_seed, run_cell, CellReport, Scenario, SweepReport};
use rtds::sched::{Scheduler, SiteScheduler, TaskRequest};
use rtds::sim::json::Json;
use rtds::sim::metrics_json::metrics_to_json;
use rtds::sim::{CalendarQueue, EventPayload, SimStats, Trace};
use rtds::workload::WorkloadSource;
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

/// Jobs fed to the kernels at scale 1.
const KERNEL_JOBS: f64 = 5_000.0;
/// Entries of the engine's dispatch-order log kept for the queue replay.
const ORDER_LOG_CAPACITY: usize = 500_000;
/// The `RtdsMsg::kind()` names reported as `core.msgs_per_job.<kind>`.
const MESSAGE_KINDS: [&str; 9] = [
    "routing_update",
    "enroll",
    "enroll_ack",
    "enroll_busy",
    "trial_mapping",
    "validation_reply",
    "permutation",
    "unlock",
    "task_data",
];
/// Counters of messages and arrivals lost or dropped to injected faults.
const LOSS_COUNTERS: [&str; 6] = [
    "sim_lost_random",
    "sim_lost_link_down",
    "sim_lost_unreachable",
    "sim_dropped_site_down",
    "sim_dropped_arrival_site_down",
    "sim_dropped_timer_site_down",
];

/// Jobs fed to the kernels at `scale`.
fn kernel_job_count(scale: f64) -> usize {
    ((KERNEL_JOBS * scale).round() as usize).max(50)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Repeats `batch` — which reports how many calls it made — until the
/// kernel has made 10 000 calls or run 50 ms, and returns ns per call.
fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    let mut calls = 0u64;
    let mut total = Duration::ZERO;
    loop {
        let started = Instant::now();
        let made = batch();
        total += started.elapsed();
        calls += made;
        if made == 0 || calls >= 10_000 || total >= Duration::from_millis(50) {
            break;
        }
    }
    ratio(total.as_nanos() as f64, calls as f64)
}

/// Runs the traced protocol on one workload and returns the per-layer
/// metrics. The Chrome trace goes to `trace_path` when given.
pub fn run_layers(name: &str, seed: u64, scale: f64, trace_path: Option<&Path>) -> Outcome {
    let mut out = Outcome::new();
    for spec in Contract::embedded().per_layer {
        out.set(&spec.name, 0.0);
    }
    let mut rec = Recorder::new();
    match stream_plan(name, scale) {
        Some(plan) => stream_layers(name, &plan, seed, scale, &mut out, &mut rec),
        None => sweep_layers(seed, scale, &mut out, &mut rec),
    }
    if let Some(path) = trace_path {
        if let Err(e) = write_trace(path, &rec.chrome_trace(name)) {
            out.fence(0, format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}

fn write_trace(path: &Path, document: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, document)
}

// --------------------------------------------------------------------------
// Streaming workloads
// --------------------------------------------------------------------------

/// Whether two reports of the same stream agree on everything the protocol
/// did. The traced report legitimately carries extra `engine_*` families
/// from the self-profile, so the comparison walks the plain report's
/// counters and histograms instead of using `==`.
fn reports_agree(plain: &StreamReport, traced: &StreamReport) -> bool {
    let counters = |stats: &SimStats| -> Vec<(&'static str, u64)> {
        stats
            .named_counters()
            .filter(|(name, _)| !name.starts_with("engine_"))
            .collect()
    };
    let histograms = |report: &StreamReport| -> Vec<(&'static str, u64)> {
        report
            .metrics
            .histogram_families()
            .filter(|(name, _)| !name.starts_with("engine_"))
            .map(|(name, scopes)| (name, scopes.values().map(|h| h.count()).sum()))
            .collect()
    };
    plain.guarantee == traced.guarantee
        && plain.stats.messages_sent == traced.stats.messages_sent
        && plain.stats.messages_delivered == traced.stats.messages_delivered
        && plain.finished_at.to_bits() == traced.finished_at.to_bits()
        && plain.events_processed == traced.events_processed
        && plain.mean_slack.to_bits() == traced.mean_slack.to_bits()
        && plain.peak_inflight_jobs == traced.peak_inflight_jobs
        && plain.peak_plan_reservations == traced.peak_plan_reservations
        && plain.harvests == traced.harvests
        && counters(&plain.stats) == counters(&traced.stats)
        && histograms(plain) == histograms(traced)
}

fn stream_layers(
    name: &str,
    plan: &StreamPlan,
    seed: u64,
    scale: f64,
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    // Warm-up, then the tracing-off base the overhead ratios refer to.
    let (warm_up, _, _) = run_stream(plan, seed, Instrument::default(), rec);
    let (base, base_report, _) = run_stream(plan, seed, Instrument::default(), rec);
    let jobs = base.summary.jobs;
    out.attempted = jobs;
    out.failed = base.summary.failed;
    out.correct = out.failed == 0;
    out.sim_digest = base.summary.digest;
    if let Some(message) = check_repetition(&warm_up.summary, &base.summary, Some(plan.jobs())) {
        out.fence(jobs, message);
    }

    // The traced repetition: engine self-profile, dispatch-order log and the
    // timing adapter around the job source.
    let (traced, report, extras) = run_stream(
        plan,
        seed,
        Instrument {
            profiling: true,
            order_log: ORDER_LOG_CAPACITY,
            timed_source: true,
            trace: None,
        },
        rec,
    );
    if !reports_agree(&base_report, &report) {
        out.fence(
            jobs,
            "the timing JobSource adapter (or the self-profile) changed the report".into(),
        );
    }
    out.set(
        "bench.trace_overhead_ratio",
        ratio(traced.wall_s, base.wall_s),
    );

    stream_counts(&base, &traced, &report, &extras, out);
    out.set(
        "core.system_new_s",
        median(&rec.durations("core.system_new")),
    );
    out.set("net.build_s", median(&rec.durations("net.build")));
    let (next_calls, next_ns) = extras.next_job.unwrap_or((0, 0));
    out.set("workload.next_job_n", next_calls as f64);
    out.set("workload.next_job_s", next_ns as f64 * 1e-9);
    out.set(
        "bench.generator_share",
        ratio(next_ns as f64 * 1e-9, traced.wall_s),
    );
    let dispatch_s: f64 = extras.profile.wall.iter().map(Duration::as_secs_f64).sum();
    out.set(
        "sim.unattributed_share",
        1.0 - ratio(dispatch_s + next_ns as f64 * 1e-9, traced.wall_s),
    );
    out.set(
        "sim.queue_ns_per_op",
        rec.time("sim.queue_replay", || queue_replay(&extras.order_log)),
    );

    // The kernels' inputs: the workload's own network and first jobs.
    let network = plan.build_network(seed);
    let jobs = plan.first_jobs(network.site_count(), seed, kernel_job_count(scale));
    stream_kernels(plan, seed, &network, &jobs, &report, out, rec);
    snapshot_layer(plan, seed, network.site_count(), &base_report, out, rec);
    if name == "stream-grid256" {
        trace_sink_layer(plan, seed, &base, out, rec);
        baselines_layer(&network, &jobs, out, rec);
    }
    fence_workload_claims(name, out);
}

/// Counts the program already exposes: report fields, named counters and
/// the engine self-profile.
fn stream_counts(
    base: &Repetition,
    traced: &Repetition,
    report: &StreamReport,
    extras: &StreamExtras,
    out: &mut Outcome,
) {
    let g = &report.guarantee;
    let stats = &report.stats;
    let jobs = g.submitted as f64;
    let events = report.events_processed as f64;
    out.set("sim.events_per_job", ratio(events, jobs));
    out.set("sim.events_per_s", ratio(events, base.wall_s));
    out.set("sim.ns_per_event", ratio(base.wall_s * 1e9, events));
    out.set("core.run_s", traced.wall_s);

    // deliver, external, timer, fault, flow_start, flow_finish.
    let counts = extras.profile.dispatch_counts;
    let wall = extras.profile.wall.map(|d| d.as_secs_f64());
    for (index, class) in ["deliver", "external", "timer", "fault"].iter().enumerate() {
        out.set(&format!("sim.dispatch_n.{class}"), counts[index] as f64);
        out.set(&format!("sim.dispatch_s.{class}"), wall[index]);
    }
    out.set("sim.dispatch_n.flow", (counts[4] + counts[5]) as f64);
    out.set("sim.dispatch_s.flow", wall[4] + wall[5]);

    out.set("sim.peak_queue_len", report.peak_queue_len as f64);
    out.set(
        "sim.messages_lost",
        LOSS_COUNTERS.iter().map(|c| stats.named(c)).sum::<u64>() as f64,
    );
    out.set(
        "sim.flow_stale_finish_share",
        ratio(
            stats.named("sim_flow_stale_finish") as f64,
            counts[5] as f64,
        ),
    );
    protocol_counts(
        out,
        jobs,
        g.accepted_locally,
        g.accepted_distributed,
        &|name| stats.named(name),
    );
    out.set(
        "core.distribution_latency_p50_sim",
        report
            .metrics
            .histogram("distribution_latency")
            .quantile(0.5),
    );
    out.set("core.harvests", report.harvests as f64);
    out.set("core.peak_inflight_jobs", report.peak_inflight_jobs as f64);
    out.set(
        "sched.peak_plan_reservations",
        report.peak_plan_reservations as f64,
    );
}

/// The useful-outcome-per-attempt ratios and per-kind message counts, from
/// named counters (shared by the streaming and sweep tables).
fn protocol_counts(
    out: &mut Outcome,
    jobs: f64,
    accepted_locally: u64,
    accepted_distributed: u64,
    counter: &dyn Fn(&str) -> u64,
) {
    let attempts = (counter("accepted_distributed") + counter("rejected_distributed")) as f64;
    out.set("core.local_share", ratio(accepted_locally as f64, jobs));
    out.set(
        "core.distributed_share",
        ratio(accepted_distributed as f64, jobs),
    );
    out.set(
        "core.distribution_success_ratio",
        ratio(counter("accepted_distributed") as f64, attempts),
    );
    out.set(
        "core.enroll_busy_ratio",
        ratio(counter("enroll_busy") as f64, counter("enroll") as f64),
    );
    out.set(
        "core.acs_members_mean",
        ratio(counter("acs_members") as f64, attempts),
    );
    for kind in MESSAGE_KINDS {
        out.set(
            &format!("core.msgs_per_job.{kind}"),
            ratio(counter(kind) as f64, jobs),
        );
    }
    out.set(
        "flow.flows_per_job",
        ratio(counter("sim_flow_started") as f64, jobs),
    );
    out.set("flow.no_path", counter("sim_flow_no_path") as f64);
}

/// Replays the run's dispatch order through a fresh `CalendarQueue`: the
/// log is cut into windows of consecutive pops (what the real queue holds
/// at one time), each window is pushed in its original scheduling (`seq`)
/// order and drained with `pop_batch`. Returns ns per push-or-pop.
fn queue_replay(order_log: &[(f64, u8, u64)]) -> f64 {
    const WINDOW: usize = 4096;
    let windows: Vec<Vec<(f64, u8, u64)>> = order_log
        .chunks(WINDOW)
        .map(|chunk| {
            let mut window = chunk.to_vec();
            window.sort_unstable_by_key(|&(_, _, seq)| seq);
            window
        })
        .collect();
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    let mut batch = Vec::new();
    let mut ops = 0u64;
    let started = Instant::now();
    for window in &windows {
        for &(time, class, seq) in window {
            let payload = match class {
                1 => EventPayload::External { message: seq },
                3 => EventPayload::FlowFinish {
                    flow: seq,
                    epoch: 0,
                },
                _ => EventPayload::Timer { timer_id: seq },
            };
            queue.push(time, SiteId(0), payload);
        }
        while !queue.is_empty() {
            queue.pop_batch(&mut batch, 64);
            ops += batch.len() as u64;
        }
        ops += window.len() as u64;
    }
    ratio(started.elapsed().as_nanos() as f64, ops as f64)
}

/// Mean number of sites within `radius` hops of a site (itself included):
/// the size of the Computing Sphere the Mapper is offered.
fn sphere_size_mean(network: &Network, radius: usize) -> f64 {
    let total: usize = network
        .sites()
        .map(|s| {
            network
                .hop_distances(s)
                .iter()
                .filter(|&&hops| hops <= radius)
                .count()
        })
        .sum();
    ratio(total as f64, network.site_count() as f64)
}

fn stream_kernels(
    plan: &StreamPlan,
    seed: u64,
    network: &Network,
    jobs: &[Job],
    report: &StreamReport,
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let kernels = rec.enter("bench.kernels");
    let sites = network.site_count();

    // rtds-graph: regenerate the same jobs from their arrival specs.
    let mut arrivals = plan.open_loop.build(sites, StreamPlan::stream_seed(seed));
    let specs: Vec<_> = std::iter::from_fn(|| arrivals.next_arrival())
        .take(jobs.len())
        .collect();
    let mut generator = DagGenerator::new(
        GeneratorConfig {
            task_count: 1,
            shape: plan.template.shape,
            costs: plan.template.costs,
            ccr: plan.template.ccr,
            laxity_factor: plan.template.laxity,
        },
        0,
    );
    let generate = rec.time("graph.generate", || {
        ns_per_call(|| {
            for (time, spec) in &specs {
                generator.reseed(spec.seed);
                generator.set_task_count(spec.tasks);
                std::hint::black_box(generator.generate_job(spec.site, *time));
            }
            specs.len() as u64
        })
    });
    out.set("graph.generate_ns_per_job", generate);
    let critical = rec.time("graph.critical_path", || {
        ns_per_call(|| {
            for job in jobs {
                std::hint::black_box(critical_path_tasks(&job.graph));
            }
            jobs.len() as u64
        })
    });
    out.set("graph.critical_path_ns_per_job", critical);

    // rtds-net and the §7 exchange of rtds-core.
    let radius = plan.config.sphere_radius;
    let sphere = sphere_size_mean(network, radius);
    out.set("net.sphere_size_mean", sphere);
    let tables = rec.time("core.pcs_exchange", || pcs_exchange(network, radius, out));
    routing_kernels(network, &tables, out, rec);
    drop(tables);

    // rtds-core: Mapper, adjustment and validation matching, with as many
    // logical processors as the workload's mean sphere holds.
    let processors: Vec<ProcessorSpec> = (0..sphere.round().max(1.0) as usize)
        .map(|i| ProcessorSpec::with_surplus(1.0 - 0.5 * i as f64 / sphere.max(1.0)))
        .collect();
    let comm_delay = 2.0 * radius as f64 * plan.topology.delays.mean();
    let mut mapped: Vec<MapperResult> = Vec::new();
    let map_ns = rec.time("core.map_dag", || {
        ns_per_call(|| {
            mapped = jobs
                .iter()
                .filter_map(|job| {
                    map_dag(&MapperInput::new(
                        &job.graph,
                        job.release(),
                        &processors,
                        comm_delay,
                    ))
                })
                .collect();
            jobs.len() as u64
        })
    });
    out.set("core.map_dag_ns_per_call", map_ns);
    let adjust_ns = rec.time("core.adjust", || {
        ns_per_call(|| {
            for (job, result) in jobs.iter().zip(&mapped) {
                std::hint::black_box(adjust_mapping(
                    &job.graph,
                    result,
                    job.release(),
                    job.deadline(),
                    &processors,
                    LaxityDispatch::Uniform,
                ));
            }
            mapped.len() as u64
        })
    });
    out.set("core.adjust_ns_per_call", adjust_ns);
    // Each used logical processor is endorsed by up to four sites.
    let right = processors.len();
    let endorsements: Vec<Vec<Vec<usize>>> = mapped
        .iter()
        .map(|result| {
            (0..result.used_count())
                .map(|l| {
                    let mut sites: Vec<usize> =
                        (0..4).map(|j| (l * 7 + j * 3 + 1) % right).collect();
                    sites.sort_unstable();
                    sites.dedup();
                    sites
                })
                .collect()
        })
        .collect();
    let matching_ns = rec.time("core.matching", || {
        ns_per_call(|| {
            for lists in &endorsements {
                with_matching_workspace(|csr, scratch| {
                    csr.rebuild_from_lists(lists, right);
                    std::hint::black_box(maximum_bipartite_matching_csr(csr, scratch));
                });
            }
            endorsements.len() as u64
        })
    });
    out.set("core.matching_ns_per_call", matching_ns);

    sched_kernels(plan, network, jobs, out, rec);
    flow_kernel(network, report, seed, out, rec);
    metrics_kernels(&[&report.metrics], out, rec);
    json_kernels(report, out, rec);
    rec.exit(kernels);
}

/// Drives the §7 exchange (`PcsState::start` / `on_update`) over the
/// workload's topology with a FIFO of in-flight updates, as the engine
/// does at start-up. Returns every site's final table.
fn pcs_exchange(network: &Network, radius: usize, out: &mut Outcome) -> Vec<RoutingTable> {
    let started = Instant::now();
    let mut states: Vec<PcsState> = network
        .sites()
        .map(|s| PcsState::new(s, network.neighbors(s).to_vec(), radius))
        .collect();
    let mut in_flight: VecDeque<(SiteId, PcsSend)> = VecDeque::new();
    for s in network.sites() {
        in_flight.extend(states[s.0].start().into_iter().map(|send| (s, send)));
    }
    let mut updates = 0u64;
    while let Some((from, send)) = in_flight.pop_front() {
        updates += 1;
        let to = send.to;
        let replies = states[to.0].on_update(from, send.phase, send.lines);
        in_flight.extend(replies.into_iter().map(|reply| (to, reply)));
    }
    out.set("core.pcs_exchange_s", started.elapsed().as_secs_f64());
    out.set("core.routing_update_n", updates as f64);
    states.iter().map(|state| state.table().clone()).collect()
}

fn routing_kernels(
    network: &Network,
    tables: &[RoutingTable],
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    // Tables are dense vectors indexed by destination, so a table is as
    // long as the largest destination it knows. Computed, not measured.
    let slots: usize = tables
        .iter()
        .map(|t| t.entries().map(|e| e.destination.0 + 1).max().unwrap_or(0))
        .sum();
    out.set(
        "net.routing_table_mb",
        (slots * std::mem::size_of::<Option<RouteEntry>>()) as f64 / (1024.0 * 1024.0),
    );
    let lines: Vec<Vec<RouteEntry>> = tables.iter().map(RoutingTable::lines).collect();
    let merge_ns = rec.time("net.routing_merge", || {
        let mut total = Duration::ZERO;
        let mut calls = 0u64;
        'sweeps: loop {
            for s in network.sites() {
                let neighbors = network.neighbors(s);
                let mut table = RoutingTable::initial(s, neighbors);
                let started = Instant::now();
                for &(nb, delay) in neighbors {
                    std::hint::black_box(table.merge_from_neighbor(nb, delay, &lines[nb.0]));
                }
                total += started.elapsed();
                calls += neighbors.len() as u64;
                if calls >= 10_000 || total >= Duration::from_millis(50) {
                    break 'sweeps;
                }
            }
            if calls == 0 {
                break;
            }
        }
        ratio(total.as_nanos() as f64, calls as f64)
    });
    out.set("net.routing_merge_ns_per_call", merge_ns);
}

/// `SiteScheduler`s built from the workload's own resource bundles and
/// scheduler kind, fed the first jobs at their arrival sites — so the
/// single-core workloads time the single-plan delegate and
/// `multicore-flow` times the multicore path.
fn sched_kernels(
    plan: &StreamPlan,
    network: &Network,
    jobs: &[Job],
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let span = rec.enter("sched.kernels");
    let sites = network.site_count();
    let bundles = plan.resources.bundles(sites);
    let mut schedulers: Vec<SiteScheduler> = network
        .sites()
        .map(|s| {
            let speed = if plan.config.uniform_machines {
                network.speed(s)
            } else {
                1.0
            };
            SiteScheduler::new(
                plan.config.scheduler,
                bundles[s.0],
                speed,
                plan.config.preemptive,
            )
        })
        .collect();
    let harvest_interval = StreamOptions::default().harvest_interval;
    let mut next_harvest = harvest_interval;
    let mut admit = Duration::ZERO;
    let mut satisfiable = Duration::ZERO;
    let mut reserve = Duration::ZERO;
    let mut drain = Duration::ZERO;
    let (mut admitted, mut satisfiable_calls, mut drains) = (0u64, 0u64, 0u64);
    for job in jobs {
        let now = job.arrival_time.max(0.0);
        while now >= next_harvest {
            let started = Instant::now();
            for scheduler in &mut schedulers {
                std::hint::black_box(scheduler.drain_completed(next_harvest));
            }
            drain += started.elapsed();
            drains += sites as u64;
            next_harvest += harvest_interval;
        }
        let scheduler = &mut schedulers[job.arrival_site];
        // The §10 question for the job's first tasks, as a validating site
        // would be asked about one logical processor's task set.
        let requests: Vec<TaskRequest> = job
            .graph
            .task_ids()
            .take(3)
            .map(|task| TaskRequest {
                job: job.id,
                task,
                release: now,
                deadline: job.deadline(),
                duration: job.graph.cost(task),
            })
            .collect();
        let started = Instant::now();
        std::hint::black_box(scheduler.satisfiable(&requests));
        satisfiable += started.elapsed();
        satisfiable_calls += 1;

        let demands = plan.config.demand.demands_for(&job.graph);
        let started = Instant::now();
        let admission = scheduler.admit_dag(job, now, demands.as_deref());
        admit += started.elapsed();
        if let Some(schedule) = admission {
            admitted += 1;
            let started = Instant::now();
            scheduler
                .reserve_dag(&schedule)
                .expect("admission answers are committable");
            std::hint::black_box(scheduler.release(job.id));
            reserve += started.elapsed();
            scheduler
                .reserve_dag(&schedule)
                .expect("admission answers are committable");
        }
    }
    let per = |total: Duration, calls: u64| ratio(total.as_nanos() as f64, calls as f64);
    out.set("sched.admit_ns_per_call", per(admit, jobs.len() as u64));
    out.set(
        "sched.admit_accept_ratio",
        ratio(admitted as f64, jobs.len() as f64),
    );
    out.set(
        "sched.satisfiable_ns_per_call",
        per(satisfiable, satisfiable_calls),
    );
    out.set("sched.reserve_release_ns_per_call", per(reserve, admitted));
    out.set("sched.drain_ns_per_call", per(drain, drains));
    rec.exit(span);
}

/// `max_min_rates` on flow sets of the run's observed mean concurrency
/// (Little's law on the `transfer_time` histogram), over the workload's own
/// link capacities. Skipped (0) when the run started no flows.
fn flow_kernel(
    network: &Network,
    report: &StreamReport,
    seed: u64,
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let started_flows = report.stats.named("sim_flow_started");
    if started_flows == 0 {
        return;
    }
    let typical = report.metrics.histogram("transfer_time").quantile(0.5);
    let concurrency = ratio(started_flows as f64 * typical, report.finished_at)
        .ceil()
        .max(1.0) as usize;
    let capacities: Vec<f64> = network.link_states().map(|(_, _, l)| l.bandwidth).collect();
    let links = capacities.len() as u64;
    // Three pseudo-random links per flow (a typical sphere path).
    let mut state = mix_seed(seed, 0xf10);
    let paths: Vec<Vec<LinkId>> = (0..concurrency)
        .map(|_| {
            (0..3)
                .map(|_| {
                    state = mix_seed(state, 1);
                    (state % links) as LinkId
                })
                .collect()
        })
        .collect();
    let flows: Vec<&[LinkId]> = paths.iter().map(Vec::as_slice).collect();
    let solve = rec.time("flow.solve", || {
        ns_per_call(|| {
            for _ in 0..100 {
                std::hint::black_box(max_min_rates(&capacities, &flows));
            }
            100
        })
    });
    out.set("flow.solve_ns_per_call", solve);
}

fn metrics_kernels(registries: &[&MetricsRegistry], out: &mut Outcome, rec: &mut Recorder) {
    let mut registry = MetricsRegistry::new();
    let record = rec.time("metrics.record", || {
        ns_per_call(|| {
            for i in 0..10_000u32 {
                registry.record("bench_kernel", f64::from(i % 97) + 0.5);
            }
            10_000
        })
    });
    out.set("metrics.record_ns_per_call", record);
    let merge = rec.time("metrics.merge", || {
        ns_per_call(|| {
            let mut merged = MetricsRegistry::new();
            for registry in registries {
                merged.merge(registry);
            }
            std::hint::black_box(&merged);
            registries.len() as u64
        })
    });
    out.set("metrics.merge_ns_per_registry", merge);
}

/// The JSON parser re-validates the rest of the input for every string
/// character, so its cost grows with the square of the document: 2.4 MB
/// (256 sites) parse in 4 s, the 2 048-site snapshot would take hours.
/// Larger snapshots are encoded and sized but not decoded.
const SNAPSHOT_DECODE_LIMIT_MB: f64 = 4.0;

/// Checkpoints a run at half its events, prices encode and decode, resumes,
/// and requires the final report to equal the uninterrupted one.
fn snapshot_layer(
    plan: &StreamPlan,
    seed: u64,
    sites: usize,
    base_report: &StreamReport,
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let span = rec.enter("core.snapshot_round_trip");
    let mut setup = set_up_stream(plan, seed, rec);
    let options = StreamOptions::default();
    let pause = StreamPause::AfterEvents(base_report.events_processed / 2);
    let run = rec.time("core.run_to_checkpoint", || {
        setup
            .system
            .run_streaming_checkpoint(&mut setup.source, &options, &pause)
    });
    let resumed = match run {
        StreamRun::Paused(document) => {
            let encode = rec.enter("core.snapshot_encode");
            let system_document = setup.system.checkpoint();
            rec.exit(encode);
            out.set("core.snapshot_encode_s", rec.seconds(encode));
            drop(setup);
            let mb = document.len() as f64 / (1024.0 * 1024.0);
            out.set("core.snapshot_mb", mb);
            if mb > SNAPSHOT_DECODE_LIMIT_MB {
                eprintln!("note: {mb:.0} MB snapshot encoded but not decoded (quadratic parser)");
                rec.exit(span);
                return;
            }
            let decode = rec.enter("core.snapshot_decode");
            let restored = RtdsSystem::resume(&system_document);
            rec.exit(decode);
            out.set("core.snapshot_decode_s", rec.seconds(decode));
            if let Err(e) = restored {
                out.fence(
                    out.attempted,
                    format!("system snapshot does not restore: {e:?}"),
                );
            }
            let mut fresh = plan.build_source(sites, seed);
            rec.time("core.resume_streaming", || {
                RtdsSystem::resume_streaming(&document, &mut fresh)
            })
        }
        // A run too short to reach the pause point finishes instead.
        StreamRun::Finished(report) => Ok(*report),
    };
    match resumed {
        Ok(report) if report == *base_report => {}
        Ok(report) => out.fence(
            out.attempted,
            format!(
                "resumed run's report differs from the uninterrupted one (digest {:016x} vs {:016x})",
                summarise_stream(&report).digest,
                summarise_stream(base_report).digest
            ),
        ),
        Err(e) => out.fence(
            out.attempted,
            format!("stream snapshot does not resume: {e:?}"),
        ),
    }
    rec.exit(span);
}

/// Render and parse rates of the JSON codec on the report's own metrics
/// document (tens of KB; see [`SNAPSHOT_DECODE_LIMIT_MB`] for why the
/// multi-MB snapshot is not parsed a second time).
fn json_kernels(report: &StreamReport, out: &mut Outcome, rec: &mut Recorder) {
    let document = metrics_to_json(&report.metrics, true);
    let render = rec.enter("sim.json_render");
    let text = document.render();
    rec.exit(render);
    let mb = text.len() as f64 / (1024.0 * 1024.0);
    out.set("sim.json_render_mb_per_s", ratio(mb, rec.seconds(render)));
    let parse = rec.enter("sim.json_parse");
    let parsed = Json::parse(&text);
    rec.exit(parse);
    out.set("sim.json_parse_mb_per_s", ratio(mb, rec.seconds(parse)));
    if parsed.ok().as_ref() != Some(&document) {
        out.fence(
            0,
            "the metrics document does not survive render -> parse".into(),
        );
    }
}

/// One extra repetition each with the bounded ring recorder and with the
/// streaming JSONL sink (writing to a null device), against tracing off.
fn trace_sink_layer(
    plan: &StreamPlan,
    seed: u64,
    base: &Repetition,
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let sinks = [
        ("trace.ring_overhead_ratio", Trace::ring(65_536)),
        (
            "trace.jsonl_overhead_ratio",
            Trace::jsonl(Box::new(std::io::sink()), &[]),
        ),
    ];
    for (metric, trace) in sinks {
        let instrument = Instrument {
            trace: Some(trace),
            ..Instrument::default()
        };
        let (rep, _, extras) = run_stream(plan, seed, instrument, rec);
        if rep.summary.digest != base.summary.digest {
            out.fence(
                rep.summary.jobs,
                format!("{metric}: tracing changed the report"),
            );
        }
        out.set(metric, ratio(rep.wall_s, base.wall_s));
        out.set(
            "trace.events_per_job",
            ratio(extras.trace_recorded as f64, rep.summary.jobs as f64),
        );
    }
}

/// The comparison policies on the first jobs of the stream.
fn baselines_layer(network: &Network, jobs: &[Job], out: &mut Outcome, rec: &mut Recorder) {
    let local = rec.enter("baselines.local_only");
    std::hint::black_box(run_local_only(network, jobs, false));
    rec.exit(local);
    out.set(
        "baselines.local_only_jobs_per_s",
        ratio(jobs.len() as f64, rec.seconds(local)),
    );
    let heft = rec.enter("baselines.global_heft");
    std::hint::black_box(run_global_heft(network, jobs, false));
    rec.exit(heft);
    out.set(
        "baselines.global_heft_jobs_per_s",
        ratio(jobs.len() as f64, rec.seconds(heft)),
    );
}

/// The workloads must keep isolating what they claim to: flows only on
/// `multicore-flow`, almost everything local on `local-light`, real
/// distribution on `stream-grid256`.
fn fence_workload_claims(name: &str, out: &mut Outcome) {
    let value = |out: &Outcome, metric: &str| out.values.get(metric).copied().unwrap_or(0.0);
    let flows = value(out, "flow.flows_per_job");
    let jobs = out.attempted;
    if name == "multicore-flow" && flows == 0.0 {
        out.fence(jobs, "multicore-flow started no flows".into());
    }
    if name != "multicore-flow" && flows != 0.0 {
        out.fence(jobs, format!("{name} started flows ({flows} per job)"));
    }
    let local = value(out, "core.local_share");
    if name == "local-light" && local < 0.95 {
        out.fence(
            jobs,
            format!("local-light local share {local} is below 0.95"),
        );
    }
    let distributed = value(out, "core.distributed_share");
    if name == "stream-grid256" && distributed < 0.25 {
        out.fence(
            jobs,
            format!("stream-grid256 distributed share {distributed} is below 0.25"),
        );
    }
}

// --------------------------------------------------------------------------
// The sweep
// --------------------------------------------------------------------------

fn sweep_layers(seed: u64, scale: f64, out: &mut Outcome, rec: &mut Recorder) {
    let per_scenario = sweep_seed_count(scale);
    let (warm_up, _, _) = run_sweep_rep(seed, per_scenario, 1, rec);
    let (base, report, json) = run_sweep_rep(seed, per_scenario, 1, rec);
    let jobs = base.summary.jobs;
    out.attempted = jobs;
    out.failed = base.summary.failed;
    out.correct = out.failed == 0;
    out.sim_digest = base.summary.digest;
    if let Some(message) = check_repetition(&warm_up.summary, &base.summary, None) {
        out.fence(jobs, message);
    }
    let run_sweep_s = *rec
        .durations("scenarios.run_sweep")
        .last()
        .expect("the base repetition ran");
    let render_s = *rec
        .durations("scenarios.report_render")
        .last()
        .expect("the base repetition rendered");

    // The traced repetition: the same cells, called one by one from outside
    // with a span per scenario, and each cell's set-up called on its own.
    let scenarios = builtin_scenarios();
    let seeds = sweep_config(seed, per_scenario, 1).seeds;
    let traced = rec.enter("scenarios.traced_sweep");
    let mut cells_s = 0.0;
    let mut setup_s = 0.0;
    let mut build_s = 0.0;
    let mut cells_agree = true;
    for (index, scenario) in scenarios.iter().enumerate() {
        let span = rec.enter(&format!("scenarios.run_cell.{}", scenario.name));
        let cells: Vec<CellReport> = seeds.iter().map(|&s| run_cell(scenario, s)).collect();
        rec.exit(span);
        cells_s += rec.seconds(span);
        cells_agree &= report.scenarios[index].cells == cells;
        let span = rec.enter(&format!("scenarios.cell_setup.{}", scenario.name));
        for &s in &seeds {
            let started = Instant::now();
            let network = scenario.build_network(s);
            build_s += started.elapsed().as_secs_f64();
            if scenario.stream.is_none() {
                std::hint::black_box(scenario.build_workload(&network, s));
            }
            std::hint::black_box(scenario.perturbations.expand(&network, mix_seed(s, 3)));
        }
        rec.exit(span);
        setup_s += rec.seconds(span);
    }
    rec.exit(traced);
    if !cells_agree {
        out.fence(
            jobs,
            "cells run one by one differ from the sweep's cells".into(),
        );
    }
    let cell_count = (scenarios.len() * seeds.len()) as f64;
    out.set("scenarios.cells_per_s", ratio(cell_count, run_sweep_s));
    out.set("scenarios.cell_setup_share", ratio(setup_s, cells_s));
    out.set("scenarios.report_render_s", render_s);
    out.set(
        "scenarios.fault_deadline_misses",
        base.summary.fault_misses as f64,
    );
    out.set("net.build_s", build_s);
    out.set("core.run_s", cells_s);
    out.set("sim.unattributed_share", 1.0 - ratio(cells_s, run_sweep_s));
    out.set("bench.trace_overhead_ratio", ratio(cells_s, run_sweep_s));

    // The one second thread anywhere: the same sweep on min(nproc, 2)
    // workers. Informational, but its report must be byte-identical.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let (parallel, _, parallel_json) = run_sweep_rep(seed, per_scenario, threads, rec);
    if parallel_json != json {
        out.fence(
            jobs,
            format!("the {threads}-thread report differs from the 1-thread report"),
        );
    }
    out.set(
        "scenarios.sweep_speedup_2t",
        ratio(base.wall_s, parallel.wall_s),
    );

    sweep_counts(&report, &base, out);
    out.set(
        "sim.json_render_mb_per_s",
        ratio(json.len() as f64 / (1024.0 * 1024.0), render_s),
    );
    // Parsed on the first scenario's summary only: the parser's cost grows
    // with the square of the document (see `SNAPSHOT_DECODE_LIMIT_MB`) and
    // the full 3.7 MB report would take a minute.
    let slice = SweepReport {
        seeds: report.seeds.clone(),
        scenarios: vec![report.scenarios[0].clone()],
    }
    .to_json();
    let parse = rec.enter("sim.json_parse");
    let parsed = Json::parse(&slice);
    rec.exit(parse);
    if parsed.is_err() {
        out.fence(jobs, "the sweep report does not parse".into());
    }
    out.set(
        "sim.json_parse_mb_per_s",
        ratio(slice.len() as f64 / (1024.0 * 1024.0), rec.seconds(parse)),
    );

    let registries: Vec<&MetricsRegistry> = report
        .scenarios
        .iter()
        .flat_map(|s| s.cells.iter().map(|c| &c.metrics))
        .collect();
    metrics_kernels(&registries, out, rec);
    sweep_graph_kernels(&scenarios[0], seed, scale, out, rec);
}

fn sweep_counts(report: &SweepReport, base: &Repetition, out: &mut Outcome) {
    let merged = merged_sweep_metrics(report);
    let jobs = base.summary.jobs as f64;
    let events = base.summary.events as f64;
    out.set("sim.events_per_job", ratio(events, jobs));
    out.set("sim.events_per_s", ratio(events, base.wall_s));
    out.set("sim.ns_per_event", ratio(base.wall_s * 1e9, events));
    out.set(
        "sim.messages_lost",
        LOSS_COUNTERS.iter().map(|c| merged.counter(c)).sum::<u64>() as f64,
    );
    out.set(
        "sim.flow_stale_finish_share",
        ratio(
            merged.counter("sim_flow_stale_finish") as f64,
            (merged.counter("sim_flow_stale_finish") + merged.counter("sim_flow_finished")) as f64,
        ),
    );
    out.set(
        "sim.peak_queue_len",
        merged.gauge("queue_len").map_or(0.0, |g| g.peak),
    );
    out.set(
        "core.peak_inflight_jobs",
        merged.gauge("inflight_jobs").map_or(0.0, |g| g.peak),
    );
    out.set(
        "core.distribution_latency_p50_sim",
        merged.histogram("distribution_latency").quantile(0.5),
    );
    protocol_counts(
        out,
        jobs,
        base.summary.accepted_locally,
        base.summary.accepted_distributed,
        &|name| merged.counter(name),
    );
}

/// Job generation and critical paths on the first registry scenario's
/// workload recipe (the sweep builds every cell's jobs this way).
fn sweep_graph_kernels(
    scenario: &Scenario,
    seed: u64,
    scale: f64,
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let recipe = scenario.workload;
    let count = kernel_job_count(scale);
    let mut generator = DagGenerator::new(
        GeneratorConfig {
            task_count: recipe.tasks_per_job,
            shape: recipe.shape,
            costs: recipe.costs,
            ccr: recipe.ccr,
            laxity_factor: recipe.laxity,
        },
        mix_seed(seed, 0xda6),
    );
    let mut jobs: Vec<Job> = Vec::new();
    let generate = rec.time("graph.generate", || {
        ns_per_call(|| {
            jobs = (0..count)
                .map(|i| generator.generate_job(i % 25, i as f64))
                .collect();
            count as u64
        })
    });
    out.set("graph.generate_ns_per_job", generate);
    let critical = rec.time("graph.critical_path", || {
        ns_per_call(|| {
            for job in &jobs {
                std::hint::black_box(critical_path_tasks(&job.graph));
            }
            jobs.len() as u64
        })
    });
    out.set("graph.critical_path_ns_per_job", critical);
}
