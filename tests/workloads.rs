//! Facade-level integration of the streaming workload subsystem: open-loop
//! sources drive the bounded-memory execution path through `rtds::workload`
//! and `rtds::core`, streaming scenario cells replay deterministically, and
//! a moderately long run keeps its resident state flat.

use rtds::core::{RtdsConfig, RtdsSystem, StreamOptions, StreamPause, StreamReport, StreamRun};
use rtds::net::generators::{grid, DelayDistribution};
use rtds::net::SiteId;
use rtds::scenarios::spec::BandwidthRecipe;
use rtds::scenarios::{find_scenario, run_cell, TopologyRecipe, TopologySpec};
use rtds::sim::{metrics_to_json, FaultEvent, Json};
use rtds::workload::{
    JobFactory, JobTemplate, MergedSource, OpenLoopSource, OpenLoopSpec, RateProcess, SizeMix,
};

fn poisson(rate: f64, max_jobs: u64, hotspots: usize) -> OpenLoopSpec {
    OpenLoopSpec {
        process: RateProcess::Poisson { rate },
        sizes: SizeMix::Uniform { min: 5, max: 10 },
        hotspots,
        horizon: f64::INFINITY,
        max_jobs,
    }
}

#[test]
fn long_streaming_run_keeps_resident_state_flat() {
    // 4,000 jobs through a 5x5 grid: the whole point of the subsystem is
    // that the in-flight population stays tiny while the run goes on.
    let network = grid(5, 5, false, DelayDistribution::Constant(1.0), 9);
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), 9);
    let mut jobs = JobFactory::new(
        poisson(0.25, 4_000, 0).build(25, 33),
        JobTemplate::default(),
    );
    let report = system.run_streaming(&mut jobs, &StreamOptions::default());
    assert_eq!(report.guarantee.submitted, 4_000);
    assert_eq!(report.deadline_misses(), 0);
    assert_eq!(report.unharvested_completions, 0);
    assert!(
        report.guarantee_ratio() > 0.5,
        "{}",
        report.guarantee_ratio()
    );
    assert!(
        report.peak_inflight_jobs < 200,
        "peak in-flight {} for a 4000-job run",
        report.peak_inflight_jobs
    );
    assert!(
        report.peak_plan_reservations < 500,
        "plans were not pruned: {}",
        report.peak_plan_reservations
    );
    assert!(report.harvests > 100);
}

#[test]
fn merged_sources_compose_into_one_run() {
    // A background Poisson load merged with a bursty hotspot stream.
    let background = poisson(0.2, 150, 0).build(16, 1);
    let bursts = OpenLoopSpec {
        process: RateProcess::OnOff {
            on_rate: 1.2,
            off_rate: 0.0,
            mean_on: 15.0,
            mean_off: 60.0,
        },
        sizes: SizeMix::Pareto {
            alpha: 1.8,
            min: 4,
            cap: 20,
        },
        hotspots: 2,
        horizon: 400.0,
        max_jobs: 0,
    }
    .build(16, 2);
    let network = grid(4, 4, false, DelayDistribution::Constant(1.0), 3);
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), 3);
    let mut jobs = JobFactory::new(
        MergedSource::new(background, bursts),
        JobTemplate::default(),
    );
    let report = system.run_streaming(&mut jobs, &StreamOptions::default());
    assert!(report.guarantee.submitted > 150);
    assert_eq!(report.deadline_misses(), 0);
}

#[test]
fn streaming_registry_cells_are_deterministic_through_the_facade() {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let a = run_cell(&scenario, 7);
    let b = run_cell(&scenario, 7);
    assert_eq!(a, b);
    assert!(a.submitted > 0);
    assert_eq!(a.deadline_misses, 0);
}

// ----- stream reports pinned byte for byte ----------------------------------
//
// The fixtures were rendered by the harvest loop that visited every site on
// every pass; whatever a pass skips, every gauge (`plan_reservations`,
// `core_busy`, `mem_used`: last and peak), every high-water mark and the
// completion statistics must come out the same.

/// Every deterministic field of a stream report.
fn rendered(report: &StreamReport) -> String {
    let g = &report.guarantee;
    let bits = |x: f64| Json::UInt(x.to_bits());
    let scalars = Json::object(vec![
        ("submitted", Json::UInt(g.submitted)),
        ("accepted_locally", Json::UInt(g.accepted_locally)),
        ("accepted_distributed", Json::UInt(g.accepted_distributed)),
        ("rejected", Json::UInt(g.rejected)),
        ("completed_on_time", Json::UInt(g.completed_on_time)),
        ("deadline_misses", Json::UInt(g.deadline_misses)),
        ("messages_sent", Json::UInt(report.stats.messages_sent)),
        (
            "messages_delivered",
            Json::UInt(report.stats.messages_delivered),
        ),
        ("finished_at_bits", bits(report.finished_at)),
        ("events_processed", Json::UInt(report.events_processed)),
        ("messages_per_job_bits", bits(report.messages_per_job)),
        ("mean_slack_bits", bits(report.mean_slack)),
        ("min_slack_bits", bits(report.min_slack)),
        ("peak_inflight_jobs", Json::UInt(report.peak_inflight_jobs)),
        (
            "peak_plan_reservations",
            Json::UInt(report.peak_plan_reservations),
        ),
        ("peak_queue_len", Json::UInt(report.peak_queue_len)),
        ("harvests", Json::UInt(report.harvests)),
        (
            "unharvested_completions",
            Json::UInt(report.unharvested_completions),
        ),
    ]);
    let doc = Json::object(vec![
        ("scalars", scalars),
        ("metrics", metrics_to_json(&report.metrics, true)),
    ]);
    doc.render() + "\n"
}

/// A single-core 6x6 grid under a load light enough that most sites sit
/// idle through most harvest passes.
fn single_core_stream() -> (RtdsSystem, JobFactory<OpenLoopSource>) {
    let network = grid(6, 6, false, DelayDistribution::Constant(1.0), 21);
    let system = RtdsSystem::new(network, RtdsConfig::default(), 21);
    let jobs = JobFactory::new(poisson(0.3, 600, 0).build(36, 22), JobTemplate::default());
    (system, jobs)
}

/// The registry's `hetero-multicore` recipe (1-4 cores cycled, memory
/// holds, HEFT) on a 4x4 grid with the flow plane on.
fn multicore_flow_stream() -> (RtdsSystem, JobFactory<OpenLoopSource>) {
    let recipe = find_scenario("hetero-multicore").expect("registry scenario");
    let topology = TopologySpec {
        recipe: TopologyRecipe::Grid {
            width: 4,
            height: 4,
            wrap: false,
        },
        bandwidths: BandwidthRecipe::Constant(2.0),
        ..recipe.topology
    };
    let config = RtdsConfig {
        data_volume_aware: true,
        flow_transfers: true,
        ..recipe.config
    };
    let network = topology.build(31);
    let resources = recipe.resources.bundles(network.site_count());
    let system = RtdsSystem::with_resources(network, config, 31, resources);
    let spec = OpenLoopSpec {
        sizes: SizeMix::Uniform { min: 8, max: 14 },
        ..poisson(0.5, 500, 4)
    };
    let jobs = JobFactory::new(spec.build(16, 32), recipe.job_template());
    (system, jobs)
}

/// A 4x4 grid that loses a site for a while and a link for good, mid-run.
fn faulty_stream() -> (RtdsSystem, JobFactory<OpenLoopSource>) {
    let network = grid(4, 4, false, DelayDistribution::Constant(1.0), 41);
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), 41);
    system.schedule_fault(600.0, FaultEvent::SiteDown { site: SiteId(5) });
    system.schedule_fault(1200.0, FaultEvent::SiteUp { site: SiteId(5) });
    let (a, b) = (SiteId(10), SiteId(11));
    system.schedule_fault(900.0, FaultEvent::LinkDown { a, b });
    let jobs = JobFactory::new(poisson(0.15, 400, 0).build(16, 42), JobTemplate::default());
    (system, jobs)
}

#[test]
fn single_core_stream_report_is_pinned() {
    let (mut system, mut jobs) = single_core_stream();
    let report = system.run_streaming(&mut jobs, &StreamOptions::default());
    assert!(report.guarantee.accepted_distributed > 0 && report.harvests > 50);
    assert_eq!(
        rendered(&report),
        include_str!("fixtures/stream_report_single_core.json")
    );
}

#[test]
fn multicore_flow_stream_report_is_pinned() {
    let (mut system, mut jobs) = multicore_flow_stream();
    let report = system.run_streaming(&mut jobs, &StreamOptions::default());
    assert!(report.stats.named("sim_flow_finished") > 0);
    assert!(report
        .metrics
        .gauge("mem_used")
        .is_some_and(|g| g.peak > 0.0));
    assert_eq!(
        rendered(&report),
        include_str!("fixtures/stream_report_multicore_flow.json")
    );
}

#[test]
fn faulty_stream_report_is_pinned() {
    let (mut system, mut jobs) = faulty_stream();
    let report = system.run_streaming(&mut jobs, &StreamOptions::default());
    assert!(report.stats.named("sim_dropped_arrival_site_down") > 0);
    assert_eq!(
        rendered(&report),
        include_str!("fixtures/stream_report_faulty.json")
    );
}

#[test]
fn a_resumed_stream_matches_the_pinned_report() {
    // The restored engine no longer knows which sites the paused run had
    // dispatched to or was still draining; its first harvest pass has to
    // cover them all the same. The pause comes late, when few sites will
    // see another message before the run ends.
    let (mut system, mut jobs) = single_core_stream();
    let pause = StreamPause::AtTime(1840.0);
    let StreamRun::Paused(text) =
        system.run_streaming_checkpoint(&mut jobs, &StreamOptions::default(), &pause)
    else {
        panic!("the stream runs past t = 1840");
    };
    let (_, mut fresh) = single_core_stream();
    let report = RtdsSystem::resume_streaming(&text, &mut fresh).expect("checkpoint resumes");
    assert_eq!(
        rendered(&report),
        include_str!("fixtures/stream_report_single_core.json")
    );
}
