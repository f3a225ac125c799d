//! Checkpoint → resume round-trips: a run interrupted mid-flight and
//! resumed from its checkpoint must end exactly like an uninterrupted run —
//! same report, bit-equal floats, byte-identical JSON.
//!
//! A checkpoint is the system's record (what it was built from) plus a pause
//! point, and resuming replays a fresh source to that point. Covers real
//! registry scenarios with both kinds of workload: a pre-built one
//! (`paper-baseline`, and `bandwidth-starved-sphere`, paused with a transfer
//! in flight under a bandwidth brownout) and an open-loop one
//! (`diurnal-wave`), a 1/2/4-thread sweep showing the checkpointed cells are
//! independent of sweep parallelism, an open-ended stream on a 256-site
//! grid that only the event cap stops, and resumes that must be refused: a
//! source of another seed, and a source whose jobs name sites the record's
//! network lacks.

use rtds::core::{RtdsConfig, RtdsSystem, StreamOptions, StreamPause, StreamReport, StreamRun};
use rtds::graph::Job;
use rtds::net::generators::{grid, DelayDistribution};
use rtds::scenarios::{
    find_scenario, mix_seed, parallel_sweep_sharded, run_cell, CellReport, Scenario,
};
use rtds::sim::{metrics_to_json, FaultEvent, Json};
use rtds::workload::{JobFactory, JobTemplate, OpenLoopSpec, RateProcess, SizeMix};

/// A batch scenario's workload exactly as `run_cell` builds it, fresh on
/// every call — which resuming relies on.
fn batch_jobs(scenario: &Scenario, seed: u64) -> std::vec::IntoIter<Job> {
    let network = scenario.build_network(seed);
    scenario.build_workload(&network, seed).into_iter()
}

/// A batch scenario's system exactly as `run_cell` builds it: resource
/// bundles, fault seed, event cap and the expanded perturbation plan.
fn cell_system(scenario: &Scenario, seed: u64) -> RtdsSystem {
    let network = scenario.build_network(seed);
    let faults = scenario.perturbations.expand(&network, mix_seed(seed, 3));
    let bundles = scenario.resources.bundles(network.site_count());
    let mut system =
        RtdsSystem::with_resources(network, scenario.config, mix_seed(seed, 5), bundles);
    system.set_fault_seed(mix_seed(seed, 4));
    system.set_max_events(scenario.max_events);
    for (time, fault) in faults {
        system.schedule_fault(time.max(0.0), fault);
    }
    system
}

/// A batch cell paused at the first harvest boundary at or past `at`,
/// plus its stream checkpoint.
fn paused_batch(scenario: &Scenario, seed: u64, at: f64) -> (RtdsSystem, String) {
    let mut system = cell_system(scenario, seed);
    let mut jobs = batch_jobs(scenario, seed);
    let pause = StreamPause::AtTime(at);
    match system.run_streaming_checkpoint(&mut jobs, &StreamOptions::default(), &pause) {
        StreamRun::Paused(text) => (system, text),
        StreamRun::Finished(_) => panic!("the run must pause before draining"),
    }
}

/// The uninterrupted run of a batch cell.
fn full_batch(scenario: &Scenario, seed: u64) -> StreamReport {
    let mut jobs = batch_jobs(scenario, seed);
    cell_system(scenario, seed).run_streaming(&mut jobs, &StreamOptions::default())
}

#[test]
fn batch_checkpoint_resumes_byte_identically() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let seed = 7;
    let full = full_batch(&scenario, seed);
    assert!(full.guarantee.submitted > 0, "the cell must be non-trivial");

    // Same cell, stopped a third of the way into the horizon and resumed
    // from the text alone.
    let (paused, text) = paused_batch(&scenario, seed, 80.0);
    assert!(
        paused.events_processed() < full.events_processed,
        "the checkpoint must land mid-run"
    );
    assert!(text.contains("rtds-stream-replay/1") && text.contains("rtds-system-record/1"));
    let report = RtdsSystem::resume_streaming(&text, &mut batch_jobs(&scenario, seed))
        .expect("checkpoint resumes");

    // The reports agree structurally (PartialEq on f64 is bit-level here:
    // every value is reproduced exactly, not approximately)...
    assert_eq!(report, full);
    // ...and their rendered telemetry is byte-identical.
    assert_eq!(
        metrics_to_json(&report.metrics, true).render(),
        metrics_to_json(&full.metrics, true).render()
    );
}

#[test]
fn batch_checkpoint_text_round_trips() {
    // A perturbed cell, so the record carries faults, the fault seed and
    // the event cap as well as the construction.
    let scenario = find_scenario("flaky-links").expect("registry scenario");
    let (system, _) = paused_batch(&scenario, 11, 60.0);
    let text = system.checkpoint();
    for part in ["\"faults\": [\n", "\"fault_seed\": ", "\"max_events\": "] {
        assert!(text.contains(part), "the record lacks {part}");
    }
    // checkpoint → resume → checkpoint is the identity on the document.
    let restored = RtdsSystem::resume(&text).expect("checkpoint decodes");
    assert_eq!(restored.checkpoint(), text);
    // The rebuilt system has not run, and runs the cell as `run_cell` does.
    assert_eq!(restored.events_processed(), 0);
    let mut restored = restored;
    let mut jobs = batch_jobs(&scenario, 11);
    let report = restored.run_streaming(&mut jobs, &StreamOptions::default());
    assert!(is_the_cell(&report, &run_cell(&scenario, 11)));
}

/// Whether `report` is the run `run_cell` reported as `cell`.
fn is_the_cell(report: &StreamReport, cell: &CellReport) -> bool {
    (
        report.events_processed,
        report.stats.messages_sent,
        report.finished_at.to_bits(),
    ) == (
        cell.events_processed,
        cell.messages_sent,
        cell.finished_at.to_bits(),
    )
}

/// A system record field the decoder does not read — such as the
/// `submitted` jobs an older writer put there — is refused, not dropped.
#[test]
fn a_system_checkpoint_with_an_unknown_field_is_refused() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let text = cell_system(&scenario, 7).checkpoint();
    let mut doc = Json::parse(&text).expect("checkpoint parses");
    let Json::Object(fields) = &mut doc else {
        panic!("a checkpoint is an object");
    };
    fields.insert(2, ("submitted".to_string(), Json::Array(Vec::new())));
    let refused = RtdsSystem::resume(&doc.render())
        .err()
        .expect("the field is unknown");
    let refused = refused.to_string();
    assert!(
        refused.contains("system.submitted: unknown field"),
        "{refused}"
    );
    assert!(RtdsSystem::resume(&text).is_ok());
}

/// A source whose jobs name sites the record's network lacks — here the
/// jobs of a 64-site cell replayed on a 25-site checkpoint — is refused
/// with the site it named, never a panic.
#[test]
fn a_source_job_at_a_missing_site_is_refused() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let (_, text) = paused_batch(&scenario, 7, 80.0);
    let wide = find_scenario("wide-low-degree").expect("registry scenario");
    assert!(wide.build_network(7).site_count() > scenario.build_network(7).site_count());
    let refused = RtdsSystem::resume_streaming(&text, &mut batch_jobs(&wide, 7))
        .expect_err("the site does not exist")
        .to_string();
    assert!(
        refused.contains("stream: ") && refused.contains("lacks"),
        "{refused}"
    );
}

/// Resuming from a fresh source of another seed reaches the pause point in
/// another state, and the digest says so.
#[test]
fn a_source_of_another_seed_fails_the_digest() {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let mut system = diurnal_system(&scenario, 3);
    let pause = StreamPause::AtTime(180.0);
    let options = StreamOptions::default();
    let StreamRun::Paused(text) =
        system.run_streaming_checkpoint(&mut diurnal_source(&scenario, 3), &options, &pause)
    else {
        panic!("the run must pause before draining");
    };
    let refused = RtdsSystem::resume_streaming(&text, &mut diurnal_source(&scenario, 4))
        .expect_err("another seed is another run")
        .to_string();
    assert!(refused.contains("stream.digest: "), "{refused}");
    assert!(RtdsSystem::resume_streaming(&text, &mut diurnal_source(&scenario, 3)).is_ok());
}

/// `bandwidth-starved-sphere` — transfers contending for starved links
/// under a bandwidth brownout — paused with a transfer in flight and
/// resumed, ends with the uninterrupted cell's report.
#[test]
fn a_bandwidth_starved_sphere_paused_mid_transfer_resumes_identically() {
    let scenario = find_scenario("bandwidth-starved-sphere").expect("registry scenario");
    let seed = 7;
    let network = scenario.build_network(seed);
    let brownouts = scenario
        .perturbations
        .expand(&network, mix_seed(seed, 3))
        .into_iter()
        .filter(|(_, fault)| matches!(fault, FaultEvent::SetLinkBandwidth { .. }))
        .count();
    assert!(brownouts > 0, "the cell must re-solve under brownouts");
    let full = full_batch(&scenario, seed);
    assert!(full.stats.named("sim_flow_finished") > 0);
    assert!(is_the_cell(&full, &run_cell(&scenario, seed)));

    let (paused, text) = paused_batch(&scenario, seed, PAUSE_MID_TRANSFER);
    // The same cell capped at the paused run's event count stops where the
    // pause did: a flow it started and did not finish was in flight there.
    let mut capped = cell_system(&scenario, seed);
    capped.set_max_events(paused.events_processed());
    let mut jobs = batch_jobs(&scenario, seed);
    let at_pause = capped.run_streaming(&mut jobs, &StreamOptions::default());
    assert_eq!(at_pause.events_processed, paused.events_processed());
    let in_flight =
        at_pause.stats.named("sim_flow_started") - at_pause.stats.named("sim_flow_finished");
    assert!(in_flight > 0, "the pause must land mid-transfer");

    let report = RtdsSystem::resume_streaming(&text, &mut batch_jobs(&scenario, seed))
        .expect("checkpoint resumes");
    assert_eq!(report, full);
}

/// A harvest boundary of `bandwidth-starved-sphere` seed 7 with a transfer
/// in flight (the test above checks that it still is one).
const PAUSE_MID_TRANSFER: f64 = 120.0;

/// The `diurnal-wave` streaming cell's job source, rebuilt fresh each time
/// exactly as `run_cell` does — deterministic per seed, which is what
/// resuming relies on.
fn diurnal_source(scenario: &Scenario, seed: u64) -> JobFactory<rtds::workload::OpenLoopSource> {
    let stream = scenario.stream.expect("diurnal-wave streams");
    let site_count = scenario.build_network(seed).site_count();
    JobFactory::new(
        stream.open_loop.build(site_count, mix_seed(seed, 2)),
        scenario.job_template(),
    )
}

fn diurnal_system(scenario: &Scenario, seed: u64) -> RtdsSystem {
    RtdsSystem::new(
        scenario.build_network(seed),
        scenario.config,
        mix_seed(seed, 5),
    )
}

#[test]
fn streaming_checkpoint_resumes_byte_identically() {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let seed = 3;
    let options = StreamOptions::default();

    let mut uninterrupted = diurnal_system(&scenario, seed);
    let mut source = diurnal_source(&scenario, seed);
    let full = uninterrupted.run_streaming(&mut source, &options);
    assert!(full.guarantee.submitted > 0, "the cell must be non-trivial");

    // Pause mid-run (the scenario horizon is 360) and resume with a fresh
    // instance of the same source.
    let mut paused = diurnal_system(&scenario, seed);
    let mut live = diurnal_source(&scenario, seed);
    let text =
        match paused.run_streaming_checkpoint(&mut live, &options, &StreamPause::AtTime(180.0)) {
            StreamRun::Paused(text) => text,
            StreamRun::Finished(_) => panic!("the run must pause before draining"),
        };
    assert!(text.contains("rtds-stream-replay/1"));

    let mut fresh = diurnal_source(&scenario, seed);
    let resumed = RtdsSystem::resume_streaming(&text, &mut fresh).expect("checkpoint resumes");
    assert_eq!(resumed, full);
    assert_eq!(
        metrics_to_json(&resumed.metrics, true).render(),
        metrics_to_json(&full.metrics, true).render()
    );
}

#[test]
fn streaming_pause_past_the_end_just_finishes() {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let seed = 5;
    let options = StreamOptions::default();

    let mut plain = diurnal_system(&scenario, seed);
    let mut source = diurnal_source(&scenario, seed);
    let full = plain.run_streaming(&mut source, &options);

    // A pause point the run never reaches must not truncate it.
    let mut checkpointed = diurnal_system(&scenario, seed);
    let mut live = diurnal_source(&scenario, seed);
    match checkpointed.run_streaming_checkpoint(&mut live, &options, &StreamPause::AtTime(1.0e9)) {
        StreamRun::Finished(report) => assert_eq!(*report, full),
        StreamRun::Paused(_) => panic!("nothing left to pause for"),
    }
}

/// One `diurnal-wave` cell, interrupted by event count and resumed — the
/// unit of work for the thread-sweep comparison below.
fn checkpointed_stream_cell(seed: u64) -> StreamReport {
    let scenario = find_scenario("diurnal-wave").expect("registry scenario");
    let options = StreamOptions::default();
    let mut system = diurnal_system(&scenario, seed);
    let mut live = diurnal_source(&scenario, seed);
    match system.run_streaming_checkpoint(&mut live, &options, &StreamPause::AfterEvents(2_000)) {
        StreamRun::Paused(text) => {
            let mut fresh = diurnal_source(&scenario, seed);
            RtdsSystem::resume_streaming(&text, &mut fresh).expect("checkpoint resumes")
        }
        StreamRun::Finished(report) => *report,
    }
}

#[test]
fn checkpointed_cells_are_independent_of_sweep_threads() {
    let seeds: Vec<u64> = vec![1, 2, 4];
    let single = parallel_sweep_sharded(seeds.clone(), 1, checkpointed_stream_cell);
    let double = parallel_sweep_sharded(seeds.clone(), 2, checkpointed_stream_cell);
    let quad = parallel_sweep_sharded(seeds.clone(), 4, checkpointed_stream_cell);
    assert_eq!(single, double);
    assert_eq!(single, quad);
    // And each checkpointed cell equals its uninterrupted twin.
    for (i, seed) in seeds.iter().enumerate() {
        let scenario = find_scenario("diurnal-wave").expect("registry scenario");
        let mut system = diurnal_system(&scenario, *seed);
        let mut source = diurnal_source(&scenario, *seed);
        let full = system.run_streaming(&mut source, &StreamOptions::default());
        assert_eq!(single[i], full, "seed {seed}");
    }
}

/// An open-ended Poisson stream that only the event cap stops, on a 16×16
/// constant-delay grid (256 sites): the cap rides in the record, so the
/// resumed run stops exactly where the uninterrupted one did, and the
/// truncated run keeps its in-flight state bounded.
#[test]
fn a_capped_open_ended_stream_resumes_to_its_cap() {
    const CAP: u64 = 20_000;
    const SIDE: usize = 16;
    let seed = 7;
    let system = || {
        let network = grid(
            SIDE,
            SIDE,
            false,
            DelayDistribution::Constant(1.0),
            mix_seed(seed, 1),
        );
        let mut system = RtdsSystem::new(network, RtdsConfig::default(), mix_seed(seed, 5));
        system.set_fault_seed(mix_seed(seed, 4));
        system.set_max_events(CAP);
        system
    };
    let source = || {
        let spec = OpenLoopSpec {
            process: RateProcess::Poisson { rate: 1.0 },
            sizes: SizeMix::Uniform { min: 5, max: 9 },
            hotspots: 0,
            horizon: f64::INFINITY,
            max_jobs: 0,
        };
        JobFactory::new(
            spec.build(SIDE * SIDE, mix_seed(seed, 2)),
            JobTemplate::default(),
        )
    };
    let options = StreamOptions::default();
    let full = system().run_streaming(&mut source(), &options);
    assert!(full.events_processed >= CAP);
    assert_eq!(full.deadline_misses(), 0);
    // The cap truncates mid-schedule, so a few accepted jobs may still be
    // in flight — never more than the in-flight peak, which stays below the
    // jobs submitted.
    assert!(full.unharvested_completions <= full.peak_inflight_jobs);
    assert!(
        full.peak_inflight_jobs < full.guarantee.submitted,
        "{} in flight at peak of {} submitted",
        full.peak_inflight_jobs,
        full.guarantee.submitted
    );

    let pause = StreamPause::AfterEvents(CAP / 2);
    let StreamRun::Paused(text) =
        system().run_streaming_checkpoint(&mut source(), &options, &pause)
    else {
        panic!("the run must pause before its cap");
    };
    let resumed = RtdsSystem::resume_streaming(&text, &mut source()).expect("checkpoint resumes");
    assert_eq!(resumed, full);
}
