//! Checkpoint → restore round-trips: a run interrupted mid-flight and
//! resumed from its serialized snapshot must end in exactly the state of an
//! uninterrupted run — same report, bit-equal floats, byte-identical JSON.
//!
//! Covers real registry scenarios with both kinds of workload: a
//! pre-built one (`paper-baseline`, whose system checkpoint at the pause —
//! [`RtdsSystem::checkpoint`] / [`RtdsSystem::resume`] — must be a byte
//! fixpoint) and an open-loop one (`diurnal-wave`), both paused via
//! [`RtdsSystem::run_streaming_checkpoint`] and resumed with a fresh
//! deterministic job source, plus a 1/2/4-thread sweep showing the
//! checkpointed cells are independent of sweep parallelism, and an
//! open-ended stream on a 256-site grid that only the event cap stops.

use rtds::core::{RtdsConfig, RtdsSystem, StreamOptions, StreamPause, StreamReport, StreamRun};
use rtds::graph::Job;
use rtds::net::generators::{grid, DelayDistribution};
use rtds::scenarios::{find_scenario, mix_seed, parallel_sweep_sharded, Scenario};
use rtds::sim::{metrics_to_json, Json};
use rtds::workload::{JobFactory, JobTemplate, OpenLoopSpec, RateProcess, SizeMix};

/// The `paper-baseline` workload exactly as `run_cell` builds it, fresh on
/// every call — which resuming relies on.
fn batch_jobs(scenario: &Scenario, seed: u64) -> std::vec::IntoIter<Job> {
    let network = scenario.build_network(seed);
    scenario.build_workload(&network, seed).into_iter()
}

fn batch_system(scenario: &Scenario, seed: u64) -> RtdsSystem {
    let network = scenario.build_network(seed);
    RtdsSystem::new(network, scenario.config, mix_seed(seed, 5))
}

/// A `paper-baseline` system paused at the first harvest boundary at or
/// past `at`, plus its stream checkpoint.
fn paused_batch(scenario: &Scenario, seed: u64, at: f64) -> (RtdsSystem, String) {
    let mut system = batch_system(scenario, seed);
    let mut jobs = batch_jobs(scenario, seed);
    let pause = StreamPause::AtTime(at);
    match system.run_streaming_checkpoint(&mut jobs, &StreamOptions::default(), &pause) {
        StreamRun::Paused(text) => (system, text),
        StreamRun::Finished(_) => panic!("the run must pause before draining"),
    }
}

#[test]
fn batch_checkpoint_resumes_byte_identically() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let seed = 7;

    let mut uninterrupted = batch_system(&scenario, seed);
    uninterrupted.submit_workload(batch_jobs(&scenario, seed).collect());
    let (full, _) = uninterrupted.run();
    assert!(full.guarantee.submitted > 0, "the cell must be non-trivial");

    // Same cell, stopped a third of the way into the horizon, serialized,
    // restored and driven to quiescence.
    let (paused, text) = paused_batch(&scenario, seed, 80.0);
    assert!(
        paused.events_processed() < full.events_processed,
        "the checkpoint must land mid-run"
    );
    assert!(text.contains("rtds-system-snapshot/1"));
    let (resumed, report) =
        RtdsSystem::resume_streaming_system(&text, &mut batch_jobs(&scenario, seed))
            .expect("checkpoint decodes");

    // The reports agree structurally (PartialEq on f64 is bit-level here:
    // every value is reproduced exactly, not approximately)...
    assert_eq!(report, full);
    // ...their rendered telemetry is byte-identical...
    assert_eq!(
        metrics_to_json(&report.metrics, true).render(),
        metrics_to_json(&full.metrics, true).render()
    );
    // ...and so is the final engine state itself.
    assert_eq!(resumed.checkpoint(), uninterrupted.checkpoint());
}

#[test]
fn batch_checkpoint_text_round_trips() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let (system, _) = paused_batch(&scenario, 11, 60.0);
    let text = system.checkpoint();
    // checkpoint → resume → checkpoint is the identity on the document.
    let restored = RtdsSystem::resume(&text).expect("checkpoint decodes");
    assert_eq!(restored.checkpoint(), text);
}

/// Jobs submitted but not yet run are part of the system state: a checkpoint
/// taken before the run resumes to the same run.
#[test]
fn submitted_jobs_travel_in_the_checkpoint() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let submitted = || {
        let mut system = batch_system(&scenario, 7);
        system.submit_workload(batch_jobs(&scenario, 7).collect());
        system
    };
    let text = submitted().checkpoint();
    let mut resumed = RtdsSystem::resume(&text).expect("checkpoint decodes");
    assert_eq!(resumed.checkpoint(), text);
    assert_eq!(resumed.run(), submitted().run());
    // A submitted job at a site the network lacks is refused.
    let sites = scenario.build_network(7).site_count();
    let mut doc = Json::parse(&text).expect("checkpoint parses");
    let Json::Object(fields) = &mut doc else {
        panic!("a checkpoint is an object");
    };
    let submitted = fields.iter_mut().find(|(k, _)| k == "submitted");
    let Some((_, Json::Array(jobs))) = submitted else {
        panic!("submitted is an array");
    };
    let Json::Object(job) = &mut jobs[0] else {
        panic!("a job is an object");
    };
    let site = job.iter_mut().find(|(k, _)| k == "site");
    site.expect("a job names its site").1 = Json::UInt(sites as u64);
    let refused = RtdsSystem::resume(&doc.render())
        .err()
        .expect("the site does not exist");
    assert!(refused.to_string().contains("outside"), "{refused}");
}

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

    // Pause mid-run (the scenario horizon is 360), serialize, resume with a
    // fresh instance of the same source.
    let mut paused = diurnal_system(&scenario, seed);
    let mut live = diurnal_source(&scenario, seed);
    let text =
        match paused.run_streaming_checkpoint(&mut live, &options, &StreamPause::AtTime(180.0)) {
            StreamRun::Paused(text) => text,
            StreamRun::Finished(_) => panic!("the run must pause before draining"),
        };
    assert!(text.contains("rtds-stream-snapshot/1"));

    let mut fresh = diurnal_source(&scenario, seed);
    let resumed = RtdsSystem::resume_streaming(&text, &mut fresh).expect("checkpoint decodes");
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
            RtdsSystem::resume_streaming(&text, &mut fresh).expect("checkpoint decodes")
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
/// constant-delay grid (256 sites): the cap rides in the checkpoint, so the
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
    let resumed = RtdsSystem::resume_streaming(&text, &mut source()).expect("checkpoint decodes");
    assert_eq!(resumed, full);
}

/// Applies `mutate` to the first scheduler plan of a checkpoint document
/// that holds at least two reservations; `false` if there is none.
fn tamper_with_a_plan(doc: &mut Json, mutate: fn(&mut Vec<Json>)) -> bool {
    match doc {
        Json::Object(fields) => fields.iter_mut().any(|(key, value)| match value {
            Json::Array(plans) if key == "plans" => plans.iter_mut().any(|plan| match plan {
                Json::Array(rows) if rows.len() >= 2 => {
                    mutate(rows);
                    true
                }
                _ => false,
            }),
            other => tamper_with_a_plan(other, mutate),
        }),
        Json::Array(items) => items
            .iter_mut()
            .any(|item| tamper_with_a_plan(item, mutate)),
        _ => false,
    }
}

/// The plan queries rely on reservations being sorted and disjoint, so a
/// checkpoint whose plan breaks that — two reservations swapped, or two made
/// to overlap — is refused with a `SnapshotError`, never a panic.
#[test]
fn tampered_plans_are_refused_not_trusted() {
    let scenario = find_scenario("paper-baseline").expect("registry scenario");
    let (system, _) = paused_batch(&scenario, 7, 80.0);
    let text = system.checkpoint();
    let tampered = |mutate: fn(&mut Vec<Json>)| {
        let mut doc = Json::parse(&text).expect("checkpoint parses");
        assert!(
            tamper_with_a_plan(&mut doc, mutate),
            "the checkpoint must hold a plan with two reservations"
        );
        doc.render()
    };
    let swapped = tampered(|rows| rows.swap(0, 1));
    let overlapping = tampered(|rows| {
        // The second reservation now starts where the first does.
        let start = rows[0].items().expect("reservation row")[2].clone();
        let Json::Array(second) = &mut rows[1] else {
            panic!("reservation row");
        };
        second[2] = start;
    });
    for (what, text) in [("swapped", swapped), ("overlapping", overlapping)] {
        let refused = RtdsSystem::resume(&text).err().expect(what);
        assert!(refused.to_string().contains("plan"), "{what}: {refused}");
    }
    assert!(RtdsSystem::resume(&text).is_ok());
}
