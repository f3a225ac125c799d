//! Record/replay and streaming-equivalence properties of the workload
//! subsystem, per arrival process:
//!
//! * recording a source and replaying the trace yields the identical
//!   arrival stream, and re-recording the replay reproduces the trace
//!   byte-for-byte (the "identical event trace" property),
//! * a live streaming run and a replayed-trace streaming run produce the
//!   identical scenario report,
//! * streaming a source and running its materialized jobs (all up front,
//!   [`RtdsSystem::run`]) agree on every deterministic report field.

use proptest::prelude::*;
use rtds_core::{RtdsConfig, RtdsSystem, StreamOptions, StreamReport};
use rtds_net::generators::{grid, DelayDistribution};
use rtds_sim::json::Json;
use rtds_workload::{
    materialize, reader_from_string, record_to_string, JobFactory, JobTemplate, OpenLoopSpec,
    RateProcess, SizeMix, WorkloadSource,
};

/// One configuration per arrival process family (plus the heavy-tail size
/// mix riding on Poisson arrivals).
fn processes() -> Vec<(&'static str, OpenLoopSpec)> {
    let sizes = SizeMix::Uniform { min: 5, max: 9 };
    let base = |process| OpenLoopSpec {
        process,
        sizes,
        hotspots: 0,
        horizon: 150.0,
        max_jobs: 90,
    };
    vec![
        ("poisson", base(RateProcess::Poisson { rate: 0.6 })),
        (
            "onoff",
            base(RateProcess::OnOff {
                on_rate: 1.5,
                off_rate: 0.05,
                mean_on: 20.0,
                mean_off: 30.0,
            }),
        ),
        (
            "diurnal",
            base(RateProcess::Diurnal {
                base: 0.1,
                peak: 1.4,
                period: 100.0,
            }),
        ),
        (
            "pareto-sizes",
            OpenLoopSpec {
                sizes: SizeMix::Pareto {
                    alpha: 1.6,
                    min: 4,
                    cap: 24,
                },
                ..base(RateProcess::Poisson { rate: 0.5 })
            },
        ),
    ]
}

const SITES: usize = 9;

fn drain(mut source: impl WorkloadSource) -> Vec<(f64, rtds_workload::JobSpec)> {
    let mut out = Vec::new();
    while let Some(a) = source.next_arrival() {
        out.push(a);
    }
    out
}

fn stream_run(source: impl WorkloadSource, seed: u64) -> StreamReport {
    let network = grid(3, 3, false, DelayDistribution::Constant(1.0), seed);
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), seed);
    let mut factory = JobFactory::new(source, JobTemplate::default());
    system.run_streaming(&mut factory, &StreamOptions::default())
}

#[test]
fn record_replay_is_identical_per_process_and_seed() {
    for (name, spec) in processes() {
        for seed in [1u64, 2, 3] {
            let metadata = [("seed", Json::UInt(seed))];
            let trace = record_to_string(&mut spec.build(SITES, seed), &metadata);

            // The replayed arrival stream equals the live stream exactly.
            let live = drain(spec.build(SITES, seed));
            let replayed = drain(reader_from_string(trace.clone()));
            assert_eq!(live, replayed, "{name} seed {seed}");
            assert!(!live.is_empty(), "{name} seed {seed} emitted nothing");

            // Re-recording the replay reproduces the trace byte-for-byte.
            let again = record_to_string(&mut reader_from_string(trace.clone()), &metadata);
            assert_eq!(again, trace, "{name} seed {seed} trace round-trip");

            // Live streaming run vs replayed-trace run: identical report.
            let live_report = stream_run(spec.build(SITES, seed), seed);
            let replay_report = stream_run(reader_from_string(trace), seed);
            assert_eq!(live_report, replay_report, "{name} seed {seed} report");
            assert_eq!(live_report.deadline_misses(), 0, "{name} seed {seed}");
            assert_eq!(live_report.unharvested_completions, 0, "{name} seed {seed}");
        }
    }
}

#[test]
fn streaming_and_batch_execution_agree_per_process_and_seed() {
    for (name, spec) in processes() {
        for seed in [4u64, 5, 6] {
            let label = format!("{name} seed {seed}");
            let jobs = materialize(spec.build(SITES, seed), JobTemplate::default());
            assert!(!jobs.is_empty(), "{label}");

            let network = grid(3, 3, false, DelayDistribution::Constant(1.0), seed);
            let mut batch = RtdsSystem::new(network, RtdsConfig::default(), seed);
            let (batch_report, records) = batch.run(jobs.clone());
            assert_eq!(records.len(), jobs.len(), "{label}");

            // The same loop: only the source's own telemetry differs.
            let stream_report = stream_run(spec.build(SITES, seed), seed);
            let mut without_source_metrics = stream_report.clone();
            without_source_metrics.metrics = batch_report.metrics.clone();
            assert_eq!(without_source_metrics, batch_report, "{label}");
            // The streaming run keeps fewer jobs resident than it submits.
            assert!(
                stream_report.peak_inflight_jobs <= stream_report.guarantee.submitted,
                "{label}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary seeds and rates: traces are sorted, within the horizon,
    /// respect the job cap, and survive the record → replay → re-record
    /// fixpoint byte-for-byte.
    #[test]
    fn trace_fixpoint_for_arbitrary_poisson_streams(
        seed in 0u64..10_000,
        rate in 0.05f64..2.0,
        max_jobs in 1u64..60,
    ) {
        let spec = OpenLoopSpec {
            process: RateProcess::Poisson { rate },
            sizes: SizeMix::Uniform { min: 3, max: 12 },
            hotspots: 0,
            horizon: 200.0,
            max_jobs,
        };
        let trace = record_to_string(&mut spec.build(SITES, seed), &[]);
        let arrivals = drain(reader_from_string(trace.clone()));
        prop_assert!(arrivals.len() as u64 <= max_jobs);
        prop_assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert!(arrivals.iter().all(|(t, s)| *t < 200.0 && s.site < SITES));
        let again = record_to_string(&mut reader_from_string(trace.clone()), &[]);
        prop_assert_eq!(again, trace);
    }
}
