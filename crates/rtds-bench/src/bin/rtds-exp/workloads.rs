//! Streaming open-loop workload runs with trace record/replay (the
//! million-job driver).
//!
//! Builds a square grid, streams jobs from a seeded open-loop arrival
//! process through the bounded-memory execution path of `rtds-core`, and
//! reports throughput plus the memory high-water marks (peak in-flight
//! jobs, peak per-site plan size, peak event-queue length) that prove a run
//! of any length keeps only the in-flight work resident.
//!
//! ```text
//! rtds-exp workloads [--seed <u64>] [--jobs <n>] [--rate <f64>]
//!                    [--process poisson|onoff|diurnal|pareto]
//!                    [--sites <n>] [--hotspots <n>]
//!                    [--record <trace.jsonl>] [--json <path>]
//!                    [--trace-out <p> | --trace-ring <n>] [--chrome-trace <p>]
//! rtds-exp workloads --replay <trace.jsonl> [--json <path>]
//! ```
//!
//! The `--trace-*` flags record the *protocol* span trace (`rtds-trace/1`,
//! see `docs/TRACING.md`) — distinct from the `--record` workload-arrival
//! trace. `--trace-ring` keeps tracing bounded for million-job runs; they
//! also compose with `--replay`.
//!
//! `--rate` is the aggregate arrival rate (jobs per simulated time unit
//! over the whole system) and must be positive; `--jobs` caps the stream
//! length and must be at least 1 (the stream has no other end). `--record`
//! tees every arrival into a JSONL trace whose header carries the full
//! experiment configuration, so `--replay <trace>` reconstructs the run
//! from the file alone — and writes a byte-identical `--json` report, which
//! is the CI round-trip check:
//!
//! ```text
//! rtds-exp workloads --seed 3 --jobs 500 --record t.jsonl --json live.json
//! rtds-exp workloads --replay t.jsonl --json replay.json
//! cmp live.json replay.json
//! ```
//!
//! The acceptance-scale run (`--jobs 1000000`) finishes with a peak
//! resident job count thousands of times smaller than the total (see
//! `docs/WORKLOADS.md` for recorded numbers).

use rtds_bench::{write_json_report, ExpArgs, TraceSetup};
use rtds_core::{RtdsConfig, RtdsSystem, StreamOptions, StreamReport};
use rtds_net::generators::{grid, DelayDistribution};
use rtds_scenarios::{mix_seed, Json};
use rtds_sim::metrics_json::metrics_to_json;
use rtds_workload::{
    JobFactory, JobSpec, JobTemplate, OpenLoopSpec, RateProcess, RecordingSource, SizeMix,
    TraceReader, WorkloadSource,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::time::Instant;

/// Identifier of the report schema (bump on breaking field changes).
/// Version 2 added the deterministic `metrics` section.
const WORKLOADS_SCHEMA: &str = "rtds-exp-workloads/2";

pub(crate) fn run(args: ExpArgs) {
    if args.has("replay") {
        // Replay reconstructs the whole run from the trace header; every
        // live-mode flag would be silently overridden, so reject them all.
        // (The protocol-trace flags stay legal: tracing a replay is how a
        // recorded workload gets inspected.)
        for flag in [
            "record", "seed", "jobs", "rate", "process", "sites", "hotspots",
        ] {
            if args.has(flag) {
                eprintln!(
                    "--replay reconstructs the run from the trace header; it cannot be combined with --{flag}"
                );
                std::process::exit(2);
            }
        }
    }
    match args.value_of("replay") {
        Some(path) => replay(path, &args),
        None => live(&args),
    }
}

/// A live run: generate the stream (optionally teeing it into a trace).
fn live(args: &ExpArgs) {
    let tracing = TraceSetup::from_args(args);
    let seed = args.seed(7);
    let jobs = args.u64_of("jobs", 10_000);
    if jobs == 0 {
        // 0 means "no cap" to the source, and nothing else ends the stream.
        args.usage_error("--jobs: must be at least 1");
    }
    let rate = args.f64_of("rate", 0.5);
    if rate <= 0.0 {
        args.usage_error(&format!("--rate: must be positive, got {rate}"));
    }
    let hotspots = args.usize_of("hotspots", 0);
    let requested_sites = args.usize_of("sites", 64).max(1);
    let side = (requested_sites as f64).sqrt().ceil() as usize;
    let sites = side * side;
    let process_name = args.value_of("process").unwrap_or("poisson");
    let (process, sizes) = pick_process(process_name, rate);

    let spec = OpenLoopSpec {
        process,
        sizes,
        hotspots,
        horizon: f64::INFINITY,
        max_jobs: jobs,
    };
    let source = spec.build(sites, mix_seed(seed, 2));
    println!(
        "rtds-exp workloads: {jobs} jobs, {process_name} rate {rate}, {side}x{side} grid ({sites} sites), seed {seed}"
    );

    // The trace header makes the file self-contained: replay rebuilds the
    // topology and system seeds from it.
    let metadata = [
        ("seed", Json::UInt(seed)),
        ("sites", Json::UInt(sites as u64)),
        ("jobs", Json::UInt(jobs)),
        ("rate", Json::Num(rate)),
        ("process", Json::str(process_name)),
        ("hotspots", Json::UInt(hotspots as u64)),
        ("template", JobTemplate::default().describe()),
    ];
    match args.value_of("record") {
        Some(path) => {
            let file = File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create trace {path}: {e}");
                std::process::exit(1);
            });
            let recording = RecordingSource::new(source, BufWriter::new(file), &metadata)
                .unwrap_or_else(|e| {
                    eprintln!("cannot write trace header to {path}: {e}");
                    std::process::exit(1);
                });
            let (report, recording) = run_stream(recording, seed, side, jobs, &tracing);
            let (_, _writer) = recording.finish().unwrap_or_else(|e| {
                eprintln!("cannot flush trace {path}: {e}");
                std::process::exit(1);
            });
            println!("recorded trace to {path}");
            print_and_write(&report, seed, sites, args);
        }
        None => {
            let (report, _) = run_stream(source, seed, side, jobs, &tracing);
            print_and_write(&report, seed, sites, args);
        }
    }
}

/// A replay run: everything (seeds, topology, workload) comes from the
/// trace, so the deterministic report is byte-identical to the live run's.
fn replay(path: &str, args: &ExpArgs) {
    let tracing = TraceSetup::from_args(args);
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open trace {path}: {e}");
        std::process::exit(1);
    });
    let reader = TraceReader::new(BufReader::new(file));
    let need = |key: &str| {
        reader.header_u64(key).unwrap_or_else(|| {
            eprintln!(
                "trace {path} header is missing {key:?}; was it recorded by rtds-exp workloads?"
            );
            std::process::exit(1);
        })
    };
    let seed = need("seed");
    let sites = need("sites") as usize;
    let jobs = need("jobs");
    // The jobs of a trace are a pure function of (template, spec, time):
    // if the binary's default template has drifted since the recording,
    // replay would silently regenerate different DAGs — refuse instead.
    let current_template = JobTemplate::default().describe();
    match reader.header().get("template") {
        Some(recorded) if *recorded == current_template => {}
        Some(recorded) => {
            eprintln!(
                "trace {path} was recorded with a different job template:\n  recorded: {}\n  current:  {}",
                recorded.render_compact(),
                current_template.render_compact()
            );
            std::process::exit(1);
        }
        None => {
            eprintln!(
                "trace {path} header is missing \"template\"; was it recorded by rtds-exp workloads?"
            );
            std::process::exit(1);
        }
    }
    let side = (sites as f64).sqrt().round() as usize;
    if side * side != sites {
        eprintln!(
            "trace {path} header claims {sites} sites, but rtds-exp workloads builds square grids \
             only — {side}x{side} would give {} sites; the header cannot be honoured",
            side * side
        );
        std::process::exit(1);
    }
    println!("rtds-exp workloads: replaying {path} ({jobs} jobs, {side}x{side} grid, seed {seed})");
    // The header's site count is a claim about the topology, not a fact:
    // guard every replayed arrival against the grid actually built so a
    // hand-edited or corrupted trace fails with a clear message instead of
    // an assertion deep inside the engine.
    let checked = SiteBoundsCheck {
        inner: reader,
        sites,
        path: path.to_string(),
    };
    let (report, _) = run_stream(checked, seed, side, jobs, &tracing);
    print_and_write(&report, seed, sites, args);
}

/// Wraps a replayed trace and validates each arrival's site against the
/// topology actually built (see `replay`).
struct SiteBoundsCheck<S: WorkloadSource> {
    inner: S,
    sites: usize,
    path: String,
}

impl<S: WorkloadSource> WorkloadSource for SiteBoundsCheck<S> {
    fn next_arrival(&mut self) -> Option<(f64, JobSpec)> {
        let (time, spec) = self.inner.next_arrival()?;
        if spec.site >= self.sites {
            eprintln!(
                "trace {} is inconsistent: arrival at t = {time} targets site {} but the header's \
                 topology has only sites 0..{}",
                self.path, spec.site, self.sites
            );
            std::process::exit(1);
        }
        Some((time, spec))
    }
}

/// Maps a `--process` name to an arrival process with aggregate rate
/// `rate` plus the matching size mix.
fn pick_process(name: &str, rate: f64) -> (RateProcess, SizeMix) {
    let default_sizes = SizeMix::Uniform { min: 6, max: 10 };
    match name {
        "poisson" => (RateProcess::Poisson { rate }, default_sizes),
        // 1/3 duty cycle at triple rate plus a trickle between bursts:
        // the time-averaged rate stays close to `rate`.
        "onoff" => (
            RateProcess::OnOff {
                on_rate: 3.0 * rate,
                off_rate: 0.1 * rate,
                mean_on: 40.0,
                mean_off: 80.0,
            },
            default_sizes,
        ),
        // Trough-to-crest swing around `rate` with a 240-unit day.
        "diurnal" => (
            RateProcess::Diurnal {
                base: 0.25 * rate,
                peak: 1.75 * rate,
                period: 240.0,
            },
            default_sizes,
        ),
        // Poisson arrivals with a heavy-tail job-size mix.
        "pareto" => (
            RateProcess::Poisson { rate },
            SizeMix::Pareto {
                alpha: 1.6,
                min: 4,
                cap: 48,
            },
        ),
        other => {
            eprintln!("unknown --process {other:?} (try poisson, onoff, diurnal or pareto)");
            std::process::exit(2);
        }
    }
}

/// Builds the system and streams the whole source through it.
fn run_stream<S: WorkloadSource>(
    source: S,
    seed: u64,
    side: usize,
    jobs: u64,
    tracing: &TraceSetup,
) -> (StreamReport, S) {
    let network = grid(
        side,
        side,
        false,
        DelayDistribution::Constant(1.0),
        mix_seed(seed, 1),
    );
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), mix_seed(seed, 5));
    tracing.install(
        &mut system,
        &[
            ("experiment", Json::str("workloads")),
            ("seed", Json::UInt(seed)),
            ("sites", Json::UInt((side * side) as u64)),
            ("jobs", Json::UInt(jobs)),
        ],
    );
    system.set_fault_seed(mix_seed(seed, 4));
    // Backstop against protocol bugs, far above any real event count.
    system.set_max_events(jobs.max(10_000).saturating_mul(10_000));
    let mut factory = JobFactory::new(source, JobTemplate::default());
    let start = Instant::now();
    let report = system.run_streaming(&mut factory, &StreamOptions::default());
    let wall = start.elapsed();
    tracing.finish(&mut system);
    // The wall clock is nondeterministic and stays on stdout only — the
    // JSON report must be byte-identical between a live run and its replay.
    println!();
    println!(
        "{:>10} jobs in {:.2} s ({:.0} jobs/s, {:.0} events/s)",
        report.guarantee.submitted,
        wall.as_secs_f64(),
        report.guarantee.submitted as f64 / wall.as_secs_f64().max(1e-9),
        report.events_processed as f64 / wall.as_secs_f64().max(1e-9),
    );
    (report, factory.into_source())
}

/// Prints the summary table and writes the canonical (fully deterministic)
/// JSON report.
fn print_and_write(report: &StreamReport, seed: u64, sites: usize, args: &ExpArgs) {
    let g = &report.guarantee;
    println!("{:<22} {:>12}", "submitted", g.submitted);
    println!("{:<22} {:>12}", "accepted locally", g.accepted_locally);
    println!(
        "{:<22} {:>12}",
        "accepted distributed", g.accepted_distributed
    );
    println!("{:<22} {:>12}", "rejected", g.rejected);
    println!(
        "{:<22} {:>12.4}",
        "guarantee ratio",
        report.guarantee_ratio()
    );
    println!("{:<22} {:>12}", "deadline misses", g.deadline_misses);
    println!(
        "{:<22} {:>12.2}",
        "messages per job", report.messages_per_job
    );
    println!("{:<22} {:>12}", "events processed", report.events_processed);
    println!("{:<22} {:>12.1}", "finished at", report.finished_at);
    println!();
    println!("memory high-water marks (streaming keeps these flat):");
    println!(
        "{:<22} {:>12}",
        "  in-flight jobs", report.peak_inflight_jobs
    );
    println!(
        "{:<22} {:>12}",
        "  plan reservations", report.peak_plan_reservations
    );
    println!("{:<22} {:>12}", "  event queue", report.peak_queue_len);
    println!("{:<22} {:>12}", "  harvest passes", report.harvests);

    assert_eq!(
        g.deadline_misses, 0,
        "accepted jobs must never miss deadlines"
    );
    assert_eq!(
        report.unharvested_completions, 0,
        "every accepted job must surface a completion"
    );

    if let Some(path) = args.json_path() {
        write_json_report(path, &to_json(report, seed, sites).render());
    }
}

/// The canonical report: every field is a pure function of the trace (or
/// of the seed and flags that produced it), so live and replay renderings
/// are byte-identical.
fn to_json(report: &StreamReport, seed: u64, sites: usize) -> Json {
    let g = &report.guarantee;
    Json::object(vec![
        ("schema", Json::str(WORKLOADS_SCHEMA)),
        ("seed", Json::UInt(seed)),
        ("sites", Json::UInt(sites as u64)),
        ("submitted", Json::UInt(g.submitted)),
        ("accepted_locally", Json::UInt(g.accepted_locally)),
        ("accepted_distributed", Json::UInt(g.accepted_distributed)),
        ("rejected", Json::UInt(g.rejected)),
        ("guarantee_ratio", Json::Num(report.guarantee_ratio())),
        ("completed_on_time", Json::UInt(g.completed_on_time)),
        ("deadline_misses", Json::UInt(g.deadline_misses)),
        ("messages_sent", Json::UInt(report.stats.messages_sent)),
        (
            "messages_delivered",
            Json::UInt(report.stats.messages_delivered),
        ),
        ("messages_per_job", Json::Num(report.messages_per_job)),
        ("events_processed", Json::UInt(report.events_processed)),
        ("finished_at", Json::Num(report.finished_at)),
        ("mean_slack", Json::Num(report.mean_slack)),
        ("min_slack", Json::Num(report.min_slack)),
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
        // Full telemetry with scope detail (per-site plan gauges, workload
        // inter-arrival jitter, latency/laxity histograms). Every summary
        // is a pure function of the trace, so live and replay renderings
        // stay byte-identical.
        ("metrics", metrics_to_json(&report.metrics, true)),
    ])
}
