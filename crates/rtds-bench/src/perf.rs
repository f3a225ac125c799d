//! The `rtds-exp perf` fixed suite — the determinism fixture.
//!
//! A deterministic-schema report over a fixed set of seeded workloads,
//! pinned by the recorded `BENCH_5.json`. The suite is the paper-baseline
//! registry scenario (its native 25-site grid) plus three registry scenarios
//! re-scaled to 16, 64 and 256 sites:
//!
//! * `paper-baseline` — the 5×5 evaluation grid with Poisson hotspots,
//! * `paper-baseline/N` — the same recipe on 4×4 / 8×8 / 16×16 grids,
//! * `wide-low-degree/N` — a random spanning tree (every link a bridge,
//!   sphere radius 3 — the routing exchange runs six phases),
//! * `hetero-speed-sites/N` — a connected Erdős–Rényi graph with ~3 average
//!   degree and a 6× speed spread under the §13 uniform-machines extension.
//!
//! Since v4 the report also carries a `flows` section: the three registry
//! flow scenarios (`incast-storm`, `bandwidth-starved-sphere`,
//! `transfer-vs-compute`) at their native sizes, pinning the shared-bandwidth
//! flow plane alongside the scaling tiers.
//!
//! Each workload is one fully deterministic single-threaded simulation and
//! nothing here reads a clock: every field of the report — event counts,
//! message counts, acceptance outcomes — is a pure function of the seed, so
//! two runs are byte-identical. The schema's timing fields (`wall_ms`,
//! `events_per_sec`, `peak_rss_kb`) always render as `null`; speed is
//! measured by `benchmark/`.

use crate::harness::cell_outcome_fields;
use rtds_core::{RtdsConfig, RtdsSystem, StreamOptions, StreamPause, StreamReport, StreamRun};
use rtds_net::generators::{grid, DelayDistribution};
use rtds_scenarios::{
    find_scenario, mix_seed, run_cell, CellReport, Json, Scenario, TopologyRecipe,
};
use rtds_sim::metrics_json::metrics_to_json;
use rtds_workload::{JobFactory, JobTemplate, OpenLoopSource, OpenLoopSpec, RateProcess, SizeMix};

/// Identifier of the report schema (bump on breaking field changes) — the
/// only one `--baseline` accepts; recordings of earlier schemas are history
/// (`docs/bench-history/`), not baselines. Besides the per-workload rows
/// with their deterministic `metrics` sections, a report carries the
/// always-present `soak` section (null unless the optional `--soak`
/// streaming tier ran) and the `flows` section: the three registry flow
/// scenarios run at their native sizes with the same per-workload field set.
pub const PERF_SCHEMA: &str = "rtds-exp-perf/4";

/// The site-count tiers of the scaled scenarios.
pub const PERF_TIERS: [usize; 3] = [16, 64, 256];

/// One workload of the fixed suite: a scenario pinned to a size tier.
#[derive(Debug, Clone)]
pub struct PerfWorkload {
    /// Scenario to run; its name (`scenario` or `scenario/sites`) is the
    /// workload's report name.
    pub scenario: Scenario,
    /// Size tier the workload belongs to (0 for the native paper baseline).
    pub tier: usize,
}

/// Re-scales a registry scenario to a site-count tier.
///
/// # Panics
/// Panics on an unknown scenario name or a tier that is not a square for
/// grid-based scenarios.
pub fn scaled_scenario(name: &str, sites: usize) -> Scenario {
    let mut scenario =
        find_scenario(name).unwrap_or_else(|| panic!("unknown registry scenario {name:?}"));
    scenario.topology.recipe = match scenario.topology.recipe {
        TopologyRecipe::Grid { wrap, .. } => {
            let side = (sites as f64).sqrt().round() as usize;
            assert_eq!(side * side, sites, "grid tier {sites} is not a square");
            TopologyRecipe::Grid {
                width: side,
                height: side,
                wrap,
            }
        }
        TopologyRecipe::RandomTree { .. } => TopologyRecipe::RandomTree { sites },
        TopologyRecipe::ErdosRenyi { .. } => TopologyRecipe::ErdosRenyi {
            sites,
            // Keep the average degree near 3 at every tier so the tiers
            // stress network size, not density.
            edge_prob: 3.0 / (sites as f64 - 1.0),
        },
        other => panic!("scenario {name:?} has an unscalable topology {other:?}"),
    };
    scenario.name = format!("{name}/{sites}");
    scenario
}

/// The registry flow scenarios of the v4 `flows` section, in run order.
/// They run at their native sizes — the section tracks the flow plane's
/// trajectory, not the scaling tiers.
pub const FLOW_SUITE: [&str; 3] = [
    "incast-storm",
    "bandwidth-starved-sphere",
    "transfer-vs-compute",
];

/// The fixed suite, in run order. `smoke` keeps only the native paper
/// baseline and the smallest tier (the CI smoke configuration).
pub fn perf_suite(smoke: bool) -> Vec<PerfWorkload> {
    let mut suite = vec![PerfWorkload {
        scenario: find_scenario("paper-baseline").expect("registry scenario"),
        tier: 0,
    }];
    let tiers: &[usize] = if smoke {
        &PERF_TIERS[..1]
    } else {
        &PERF_TIERS[..]
    };
    for scenario in ["paper-baseline", "wide-low-degree", "hetero-speed-sites"] {
        for &sites in tiers {
            suite.push(PerfWorkload {
                scenario: scaled_scenario(scenario, sites),
                tier: sites,
            });
        }
    }
    suite
}

/// Result of one workload: the scenario cell it ran plus the size of the
/// network the cell was run on.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Size tier (0 for the native paper baseline).
    pub tier: usize,
    /// Sites of the instantiated network.
    pub sites: usize,
    /// Links of the instantiated network.
    pub links: usize,
    /// Outcome counts and full telemetry of the run, every field a pure
    /// function of the seed; `cell.scenario` is the workload's report name.
    pub cell: CellReport,
}

impl WorkloadResult {
    fn to_json(&self) -> Json {
        let cell = &self.cell;
        let mut fields = vec![
            ("name", Json::str(&cell.scenario)),
            ("tier", Json::UInt(self.tier as u64)),
            ("sites", Json::UInt(self.sites as u64)),
            ("links", Json::UInt(self.links as u64)),
        ];
        fields.extend(cell_outcome_fields(cell));
        fields.extend([
            ("guarantee_ratio", Json::Num(cell.guarantee_ratio)),
            ("messages_sent", Json::UInt(cell.messages_sent)),
            ("messages_delivered", Json::UInt(cell.messages_delivered)),
            ("messages_per_job", Json::Num(cell.messages_per_job)),
            ("events_processed", Json::UInt(cell.events_processed)),
            ("finished_at", Json::Num(cell.finished_at)),
            // Full scope detail: phase-labelled routing fan-out summaries
            // render individually.
            ("metrics", metrics_to_json(&cell.metrics, true)),
            ("wall_ms", Json::Null),
            ("events_per_sec", Json::Null),
        ]);
        Json::object(fields)
    }
}

/// Grid side of the soak tier's network (16×16 = 256 sites, the largest
/// regular tier of the suite).
pub const SOAK_SIDE: usize = 16;

/// Result of the optional `--soak <events>` tier: an open-loop Poisson
/// stream driven through a 16×16 grid until the engine's event cap stops
/// it. The workload is unbounded — only the event budget ends the run — so
/// the peak-residency fields prove the streaming path's bounded-memory
/// claim at whatever scale the budget buys.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// The `--soak` event budget (0 when resuming from a snapshot file,
    /// whose engine carries the original cap).
    pub requested_events: u64,
    /// Whether the run went through a checkpoint → resume cycle
    /// (`--checkpoint` / `--resume`) instead of running uninterrupted.
    pub checkpointed: bool,
    /// The stream's report. `events_processed` is the budget up to
    /// quiescence slack; `peak_inflight_jobs` staying bounded and tiny
    /// relative to `guarantee.submitted` is the whole point of the tier.
    /// Unlike the horizon-drained scenarios `unharvested_completions` is not
    /// required to be zero — the cap truncates mid-schedule — but it stays
    /// within the in-flight high-water mark.
    pub report: StreamReport,
}

impl SoakResult {
    fn to_json(&self) -> Json {
        let r = &self.report;
        Json::object(vec![
            ("requested_events", Json::UInt(self.requested_events)),
            ("checkpointed", Json::Bool(self.checkpointed)),
            ("events_processed", Json::UInt(r.events_processed)),
            ("finished_at", Json::Num(r.finished_at)),
            ("submitted", Json::UInt(r.guarantee.submitted)),
            ("accepted_locally", Json::UInt(r.guarantee.accepted_locally)),
            (
                "accepted_distributed",
                Json::UInt(r.guarantee.accepted_distributed),
            ),
            ("deadline_misses", Json::UInt(r.deadline_misses())),
            (
                "unharvested_completions",
                Json::UInt(r.unharvested_completions),
            ),
            ("peak_inflight_jobs", Json::UInt(r.peak_inflight_jobs)),
            (
                "peak_plan_reservations",
                Json::UInt(r.peak_plan_reservations),
            ),
            ("peak_queue_len", Json::UInt(r.peak_queue_len)),
            ("harvests", Json::UInt(r.harvests)),
            ("wall_ms", Json::Null),
            ("events_per_sec", Json::Null),
            ("peak_rss_kb", Json::Null),
        ])
    }
}

/// The soak tier's system: a 16×16 constant-delay grid with the event cap
/// as the only stopping condition.
fn soak_system(seed: u64, max_events: u64) -> RtdsSystem {
    let network = grid(
        SOAK_SIDE,
        SOAK_SIDE,
        false,
        DelayDistribution::Constant(1.0),
        mix_seed(seed, 1),
    );
    let mut system = RtdsSystem::new(network, RtdsConfig::default(), mix_seed(seed, 5));
    system.set_fault_seed(mix_seed(seed, 4));
    system.set_max_events(max_events);
    system
}

/// The soak tier's job source: an unbounded Poisson stream (no horizon, no
/// job cap) — deterministic per seed, which the `--checkpoint`/`--resume`
/// cycle relies on to rebuild it fresh.
fn soak_source(seed: u64) -> JobFactory<OpenLoopSource> {
    let spec = OpenLoopSpec {
        process: RateProcess::Poisson { rate: 1.0 },
        sizes: SizeMix::Uniform { min: 5, max: 9 },
        hotspots: 0,
        horizon: f64::INFINITY,
        max_jobs: 0,
    };
    JobFactory::new(
        spec.build(SOAK_SIDE * SOAK_SIDE, mix_seed(seed, 2)),
        JobTemplate::default(),
    )
}

/// Runs the soak tier for `events` engine events. With `checkpoint_path`
/// set, the run pauses at half the budget, writes the
/// `rtds-stream-snapshot/1` document to the path, then resumes **from the
/// written bytes** with a fresh source — so every checkpointed soak also
/// exercises the full serialize → disk → deserialize cycle, and its report
/// is identical to an uninterrupted run's (a divergence panics).
pub fn run_soak(
    seed: u64,
    events: u64,
    checkpoint_path: Option<&str>,
) -> Result<SoakResult, String> {
    assert!(events > 0, "soak needs a positive event budget");
    let report = match checkpoint_path {
        None => {
            let mut system = soak_system(seed, events);
            let mut source = soak_source(seed);
            system.run_streaming(&mut source, &StreamOptions::default())
        }
        Some(path) => {
            let mut system = soak_system(seed, events);
            let mut live = soak_source(seed);
            match system.run_streaming_checkpoint(
                &mut live,
                &StreamOptions::default(),
                &StreamPause::AfterEvents(events / 2),
            ) {
                StreamRun::Paused(text) => {
                    std::fs::write(path, &text)
                        .map_err(|e| format!("cannot write snapshot {path}: {e}"))?;
                    let written = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot re-read snapshot {path}: {e}"))?;
                    let mut fresh = soak_source(seed);
                    RtdsSystem::resume_streaming(&written, &mut fresh)
                        .map_err(|e| format!("snapshot {path} does not resume: {e}"))?
                }
                StreamRun::Finished(report) => *report,
            }
        }
    };
    Ok(SoakResult {
        requested_events: events,
        checkpointed: checkpoint_path.is_some(),
        report,
    })
}

/// Resumes a soak from a snapshot file written by `--checkpoint` and drives
/// it to its original event cap (the cap rides in the engine snapshot). The
/// seed must match the checkpointed run's so the rebuilt source replays the
/// same stream.
pub fn resume_soak(seed: u64, snapshot: &str) -> Result<SoakResult, String> {
    let mut fresh = soak_source(seed);
    let report = RtdsSystem::resume_streaming(snapshot, &mut fresh)
        .map_err(|e| format!("snapshot does not resume: {e}"))?;
    Ok(SoakResult {
        requested_events: 0,
        checkpointed: true,
        report,
    })
}

/// The aggregate report of one `rtds-exp perf` run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Suite seed.
    pub seed: u64,
    /// Whether the smoke subset ran.
    pub smoke: bool,
    /// One result per workload, in suite order.
    pub workloads: Vec<WorkloadResult>,
    /// One result per [`FLOW_SUITE`] scenario, in order — the v4 `flows`
    /// section. Excluded from `tiers`/`totals`, which stay about the main
    /// suite.
    pub flows: Vec<WorkloadResult>,
    /// The optional `--soak` streaming tier (renders as `null` when absent,
    /// keeping the schema shape fixed).
    pub soak: Option<SoakResult>,
}

impl PerfReport {
    /// Renders the report — the canonical `rtds-exp-perf/4` document, whose
    /// timing fields are always `null`.
    pub fn to_json(&self) -> String {
        let total_events: u64 = self.workloads.iter().map(|w| w.cell.events_processed).sum();
        let mut tiers = Vec::new();
        for &tier in PERF_TIERS.iter() {
            if self.workloads.iter().any(|w| w.tier == tier) {
                let events: u64 = self
                    .workloads
                    .iter()
                    .filter(|w| w.tier == tier)
                    .map(|w| w.cell.events_processed)
                    .sum();
                tiers.push(Json::object(vec![
                    ("sites", Json::UInt(tier as u64)),
                    ("events_processed", Json::UInt(events)),
                    ("events_per_sec", Json::Null),
                ]));
            }
        }
        Json::object(vec![
            ("schema", Json::str(PERF_SCHEMA)),
            ("seed", Json::UInt(self.seed)),
            ("smoke", Json::Bool(self.smoke)),
            (
                "workloads",
                Json::Array(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
            (
                "flows",
                Json::Array(self.flows.iter().map(WorkloadResult::to_json).collect()),
            ),
            ("tiers", Json::Array(tiers)),
            (
                "totals",
                Json::object(vec![
                    ("events_processed", Json::UInt(total_events)),
                    ("wall_ms", Json::Null),
                    ("events_per_sec", Json::Null),
                ]),
            ),
            (
                "soak",
                match &self.soak {
                    Some(soak) => soak.to_json(),
                    None => Json::Null,
                },
            ),
        ])
        .render()
    }
}

/// Recursively nulls the timing fields (`wall_ms`, `events_per_sec`,
/// `peak_rss_kb`) of a parsed report: recordings made while the suite still
/// measured them (`BENCH_5.json`) carry numbers there, [`PerfReport::to_json`]
/// renders `null`.
pub fn null_timings(json: &mut Json) {
    match json {
        Json::Object(fields) => {
            for (key, value) in fields {
                if key == "wall_ms" || key == "events_per_sec" || key == "peak_rss_kb" {
                    *value = Json::Null;
                } else {
                    null_timings(value);
                }
            }
        }
        Json::Array(items) => {
            for item in items {
                null_timings(item);
            }
        }
        _ => {}
    }
}

/// Result of diffing a run against a recorded baseline (`BENCH_5.json`).
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Line-level differences between the timings-nulled renderings, capped
    /// at a handful for readability. Empty = the deterministic fields match
    /// byte-for-byte.
    pub mismatches: Vec<String>,
}

impl BaselineComparison {
    /// Whether the deterministic report fields diverged.
    pub fn fields_match(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Removes the top-level `soak` section from a parsed report. The soak tier
/// is optional and sized by a CLI flag, so it never participates in the
/// baseline byte-comparison — only the fixed suite is pinned.
pub fn strip_soak(json: &mut Json) {
    if let Json::Object(fields) = json {
        fields.retain(|(key, _)| key != "soak");
    }
}

/// Diffs this run against a previously recorded report (`--baseline`): the
/// deterministic fields must match byte-for-byte after nulling timings and
/// dropping the optional `soak` section. The recorded timings are not
/// compared: they come from another machine and single millisecond-long
/// samples, and speed is judged by `benchmark/`. Fails if the baseline is
/// not valid JSON of schema [`PERF_SCHEMA`].
pub fn compare_with_baseline(
    current: &PerfReport,
    baseline_text: &str,
) -> Result<BaselineComparison, String> {
    let mut baseline =
        Json::parse(baseline_text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let schema = baseline.get("schema").and_then(Json::as_str);
    if schema != Some(PERF_SCHEMA) {
        return Err(format!("baseline schema {schema:?} is not {PERF_SCHEMA:?}"));
    }
    null_timings(&mut baseline);
    strip_soak(&mut baseline);
    let canonical_baseline = baseline.render();
    let mut projected = Json::parse(&current.to_json()).expect("our own rendering parses");
    strip_soak(&mut projected);
    let canonical_current = projected.render();
    let mut mismatches = Vec::new();
    if canonical_baseline != canonical_current {
        let old: Vec<&str> = canonical_baseline.lines().collect();
        let new: Vec<&str> = canonical_current.lines().collect();
        for i in 0..old.len().max(new.len()) {
            let a = old.get(i).copied().unwrap_or("<missing>");
            let b = new.get(i).copied().unwrap_or("<missing>");
            if a != b {
                mismatches.push(format!("line {}: baseline {a:?} vs current {b:?}", i + 1));
                if mismatches.len() >= 8 {
                    mismatches.push("...".to_string());
                    break;
                }
            }
        }
    }
    Ok(BaselineComparison { mismatches })
}

/// Runs one workload: the scenario's cell for the seed, exactly as a sweep
/// runs it, plus the size of the network it instantiates.
pub fn run_workload(workload: &PerfWorkload, seed: u64) -> WorkloadResult {
    let network = workload.scenario.build_network(seed);
    WorkloadResult {
        tier: workload.tier,
        sites: network.site_count(),
        links: network.link_count(),
        cell: run_cell(&workload.scenario, seed),
    }
}

/// Runs the full (or smoke) suite for one seed. The [`FLOW_SUITE`] section
/// runs in both modes — the flow scenarios are native-sized and cheap.
pub fn run_perf_suite(seed: u64, smoke: bool) -> PerfReport {
    let workloads = perf_suite(smoke)
        .iter()
        .map(|w| run_workload(w, seed))
        .collect();
    let flows = FLOW_SUITE
        .iter()
        .map(|name| {
            let workload = PerfWorkload {
                scenario: find_scenario(name).expect("registry flow scenario"),
                tier: 0,
            };
            run_workload(&workload, seed)
        })
        .collect();
    PerfReport {
        seed,
        smoke,
        workloads,
        flows,
        soak: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape_is_fixed() {
        let full = perf_suite(false);
        assert_eq!(full.len(), 1 + 3 * PERF_TIERS.len());
        let smoke = perf_suite(true);
        assert_eq!(smoke.len(), 4);
        assert!(smoke.iter().all(|w| w.tier <= 16));
        // Names are unique.
        let mut names: Vec<&str> = full.iter().map(|w| w.scenario.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), full.len());
    }

    #[test]
    fn scaled_scenarios_hit_their_tier_exactly() {
        for name in ["paper-baseline", "wide-low-degree", "hetero-speed-sites"] {
            for &sites in &PERF_TIERS {
                let scenario = scaled_scenario(name, sites);
                let net = scenario.build_network(7);
                assert_eq!(net.site_count(), sites, "{name}/{sites}");
                assert!(net.is_connected(), "{name}/{sites}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown registry scenario")]
    fn scaling_an_unknown_scenario_panics() {
        let _ = scaled_scenario("no-such-scenario", 16);
    }

    #[test]
    fn baseline_comparison_accepts_self_and_flags_differences() {
        let report = run_perf_suite(7, true);
        // A report always matches its own recording — also one made while
        // the suite still filled the timing fields in (BENCH_5.json).
        let cmp = compare_with_baseline(&report, &report.to_json()).unwrap();
        assert!(cmp.fields_match(), "{:?}", cmp.mismatches);
        let timed = report
            .to_json()
            .replace("\"wall_ms\": null", "\"wall_ms\": 1.25");
        assert_ne!(timed, report.to_json());
        let cmp = compare_with_baseline(&report, &timed).unwrap();
        assert!(cmp.fields_match(), "{:?}", cmp.mismatches);
        // A doctored deterministic field is caught with a line diff.
        let tampered = report.to_json().replace("\"seed\": 7", "\"seed\": 8");
        let cmp = compare_with_baseline(&report, &tampered).unwrap();
        assert!(!cmp.fields_match());
        assert!(cmp.mismatches[0].contains("seed"), "{:?}", cmp.mismatches);
        // Garbage and wrong-schema baselines are rejected.
        assert!(compare_with_baseline(&report, "not json").is_err());
        assert!(compare_with_baseline(&report, "{\"schema\": \"other/1\"}\n").is_err());
        let retired = report.to_json().replace(PERF_SCHEMA, "rtds-exp-perf/3");
        assert!(compare_with_baseline(&report, &retired).is_err());
    }

    #[test]
    fn flows_section_is_deterministic_and_actually_flows() {
        let report = run_perf_suite(7, true);
        assert_eq!(report.flows.len(), FLOW_SUITE.len());
        for (flow, name) in report.flows.iter().zip(FLOW_SUITE) {
            assert_eq!(flow.cell.scenario, name);
            assert_eq!(flow.cell.deadline_misses, 0, "{name}");
            assert!(flow.cell.metrics.counter("sim_flow_started") > 0, "{name}");
            assert!(flow.cell.metrics.counter("task_data_sent") > 0, "{name}");
        }
        let again = run_perf_suite(7, true);
        assert_eq!(report.to_json(), again.to_json());
        assert!(report.to_json().contains("\"flows\""));
    }

    #[test]
    fn soak_section_is_ignored_by_the_baseline_diff() {
        // The soak tier is opt-in and CLI-sized, never part of the pinned
        // trajectory: a current report that carries one still matches a
        // baseline recorded without it, and vice versa.
        let baseline = run_perf_suite(7, true);
        let recorded = baseline.to_json();
        let mut with_soak = baseline.clone();
        with_soak.soak = Some(run_soak(7, 5_000, None).unwrap());
        assert!(with_soak.to_json().contains("\"requested_events\": 5000"));
        let cmp = compare_with_baseline(&with_soak, &recorded).unwrap();
        assert!(cmp.fields_match(), "{:?}", cmp.mismatches);
        let cmp = compare_with_baseline(&baseline, &with_soak.to_json()).unwrap();
        assert!(cmp.fields_match(), "{:?}", cmp.mismatches);
    }

    #[test]
    fn soak_runs_deterministically_and_survives_its_checkpoint_cycle() {
        let plain = run_soak(7, 20_000, None).unwrap();
        let again = run_soak(7, 20_000, None).unwrap();
        assert_eq!(plain.to_json().render(), again.to_json().render());
        assert_eq!(plain.requested_events, 20_000);
        assert!(!plain.checkpointed);
        let report = &plain.report;
        assert!(report.events_processed >= 20_000);
        assert_eq!(report.deadline_misses(), 0);
        // The cap truncates mid-schedule, so a handful of accepted jobs may
        // still be in flight — but never more than the in-flight peak.
        assert!(report.unharvested_completions <= report.peak_inflight_jobs);
        assert!(report.guarantee.submitted > 0);
        assert!(
            report.peak_inflight_jobs < report.guarantee.submitted,
            "in-flight state must stay bounded: {} peak vs {} submitted",
            report.peak_inflight_jobs,
            report.guarantee.submitted
        );

        // The checkpointed variant (pause → write → re-read → resume) and a
        // later --resume from the same file both reproduce the plain run's
        // deterministic fields exactly.
        let path = std::env::temp_dir().join("rtds_soak_unit.snapshot.json");
        let path_str = path.to_str().unwrap();
        let through = run_soak(7, 20_000, Some(path_str)).unwrap();
        let snapshot = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(through.checkpointed);
        assert!(snapshot.contains("rtds-stream-snapshot/1"));
        let resumed = resume_soak(7, &snapshot).unwrap();
        let canonical = |r: &SoakResult| {
            r.to_json()
                .render()
                .replace("\"checkpointed\": true", "\"checkpointed\": false")
                .replace("\"requested_events\": 0", "\"requested_events\": 20000")
        };
        assert_eq!(canonical(&through), plain.to_json().render());
        assert_eq!(canonical(&resumed), plain.to_json().render());
    }

    #[test]
    fn smoke_suite_runs_and_non_timing_fields_are_deterministic() {
        let a = run_perf_suite(7, true);
        let b = run_perf_suite(7, true);
        assert_eq!(a.to_json(), b.to_json());
        for w in &a.workloads {
            assert_eq!(w.cell.deadline_misses, 0, "{}", w.cell.scenario);
            assert!(w.cell.events_processed > 0, "{}", w.cell.scenario);
        }
        // Every timing field of the schema renders as null.
        let mut nulled = Json::parse(&a.to_json()).unwrap();
        null_timings(&mut nulled);
        assert_eq!(nulled.render(), a.to_json());
        assert!(a.to_json().contains("\"wall_ms\": null"));
    }
}
