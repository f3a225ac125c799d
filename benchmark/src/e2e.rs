//! The tracing-off run protocol behind the end-to-end metrics.
//!
//! One untimed warm-up repetition (it also fixes the reference digest),
//! then timed repetitions — each on freshly built inputs and a fresh
//! system, same seed — until `--seconds` of timed region have been measured
//! (at least [`MIN_REPS`], at most [`MAX_REPS`]). After each timed
//! repetition the workload is set up (not run) [`SETUPS_PER_REP`] more
//! times, so the `setup_s` samples (about 35 at five repetitions) spread
//! over the whole run and one noisy moment cannot set their median; the
//! warm-up's first-touch page faults are excluded. `peak_rss_mb` is read at
//! the end (a set-up allocates less than a run, so it cannot raise it).
//!
//! `jobs_per_s` is jobs ÷ the **fastest** timed repetition. Every timed
//! repetition does identical work, so on a shared box the spread between
//! them is interference, which only ever adds time: measured on the
//! 2-core sandbox, the median of five repetitions spreads 7-12 % between
//! runs and the minimum 2 %. The median and quartiles of the timed region
//! are reported beside it (`notes`, `results.json`).

use crate::spans::Recorder;
use crate::stats::Quartiles;
use crate::workloads::{run_plain, set_up_only, Repetition, RunSummary};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest timed repetitions of a run.
pub const MIN_REPS: usize = 3;
/// Most timed repetitions of a run.
pub const MAX_REPS: usize = 12;
/// A run stops adding repetitions after this long, whatever `--seconds`
/// says (the driver allows 180 s per run).
const HARD_STOP_S: f64 = 120.0;
/// Extra set-ups after each timed repetition (cheap next to a repetition).
pub const SETUPS_PER_REP: usize = 6;
/// One batch of extra set-ups stops after this long even if short of
/// samples.
const SETUP_BATCH_BUDGET_S: f64 = 0.3;

/// The measured outcome of one run: named values plus the correctness
/// verdict the driver reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
    /// Jobs attempted in the measured repetitions.
    pub attempted: u64,
    /// Jobs that failed (see `RunSummary::failed`), plus every job of a
    /// repetition that broke a correctness fence.
    pub failed: u64,
    /// `failed == 0` and no fence tripped.
    pub correct: bool,
    /// Hash of the deterministic report fields ("simulated statistics
    /// identical" in one line).
    pub sim_digest: u64,
    /// Extra facts for the human-readable report and `results.json`:
    /// quartiles of the timings, sample counts, fence messages.
    pub notes: BTreeMap<String, f64>,
    /// Fences that tripped.
    pub fences: Vec<String>,
}

impl Outcome {
    /// An empty outcome to fill in.
    pub fn new() -> Self {
        Outcome {
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            sim_digest: 0,
            notes: BTreeMap::new(),
            fences: Vec::new(),
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a tripped fence: the run is incorrect and `jobs` more jobs
    /// count as failed (never more than were attempted).
    pub fn fence(&mut self, jobs: u64, message: String) {
        eprintln!("FENCE: {message}");
        self.failed = (self.failed + jobs).min(self.attempted);
        self.correct = false;
        self.fences.push(message);
    }

    fn note_quartiles(&mut self, prefix: &str, q: Quartiles) {
        self.notes.insert(format!("{prefix}.q1"), q.q1);
        self.notes.insert(format!("{prefix}.median"), q.median);
        self.notes.insert(format!("{prefix}.q3"), q.q3);
        self.notes.insert(format!("{prefix}.n"), q.n as f64);
    }
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`); 0 where the file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks one repetition against the reference summary; returns the fence
/// message if it must count as failed as a whole.
pub fn check_repetition(
    reference: &RunSummary,
    rep: &RunSummary,
    expected_jobs: Option<u64>,
) -> Option<String> {
    if let Some(expected) = expected_jobs {
        if rep.jobs != expected {
            return Some(format!(
                "run stopped after {} of {expected} jobs (event cap or source cut short)",
                rep.jobs
            ));
        }
    }
    if !rep.accounting_holds() {
        return Some(format!(
            "accounting broke: submitted {} != local {} + distributed {} + rejected {}",
            rep.jobs, rep.accepted_locally, rep.accepted_distributed, rep.rejected
        ));
    }
    if rep.digest != reference.digest {
        return Some(format!(
            "deterministic digest {:016x} differs from repetition 1's {:016x}",
            rep.digest, reference.digest
        ));
    }
    None
}

/// Runs the tracing-off protocol on one workload and returns the
/// end-to-end metrics.
pub fn run_end_to_end(name: &str, seed: u64, seconds: f64, scale: f64) -> Outcome {
    let started = Instant::now();
    let expected_jobs = crate::workloads::stream_plan(name, scale).map(|p| p.jobs());
    let mut rec = Recorder::new();
    let warm_up = run_plain(name, seed, scale, &mut rec);
    let reference = warm_up.summary;

    let mut reps: Vec<Repetition> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < MIN_REPS
        || (measured < seconds
            && reps.len() < MAX_REPS
            && started.elapsed().as_secs_f64() < HARD_STOP_S)
    {
        let rep = run_plain(name, seed, scale, &mut rec);
        measured += rep.wall_s;
        setups.push(rep.setup_s);
        reps.push(rep);
        let batch = Instant::now();
        for _ in 0..SETUPS_PER_REP {
            if batch.elapsed().as_secs_f64() >= SETUP_BATCH_BUDGET_S {
                break;
            }
            setups.push(set_up_only(name, seed, scale, &mut rec));
        }
    }
    let rss = peak_rss_mb();

    let mut out = Outcome::new();
    out.sim_digest = reference.digest;
    for rep in &reps {
        out.attempted += rep.summary.jobs;
        out.failed += rep.summary.failed;
    }
    if out.failed > 0 {
        out.correct = false;
    }
    for (index, rep) in reps.iter().enumerate() {
        if let Some(message) = check_repetition(&reference, &rep.summary, expected_jobs) {
            out.fence(
                rep.summary.jobs,
                format!("repetition {}: {message}", index + 2),
            );
        }
    }

    let jobs = reference.jobs as f64;
    let of =
        |f: &dyn Fn(&Repetition) -> f64| Quartiles::of(&reps.iter().map(f).collect::<Vec<_>>());
    let setup = Quartiles::of(&setups);
    let wall = of(&|r| r.wall_s);
    let fastest = reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    let allocs = of(&|r| r.allocs.calls as f64);
    let bytes = of(&|r| r.allocs.bytes as f64);
    if allocs.q1 != allocs.q3 || bytes.q1 != bytes.q3 {
        eprintln!(
            "note: allocation counts differ between timed repetitions ({}..{} calls)",
            allocs.q1, allocs.q3
        );
    }
    out.set("setup_s", setup.median);
    out.set("jobs_per_s", jobs / fastest);
    out.set("peak_rss_mb", rss);
    out.set("allocs_per_job", allocs.median / jobs);
    out.set("alloc_bytes_per_job", bytes.median / jobs);
    out.set("guarantee_ratio", reference.guarantee_ratio());
    out.set("messages_per_job", reference.messages_per_job());
    out.note_quartiles("setup_s", setup);
    out.note_quartiles("wall_s", wall);
    out.notes.insert("jobs".into(), jobs);
    out.notes.insert("wall_s.min".into(), fastest);
    out.notes.insert(
        "allocs_repeat_exactly".into(),
        f64::from(u8::from(allocs.q1 == allocs.q3 && bytes.q1 == bytes.q3)),
    );
    out
}
