//! The run loop: jobs are pulled on demand as the clock advances, and
//! per-job state is harvested and released behind the clock.
//!
//! Every run goes through this one loop — a batch workload is just a
//! stream whose jobs are known in advance:
//!
//! * a [`JobSource`] yields jobs lazily in arrival order (the `rtds-workload`
//!   crate provides open-loop generators and trace replayers; any sorted
//!   `Vec<Job>` iterator works too),
//! * [`RtdsSystem::run_streaming`] drives the engine's pull-based
//!   [`rtds_sim::engine::ArrivalSource`] integration in *harvest chunks*: it
//!   simulates a bounded slice of time, then prunes every committed
//!   reservation that lies wholly in the past
//!   (`SchedulePlan::drain_completed_with`) while folding the
//!   drained completion times into aggregate statistics, and finalizes every
//!   job whose deadline has passed — so the resident state is bounded by the
//!   *in-flight* work, not by the length of the run,
//! * the result is a [`StreamReport`]: the guarantee/overhead counters in
//!   aggregate form (no per-job vector), plus the memory high-water marks
//!   that prove the boundedness claim,
//! * [`RtdsSystem::run`] streams the jobs it is given through the same
//!   loop and additionally returns one [`JobReport`] per job, filled by a
//!   per-job sink at injection, acceptance and finalization.
//!
//! Harvest is the only code that counts a verdict or finalizes a job:
//! [`StreamReport::guarantee`] is built from its counters alone, and
//! [`executor::meets_deadline`] is its deadline rule.
//!
//! Determinism: arrivals are injected in source order (external arrivals
//! outrank deliveries/timers at equal timestamps — see
//! [`rtds_sim::event`]), and pruning only removes reservations no admission
//! or validation test can ever look at again (those examine `[now, ·)`
//! windows only). Two runs of the same source are bit-identical, which is
//! what makes trace record/replay reproducible to the byte.

use crate::messages::RtdsMsg;
use crate::node::RtdsNode;
use crate::snapshot::{refuse_unknown, Construction, STREAM_REPLAY_SCHEMA};
use crate::system::{JobOutcomeKind, JobReport, RtdsSystem};
use rtds_graph::{Job, JobId};
use rtds_metrics::{MetricsRegistry, Scope};
use rtds_net::SiteId;
use rtds_sched::{executor, Scheduler};
use rtds_sim::engine::ArrivalSource;
use rtds_sim::json::Json;
use rtds_sim::snapshot::{expect_schema, field, Path, Snap, SnapshotError, Word};
use rtds_sim::stats::{GuaranteeStats, SimStats};
use rtds_sim::Simulator;
use std::collections::BTreeMap;

/// A pull-based stream of jobs in non-decreasing `arrival_time` order.
pub trait JobSource {
    /// The next job, or `None` when the workload is exhausted.
    fn next_job(&mut self) -> Option<Job>;

    /// Hands over the telemetry the source accumulated while generating
    /// jobs (inter-arrival jitter, size mixes, …), resetting it. The
    /// streaming runner merges this into [`StreamReport::metrics`] at the
    /// end of the run. Sources without instrumentation return an empty
    /// registry (the default).
    fn take_metrics(&mut self) -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// Any job iterator is a source (used to stream pre-materialized workloads,
/// e.g. the jobs handed to [`RtdsSystem::run`]).
impl JobSource for std::vec::IntoIter<Job> {
    fn next_job(&mut self) -> Option<Job> {
        self.next()
    }
}

/// Tuning of the streaming loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Simulated time between harvests (plan pruning + job finalization).
    /// Smaller values bound memory tighter at slightly more bookkeeping.
    pub harvest_interval: f64,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            harvest_interval: 25.0,
        }
    }
}

/// Aggregate report of one streaming run. Every field is a pure function of
/// the job stream and the seeds — there is no per-job vector, so the report
/// itself is O(1) in the number of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Outcome counters. `submitted` counts injected arrivals; `rejected`
    /// is `submitted - accepted`, so arrivals lost to site crashes count as
    /// rejections.
    pub guarantee: GuaranteeStats,
    /// Engine and protocol counters.
    pub stats: SimStats,
    /// Final simulated time.
    pub finished_at: f64,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Distribution messages per submitted job.
    pub messages_per_job: f64,
    /// Mean slack (deadline minus completion) over on-time completions.
    pub mean_slack: f64,
    /// Minimum slack over on-time completions (0 when none completed).
    pub min_slack: f64,
    /// High-water mark of jobs submitted but not yet finalized — the
    /// "resident job count" a bounded-memory run keeps far below the total.
    pub peak_inflight_jobs: u64,
    /// High-water mark of committed reservations at any single site,
    /// sampled at harvest points (pruning keeps this near the active
    /// window instead of the whole history).
    pub peak_plan_reservations: u64,
    /// High-water mark of pending engine events, sampled at harvest points.
    pub peak_queue_len: u64,
    /// Number of harvest passes performed.
    pub harvests: u64,
    /// Accepted jobs finalized without a recorded completion (a protocol
    /// invariant violation — must stay zero).
    pub unharvested_completions: u64,
    /// The full telemetry registry: the protocol instruments of
    /// [`StreamReport::stats`] plus the harvest-side end-to-end histograms
    /// (`response_time`, `completion_slack`), the workload-source
    /// instruments ([`JobSource::take_metrics`]) and the memory high-water
    /// gauges (`inflight_jobs`, `queue_len`, per-site `plan_reservations`).
    /// Deterministic — a pure function of the job stream and the seeds.
    pub metrics: MetricsRegistry,
}

impl StreamReport {
    /// Guarantee ratio of the run.
    pub fn guarantee_ratio(&self) -> f64 {
        self.guarantee.guarantee_ratio()
    }

    /// Accepted jobs that missed their deadline (must stay zero).
    pub fn deadline_misses(&self) -> u64 {
        self.guarantee.deadline_misses
    }

    /// Accepted jobs that did not complete by their deadline: late
    /// completions plus accepted jobs that never completed at all.
    pub fn accepted_misses(&self) -> u64 {
        self.guarantee.deadline_misses + self.unharvested_completions
    }
}

/// When a checkpointable streaming run should pause
/// ([`RtdsSystem::run_streaming_checkpoint`]).
///
/// The pause is taken at the first *harvest boundary* at or past the given
/// point, never mid-chunk — harvest boundaries are the only instants where
/// the loop's state is fully explicit (no borrowed adapter, no half-drained
/// plans), and their cadence is a pure function of the job stream, so the
/// pause point is deterministic and resuming reproduces the uninterrupted
/// run byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamPause {
    /// Pause at the first harvest boundary with simulated time `>=` this.
    AtTime(f64),
    /// Pause at the first harvest boundary with at least this many engine
    /// events processed.
    AfterEvents(u64),
}

/// Outcome of [`RtdsSystem::run_streaming_checkpoint`]: either the run
/// drained before reaching the pause point, or it paused and handed back a
/// serialized `rtds-stream-replay/1` document for
/// [`RtdsSystem::resume_streaming`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRun {
    /// The run paused; the string is the checkpoint document.
    Paused(String),
    /// The workload drained to quiescence before the pause point. Boxed:
    /// a report is an order of magnitude larger than the checkpoint
    /// string's stack footprint.
    Finished(Box<StreamReport>),
}

/// Per-job bookkeeping between injection and finalization.
struct Pending {
    arrival: f64,
    deadline: f64,
    accepted: bool,
}

/// A job's arrival time clamped to the start of the run: the time it is
/// injected at, and the key a source must be sorted by.
fn arrival_time(job: &Job) -> f64 {
    job.arrival_time.max(0.0)
}

/// Accumulators of the harvest loop.
#[derive(Default)]
struct HarvestState {
    inflight: BTreeMap<JobId, Pending>,
    completions: BTreeMap<JobId, f64>,
    injected: u64,
    accepted_locally: u64,
    accepted_distributed: u64,
    completed_on_time: u64,
    misses: u64,
    unharvested: u64,
    slack_sum: f64,
    slack_min: f64,
    peak_inflight: u64,
    peak_plan: u64,
    peak_queue: u64,
    harvests: u64,
    /// Reused buffers for the sites a pass visits and the jobs it finalizes
    /// (not state).
    visit: Vec<SiteId>,
    due: Vec<JobId>,
    /// Harvest-side telemetry (end-to-end histograms, per-site plan
    /// gauges); merged into [`StreamReport::metrics`] at the end. Kept out
    /// of the engine's [`SimStats`] so the protocol-level statistics stay
    /// a pure protocol observable.
    metrics: MetricsRegistry,
    /// The per-job sink of [`RtdsSystem::run`] (`None` on every other
    /// path): a record is opened at injection, marked at acceptance and
    /// closed at finalization.
    jobs: Option<BTreeMap<JobId, JobReport>>,
}

impl HarvestState {
    fn new(jobs: Option<BTreeMap<JobId, JobReport>>) -> Self {
        HarvestState {
            slack_min: f64::INFINITY,
            jobs,
            ..HarvestState::default()
        }
    }
}

/// Adapter from a [`JobSource`] to the engine's [`ArrivalSource`]: pulls one
/// job ahead, registers injected jobs in the in-flight table and validates
/// the stream ordering.
struct StreamAdapter<'a> {
    source: &'a mut dyn JobSource,
    buffered: &'a mut Option<Job>,
    st: &'a mut HarvestState,
    site_count: usize,
}

impl ArrivalSource<RtdsMsg> for StreamAdapter<'_> {
    fn peek_time(&mut self) -> Option<f64> {
        self.buffered.as_ref().map(arrival_time)
    }

    fn take(&mut self) -> Option<(f64, SiteId, RtdsMsg)> {
        let job = self.buffered.take()?;
        let time = arrival_time(&job);
        *self.buffered = self.source.next_job();
        if let Some(next) = self.buffered.as_ref() {
            assert!(
                arrival_time(next) >= time,
                "job source must be sorted by arrival time ({} after {})",
                next.arrival_time,
                job.arrival_time
            );
        }
        assert!(
            job.arrival_site < self.site_count,
            "arrival site {} does not exist",
            job.arrival_site
        );
        let st = &mut *self.st;
        st.injected += 1;
        let deadline = job.deadline();
        st.inflight.insert(
            job.id,
            Pending {
                arrival: time,
                deadline,
                accepted: false,
            },
        );
        st.peak_inflight = st.peak_inflight.max(st.inflight.len() as u64);
        if let Some(jobs) = &mut st.jobs {
            let record = JobReport {
                job: job.id,
                arrival_site: job.arrival_site,
                arrival: time,
                outcome: JobOutcomeKind::Rejected,
                completion: None,
                deadline,
                met_deadline: false,
            };
            jobs.insert(job.id, record);
        }
        let site = SiteId(job.arrival_site);
        Some((time, site, RtdsMsg::JobArrival { job }))
    }
}

/// One harvest pass: absorb acceptance records, drain reservations that
/// completed by `cutoff`, and finalize every job whose deadline has passed
/// (all of an accepted job's reservations end by its deadline, so its
/// completion is fully known once the clock passes it).
///
/// The pass visits the sites the engine reports as touched: those a protocol
/// handler ran on since the last pass — only a handler commits reservations
/// or accepts a job — and those the last pass touched again itself because
/// they still had something committed when it looked. Every other site was
/// idle at its last visit and has been since: its gauges already read their
/// idle values and it has nothing to drain, so visiting it would change
/// nothing. The first pass of a run sees every site.
/// The order of the visits does not matter: gauges are per site, and the
/// rest folds maxima and flags.
fn harvest(sim: &mut Simulator<RtdsNode>, cutoff: f64, st: &mut HarvestState) {
    st.harvests += 1;
    st.peak_queue = st.peak_queue.max(sim.queue_len() as u64);
    let mut visit = std::mem::take(&mut st.visit);
    sim.take_touched(&mut visit);
    // Each gauge family is resolved once per pass, not once per site.
    // Multicore-only gauges: on default (degenerate) bundles these are
    // omitted entirely so the metrics JSON stays byte-identical to the
    // single-capacity engine.
    let multicore = || {
        let scheds = visit.iter().map(|&s| (s.0 as u32, sim.node(s).scheduler()));
        scheds.filter(|(_, sched)| !sched.resources().is_degenerate())
    };
    if multicore().next().is_some() {
        let mut core_busy = st.metrics.gauge_family("core_busy");
        for (s, sched) in multicore() {
            core_busy.set(Scope::Site(s), sched.busy_cores(cutoff) as f64);
        }
        let mut mem_used = st.metrics.gauge_family("mem_used");
        for (s, sched) in multicore() {
            mem_used.set(Scope::Site(s), sched.mem_used(cutoff));
        }
    }
    let mut plan_reservations = st.metrics.gauge_family("plan_reservations");
    for &s in &visit {
        let node = sim.node_mut(s);
        // Committed before this pass drains: the gauges above just recorded
        // it, so the next pass must look again, if only to record zero.
        let look_again = !node.sched.is_idle();
        st.peak_plan = st.peak_plan.max(node.plan_len() as u64);
        plan_reservations.set(Scope::Site(s.0 as u32), node.plan_len() as f64);
        for accepted in node.accepted.drain(..) {
            if accepted.distributed {
                st.accepted_distributed += 1;
            } else {
                st.accepted_locally += 1;
            }
            if let Some(pending) = st.inflight.get_mut(&accepted.job) {
                pending.accepted = true;
            }
            if let Some(record) = st.jobs.as_mut().and_then(|j| j.get_mut(&accepted.job)) {
                record.outcome = if accepted.distributed {
                    JobOutcomeKind::AcceptedDistributed
                } else {
                    JobOutcomeKind::AcceptedLocally
                };
            }
        }
        let completions = &mut st.completions;
        node.drain_completed_with(cutoff, |placement| {
            let latest = completions
                .entry(placement.reservation.job)
                .or_insert(f64::NEG_INFINITY);
            if placement.reservation.end > *latest {
                *latest = placement.reservation.end;
            }
        });
        if look_again {
            sim.touch(s);
        }
    }
    visit.clear();
    st.visit = visit;
    let mut due = std::mem::take(&mut st.due);
    due.extend(
        st.inflight
            .iter()
            .filter(|(_, p)| p.deadline <= cutoff + 1e-9)
            .map(|(id, _)| *id),
    );
    for id in due.drain(..) {
        let pending = st.inflight.remove(&id).expect("listed above");
        let completion = st.completions.remove(&id);
        if !pending.accepted {
            // Rejected (or lost to faults): counted via the guarantee
            // counters; nothing to harvest.
            continue;
        }
        let met = executor::meets_deadline(completion, pending.deadline);
        if let Some(record) = st.jobs.as_mut().and_then(|j| j.get_mut(&id)) {
            record.completion = completion;
            record.met_deadline = met;
        }
        let Some(c) = completion else {
            st.unharvested += 1;
            continue;
        };
        let slack = pending.deadline - c;
        st.metrics.record("response_time", c - pending.arrival);
        st.metrics.record("completion_slack", slack);
        if met {
            st.completed_on_time += 1;
            st.slack_sum += slack;
            st.slack_min = st.slack_min.min(slack);
        } else {
            st.misses += 1;
        }
    }
    st.due = due;
}

/// Where a checkpointed run paused: its harvest interval, the engine events
/// processed at the harvest boundary it paused on, and the digest of the
/// loop's state there.
struct PausedRun {
    options: StreamOptions,
    events: u64,
    digest: u64,
}

impl PausedRun {
    /// The `rtds-stream-replay/1` document: this pause point around the
    /// paused system's record.
    fn encode(&self, record: &Construction) -> Json {
        Json::object(vec![
            ("schema", Json::str(STREAM_REPLAY_SCHEMA)),
            ("harvest_interval", self.options.harvest_interval.encode()),
            ("events_processed", self.events.encode()),
            ("digest", Word(self.digest).encode()),
            ("system", record.encode()),
        ])
    }

    /// Parses a stream checkpoint into the rebuilt, not yet run, system and
    /// its pause point.
    fn decode(text: &str) -> Result<(RtdsSystem, PausedRun), SnapshotError> {
        let doc = Json::parse(text)
            .map_err(|e| SnapshotError(format!("stream checkpoint does not parse: {e}")))?;
        let path = &Path::root("stream");
        expect_schema(&doc, path, STREAM_REPLAY_SCHEMA)?;
        let known = [
            "schema",
            "harvest_interval",
            "events_processed",
            "digest",
            "system",
        ];
        refuse_unknown(&doc, path, &known)?;
        let harvest_interval: f64 = field(&doc, path, "harvest_interval")?;
        if !(harvest_interval.is_finite() && harvest_interval > 0.0) {
            return Err(path
                .key("harvest_interval")
                .err(format!("{harvest_interval} is not positive and finite")));
        }
        let paused = PausedRun {
            options: StreamOptions { harvest_interval },
            events: field(&doc, path, "events_processed")?,
            digest: field::<Word>(&doc, path, "digest")?.0,
        };
        let record: Construction = field(&doc, path, "system")?;
        Ok((RtdsSystem::from_record(record), paused))
    }
}

/// The source of a replay. A job at a site the rebuilt network lacks means
/// the record and the source disagree: the source then ends, and the replay
/// reports the site instead of panicking on it.
struct Checked<'a> {
    source: &'a mut dyn JobSource,
    sites: usize,
    stray: Option<usize>,
}

impl JobSource for Checked<'_> {
    fn next_job(&mut self) -> Option<Job> {
        if self.stray.is_some() {
            return None;
        }
        let job = self.source.next_job()?;
        if job.arrival_site < self.sites {
            Some(job)
        } else {
            self.stray = Some(job.arrival_site);
            None
        }
    }

    fn take_metrics(&mut self) -> MetricsRegistry {
        self.source.take_metrics()
    }
}

impl RtdsSystem {
    /// Runs `jobs` to quiescence and returns the report plus one
    /// [`JobReport`] per job, ordered by job id.
    ///
    /// The jobs are stably sorted by arrival time (clamped to the start of
    /// the run, so jobs released earlier arrive at 0 in the order given) and
    /// streamed through [`RtdsSystem::run_streaming`]'s loop with
    /// the default options — the only difference is the per-job sink. A run
    /// stopped by the event cap counts only the jobs it injected, in the
    /// report and in the vector alike.
    ///
    /// # Panics
    ///
    /// If this system has already run (see [`RtdsSystem::run_streaming`]),
    /// or when a job's arrival site does not exist.
    pub fn run(&mut self, mut jobs: Vec<Job>) -> (StreamReport, Vec<JobReport>) {
        jobs.sort_by(|a, b| {
            let (a, b) = (arrival_time(a), arrival_time(b));
            a.partial_cmp(&b)
                .expect("a clamped arrival time is never NaN")
        });
        let mut st = HarvestState::new(Some(BTreeMap::new()));
        let report = self.stream(&mut jobs.into_iter(), &StreamOptions::default(), &mut st);
        let jobs = st.jobs.unwrap_or_default().into_values().collect();
        (report, jobs)
    }

    /// Runs an open-loop workload to exhaustion and quiescence, pulling each
    /// job from `source` only when the clock reaches its arrival and
    /// releasing per-job state as deadlines pass. Memory is bounded by the
    /// in-flight work (see [`StreamReport::peak_inflight_jobs`]), so run
    /// length is limited by time, not by workload size.
    ///
    /// Faults scheduled via [`RtdsSystem::schedule_fault`] apply at their
    /// time. The event cap ([`RtdsSystem::set_max_events`]) stops both the
    /// engine and the arrival pull; jobs never pulled are not counted.
    ///
    /// # Panics
    ///
    /// If this system has already run: a system runs once, and a paused
    /// run continues only through [`RtdsSystem::resume_streaming`], which
    /// replays it on a rebuilt system.
    pub fn run_streaming(
        &mut self,
        source: &mut dyn JobSource,
        options: &StreamOptions,
    ) -> StreamReport {
        self.stream(source, options, &mut HarvestState::new(None))
    }

    /// Drives a fresh run of `source` to the end.
    fn stream(
        &mut self,
        source: &mut dyn JobSource,
        options: &StreamOptions,
        st: &mut HarvestState,
    ) -> StreamReport {
        self.assert_fresh();
        let mut buffered = source.next_job();
        let paused = self.drive_streaming(source, options, st, &mut buffered, None);
        debug_assert!(!paused, "no pause requested");
        self.finish_streaming(source, st)
    }

    /// A run starts from a system that has not run yet: the harvest state
    /// of an earlier run is gone, so continuing it would miscount.
    fn assert_fresh(&self) {
        assert_eq!(
            self.events_processed(),
            0,
            "this system has already run; resume a paused run with RtdsSystem::resume_streaming"
        );
    }

    /// Like [`RtdsSystem::run_streaming`], but pauses at the first harvest
    /// boundary past `pause` and returns the checkpoint
    /// (`rtds-stream-replay/1`): this system's record, the harvest interval,
    /// the engine events processed at the boundary and a digest of the
    /// loop's state there. If the workload drains first, the run finishes
    /// normally — a finishing run is never truncated into a pause.
    ///
    /// Feeding the checkpoint and a **fresh instance of the same job
    /// source** to [`RtdsSystem::resume_streaming`] yields a
    /// [`StreamReport`] byte-identical to the uninterrupted run's.
    pub fn run_streaming_checkpoint(
        &mut self,
        source: &mut dyn JobSource,
        options: &StreamOptions,
        pause: &StreamPause,
    ) -> StreamRun {
        self.assert_fresh();
        let mut buffered = source.next_job();
        let mut st = HarvestState::new(None);
        if self.drive_streaming(source, options, &mut st, &mut buffered, Some(pause)) {
            let paused = PausedRun {
                options: *options,
                events: self.events_processed(),
                digest: self.pause_digest(&st, &buffered),
            };
            StreamRun::Paused(paused.encode(self.record()).render())
        } else {
            StreamRun::Finished(Box::new(self.finish_streaming(source, &mut st)))
        }
    }

    /// Resumes a run paused by [`RtdsSystem::run_streaming_checkpoint`] and
    /// drives it to completion. `source` must be a fresh instance of the
    /// source the paused run used — which every `rtds-workload` generator
    /// and trace replayer can supply, being deterministic. The system is
    /// rebuilt from the checkpoint's record and replays `source` to the
    /// paused run's harvest boundary; there the loop's digest must match the
    /// checkpoint's, and the run continues.
    ///
    /// A replay that drains before the pause point, reaches it in another
    /// state (another source, another seed) or pulls a job at a site the
    /// record's network lacks is refused with a [`SnapshotError`], as is a
    /// document that does not decode.
    pub fn resume_streaming(
        text: &str,
        source: &mut dyn JobSource,
    ) -> Result<StreamReport, SnapshotError> {
        let (mut system, paused) = PausedRun::decode(text)?;
        system.replay(&paused, source)
    }

    /// Replays `source` on this fresh system to `paused`'s harvest boundary,
    /// checks the digest there, and runs the stream to its end.
    fn replay(
        &mut self,
        paused: &PausedRun,
        source: &mut dyn JobSource,
    ) -> Result<StreamReport, SnapshotError> {
        let path = Path::root("stream");
        let mut source = Checked {
            source,
            sites: self.network().site_count(),
            stray: None,
        };
        let stray = |source: &Checked<'_>| {
            source.stray.map_or(Ok(()), |site| {
                Err(path.err(format!(
                    "the source sends a job to site {site}, which the record's network lacks"
                )))
            })
        };
        let mut buffered = source.next_job();
        let mut st = HarvestState::new(None);
        let pause = StreamPause::AfterEvents(paused.events);
        let reached = self.drive_streaming(
            &mut source,
            &paused.options,
            &mut st,
            &mut buffered,
            Some(&pause),
        );
        stray(&source)?;
        if !reached {
            return Err(path.key("events_processed").err(format!(
                "the replayed run ends after {} events, before the pause point",
                self.events_processed()
            )));
        }
        if self.pause_digest(&st, &buffered) != paused.digest {
            return Err(path.key("digest").err(
                "the replay reaches the pause point in another state (another source or seed?)",
            ));
        }
        let resumed =
            self.drive_streaming(&mut source, &paused.options, &mut st, &mut buffered, None);
        debug_assert!(!resumed, "no pause requested");
        stray(&source)?;
        Ok(self.finish_streaming(&mut source, &mut st))
    }

    /// A 64-bit digest of the paused loop, from state it already holds: the
    /// clock, the events processed, the jobs pulled, the harvest counters and
    /// the messages sent and delivered. Computed once, at the pause.
    fn pause_digest(&self, st: &HarvestState, buffered: &Option<Job>) -> u64 {
        let stats = self.sim().stats();
        let words = [
            self.sim().now().to_bits(),
            self.events_processed(),
            st.injected + u64::from(buffered.is_some()),
            st.accepted_locally,
            st.accepted_distributed,
            st.completed_on_time,
            st.misses,
            st.unharvested,
            st.slack_sum.to_bits(),
            st.slack_min.to_bits(),
            st.peak_inflight,
            st.peak_plan,
            st.peak_queue,
            st.harvests,
            st.inflight.len() as u64,
            stats.messages_sent,
            stats.messages_delivered,
        ];
        // FNV-1a over the words: a consistency check, not a defence.
        words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &word| {
            (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The harvest loop shared by the plain, checkpointing and resuming
    /// paths. Returns `true` when it stopped at a pause point (state fully
    /// captured in `st` and `buffered`), `false` when the run drained to
    /// quiescence or hit the event cap.
    fn drive_streaming(
        &mut self,
        source: &mut dyn JobSource,
        options: &StreamOptions,
        st: &mut HarvestState,
        buffered: &mut Option<Job>,
        pause: Option<&StreamPause>,
    ) -> bool {
        assert!(
            options.harvest_interval.is_finite() && options.harvest_interval > 0.0,
            "harvest interval must be positive and finite, got {}",
            options.harvest_interval
        );
        let site_count = self.network().site_count();
        loop {
            let target = match buffered.as_ref() {
                // Chunk to the harvest cadence, but never stall short of the
                // next arrival: with an idle engine the chunk must reach it.
                Some(job) => (self.sim().now() + options.harvest_interval).max(job.arrival_time),
                None => f64::INFINITY,
            };
            let before = self.sim().events_processed();
            {
                let mut adapter = StreamAdapter {
                    source,
                    buffered,
                    st,
                    site_count,
                };
                self.sim_mut().run_streaming(&mut adapter, target);
            }
            let now = self.sim().now();
            harvest(self.sim_mut(), now, st);
            let quiescent = self.sim().queue_len() == 0;
            if buffered.is_none() && quiescent {
                return false;
            }
            if self.sim().events_processed() == before {
                // No progress with work left: the event cap was reached.
                return false;
            }
            // Pause only after the termination checks: a run that would
            // finish inside this chunk finishes instead of pausing.
            if let Some(pause) = pause {
                let reached = match *pause {
                    StreamPause::AtTime(t) => self.sim().now() >= t,
                    StreamPause::AfterEvents(n) => self.sim().events_processed() >= n,
                };
                if reached {
                    return true;
                }
            }
        }
    }

    /// Final harvest and report assembly, shared by every run path.
    fn finish_streaming(
        &mut self,
        source: &mut dyn JobSource,
        st: &mut HarvestState,
    ) -> StreamReport {
        // Final pass: drain every remaining reservation and settle every
        // remaining job (reservations may extend past the last event time).
        harvest(self.sim_mut(), f64::INFINITY, st);

        let accepted = st.accepted_locally + st.accepted_distributed;
        let guarantee = GuaranteeStats {
            submitted: st.injected,
            accepted_locally: st.accepted_locally,
            accepted_distributed: st.accepted_distributed,
            rejected: st.injected.saturating_sub(accepted),
            completed_on_time: st.completed_on_time,
            deadline_misses: st.misses,
        };
        let stats = self.sim().stats().clone();
        let messages_per_job = if st.injected > 0 {
            stats.named("distribution_messages") as f64 / st.injected as f64
        } else {
            0.0
        };
        let (mean_slack, min_slack) = if st.completed_on_time > 0 {
            (st.slack_sum / st.completed_on_time as f64, st.slack_min)
        } else {
            (0.0, 0.0)
        };
        // Report-level telemetry: protocol instruments + harvest histograms
        // + workload-source instruments + the memory high-water gauges that
        // prove the boundedness claim. Merge order is irrelevant (the
        // registry merge is commutative).
        let mut metrics = stats.metrics().clone();
        metrics.merge(&st.metrics);
        metrics.merge(&source.take_metrics());
        metrics.gauge_set("inflight_jobs", st.peak_inflight as f64);
        metrics.gauge_set("queue_len", st.peak_queue as f64);
        StreamReport {
            guarantee,
            finished_at: self.sim().now(),
            events_processed: self.sim().events_processed(),
            messages_per_job,
            mean_slack,
            min_slack,
            peak_inflight_jobs: st.peak_inflight,
            peak_plan_reservations: st.peak_plan,
            peak_queue_len: st.peak_queue,
            harvests: st.harvests,
            unharvested_completions: st.unharvested,
            stats,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RtdsConfig;
    use rtds_graph::generators::{DagGenerator, GeneratorConfig};
    use rtds_net::generators::{grid, DelayDistribution};

    fn workload(count: usize, seed: u64) -> Vec<Job> {
        let mut generator = DagGenerator::new(
            GeneratorConfig {
                task_count: 6,
                ..GeneratorConfig::default()
            },
            seed,
        );
        (0..count)
            .map(|i| generator.generate_job(i % 9, 1.0 + i as f64 * 3.0))
            .collect()
    }

    fn fresh_system(seed: u64) -> RtdsSystem {
        let net = grid(3, 3, false, DelayDistribution::Constant(1.0), seed);
        RtdsSystem::new(net, RtdsConfig::default(), seed)
    }

    #[test]
    fn streaming_matches_the_batch_path() {
        let jobs = workload(40, 5);
        let (report, records) = fresh_system(1).run(jobs.clone());

        let mut streaming = fresh_system(1);
        let mut source = jobs.clone().into_iter();
        let stream_report = streaming.run_streaming(&mut source, &StreamOptions::default());
        assert_eq!(report, stream_report);
        assert_eq!(report.deadline_misses(), 0);
        assert_eq!(report.unharvested_completions, 0);

        // One record per job, in id order, agreeing with the aggregates.
        assert_eq!(records.len(), jobs.len());
        assert!(records.windows(2).all(|w| w[0].job < w[1].job));
        let accepted = |kind| records.iter().filter(|j| j.outcome == kind).count() as u64;
        let g = &report.guarantee;
        assert_eq!(
            accepted(JobOutcomeKind::AcceptedLocally),
            g.accepted_locally
        );
        assert_eq!(
            accepted(JobOutcomeKind::AcceptedDistributed),
            g.accepted_distributed
        );
        assert_eq!(accepted(JobOutcomeKind::Rejected), g.rejected);
        let on_time: Vec<f64> = records
            .iter()
            .filter(|j| j.met_deadline)
            .map(|j| j.deadline - j.completion.expect("on time means completed"))
            .collect();
        assert_eq!(on_time.len() as u64, g.completed_on_time);
        let mean = on_time.iter().sum::<f64>() / on_time.len() as f64;
        assert!((report.mean_slack - mean).abs() < 1e-6);
        let min = on_time.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(report.min_slack, min);
        for job in &jobs {
            let record = records.iter().find(|r| r.job == job.id).unwrap();
            assert_eq!(record.arrival_site, job.arrival_site);
            assert_eq!(record.arrival, job.arrival_time);
            assert_eq!(record.deadline, job.deadline());
            let rejected = record.outcome == JobOutcomeKind::Rejected;
            assert_eq!(record.completion.is_none(), rejected);
        }
        for name in ["response_time", "completion_slack", "accept_latency"] {
            assert!(!report.metrics.histogram(name).is_empty(), "{name}");
        }
        assert!(report.metrics.gauge("inflight_jobs").is_some());
    }

    #[test]
    fn streaming_is_deterministic() {
        let run = || {
            let mut system = fresh_system(3);
            let mut source = workload(60, 9).into_iter();
            system.run_streaming(&mut source, &StreamOptions::default())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resident_state_stays_bounded() {
        // 300 well-spaced jobs: at any instant only a handful are in flight,
        // and pruning keeps every plan far below 300 * tasks reservations.
        let jobs = workload(300, 11);
        let total = jobs.len() as u64;
        let mut system = fresh_system(2);
        let mut source = jobs.into_iter();
        let report = system.run_streaming(
            &mut source,
            &StreamOptions {
                harvest_interval: 20.0,
            },
        );
        assert_eq!(report.guarantee.submitted, total);
        assert!(report.harvests > 10);
        assert!(
            report.peak_inflight_jobs < total / 4,
            "peak in-flight {} vs {} total",
            report.peak_inflight_jobs,
            total
        );
        assert!(
            report.peak_plan_reservations < 6 * total / 4,
            "peak plan {}",
            report.peak_plan_reservations
        );
        assert_eq!(report.deadline_misses(), 0);
        assert_eq!(report.unharvested_completions, 0);
        // Every node's plan was fully drained by the final harvest.
        for s in 0..system.network().site_count() {
            assert!(system.node(SiteId(s)).plan_is_empty());
        }
    }

    #[test]
    fn streaming_checkpoint_mid_transfer_resumes_identically() {
        // A stream paused at an instant with a shared-bandwidth transfer in
        // flight, resumed from the text with a fresh source, must end with
        // the uninterrupted run's report after dispatching the same events
        // in the same order.
        // A heavy chain fills site 1, then a volume-decorated fork-join at
        // the same site must distribute — shipping its branch inputs through
        // the flow plane (the construction of the system-level flow test).
        // Harvest chunks never stall short of the next
        // arrival, so a trickle of tiny filler jobs keeps the chunk
        // boundaries — the only legal pause instants — dense enough to land
        // inside a transfer window.
        let flow_jobs = || -> Vec<Job> {
            use rtds_graph::{JobParams, TaskGraph, TaskId};
            let mut jobs = vec![Job::new(
                JobId(0),
                TaskGraph::from_costs(&[60.0]),
                JobParams::new(0.0, 70.0),
                1,
            )];
            let mut g = TaskGraph::from_costs(&[1.0, 10.0, 10.0, 10.0, 1.0]);
            for mid in 1..=3 {
                g.add_edge_with_volume(TaskId(0), TaskId(mid), 2.0).unwrap();
                g.add_edge_with_volume(TaskId(mid), TaskId(4), 2.0).unwrap();
            }
            jobs.push(Job::new(JobId(1), g, JobParams::new(0.5, 55.5), 1));
            for j in 1..=50u64 {
                let site = [0, 2, 3, 4, 5, 6, 7, 8][(j as usize) % 8];
                let at = j as f64;
                jobs.push(Job::new(
                    JobId(100 + j),
                    TaskGraph::from_costs(&[0.2]),
                    JobParams::new(at, at + 20.0),
                    site,
                ));
            }
            jobs
        };
        let flow_system = |seed: u64| -> RtdsSystem {
            let mut net = grid(3, 3, false, DelayDistribution::Constant(1.0), seed);
            let links: Vec<_> = net.links().map(|(a, b, _)| (a, b)).collect();
            for (a, b) in links {
                net.set_link_bandwidth(a, b, 0.5).unwrap();
            }
            let config = RtdsConfig {
                data_volume_aware: true,
                flow_transfers: true,
                ..RtdsConfig::default()
            };
            RtdsSystem::new(net, config, seed)
        };

        // A fine harvest cadence so pause instants are dense enough to land
        // inside a transfer window (pauses only happen on chunk boundaries).
        let options = StreamOptions {
            harvest_interval: 0.5,
        };
        const LOG: usize = 1 << 16;
        let mut plain = flow_system(1);
        plain.enable_order_log(LOG);
        let mut source = flow_jobs().into_iter();
        let reference = plain.run_streaming(&mut source, &options);
        assert!(reference.stats.named("sim_flow_finished") > 0);
        assert!(plain.order_log().len() < LOG, "the log holds the whole run");

        // Scan pause instants until one catches a transfer in flight.
        let mut paused_text = None;
        for t in 1..200 {
            let mut system = flow_system(1);
            let mut source = flow_jobs().into_iter();
            match system.run_streaming_checkpoint(
                &mut source,
                &options,
                &StreamPause::AtTime(t as f64),
            ) {
                StreamRun::Paused(text) => {
                    if system.sim().flows_in_flight() > 0 {
                        paused_text = Some(text);
                        break;
                    }
                }
                StreamRun::Finished(_) => break,
            }
        }
        let text = paused_text.expect("no pause instant caught a transfer in flight");
        let (mut system, paused) = PausedRun::decode(&text).expect("checkpoint decodes");
        system.enable_order_log(LOG);
        let mut fresh = flow_jobs().into_iter();
        let resumed = system
            .replay(&paused, &mut fresh)
            .expect("mid-transfer stream resumes");
        assert_eq!(resumed, reference);
        assert_eq!(system.order_log(), plain.order_log());
    }

    #[test]
    #[should_panic(expected = "sorted by arrival time")]
    fn unsorted_sources_panic() {
        let mut jobs = workload(5, 1);
        jobs.reverse();
        let mut system = fresh_system(1);
        let mut source = jobs.into_iter();
        system.run_streaming(&mut source, &StreamOptions::default());
    }

    #[test]
    #[should_panic(expected = "harvest interval")]
    fn invalid_harvest_interval_panics() {
        let mut system = fresh_system(1);
        let mut source = Vec::new().into_iter();
        system.run_streaming(
            &mut source,
            &StreamOptions {
                harvest_interval: 0.0,
            },
        );
    }
}
