//! # rtds-sim — deterministic discrete-event simulation of the site network
//!
//! The paper's execution environment is a loosely coupled distributed system:
//! every site owns a computation processor and a system-management processor,
//! and sites exchange messages over faithful, loss-less, order-preserving
//! links whose only cost is a propagation delay (§2). This crate provides a
//! deterministic discrete-event engine with exactly those semantics:
//!
//! * [`engine::Simulator`] runs a [`engine::Protocol`] implementation on
//!   every site, delivering messages after the corresponding link delay and
//!   firing per-site timers,
//! * message delivery on a link is FIFO (constant per-link delay plus a
//!   monotonically increasing tie-breaking sequence number),
//! * everything is single-threaded and seeded, so two runs of the same
//!   configuration produce bit-identical traces — the experiment harness
//!   relies on this for reproducibility (the parallelism of the harness is
//!   across *runs*, not inside one run),
//! * [`arrivals`] generates sporadic job-arrival processes (Poisson,
//!   periodic-with-jitter, bursty); [`engine::ArrivalSource`] is the
//!   pull-based streaming counterpart used by
//!   [`engine::Simulator::run_streaming`] to inject arrivals on demand so
//!   run length is bounded by time, not by how many arrivals fit in memory
//!   (the open-loop generators live in the `rtds-workload` crate),
//! * [`json`] re-exports the deterministic hand-rolled JSON layer behind
//!   every report, workload trace and checkpoint; it is defined once, in the
//!   dependency-free `rtds-trace` crate at the bottom of the crate graph,
//! * [`faults`] injects timed perturbations beyond the paper's base model
//!   (link latency jitter, bandwidth brownouts, link failure/recovery, site
//!   crash/recovery, probabilistic message loss) for the §13
//!   dynamic-network scenarios; a quiet fault plane leaves runs
//!   bit-identical to the unperturbed engine,
//! * bulk data moves through a shared-bandwidth flow plane
//!   ([`engine::Context::transfer`]): concurrent transfers split link
//!   capacities max-min fairly (`rtds_flow`), and every start, finish or
//!   link fault re-solves the rates and reschedules in-flight completions
//!   under the same `(time, class, seq)` total order,
//! * [`stats`] aggregates message counts, named protocol counters and the
//!   real-time metrics the paper's claims are judged by (guarantee ratio);
//!   it is backed by the [`rtds_metrics`] registry, whose histograms and
//!   gauges protocols feed through [`engine::Context::record`] and which
//!   [`metrics_json`] renders as the deterministic `metrics` section of
//!   every report (see `docs/METRICS.md`),
//! * [`trace`] records typed, causally-linked per-site events into the
//!   bounded/streaming sinks of the `rtds-trace` crate — for debugging,
//!   golden tests, the Fig. 1 protocol-walkthrough binary and
//!   chrome://tracing exports (see `docs/TRACING.md`); the engine itself can
//!   self-profile dispatch work per event class via
//!   [`engine::Simulator::enable_profiling`].
//!
//! The topology the engine simulates over comes from [`rtds_net`]; the
//! production [`engine::Protocol`] implementation is the RTDS node of
//! [`rtds_core`](../rtds_core/index.html), and declarative fault plans are
//! expanded onto [`faults`] by
//! [`rtds_scenarios`](../rtds_scenarios/index.html). See
//! `docs/ARCHITECTURE.md` for the event-ordering and fault-interleaving
//! state machines.

pub mod arrivals;
pub mod engine;
pub mod event;
pub mod faults;
pub(crate) mod flow;
pub mod metrics_json;
pub mod queue;
pub mod snapshot;
pub mod stats;
pub mod trace;

pub use engine::{Context, EngineProfile, Protocol, Simulator};
pub use event::{Event, EventPayload};
pub use faults::FaultEvent;
pub use metrics_json::metrics_to_json;
pub use queue::CalendarQueue;
pub use rtds_metrics::MetricsRegistry;
pub use rtds_trace::json::{self, Json};
pub use snapshot::{Snap, SnapshotError};
pub use stats::SimStats;
pub use trace::{Trace, TraceEvent};
