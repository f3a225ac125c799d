//! # rtds-metrics — deterministic streaming telemetry
//!
//! A zero-allocation-on-hot-path metrics layer shared by the whole RTDS
//! workspace: the simulation engine, the protocol nodes, the workload
//! generators and every experiment binary record into one
//! [`MetricsRegistry`] of named counters, gauges and log-bucketed streaming
//! [`Histogram`]s.
//!
//! Design constraints (in priority order):
//!
//! 1. **Determinism.** Every summary a report surfaces — counts, exact
//!    min/max, bucket-resolved p50/p90/p99 — is a pure function of the
//!    recorded samples, independent of sample order, merge order and
//!    thread count. Buckets are fixed powers of two classified from the
//!    IEEE-754 exponent bits, so there is no floating-point accumulation
//!    anywhere: merging is `u64` addition plus exact `f64` min/max, both
//!    associative and commutative.
//! 2. **Hot-path cost.** Instrument names are `&'static str` literals and
//!    a histogram holds its occupied buckets inline: recording a sample is
//!    a map walk by name, a binary search by scope and an increment, with
//!    allocation only on the first touch of an instrument (and then exactly
//!    the one slot it needs, see [`ScopeMap`]) and once more if a
//!    histogram's span outgrows its inline window.
//! 3. **Scopes.** Instruments optionally carry a [`Scope`] label
//!    (`Phase(n)`, `Site(n)`), and any scoped family can be rolled up into
//!    its global view by the same associative merge.
//!
//! This crate is dependency-free and simulation-agnostic; the JSON export
//! lives in `rtds_sim::json` (the workspace's deterministic JSON layer),
//! which renders a registry as a `metrics` report section. See
//! `docs/METRICS.md` for the bucket scheme, the determinism guarantees and
//! a how-to for adding an instrument.

pub mod histogram;
pub mod registry;

pub use histogram::{Histogram, HistogramSummary, BUCKET_COUNT};
pub use registry::{CounterFamily, Gauge, GaugeFamily, MetricsRegistry, Scope, ScopeMap};
