//! # rtds-bench — the experiment harness
//!
//! This crate regenerates every exhibit of the paper and the
//! simulation-grade evaluation of its claims through one binary,
//! `rtds-exp <experiment>` (`src/bin/rtds-exp/`, one module per
//! experiment):
//!
//! * `fig1` — a traced walk through the Fig. 1 protocol pipeline for one
//!   distributed job,
//! * `table1` — Fig. 2 instance, Fig. 3 schedule `S`, Fig. 4 schedule `S*`,
//!   Table 1 adjusted windows,
//! * `acceptance` — E1: guarantee ratio vs. arrival rate for RTDS and the
//!   baselines,
//! * `overhead` — E2: messages per job vs. network size,
//! * `radius` — E3: the sphere-radius `h` trade-off,
//! * `laxity` — E4: acceptance vs. deadline tightness (which exercises
//!   adjustment cases (i)/(ii)/(iii)),
//! * `ablation` — E5: the §13 extension switches,
//! * `scenarios` — E6: the registry's fault-injection and workload
//!   scenarios (see [`rtds_scenarios`]),
//! * `flows` — E7: the shared-bandwidth flow plane under contention (the
//!   registry flow scenarios through `rtds-flow`, with the
//!   `--assert-contention` tripwire proving transfers really share
//!   bandwidth; see `docs/NETWORK.md`),
//! * `sched` — E8: the protocol and HEFT local schedulers compared on every
//!   registry scenario (see `docs/SCHEDULING.md`),
//! * `workloads` — streaming open-loop workload runs (the million-job
//!   driver) with JSONL trace `--record`/`--replay` round-trips (see
//!   [`rtds_workload`] and `docs/WORKLOADS.md`).
//!
//! E1–E8 are scenario sweeps: each is a list of [`harness::Row`]s (a
//! scenario plus the policy that runs it: RTDS, a baseline or a local
//! scheduler) swept over the seeds from `--seed` by the same code as
//! [`rtds_scenarios::run_sweep`]; the table prints each row's median and
//! min–max, and `--json` writes the [`rtds_scenarios::SweepReport`].
//!
//! The library holds what the experiments share: the argument parser
//! ([`args`]), the rows, their sweep and table ([`harness`]) and the
//! tracing flags ([`tracing`]). Nothing here
//! measures time: speed is `benchmark/`'s job. What a fixed suite of runs
//! computes and allocates is pinned by the root cost ledger
//! (`tests/cost_ledger.rs`, see `docs/PERFORMANCE.md`).

pub mod args;
pub mod harness;
pub mod tracing;

pub use args::{write_json_report, ExpArgs};
pub use tracing::TraceSetup;
