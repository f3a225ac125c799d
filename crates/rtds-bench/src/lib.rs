//! # rtds-bench — experiment harness and micro-benchmarks
//!
//! This crate regenerates every exhibit of the paper and the simulation-grade
//! evaluation of its claims (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! * binaries (`src/bin/`):
//!   * `exp_fig1_overview` — a traced walk through the Fig. 1 protocol
//!     pipeline for one distributed job,
//!   * `exp_table1_example` — Fig. 2 instance, Fig. 3 schedule `S`,
//!     Fig. 4 schedule `S*`, Table 1 adjusted windows,
//!   * `exp_acceptance_vs_load` — E1: guarantee ratio vs. arrival rate for
//!     RTDS and the baselines,
//!   * `exp_overhead_vs_size` — E2: messages per job vs. network size,
//!   * `exp_sphere_radius` — E3: the sphere-radius `h` trade-off,
//!   * `exp_laxity_tightness` — E4: acceptance vs. deadline tightness
//!     (which exercises adjustment cases (i)/(ii)/(iii)),
//!   * `exp_extensions_ablation` — E5: the §13 extension switches,
//!   * `exp_scenarios` — the declarative scenario engine: registry listing,
//!     fault-injection scenarios and the sharded seed sweep (see
//!     [`rtds_scenarios`]),
//!   * `exp_flows` — E7: the shared-bandwidth flow plane under contention
//!     (the registry flow scenarios through `rtds-flow`, with the
//!     `--assert-contention` tripwire proving transfers really share
//!     bandwidth; see `docs/NETWORK.md`),
//!   * `exp_perf` — the fixed performance suite behind the recorded
//!     `BENCH_<n>.json` trajectory (see [`perf`] and `docs/PERFORMANCE.md`);
//!     its `--baseline <BENCH_N.json>` mode diffs a run against a recorded
//!     report and exits nonzero on deterministic-field mismatches,
//!   * `exp_workloads` — streaming open-loop workload runs (the million-job
//!     driver) with JSONL trace `--record`/`--replay` round-trips (see
//!     [`rtds_workload`] and `docs/WORKLOADS.md`),
//! * Criterion benches (`benches/`): the Mapper, the Hopcroft–Karp matching,
//!   the phased routing exchange, the local admission test, DAG generation
//!   and an end-to-end job distribution.
//!
//! The harness utilities in this library build reproducible workloads and run
//! policy comparisons in parallel across CPU cores (one simulation per
//! thread; each individual simulation stays deterministic). Every binary
//! accepts `--seed <u64>` and `--json <path>` through the shared [`args`]
//! parser.

pub mod args;
pub mod harness;
pub mod perf;
pub mod tracing;

pub use perf::{resume_soak, run_perf_suite, run_soak, PerfReport, SoakResult};

pub use args::{write_json_report, ExpArgs};
pub use harness::{
    baseline_policies, comparison_row, parallel_sweep, policy_comparison, workload, ComparisonRow,
    WorkloadSpec,
};
pub use tracing::{TraceSetup, TRACE_FLAGS};
// The sharded generalisation of `parallel_sweep` lives with the scenario
// sweep runner; re-exported here so harness users find both in one place.
pub use rtds_scenarios::parallel_sweep_sharded;
