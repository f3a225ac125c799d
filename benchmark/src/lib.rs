//! # rtds-benchmark — the repo benchmark
//!
//! Five second-long workloads, end-to-end metrics (job throughput, memory,
//! allocations, guarantee ratio, message overhead) and a per-crate layer
//! table, all measured from outside the `rtds` crates through their public
//! API. `BENCHMARK.json` at the repo root is the contract; `README.md` in
//! this directory explains the workloads, the metrics and how to compare
//! two sets of runs.

pub mod alloc;
pub mod compare;
pub mod contract;
pub mod e2e;
pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Every build of the benchmark (binary and tests) counts allocations.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
