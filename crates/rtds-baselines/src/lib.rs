//! # rtds-baselines — comparison policies for the RTDS evaluation
//!
//! The paper's qualitative claims ("a limited number of sites and
//! communication links", "an increase of the number of accepted jobs") only
//! make sense relative to alternatives. This crate provides the policies the
//! experiment harness compares RTDS against:
//!
//! * [`local_only`] — accept a job only if the arrival site can guarantee it
//!   locally (no cooperation at all): the lower bound on acceptance,
//! * [`random_offload`] — on local failure, forward the whole job to a random
//!   neighbor with a bounded number of forwarding hops (a naive cooperation
//!   scheme with very low overhead),
//! * [`broadcast_bidding`] — focused addressing / bidding in the style of
//!   Cheng, Stankovic and Ramamritham \[4\]: on local failure the initiator
//!   floods a request for bids over the *whole* network, collects surplus
//!   bids during a bidding window and then offers the job to the best
//!   bidders; acceptance is good but the message cost grows with the network
//!   size — exactly what the Computing Sphere is designed to avoid,
//! * [`centralized`] — a centralized greedy scheduler with exact global
//!   knowledge and zero protocol cost. It is not a bound: `global-heft`
//!   accepts more on some workloads,
//! * [`global_heft`] — centralized insertion-based HEFT list scheduling
//!   with communication-inclusive upward ranks (Topcuoglu et al.); the
//!   classic DAG-scheduling heuristic as a distribution baseline,
//! * [`policy`] — the common report type and [`BASELINES`], the five entry
//!   points by name behind one signature, so harnesses iterate over one
//!   `(name, fn)` table instead of hand-wiring each policy's parameters.
//!
//! Every policy consumes the same ingredients as RTDS itself — networks from
//! [`rtds_net`], jobs from [`rtds_graph`], one [`rtds_sched::SiteScheduler`]
//! per site — and is driven side-by-side with
//! [`rtds_core`](../rtds_core/index.html) by the comparison harness in
//! [`rtds_bench`](../rtds_bench/index.html).
//!
//! A policy is only its placement decision. The rest is written once, in the
//! private `sites` module: the loop that builds the sites, offers the jobs in
//! arrival order, accounts for each verdict and sweeps the plans for
//! deadline misses; the "admit on this site at this time and commit if it
//! fits" step; and the cross-site list scheduler shared by [`centralized`]
//! and [`global_heft`] (they differ in the rank they hand it), which places
//! straight into the live per-site state and takes the job back on refusal —
//! no policy copies a plan.

pub mod broadcast_bidding;
pub mod centralized;
pub mod global_heft;
pub mod local_only;
pub mod policy;
pub mod random_offload;
mod sites;

pub use broadcast_bidding::{run_broadcast_bidding, BiddingConfig};
pub use global_heft::run_global_heft;
pub use local_only::run_local_only;
pub use policy::{Baseline, PolicyReport, BASELINES};
