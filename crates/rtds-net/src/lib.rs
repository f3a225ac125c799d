//! # rtds-net — the communication network substrate of the RTDS paper
//!
//! The paper assumes (§2) an *arbitrary connected graph* of sites joined by
//! bidirectional communication links. Each site knows the delay of its
//! adjacent links; the delays need not satisfy the triangle inequality; the
//! links are faithful, loss-less and order-preserving, and the number of
//! sites is unknown (the network may be "arbitrarily wide").
//!
//! This crate provides:
//!
//! * [`Network`] — the weighted site graph with structural queries,
//! * [`generators`] — topology families (rings, grids, tori, hypercubes,
//!   random geometric graphs, connected Erdős–Rényi, Barabási–Albert,
//!   random trees, stars, complete graphs) with configurable delay
//!   distributions,
//! * [`dijkstra`] — reference shortest paths, eccentricities and diameters
//!   used to validate the distributed algorithm, and the [`RouteMemo`],
//! * [`routing`] — the `<destination, distance, next hop>` routing tables of
//!   §7.1, holding only the destinations a site knows, sorted by id,
//! * [`bellman_ford`] — the *interrupted* phase-synchronous distributed
//!   All-Pairs Shortest Paths algorithm of §7.2 (Bertsekas–Gallager style),
//! * [`sphere`] — hop-bounded sphere extraction: the structural core of the
//!   Potential Computing Sphere,
//! * [`siteset`] — the fixed-width [`siteset::SiteSet`] bitset answering sphere
//!   membership in O(1).
//!
//! The protocol layers on top live in [`rtds_core`](../rtds_core/index.html);
//! the discrete-event engine driving them is
//! [`rtds_sim`](../rtds_sim/index.html).

pub mod bellman_ford;
pub mod dijkstra;
pub mod generators;
pub mod routing;
pub mod siteset;
pub mod sphere;
pub mod topology;

pub use bellman_ford::PhasedApspResult;
pub use dijkstra::RouteMemo;
pub use routing::{RouteEntry, RoutingTable};
pub use topology::{LinkState, Network, SiteId};
