//! Distributed construction of the Potential Computing Sphere (§7).
//!
//! Every site runs the interrupted Bellman–Ford exchange for `2h` phases.
//! Because the simulated network is asynchronous (per-link delays differ),
//! the phases are synchronised per neighbor: a site only advances to phase
//! `p + 1` once it has received every neighbor's phase-`p` table (a standard
//! α-synchroniser, which is exactly what "a phase is composed of send step
//! and reception of all neighbor routing tables" describes).
//!
//! The state machine is pure (no simulator types): the node layer feeds it
//! received messages and forwards the messages it emits, which keeps it
//! independently unit-testable and lets the property tests compare its result
//! against the centralized [`rtds_net::bellman_ford::phased_apsp`] reference.

use rtds_net::routing::{RouteEntry, RoutingTable};
use rtds_net::sphere::Sphere;
use rtds_net::SiteId;
use std::sync::Arc;

/// Outgoing routing-update message produced by the PCS state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PcsSend {
    /// Neighbor to send to.
    pub to: SiteId,
    /// Phase this table belongs to.
    pub phase: usize,
    /// Routing-table lines — one shared snapshot per phase broadcast (every
    /// neighbor receives the same `Arc`).
    pub lines: Arc<[RouteEntry]>,
}

/// What one neighbor has sent that is not merged yet.
#[derive(Debug, Clone, PartialEq)]
struct Inbox {
    from: SiteId,
    /// Delay of the link to `from`.
    delay: f64,
    /// Its table for the phase being collected and, received early, for the
    /// phase after. A neighbor is never further ahead: it cannot finish that
    /// phase without this site's table for it, which is only sent once the
    /// current phase completes.
    held: [Option<Arc<[RouteEntry]>>; 2],
}

/// Per-site state of the §7 PCS construction.
#[derive(Debug, Clone, PartialEq)]
pub struct PcsState {
    owner: SiteId,
    /// Adjacency in broadcast order.
    neighbors: Vec<(SiteId, f64)>,
    table: RoutingTable,
    /// Total number of phases to run (`2h`).
    total_phases: usize,
    /// Phase currently being collected (1-based). `current > total_phases`
    /// means the construction is finished.
    current_phase: usize,
    /// One inbox per neighbor, in ascending sender order — the order a
    /// completed phase is merged in.
    inboxes: Vec<Inbox>,
    /// Inboxes holding a table for the current phase.
    received: usize,
    /// Sphere radius `h`.
    radius: usize,
}

impl PcsState {
    /// Creates the PCS state for a site with the given adjacency and radius.
    pub fn new(owner: SiteId, neighbors: Vec<(SiteId, f64)>, radius: usize) -> Self {
        let table = RoutingTable::initial(owner, &neighbors);
        Self::assemble(owner, neighbors, table, 2 * radius, 1, radius)
    }

    fn assemble(
        owner: SiteId,
        neighbors: Vec<(SiteId, f64)>,
        table: RoutingTable,
        total_phases: usize,
        current_phase: usize,
        radius: usize,
    ) -> Self {
        let mut inboxes: Vec<Inbox> = neighbors
            .iter()
            .map(|&(from, delay)| Inbox {
                from,
                delay,
                held: [None, None],
            })
            .collect();
        inboxes.sort_by_key(|inbox| inbox.from);
        PcsState {
            owner,
            neighbors,
            table,
            total_phases,
            current_phase,
            inboxes,
            received: 0,
            radius,
        }
    }

    /// The messages to send at start-up: the initial table, tagged phase 1,
    /// to every neighbor. Returns an empty vector when the radius is zero
    /// (the sphere is just the site itself) or the site is isolated.
    pub fn start(&mut self) -> Vec<PcsSend> {
        if self.total_phases == 0 || self.neighbors.is_empty() {
            self.current_phase = self.total_phases + 1;
            return Vec::new();
        }
        self.broadcast(1)
    }

    /// Handles a routing update from a neighbor. Returns the messages to send
    /// in response (the next phase's broadcast, once the current phase
    /// completes). An update from a site that is not a neighbor is ignored.
    pub fn on_update(
        &mut self,
        from: SiteId,
        phase: usize,
        lines: Arc<[RouteEntry]>,
    ) -> Vec<PcsSend> {
        if self.is_finished() {
            return Vec::new();
        }
        let Some(inbox) = self.inbox_of(from) else {
            return Vec::new();
        };
        // Anything else is a stale message from an already-completed phase.
        if let Some(ahead @ (0 | 1)) = phase.checked_sub(self.current_phase) {
            let first = self.inboxes[inbox].held[ahead].replace(lines).is_none();
            self.received += usize::from(first && ahead == 0);
        }
        self.try_advance()
    }

    fn inbox_of(&self, from: SiteId) -> Option<usize> {
        self.inboxes
            .binary_search_by_key(&from, |inbox| inbox.from)
            .ok()
    }

    fn try_advance(&mut self) -> Vec<PcsSend> {
        let mut out = Vec::new();
        let mut improved: Vec<SiteId> = Vec::new();
        while !self.is_finished() && self.received == self.inboxes.len() {
            // Merge everything received in this phase, tracking which
            // destinations improved: at most every line received.
            improved.clear();
            let held = self.inboxes.iter().flat_map(|inbox| &inbox.held[0]);
            improved.reserve(held.map(|lines| lines.len()).sum());
            for inbox in &mut self.inboxes {
                let lines = inbox.held[0].take().expect("every inbox was counted");
                self.table
                    .merge_tracked(inbox.from, inbox.delay, &lines, &mut improved);
            }
            self.received = 0;
            self.current_phase += 1;
            if self.is_finished() {
                break;
            }
            // Pull in any messages that arrived early for the new phase.
            for inbox in &mut self.inboxes {
                inbox.held[0] = inbox.held[1].take();
                self.received += usize::from(inbox.held[0].is_some());
            }
            // Delta broadcast: only the lines that improved this phase. A
            // line that did not improve was broadcast at its current value
            // in the phase it last changed (or in the phase-1 full table),
            // and the §7.1 merge is monotone, so every neighbor already
            // holds a route at least as good as re-merging it would yield —
            // omitting it cannot change any table. Empty deltas are still
            // sent: the α-synchroniser needs one message per neighbor per
            // phase, so message counts (and every deterministic report
            // field) are unchanged.
            improved.sort_unstable();
            improved.dedup();
            let lines: Arc<[RouteEntry]> = self.table.lines_of(&improved).collect();
            out.extend(self.broadcast_lines(self.current_phase, lines));
        }
        out
    }

    fn broadcast(&self, phase: usize) -> Vec<PcsSend> {
        // One snapshot, shared by every neighbor's message.
        self.broadcast_lines(phase, self.table.lines().into())
    }

    fn broadcast_lines(&self, phase: usize, lines: Arc<[RouteEntry]>) -> Vec<PcsSend> {
        self.neighbors
            .iter()
            .map(|(n, _)| PcsSend {
                to: *n,
                phase,
                lines: Arc::clone(&lines),
            })
            .collect()
    }

    /// Returns `true` once all `2h` phases have completed.
    pub(crate) fn is_finished(&self) -> bool {
        self.current_phase > self.total_phases
    }

    /// The routing table accumulated so far.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The Potential Computing Sphere of this site: every destination whose
    /// recorded route uses at most `h` hops. The delay diameter is the
    /// conservative over-estimate available from purely local knowledge,
    /// `max_{a≠b} (δ(k,a) + δ(k,b))` — the two largest delays added.
    pub(crate) fn sphere(&self) -> Sphere {
        let within = || self.table.entries().filter(|e| e.hops <= self.radius);
        let count = within().count();
        let (mut members, mut delays) = (Vec::with_capacity(count), Vec::with_capacity(count));
        for entry in within() {
            members.push(entry.destination);
            delays.push(entry.distance);
        }
        let (mut largest, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &delay in &delays {
            if delay > largest {
                (largest, second) = (delay, largest);
            } else if delay > second {
                second = delay;
            }
        }
        let diameter = 0.0f64.max(largest + second);
        Sphere::new(self.owner, self.radius, members, delays, diameter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::bellman_ford::phased_apsp;
    use rtds_net::generators::{erdos_renyi_connected, line, ring, DelayDistribution};
    use rtds_net::Network;

    /// Drives a set of PcsStates to completion by synchronously delivering
    /// every emitted message (delivery order follows a FIFO queue, which is a
    /// valid asynchronous execution).
    fn run_pcs(net: &Network, radius: usize) -> Vec<PcsState> {
        let mut states: Vec<PcsState> = net
            .sites()
            .map(|s| PcsState::new(s, net.neighbors(s).to_vec(), radius))
            .collect();
        let mut queue: std::collections::VecDeque<(SiteId, SiteId, usize, Arc<[RouteEntry]>)> =
            std::collections::VecDeque::new();
        for s in net.sites() {
            for send in states[s.0].start() {
                queue.push_back((s, send.to, send.phase, send.lines));
            }
        }
        let mut processed = 0usize;
        while let Some((from, to, phase, lines)) = queue.pop_front() {
            processed += 1;
            assert!(processed < 1_000_000, "PCS construction did not terminate");
            for send in states[to.0].on_update(from, phase, lines) {
                queue.push_back((to, send.to, send.phase, send.lines));
            }
        }
        states
    }

    #[test]
    fn distributed_pcs_matches_centralized_reference() {
        for (net, radius) in [
            (ring(10, DelayDistribution::Constant(1.0), 0), 2usize),
            (
                line(8, DelayDistribution::Uniform { min: 1.0, max: 4.0 }, 1),
                3,
            ),
            (
                erdos_renyi_connected(
                    15,
                    0.2,
                    DelayDistribution::Uniform { min: 0.5, max: 2.0 },
                    2,
                ),
                2,
            ),
        ] {
            let states = run_pcs(&net, radius);
            let reference = phased_apsp(&net, 2 * radius);
            for s in net.sites() {
                assert!(states[s.0].is_finished(), "site {s} did not finish");
                for d in net.sites() {
                    let got = states[s.0].table().distance(d);
                    let want = reference.tables[s.0].distance(d);
                    match (got, want) {
                        (Some(g), Some(w)) => assert!(
                            (g - w).abs() < 1e-9,
                            "{s} -> {d}: distributed {g} vs reference {w}"
                        ),
                        (None, None) => {}
                        other => panic!("{s} -> {d}: mismatch {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn sphere_members_match_reference_sphere() {
        let net = ring(12, DelayDistribution::Constant(2.0), 0);
        let radius = 2;
        let states = run_pcs(&net, radius);
        let reference = phased_apsp(&net, 2 * radius);
        for s in net.sites() {
            let dist_sphere = states[s.0].sphere();
            let ref_sphere = Sphere::from_tables(&reference.tables[s.0], &reference.tables, radius);
            assert_eq!(dist_sphere.members, ref_sphere.members, "site {s}");
            // The locally computable diameter over-estimates the exact one.
            assert!(dist_sphere.delay_diameter + 1e-9 >= ref_sphere.delay_diameter);
        }
    }

    #[test]
    fn zero_radius_finishes_immediately() {
        let net = ring(4, DelayDistribution::Constant(1.0), 0);
        let mut state = PcsState::new(SiteId(0), net.neighbors(SiteId(0)).to_vec(), 0);
        assert!(state.start().is_empty());
        assert!(state.is_finished());
        let sphere = state.sphere();
        assert_eq!(sphere.members, vec![SiteId(0)]);
        assert_eq!(sphere.delay_diameter, 0.0);
    }

    #[test]
    fn isolated_site_finishes_immediately() {
        let mut state = PcsState::new(SiteId(0), vec![], 3);
        assert!(state.start().is_empty());
        assert!(state.is_finished());
        assert_eq!(state.sphere().members, vec![SiteId(0)]);
        assert_eq!(state.radius, 3);
    }

    #[test]
    fn early_messages_are_buffered_not_lost() {
        // Two sites, one link: site 0 receives site 1's phase-2 table before
        // finishing phase 1 must still converge.
        let mut net = Network::new(2);
        net.add_link(SiteId(0), SiteId(1), 1.0).unwrap();
        let mut a = PcsState::new(SiteId(0), net.neighbors(SiteId(0)).to_vec(), 1);
        let mut b = PcsState::new(SiteId(1), net.neighbors(SiteId(1)).to_vec(), 1);
        let a_start = a.start();
        let b_start = b.start();
        assert_eq!(a_start.len(), 1);
        assert_eq!(b_start.len(), 1);
        // Deliver b's phase-1 to a: a advances and emits phase 2.
        let a_out = a.on_update(SiteId(1), 1, b_start[0].lines.clone());
        assert_eq!(a_out.len(), 1);
        assert_eq!(a_out[0].phase, 2);
        // Deliver a's phase-2 to b *before* a's phase-1: must be buffered.
        let out = b.on_update(SiteId(0), 2, a_out[0].lines.clone());
        assert!(out.is_empty());
        assert!(!b.is_finished());
        // Now deliver a's phase-1: b advances through phase 1 and, with the
        // buffered phase-2 table already present, through phase 2 as well.
        let out = b.on_update(SiteId(0), 1, a_start[0].lines.clone());
        // b emits its phase-2 broadcast while advancing.
        assert_eq!(out.len(), 1);
        assert!(b.is_finished());
        // Finish a.
        let out_b2: Vec<_> = out;
        let _ = a.on_update(SiteId(1), 2, out_b2[0].lines.clone());
        assert!(a.is_finished());
        assert_eq!(a.table().distance(SiteId(1)), Some(1.0));
        assert_eq!(b.table().distance(SiteId(0)), Some(1.0));
    }
}
