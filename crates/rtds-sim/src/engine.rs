//! The simulation engine: protocols, contexts and the simulator loop.
//!
//! A *protocol* is the code running on the system-management processor of a
//! site (§2): it reacts to start-up, to message deliveries and to timers, and
//! it may send messages to neighbors or to any site it knows a route to (the
//! engine forwards along the routing substrate only in the sense of charging
//! the end-to-end delay supplied by the caller — routing decisions themselves
//! belong to the protocol, as in the paper).

use crate::event::{Event, EventPayload};
use crate::faults::{FaultEvent, FaultState};
use crate::flow::{FinishSchedule, FlowPlane};
use crate::queue::CalendarQueue;
use crate::stats::SimStats;
use crate::trace::{SpanId, Trace, TraceEvent, TracePayload};
use rtds_metrics::Scope;
use rtds_net::{Network, RouteMemo, SiteId};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// Behaviour of one site. `Msg` is the wire-message type of the protocol.
pub trait Protocol: Sized {
    /// Message type exchanged between sites (and injected externally).
    type Msg: Clone + Debug + PartialEq;

    /// Called once per site before any event is processed.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a message is delivered to this site.
    fn on_message(&mut self, from: SiteId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a timer set by this site fires. The default implementation
    /// ignores timers.
    fn on_timer(&mut self, _timer_id: u64, _ctx: &mut Context<'_, Self::Msg>) {}
}

/// Outgoing actions buffered during one handler invocation.
#[derive(Debug)]
enum Outgoing<M> {
    /// Send `msg` to `to`, charging `delay` time units. `None` delay means
    /// "use the direct link delay" and is an error if no direct link exists.
    Send {
        to: SiteId,
        msg: M,
        delay: Option<f64>,
    },
    Timer {
        delay: f64,
        timer_id: u64,
    },
    /// Move `volume` units of data to `to` through the shared-bandwidth
    /// plane; `msg` is delivered when the transfer completes.
    Transfer {
        to: SiteId,
        volume: f64,
        msg: M,
    },
}

/// Handler-side view of the simulation: lets a protocol inspect the current
/// time and topology, send messages, set timers, bump named counters and
/// record trace events.
pub struct Context<'a, M> {
    site: SiteId,
    now: f64,
    network: &'a Network,
    faults: &'a FaultState,
    outgoing: Vec<Outgoing<M>>,
    stats: &'a mut SimStats,
    trace: &'a mut Trace,
}

impl<'a, M> Context<'a, M> {
    /// The site this handler runs on.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Sends a message over the *direct link* to a neighbor. The propagation
    /// delay is the link delay. If the link is currently failed by fault
    /// injection, the message is silently lost (the sender cannot know).
    ///
    /// # Panics
    /// Panics if `to` has never been a direct neighbor — protocols must
    /// route explicitly, exactly as in the paper (messages to non-neighbors
    /// travel via the routing table, see [`Context::send_routed`]).
    pub fn send(&mut self, to: SiteId, msg: M) {
        assert!(
            self.network.has_link(self.site, to) || self.faults.link_is_failed(self.site, to),
            "site {} has no direct link to {} — use send_routed",
            self.site,
            to
        );
        self.outgoing.push(Outgoing::Send {
            to,
            msg,
            delay: None,
        });
    }

    /// Sends a message to an arbitrary site, charging an explicit end-to-end
    /// delay (typically the minimum-delay route distance taken from a routing
    /// table). The engine models the path as a single delayed delivery; the
    /// intermediate relays belong to the management plane and are accounted
    /// for in the statistics by the caller via [`Context::count`].
    ///
    /// # Panics
    /// Panics if the delay is negative or not finite.
    pub fn send_routed(&mut self, to: SiteId, delay: f64, msg: M) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "routed delay must be finite and non-negative, got {delay}"
        );
        self.outgoing.push(Outgoing::Send {
            to,
            msg,
            delay: Some(delay),
        });
    }

    /// Initiates a data transfer of `volume` units to an arbitrary site
    /// through the shared-bandwidth flow plane: after the minimum-delay
    /// path's propagation delay the data starts occupying bandwidth on
    /// that path (splitting each link's capacity max-min fairly with
    /// every concurrent flow), and `msg` is delivered to `to` when the
    /// last byte arrives. A zero-volume transfer degenerates to a routed
    /// send charged the shortest-path delay. If link failures have cut
    /// the sender off from `to` at initiation time, the transfer is lost
    /// (counted as `sim_lost_unreachable`), like a routed send.
    ///
    /// # Panics
    /// Panics if the volume is negative or not finite.
    pub fn transfer(&mut self, to: SiteId, volume: f64, msg: M) {
        assert!(
            volume.is_finite() && volume >= 0.0,
            "transfer volume must be finite and non-negative, got {volume}"
        );
        self.outgoing.push(Outgoing::Transfer { to, volume, msg });
    }

    /// Sets a timer firing `delay` time units from now, queued as an
    /// [`EventPayload::Timer`] and handed to [`Protocol::on_timer`]. This is
    /// the engine's only timer primitive. It stays public although no
    /// protocol in the workspace sets a timer yet: lock leases (an expiry on
    /// every member lock and initiator wait) are its planned first caller.
    pub fn set_timer(&mut self, delay: f64, timer_id: u64) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "timer delay must be finite and non-negative, got {delay}"
        );
        self.outgoing.push(Outgoing::Timer { delay, timer_id });
    }

    /// Sends `msg` over every direct link of this site, in adjacency order
    /// (the flood step of the test protocols).
    #[cfg(test)]
    pub(crate) fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for &(to, _) in self.network.neighbors(self.site) {
            self.outgoing.push(Outgoing::Send {
                to,
                msg: msg.clone(),
                delay: None,
            });
        }
    }

    /// Increments a named statistics counter. Names are `&'static str` so
    /// that per-message counter bumps never allocate.
    pub fn count(&mut self, name: &'static str, amount: u64) {
        self.stats.add(name, amount);
    }

    /// Records a sample into a named streaming histogram (log-bucketed;
    /// summaries are deterministic — see `rtds_metrics`).
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.stats.metrics_mut().record(name, value);
    }

    /// Records a sample into a histogram scoped to a phase label.
    pub fn record_phase(&mut self, name: &'static str, phase: u32, value: f64) {
        self.stats
            .metrics_mut()
            .record_scoped(name, Scope::Phase(phase), value);
    }

    /// Records a typed trace event for this site at the current time, under
    /// the given span with the given causal parent. The payload closure is
    /// evaluated **only when tracing is enabled**, so call sites pay one
    /// branch — never an allocation or a format — on untraced runs.
    pub fn trace(&mut self, span: SpanId, parent: SpanId, payload: impl FnOnce() -> TracePayload) {
        if self.trace.is_enabled() {
            let event = TraceEvent {
                time: self.now,
                site: self.site.0 as u32,
                span,
                parent,
                payload: payload(),
            };
            self.trace.record(&event);
        }
    }
}

/// A pull-based stream of external arrivals for
/// [`Simulator::run_streaming`]: the engine asks for the next arrival time
/// and takes arrivals one at a time as the clock reaches them, instead of
/// requiring the whole workload to be injected (and held in the event heap)
/// up front.
///
/// Implementations must yield arrivals in non-decreasing time order. The
/// open-loop generators and trace replayers of the `rtds-workload` crate
/// feed this trait through the job layer in `rtds-core`.
pub trait ArrivalSource<M> {
    /// Time of the next arrival, if any. Must not change between a
    /// `peek_time` and the following `take`.
    fn peek_time(&mut self) -> Option<f64>;

    /// Takes the next arrival: `(time, site, message)`.
    fn take(&mut self) -> Option<(f64, SiteId, M)>;
}

/// Engine self-profile: how dispatch work split across event classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineProfile {
    /// Events dispatched per class (deliver/external/timer/fault/
    /// flow_start/flow_finish). Counted unconditionally — deterministic
    /// and free.
    pub dispatch_counts: [u64; 6],
    /// Wall-clock time spent dispatching each class. **NONDETERMINISTIC**:
    /// never fold into reports that are byte-compared across runs (the same
    /// discipline that keeps the cost ledger free of timings).
    pub wall: [Duration; 6],
}

/// The engine-level ordering trace: the recorded `(time, class_rank, seq)`
/// dispatch triples plus the recording capacity.
type OrderLog = (Vec<(f64, u8, u64)>, usize);

/// The discrete-event simulator: a network, one protocol instance per site,
/// an event queue and accumulated statistics.
pub struct Simulator<P: Protocol> {
    network: Network,
    nodes: Vec<P>,
    queue: CalendarQueue<P::Msg>,
    now: f64,
    started: bool,
    stats: SimStats,
    trace: Trace,
    faults: FaultState,
    max_events: u64,
    events_processed: u64,
    /// Reused buffer behind every [`Context`]'s outgoing-action list, so
    /// dispatching an event does not allocate once the high-water mark is
    /// reached.
    outgoing_scratch: Vec<Outgoing<P::Msg>>,
    /// When `true`, per-class dispatch metrics (and wall-clock timers) flow
    /// into the metrics registry. Opt-in: the metrics become part of
    /// deterministic reports, so default runs must not grow extra keys.
    profiling: bool,
    dispatch_counts: [u64; 6],
    wall_by_class: [Duration; 6],
    /// Shared-bandwidth plane tracking in-flight [`Context::transfer`]s.
    flows: FlowPlane<P::Msg>,
    /// The transfers' routes (a cache, not simulation state).
    routes: RouteMemo,
    /// Reused buffer for the completion events of a flow re-solve.
    finish_scratch: Vec<FinishSchedule>,
    /// Reused buffer for batched same-timestamp dispatch.
    batch_scratch: Vec<Event<P::Msg>>,
    /// When set, the engine appends the `(time, class_rank, seq)` ordering
    /// triple of every dispatched event until the capacity is reached —
    /// the engine-level ordering trace behind `tests/determinism.rs`.
    order_log: Option<OrderLog>,
    /// The sites touched since the last [`Simulator::take_touched`], each
    /// once, with `is_touched` as the membership flags.
    touched: Vec<SiteId>,
    is_touched: Vec<bool>,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator from a network and a node factory (called once per
    /// site in id order). The event heap is pre-sized for the start-up
    /// broadcast wave (a few events per link) so early pushes do not
    /// repeatedly regrow it.
    pub fn new(network: Network, mut factory: impl FnMut(SiteId) -> P) -> Self {
        let nodes: Vec<P> = network.sites().map(&mut factory).collect();
        let faults = FaultState::new(nodes.len(), 0);
        let queue = CalendarQueue::with_capacity(4 * network.link_count() + 16);
        let flows = FlowPlane {
            topo_version: network.version(),
            ..FlowPlane::default()
        };
        let is_touched = vec![false; nodes.len()];
        Simulator {
            network,
            nodes,
            queue,
            now: 0.0,
            started: false,
            stats: SimStats::default(),
            trace: Trace::disabled(),
            faults,
            max_events: u64::MAX,
            events_processed: 0,
            outgoing_scratch: Vec::new(),
            profiling: false,
            dispatch_counts: [0; 6],
            wall_by_class: [Duration::ZERO; 6],
            flows,
            routes: RouteMemo::default(),
            finish_scratch: Vec::new(),
            batch_scratch: Vec::new(),
            order_log: None,
            touched: Vec::new(),
            is_touched,
        }
    }

    /// Starts recording the `(time, class_rank, seq)` ordering triple of
    /// every dispatched event, up to `capacity` entries. A queue-order
    /// regression then fails with a pinpointed triple diff instead of a
    /// byte-mismatch blob in the final report.
    pub fn enable_order_log(&mut self, capacity: usize) {
        self.order_log = Some((Vec::with_capacity(capacity.min(1 << 20)), capacity));
    }

    /// The ordering triples recorded so far (empty unless
    /// [`Simulator::enable_order_log`] was called).
    pub fn order_log(&self) -> &[(f64, u8, u64)] {
        self.order_log
            .as_ref()
            .map(|(v, _)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Enables structured tracing as a bounded flight recorder (a ring of
    /// [`crate::trace::DEFAULT_RING_CAPACITY`] events with drop counters) —
    /// safe on arbitrarily long runs. Tracing is disabled by default; use
    /// [`Simulator::set_trace`] for an explicit ring size or a streaming
    /// JSONL sink.
    pub fn enable_trace(&mut self) {
        self.trace = Trace::flight_recorder();
    }

    /// Installs an explicit trace recorder (ring, JSONL, or disabled).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Mutable access to the trace recorder (to flush a streaming sink).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Enables engine self-profiling: per-class dispatch counters and
    /// simulated-time-advance histograms are recorded into the metrics
    /// registry under `engine_dispatch` / `engine_time_advance` (scoped by
    /// event class: deliver, external, timer, fault, flow start, flow
    /// finish), and wall-clock dispatch
    /// timers accumulate into [`EngineProfile::wall`]. Opt-in because the
    /// metrics keys become part of deterministic reports.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// The engine self-profile collected so far. Dispatch counts are always
    /// maintained; wall-clock fields stay zero unless
    /// [`Simulator::enable_profiling`] was called (and are nondeterministic
    /// when set — see [`EngineProfile`]).
    pub fn profile(&self) -> EngineProfile {
        EngineProfile {
            dispatch_counts: self.dispatch_counts,
            wall: self.wall_by_class,
        }
    }

    /// Caps the number of processed events (a safety net against protocol
    /// bugs that would otherwise loop forever).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The network being simulated.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Read access to a node.
    pub fn node(&self, s: SiteId) -> &P {
        &self.nodes[s.0]
    }

    /// Mutable access to a node (used by experiment drivers between runs; not
    /// available to protocols during a run).
    pub fn node_mut(&mut self, s: SiteId) -> &mut P {
        &mut self.nodes[s.0]
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Structured trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events in the queue (in a streaming run this is the
    /// in-flight traffic only, never the whole workload).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Appends to `out` every site touched since the last call (or since
    /// construction), each once, in no particular order, and forgets them.
    /// Running a protocol handler on a site touches it — handlers are the
    /// only way node state changes during a run, so a driver that inspects
    /// nodes between chunks of simulated time need only look at these — and
    /// so does [`Simulator::touch`].
    pub fn take_touched(&mut self, out: &mut Vec<SiteId>) {
        for site in &self.touched {
            self.is_touched[site.0] = false;
        }
        out.append(&mut self.touched);
    }

    /// Makes the next [`Simulator::take_touched`] report `site` whether or
    /// not a handler runs on it until then.
    pub fn touch(&mut self, site: SiteId) {
        if !self.is_touched[site.0] {
            self.is_touched[site.0] = true;
            self.touched.push(site);
        }
    }

    /// Injects an external stimulus (for example a job arrival) at an
    /// absolute simulated time.
    pub fn inject_at(&mut self, time: f64, site: SiteId, msg: P::Msg) {
        assert!(
            time + 1e-12 >= self.now,
            "cannot inject an event in the past (now {}, requested {time})",
            self.now
        );
        self.queue
            .push(time, site, EventPayload::External { message: msg });
    }

    /// Schedules a perturbation at an absolute simulated time. At equal
    /// timestamps faults apply before any protocol event (see the event
    /// total order in [`crate::event`]).
    pub fn schedule_fault(&mut self, time: f64, fault: FaultEvent) {
        assert!(
            time + 1e-12 >= self.now,
            "cannot schedule a fault in the past (now {}, requested {time})",
            self.now
        );
        // Faults target no particular site; SiteId(0) is a placeholder.
        self.queue
            .push(time, SiteId(0), EventPayload::Fault { fault });
    }

    /// Seeds the RNG used exclusively for message-loss draws. Call before
    /// the run; protocol determinism is unaffected either way.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.faults.reseed(seed);
    }

    /// Sets the message-loss probability immediately (faults can change it
    /// mid-run via [`FaultEvent::SetMessageLoss`]).
    pub fn set_message_loss(&mut self, probability: f64) {
        self.faults.set_loss_probability(probability);
    }

    /// Number of transfers currently occupying bandwidth.
    pub fn flows_in_flight(&self) -> usize {
        self.flows.len()
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch_with_ctx(SiteId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Runs until the event queue is empty (or the event cap is reached).
    /// Returns the final simulated time.
    pub fn run_to_quiescence(&mut self) -> f64 {
        self.run_until(f64::INFINITY)
    }

    /// Runs until the queue is empty or the next event would fire after
    /// `horizon`. Returns the final simulated time.
    pub fn run_until(&mut self, horizon: f64) -> f64 {
        self.ensure_started();
        while self.process_next_batch(horizon) {}
        self.now
    }

    /// Runs with a pull-based arrival stream: before every event, arrivals
    /// that are due not later than the next queued event (and not later than
    /// `horizon`) are taken from `source` and injected, so the event heap
    /// only ever holds in-flight traffic plus the handful of arrivals due
    /// right now — a million-arrival run needs memory for the in-flight
    /// work, not for the whole workload.
    ///
    /// Because external events outrank deliveries and timers at equal
    /// timestamps (see [`crate::event`]), a streaming run is event-for-event
    /// identical to pre-injecting the same arrivals up front.
    ///
    /// Returns the final simulated time; call again with a later horizon to
    /// continue (the experiment layer interleaves chunks with plan pruning).
    pub fn run_streaming<S: ArrivalSource<P::Msg> + ?Sized>(
        &mut self,
        source: &mut S,
        horizon: f64,
    ) -> f64 {
        self.ensure_started();
        loop {
            if self.events_processed >= self.max_events {
                break;
            }
            while let Some(t) = source.peek_time() {
                if t > horizon {
                    break;
                }
                if let Some(queued) = self.queue.peek_time() {
                    if t > queued {
                        break;
                    }
                }
                let (time, site, msg) = source.take().expect("peeked arrival exists");
                assert!(
                    time + 1e-12 >= self.now,
                    "arrival source went backwards (now {}, arrival {time})",
                    self.now
                );
                self.queue.push(
                    time.max(self.now),
                    site,
                    EventPayload::External { message: msg },
                );
            }
            if !self.process_next_batch(horizon) {
                break;
            }
        }
        self.now
    }

    /// Pops and dispatches every event sharing the earliest pending
    /// timestamp, if that timestamp is at or before `horizon` and the
    /// event cap is not exhausted. The batch is drained from the calendar
    /// queue in one pass (amortizing the ordering machinery), then
    /// dispatched in `(class, seq)` order — the exact order the old
    /// per-event loop produced, because events scheduled *by* the batch
    /// carry higher sequence numbers and join the next batch. Returns
    /// whether any event was processed.
    fn process_next_batch(&mut self, horizon: f64) -> bool {
        {
            let Some(next_time) = self.queue.peek_time() else {
                return false;
            };
            if next_time > horizon {
                return false;
            }
            if self.events_processed >= self.max_events {
                return false;
            }
            let budget = (self.max_events - self.events_processed).min(usize::MAX as u64) as usize;
            let mut batch = std::mem::take(&mut self.batch_scratch);
            self.queue.pop_batch(&mut batch, budget);
            debug_assert!(!batch.is_empty());
            let prev_now = self.now;
            self.now = self.now.max(next_time);
            let mut first = true;
            for event in batch.drain(..) {
                self.events_processed += 1;
                debug_assert!(event.time + 1e-9 >= prev_now, "time went backwards");
                if let Some((log, cap)) = self.order_log.as_mut() {
                    if log.len() < *cap {
                        log.push((event.time, event.payload.class_rank(), event.seq));
                    }
                }
                let class = match &event.payload {
                    EventPayload::Deliver { .. } => 0usize,
                    EventPayload::External { .. } => 1,
                    EventPayload::Timer { .. } => 2,
                    EventPayload::Fault { .. } => 3,
                    EventPayload::FlowStart { .. } => 4,
                    EventPayload::FlowFinish { .. } => 5,
                };
                self.dispatch_counts[class] += 1;
                // Wall timers only when profiling: `Instant::now` is a
                // syscall on some platforms and the result is
                // nondeterministic anyway.
                let wall_start = if self.profiling {
                    Some(Instant::now())
                } else {
                    None
                };
                let target = event.target;
                match event.payload {
                    EventPayload::Deliver { from, message } => {
                        if self.faults.site_is_down(target) {
                            self.stats.add("sim_dropped_site_down", 1);
                        } else {
                            self.stats.messages_delivered += 1;
                            self.dispatch_with_ctx(target, |node, ctx| {
                                node.on_message(from, message, ctx)
                            });
                        }
                    }
                    EventPayload::External { message } => {
                        if self.faults.site_is_down(target) {
                            self.stats.add("sim_dropped_arrival_site_down", 1);
                        } else {
                            self.dispatch_with_ctx(target, |node, ctx| {
                                node.on_message(target, message, ctx)
                            });
                        }
                    }
                    EventPayload::Timer { timer_id } => {
                        if self.faults.site_is_down(target) {
                            self.stats.add("sim_dropped_timer_site_down", 1);
                        } else {
                            self.dispatch_with_ctx(target, |node, ctx| {
                                node.on_timer(timer_id, ctx)
                            });
                        }
                    }
                    EventPayload::Fault { fault } => {
                        self.stats.add("sim_fault_events", 1);
                        self.faults.apply(fault, &mut self.network);
                        // Mirror any link change into the flow plane so
                        // in-flight transfers see the new capacities (a
                        // removed link stalls its flows; a revived or
                        // re-provisioned one reshapes rates). The sync runs
                        // even with no flow in flight to keep cached link
                        // capacities current for future transfers.
                        if self.flows.sync_with_network(&self.network) && !self.flows.is_empty() {
                            self.reschedule_flows();
                        }
                    }
                    EventPayload::FlowStart {
                        from,
                        volume,
                        message,
                    } => {
                        let (_, path) = self.routes.route(&self.network, from, target);
                        if path.is_empty() {
                            // The topology changed between initiation and
                            // start: no path remains, the data is lost in
                            // the partition.
                            self.stats.add("sim_flow_no_path", 1);
                        } else {
                            self.stats.add("sim_flow_started", 1);
                            self.flows.start(
                                self.now,
                                from,
                                target,
                                volume,
                                message,
                                path,
                                &self.network,
                            );
                            self.reschedule_flows();
                        }
                    }
                    EventPayload::FlowFinish { flow, epoch } => {
                        if !self.flows.finish_is_current(flow, epoch) {
                            self.stats.add("sim_flow_stale_finish", 1);
                        } else {
                            let done = self
                                .flows
                                .finish(self.now, flow)
                                .expect("current flow exists in the plane");
                            self.stats.add("sim_flow_finished", 1);
                            let elapsed = self.now - done.started;
                            self.stats.metrics_mut().record("transfer_time", elapsed);
                            if elapsed > 0.0 {
                                self.stats
                                    .metrics_mut()
                                    .record("flow_rate", done.volume / elapsed);
                            }
                            if !self.flows.is_empty() {
                                self.reschedule_flows();
                            }
                            if self.faults.site_is_down(target) {
                                self.stats.add("sim_dropped_site_down", 1);
                            } else {
                                self.stats.messages_delivered += 1;
                                let from = done.from;
                                let message = done.message;
                                self.dispatch_with_ctx(target, |node, ctx| {
                                    node.on_message(from, message, ctx)
                                });
                            }
                        }
                    }
                }
                if let Some(start) = wall_start {
                    self.wall_by_class[class] += start.elapsed();
                    let scope = Scope::Phase(class as u32);
                    let advance = if first { self.now - prev_now } else { 0.0 };
                    let metrics = self.stats.metrics_mut();
                    metrics.add_scoped("engine_dispatch", scope, 1);
                    metrics.record_scoped("engine_time_advance", scope, advance);
                }
                first = false;
            }
            self.batch_scratch = batch;
        }
        true
    }

    /// Re-solves the fair-share assignment at the current time and pushes a
    /// fresh completion event for every flow whose prediction changed, then
    /// samples per-link utilization into the metrics registry.
    fn reschedule_flows(&mut self) {
        self.flows.reschedule(self.now, &mut self.finish_scratch);
        for sched in self.finish_scratch.drain(..) {
            self.queue.push(
                sched.time,
                sched.to,
                EventPayload::FlowFinish {
                    flow: sched.flow,
                    epoch: sched.epoch,
                },
            );
        }
        let metrics = self.stats.metrics_mut();
        self.flows
            .link_utilization_with(|_, _, u| metrics.record("link_utilization", u));
    }

    fn dispatch_with_ctx(
        &mut self,
        site: SiteId,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        self.touch(site);
        let mut ctx = Context {
            site,
            now: self.now,
            network: &self.network,
            faults: &self.faults,
            outgoing: std::mem::take(&mut self.outgoing_scratch),
            stats: &mut self.stats,
            trace: &mut self.trace,
        };
        f(&mut self.nodes[site.0], &mut ctx);
        let mut outgoing = ctx.outgoing;
        for action in outgoing.drain(..) {
            match action {
                Outgoing::Send { to, msg, delay } => {
                    self.stats.messages_sent += 1;
                    let delay = match delay {
                        Some(d) => {
                            // A routed send models a multi-hop management
                            // path; if link failures have physically cut
                            // the sender off from the target, it is lost.
                            if self.faults.has_failed_links() && !self.network.has_path(site, to) {
                                self.stats.add("sim_lost_unreachable", 1);
                                continue;
                            }
                            d
                        }
                        None => match self.network.link_delay(site, to) {
                            Some(d) => d,
                            None => {
                                // Checked by Context::send: the link exists
                                // or is failed — here it must be failed.
                                debug_assert!(self.faults.link_is_failed(site, to));
                                self.stats.add("sim_lost_link_down", 1);
                                continue;
                            }
                        },
                    };
                    if self.faults.roll_message_loss() {
                        self.stats.add("sim_lost_random", 1);
                        continue;
                    }
                    self.queue.push(
                        self.now + delay,
                        to,
                        EventPayload::Deliver {
                            from: site,
                            message: msg,
                        },
                    );
                }
                Outgoing::Timer { delay, timer_id } => {
                    self.queue
                        .push(self.now + delay, site, EventPayload::Timer { timer_id });
                }
                Outgoing::Transfer { to, volume, msg } => {
                    self.stats.messages_sent += 1;
                    // The head of the transfer travels the minimum-delay
                    // path; bandwidth is occupied from the moment it
                    // arrives (FlowStart) until the last byte does
                    // (FlowFinish). An infinite distance means link
                    // failures cut the sender off — lost like a routed
                    // send, before the loss roll (which must consume RNG
                    // draws identically either way).
                    let (head_delay, _) = self.routes.route(&self.network, site, to);
                    if !head_delay.is_finite() {
                        self.stats.add("sim_lost_unreachable", 1);
                        continue;
                    }
                    if self.faults.roll_message_loss() {
                        self.stats.add("sim_lost_random", 1);
                        continue;
                    }
                    self.queue.push(
                        self.now + head_delay,
                        to,
                        EventPayload::FlowStart {
                            from: site,
                            volume,
                            message: msg,
                        },
                    );
                }
            }
        }
        self.outgoing_scratch = outgoing;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::generators::{line, ring, DelayDistribution};

    /// A tiny flooding protocol: site 0 floods a token; every site records the
    /// time it first saw it and forwards it once to all neighbors.
    #[derive(Debug, Default)]
    struct Flood {
        seen_at: Option<f64>,
    }

    impl Protocol for Flood {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.site() == SiteId(0) {
                self.seen_at = Some(ctx.now());
                ctx.broadcast(7);
                ctx.count("floods", 1);
            }
        }

        fn on_message(&mut self, _from: SiteId, msg: u32, ctx: &mut Context<'_, u32>) {
            assert_eq!(msg, 7);
            if self.seen_at.is_none() {
                let now = ctx.now();
                self.seen_at = Some(now);
                let span = SpanId::derive(7, crate::trace::Phase::Custom, ctx.site().0 as u32, 0);
                ctx.trace(span, SpanId::NONE, || TracePayload::Mark {
                    tag: 1,
                    value: now,
                });
                ctx.broadcast(7);
            }
        }
    }

    #[test]
    fn flood_reaches_every_site_at_shortest_delay_on_a_line() {
        let net = line(5, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| Flood::default());
        sim.enable_trace();
        let end = sim.run_to_quiescence();
        // The last event is the echo of site 4's forward arriving back at
        // site 3 (which ignores it) at t = 10.
        assert_eq!(end, 10.0);
        for (i, node) in sim.nodes().enumerate() {
            assert_eq!(node.seen_at, Some(2.0 * i as f64), "site {i}");
        }
        assert_eq!(sim.stats().named("floods"), 1);
        assert!(sim.stats().messages_sent >= 4);
        assert_eq!(sim.trace().events().len(), 4); // sites 1..4 record once
    }

    #[test]
    fn touched_sites_are_reported_once_and_forgotten() {
        let net = line(5, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| Flood::default());
        let mut touched = Vec::new();
        sim.take_touched(&mut touched);
        assert!(touched.is_empty(), "nothing has run yet");
        // The start-up wave runs a handler on every site; the flood then
        // reaches site 1 (and echoes back to 0) by t = 2.
        sim.run_until(2.0);
        sim.take_touched(&mut touched);
        touched.sort_unstable();
        assert_eq!(touched, (0..5).map(SiteId).collect::<Vec<_>>());
        touched.clear();
        sim.run_until(4.0);
        sim.touch(SiteId(4));
        sim.touch(SiteId(1));
        sim.take_touched(&mut touched);
        touched.sort_unstable();
        assert_eq!(touched, [SiteId(0), SiteId(1), SiteId(2), SiteId(4)]);
        touched.clear();
        sim.take_touched(&mut touched);
        assert!(touched.is_empty());
    }

    #[test]
    fn profiling_splits_dispatch_by_event_class() {
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.enable_profiling();
        sim.inject_at(1.0, SiteId(2), "arrival");
        sim.schedule_fault(2.0, FaultEvent::SiteDown { site: SiteId(1) });
        sim.run_to_quiescence();
        let profile = sim.profile();
        // Timers 2 and 1 (class 2), one arrival (class 1), one fault (class
        // 3) and the routed "hello" delivery (class 0).
        assert_eq!(profile.dispatch_counts[1], 1);
        assert_eq!(profile.dispatch_counts[2], 2);
        assert_eq!(profile.dispatch_counts[3], 1);
        assert_eq!(
            profile.dispatch_counts.iter().sum::<u64>(),
            sim.events_processed()
        );
        let metrics = sim.stats().metrics();
        assert_eq!(
            metrics.counter_scoped("engine_dispatch", Scope::Phase(2)),
            2
        );
        assert!(metrics
            .histogram_scoped("engine_time_advance", Scope::Phase(2))
            .is_some());
        // Without profiling, the metrics keys must not appear (reports are
        // byte-compared across runs).
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut plain = Simulator::new(net, |_| TimerEcho::default());
        plain.run_to_quiescence();
        assert!(plain
            .stats()
            .metrics()
            .counter_families()
            .all(|(name, _)| name != "engine_dispatch"));
        assert_eq!(
            plain.profile().dispatch_counts.iter().sum::<u64>(),
            plain.events_processed()
        );
        assert_eq!(plain.profile().wall, [Duration::ZERO; 6]);
    }

    #[test]
    fn trace_ring_bounds_memory_and_counts_drops() {
        let net = line(5, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| Flood::default());
        sim.set_trace(Trace::ring(2));
        sim.run_to_quiescence();
        // Sites 1..4 each record one mark; the 2-slot ring keeps the last 2.
        assert_eq!(sim.trace().recorded(), 4);
        assert_eq!(sim.trace().len(), 2);
        assert_eq!(sim.trace().dropped(), 2);
        assert_eq!(sim.trace().ring_capacity(), Some(2));
    }

    #[test]
    fn ring_flood_takes_both_directions() {
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| Flood::default());
        sim.run_to_quiescence();
        // On a 6-ring the farthest site is 3 hops away.
        assert_eq!(sim.node(SiteId(3)).seen_at, Some(3.0));
        assert_eq!(sim.node(SiteId(5)).seen_at, Some(1.0));
    }

    /// A protocol exercising timers and routed sends.
    #[derive(Debug, Default)]
    struct TimerEcho {
        fired: Vec<u64>,
        received: Vec<(SiteId, &'static str)>,
    }

    impl Protocol for TimerEcho {
        type Msg = &'static str;

        fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
            if ctx.site() == SiteId(0) {
                ctx.set_timer(5.0, 1);
                ctx.set_timer(2.0, 2);
            }
        }

        fn on_message(
            &mut self,
            from: SiteId,
            msg: &'static str,
            _ctx: &mut Context<'_, &'static str>,
        ) {
            self.received.push((from, msg));
        }

        fn on_timer(&mut self, timer_id: u64, ctx: &mut Context<'_, &'static str>) {
            self.fired.push(timer_id);
            if timer_id == 1 && ctx.network.site_count() > 3 {
                // Route a message to the far end of the line, charging an
                // explicit end-to-end delay of 6.
                ctx.send_routed(SiteId(3), 6.0, "hello");
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_routed_sends_arrive() {
        let net = line(4, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        let end = sim.run_to_quiescence();
        assert_eq!(sim.node(SiteId(0)).fired, vec![2, 1]);
        assert_eq!(sim.node(SiteId(3)).received, vec![(SiteId(0), "hello")]);
        assert_eq!(end, 11.0); // timer at 5 + routed delay 6
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn external_injection_behaves_like_self_message() {
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.inject_at(4.0, SiteId(2), "arrival");
        sim.run_to_quiescence();
        assert_eq!(sim.node(SiteId(2)).received, vec![(SiteId(2), "arrival")]);
        assert_eq!(sim.now(), 5.0_f64.max(4.0).max(sim.now()));
    }

    #[test]
    fn run_until_respects_the_horizon() {
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.inject_at(10.0, SiteId(1), "late");
        let t = sim.run_until(6.0);
        assert!(t <= 6.0);
        assert!(sim.node(SiteId(1)).received.is_empty());
        sim.run_to_quiescence();
        assert_eq!(sim.node(SiteId(1)).received.len(), 1);
    }

    #[test]
    fn event_cap_stops_runaway_protocols() {
        /// A protocol that ping-pongs forever between sites 0 and 1.
        #[derive(Debug, Default)]
        struct PingPong;
        impl Protocol for PingPong {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if ctx.site() == SiteId(0) {
                    ctx.send(SiteId(1), 0);
                }
            }
            fn on_message(&mut self, from: SiteId, _msg: u8, ctx: &mut Context<'_, u8>) {
                ctx.send(from, 0);
            }
        }
        let net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| PingPong);
        sim.set_max_events(100);
        sim.run_to_quiescence();
        assert_eq!(sim.events_processed(), 100);
    }

    /// A flood that snapshots its neighbor list at start-up — like real
    /// protocol nodes do — so it keeps sending over links that fail later.
    #[derive(Debug, Default)]
    struct CachedFlood {
        neighbors: Vec<SiteId>,
        seen_at: Option<f64>,
    }

    impl Protocol for CachedFlood {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            self.neighbors = ctx
                .network
                .neighbors(ctx.site)
                .iter()
                .map(|(n, _)| *n)
                .collect();
            if ctx.site() == SiteId(0) {
                self.seen_at = Some(ctx.now());
                // `self` and `ctx` are disjoint borrows: the snapshot can be
                // iterated directly, no per-broadcast clone needed.
                for &n in &self.neighbors {
                    ctx.send(n, 7);
                }
            }
        }

        fn on_message(&mut self, _from: SiteId, _msg: u32, ctx: &mut Context<'_, u32>) {
            if self.seen_at.is_none() {
                self.seen_at = Some(ctx.now());
                for &n in &self.neighbors {
                    ctx.send(n, 7);
                }
            }
        }
    }

    #[test]
    fn failed_link_loses_messages_until_recovery() {
        // Line 0-1-2-3: fail link 1-2 before the flood crosses it — sites 2
        // and 3 never see the token; site 1's send into the failed link is
        // lost, not a panic.
        let net = line(4, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| CachedFlood::default());
        sim.schedule_fault(
            1.0,
            FaultEvent::LinkDown {
                a: SiteId(1),
                b: SiteId(2),
            },
        );
        sim.run_to_quiescence();
        assert_eq!(sim.node(SiteId(1)).seen_at, Some(2.0));
        assert_eq!(sim.node(SiteId(2)).seen_at, None);
        assert_eq!(sim.node(SiteId(3)).seen_at, None);
        assert_eq!(sim.stats().named("sim_lost_link_down"), 1);
        assert_eq!(sim.stats().named("sim_fault_events"), 1);
        assert!(sim.faults.link_is_failed(SiteId(1), SiteId(2)));
    }

    #[test]
    fn recovered_link_carries_messages_again() {
        let net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.schedule_fault(
            0.0,
            FaultEvent::LinkDown {
                a: SiteId(0),
                b: SiteId(1),
            },
        );
        sim.schedule_fault(
            4.0,
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
        );
        sim.inject_at(6.0, SiteId(0), "go");
        sim.run_to_quiescence();
        assert!(!sim.faults.link_is_failed(SiteId(0), SiteId(1)));
        assert_eq!(sim.network().link_delay(SiteId(0), SiteId(1)), Some(2.0));
    }

    #[test]
    fn routed_sends_are_lost_only_when_physically_cut_off() {
        /// Sends a routed message from site 0 to site 3 when timer 1 fires.
        #[derive(Debug, Default)]
        struct RoutedPing {
            received: Vec<&'static str>,
        }
        impl Protocol for RoutedPing {
            type Msg = &'static str;
            fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
                if ctx.site() == SiteId(0) {
                    ctx.set_timer(5.0, 1);
                    ctx.set_timer(20.0, 2);
                }
            }
            fn on_message(
                &mut self,
                _from: SiteId,
                msg: &'static str,
                _ctx: &mut Context<'_, &'static str>,
            ) {
                self.received.push(msg);
            }
            fn on_timer(&mut self, timer_id: u64, ctx: &mut Context<'_, &'static str>) {
                let msg = if timer_id == 1 { "cut" } else { "healed" };
                ctx.send_routed(SiteId(3), 3.0, msg);
            }
        }
        // Ring of 4 (0-1-2-3-0): failing ONE link (0-1) leaves the 0-3-2
        // path, the routed send survives; also failing 3-0 isolates site 0.
        let net = ring(4, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| RoutedPing::default());
        sim.schedule_fault(
            1.0,
            FaultEvent::LinkDown {
                a: SiteId(0),
                b: SiteId(1),
            },
        );
        sim.schedule_fault(
            10.0,
            FaultEvent::LinkDown {
                a: SiteId(3),
                b: SiteId(0),
            },
        );
        sim.run_to_quiescence();
        // Timer 1 (t = 5, one failed link, still connected): delivered.
        // Timer 2 (t = 20, site 0 isolated): lost.
        assert_eq!(sim.node(SiteId(3)).received, vec!["cut"]);
        assert_eq!(sim.stats().named("sim_lost_unreachable"), 1);
    }

    #[test]
    fn same_time_fault_applies_before_delivery() {
        // The fault at t = 2 (scheduled after the flood started) still beats
        // the delivery at t = 2 thanks to the (time, class, seq) order.
        let net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| Flood::default());
        sim.schedule_fault(2.0, FaultEvent::SiteDown { site: SiteId(1) });
        sim.run_to_quiescence();
        assert_eq!(sim.node(SiteId(1)).seen_at, None);
        assert_eq!(sim.stats().named("sim_dropped_site_down"), 1);
    }

    #[test]
    fn crashed_site_drops_messages_timers_and_arrivals_until_recovery() {
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        // Site 0's timers (t = 2 and t = 5) are set in on_start; crash site 0
        // from t = 1 to t = 3 so only the second timer fires.
        sim.schedule_fault(1.0, FaultEvent::SiteDown { site: SiteId(0) });
        sim.schedule_fault(3.0, FaultEvent::SiteUp { site: SiteId(0) });
        // An arrival at the crashed site is lost; one after recovery lands.
        sim.inject_at(2.0, SiteId(0), "lost");
        sim.inject_at(4.0, SiteId(0), "kept");
        sim.run_to_quiescence();
        assert_eq!(sim.node(SiteId(0)).fired, vec![1]);
        assert_eq!(sim.node(SiteId(0)).received, vec![(SiteId(0), "kept")]);
        assert_eq!(sim.stats().named("sim_dropped_timer_site_down"), 1);
        assert_eq!(sim.stats().named("sim_dropped_arrival_site_down"), 1);
    }

    #[test]
    fn total_message_loss_stops_the_flood_deterministically() {
        let net = ring(6, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| Flood::default());
        sim.set_fault_seed(9);
        sim.set_message_loss(1.0);
        sim.run_to_quiescence();
        for (i, node) in sim.nodes().enumerate() {
            if i == 0 {
                assert!(node.seen_at.is_some());
            } else {
                assert_eq!(node.seen_at, None, "site {i}");
            }
        }
        assert_eq!(sim.stats().named("sim_lost_random"), 2);
        assert_eq!(sim.stats().messages_delivered, 0);
    }

    #[test]
    fn partial_message_loss_is_reproducible() {
        let run = |seed: u64| {
            let net = ring(8, DelayDistribution::Constant(1.0), 0);
            let mut sim = Simulator::new(net, |_| Flood::default());
            sim.set_fault_seed(seed);
            sim.schedule_fault(0.0, FaultEvent::SetMessageLoss { probability: 0.4 });
            sim.run_to_quiescence();
            let seen: Vec<Option<f64>> = sim.nodes().map(|n| n.seen_at).collect();
            (seen, sim.stats().named("sim_lost_random"))
        };
        let (seen_a, lost_a) = run(3);
        let (seen_b, lost_b) = run(3);
        assert_eq!(seen_a, seen_b);
        assert_eq!(lost_a, lost_b);
        assert!(
            lost_a > 0,
            "p = 0.4 over a ring flood should lose something"
        );
    }

    #[test]
    fn jitter_fault_changes_delivery_time() {
        let net = line(2, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.schedule_fault(
            0.0,
            FaultEvent::SetLinkDelay {
                a: SiteId(0),
                b: SiteId(1),
                delay: 7.0,
            },
        );
        sim.inject_at(1.0, SiteId(0), "kick");
        sim.run_to_quiescence();
        assert_eq!(sim.network().link_delay(SiteId(0), SiteId(1)), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_a_fault_in_the_past_panics() {
        let net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.inject_at(5.0, SiteId(0), "x");
        sim.run_to_quiescence();
        sim.schedule_fault(1.0, FaultEvent::SiteDown { site: SiteId(0) });
    }

    #[test]
    #[should_panic(expected = "no direct link")]
    fn direct_send_to_non_neighbor_panics() {
        #[derive(Debug, Default)]
        struct Bad;
        impl Protocol for Bad {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if ctx.site() == SiteId(0) {
                    ctx.send(SiteId(2), 0); // not adjacent on a 3-line
                }
            }
            fn on_message(&mut self, _: SiteId, _: u8, _: &mut Context<'_, u8>) {}
        }
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| Bad);
        sim.run_to_quiescence();
    }

    /// A protocol exercising the shared-bandwidth transfer plane: an
    /// external kick `1000 + v` initiates a transfer of volume `v` to the
    /// highest-numbered site; deliveries are recorded with their arrival
    /// time.
    #[derive(Debug, Default)]
    struct Shipper {
        received: Vec<(SiteId, u32, f64)>,
    }

    impl Protocol for Shipper {
        type Msg = u32;

        fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {}

        fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut Context<'_, u32>) {
            if msg >= 1000 {
                let volume = msg - 1000;
                let to = SiteId(ctx.network.site_count() - 1);
                ctx.transfer(to, volume as f64, volume);
            } else {
                self.received.push((from, msg, ctx.now()));
            }
        }
    }

    /// 0 —1— 1 —1— 2 with finite bandwidth on both links.
    fn line3_bw(bandwidth: f64) -> Network {
        let mut net = Network::new(3);
        net.add_link_with_bandwidth(SiteId(0), SiteId(1), 1.0, bandwidth)
            .unwrap();
        net.add_link_with_bandwidth(SiteId(1), SiteId(2), 1.0, bandwidth)
            .unwrap();
        net
    }

    /// One zero-delay link 0-1 with the given bandwidth (delays out of the
    /// way, so completion times are pure transmission times).
    fn pipe(bandwidth: f64) -> Network {
        let mut net = Network::new(2);
        net.add_link_with_bandwidth(SiteId(0), SiteId(1), 0.0, bandwidth)
            .unwrap();
        net
    }

    #[test]
    fn transfer_completes_after_head_delay_plus_transmission() {
        let mut sim = Simulator::new(line3_bw(2.0), |_| Shipper::default());
        sim.inject_at(0.0, SiteId(0), 1004); // 4 units to site 2
        sim.run_to_quiescence();
        // Head travels the 2-delay path, then 4 units at rate 2 take 2 more.
        assert_eq!(sim.node(SiteId(2)).received, vec![(SiteId(0), 4, 4.0)]);
        assert_eq!(sim.stats().named("sim_flow_started"), 1);
        assert_eq!(sim.stats().named("sim_flow_finished"), 1);
        assert_eq!(sim.flows_in_flight(), 0);
        let transfer = sim
            .stats()
            .metrics()
            .histogram_scoped("transfer_time", Scope::Global)
            .expect("transfer_time recorded");
        assert_eq!(transfer.summary().count, 1);
        assert_eq!(transfer.summary().max, 2.0);
        // The lone flow saturated its bottleneck: utilization 1.
        let util = sim
            .stats()
            .metrics()
            .histogram_scoped("link_utilization", Scope::Global)
            .expect("link_utilization recorded");
        assert_eq!(util.summary().max, 1.0);
    }

    #[test]
    fn concurrent_transfers_split_bandwidth_and_reschedule_each_other() {
        let mut sim = Simulator::new(pipe(2.0), |_| Shipper::default());
        sim.inject_at(0.0, SiteId(0), 1004); // A: 4 units at t = 0
        sim.inject_at(1.0, SiteId(0), 1006); // B: 6 units at t = 1
        sim.run_to_quiescence();
        // A alone until t = 1 (2 units moved), then both at rate 1: A's
        // remaining 2 land at t = 3; B then speeds up to rate 2 and its
        // remaining 4 land at t = 5.
        assert_eq!(
            sim.node(SiteId(1)).received,
            vec![(SiteId(0), 4, 3.0), (SiteId(0), 6, 5.0)]
        );
        // Both original completion predictions were superseded once.
        assert_eq!(sim.stats().named("sim_flow_stale_finish"), 2);
        assert_eq!(sim.stats().named("sim_flow_finished"), 2);
    }

    #[test]
    fn zero_volume_transfer_degenerates_to_a_routed_send() {
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| Shipper::default());
        sim.inject_at(0.0, SiteId(0), 1000); // 0 units to site 2
        sim.run_to_quiescence();
        // Delivered after exactly the shortest-path delay, like send_routed.
        assert_eq!(sim.node(SiteId(2)).received, vec![(SiteId(0), 0, 2.0)]);
        assert_eq!(sim.stats().named("sim_flow_finished"), 1);
    }

    #[test]
    fn bandwidth_fault_mid_transfer_reshapes_the_completion() {
        // Regression test for the shared mutation path: a bandwidth change
        // applied through the fault plane must reach in-flight flows.
        let mut sim = Simulator::new(pipe(2.0), |_| Shipper::default());
        sim.inject_at(0.0, SiteId(0), 1008); // 8 units, predicted done at 4
        sim.schedule_fault(
            2.0,
            FaultEvent::SetLinkBandwidth {
                a: SiteId(0),
                b: SiteId(1),
                bandwidth: 1.0,
            },
        );
        sim.run_to_quiescence();
        // 4 units moved by t = 2; the remaining 4 at rate 1 land at t = 6.
        assert_eq!(sim.node(SiteId(1)).received, vec![(SiteId(0), 8, 6.0)]);
        assert_eq!(sim.stats().named("sim_flow_stale_finish"), 1);
        assert_eq!(
            sim.network().link_bandwidth(SiteId(0), SiteId(1)),
            Some(1.0)
        );
    }

    #[test]
    fn link_failure_stalls_a_flow_and_recovery_revives_it() {
        let mut sim = Simulator::new(pipe(2.0), |_| Shipper::default());
        sim.inject_at(0.0, SiteId(0), 1008); // 8 units, predicted done at 4
        sim.schedule_fault(
            2.0,
            FaultEvent::LinkDown {
                a: SiteId(0),
                b: SiteId(1),
            },
        );
        sim.schedule_fault(
            6.0,
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
        );
        sim.run_to_quiescence();
        // 4 units moved by t = 2; stalled until t = 6 (recovery restores
        // the 2.0 bandwidth with the link); remaining 4 land at t = 8.
        assert_eq!(sim.node(SiteId(1)).received, vec![(SiteId(0), 8, 8.0)]);
        assert_eq!(sim.stats().named("sim_flow_stale_finish"), 1);
        assert_eq!(sim.stats().named("sim_flow_finished"), 1);
    }

    #[test]
    fn transfer_to_an_unreachable_site_is_lost() {
        // Sites 0-1 linked; site 2 isolated from the start.
        let mut net = Network::new(3);
        net.add_link_with_bandwidth(SiteId(0), SiteId(1), 1.0, 2.0)
            .unwrap();
        let mut sim = Simulator::new(net, |_| Shipper::default());
        sim.inject_at(0.0, SiteId(0), 1004);
        sim.run_to_quiescence();
        assert!(sim.node(SiteId(2)).received.is_empty());
        assert_eq!(sim.stats().named("sim_lost_unreachable"), 1);
        assert_eq!(sim.stats().named("sim_flow_started"), 0);
    }

    /// A slice-backed arrival source for streaming tests.
    struct SliceArrivals<M: Clone> {
        arrivals: Vec<(f64, SiteId, M)>,
        next: usize,
    }

    impl<M: Clone> ArrivalSource<M> for SliceArrivals<M> {
        fn peek_time(&mut self) -> Option<f64> {
            self.arrivals.get(self.next).map(|(t, _, _)| *t)
        }

        fn take(&mut self) -> Option<(f64, SiteId, M)> {
            let item = self.arrivals.get(self.next).cloned();
            self.next += item.is_some() as usize;
            item
        }
    }

    #[test]
    fn streaming_matches_pre_injected_arrivals() {
        let arrivals = vec![
            (1.0, SiteId(2), "a"),
            (4.0, SiteId(0), "b"),
            (4.0, SiteId(1), "c"),
            (9.0, SiteId(2), "d"),
        ];
        // Pre-materialized run: everything injected before the run starts.
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut pre = Simulator::new(net, |_| TimerEcho::default());
        for (t, s, m) in &arrivals {
            pre.inject_at(*t, *s, *m);
        }
        let pre_end = pre.run_to_quiescence();
        // Streaming run: arrivals pulled on demand.
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut streamed = Simulator::new(net, |_| TimerEcho::default());
        let mut source = SliceArrivals { arrivals, next: 0 };
        let end = streamed.run_streaming(&mut source, f64::INFINITY);
        assert_eq!(end, pre_end);
        assert_eq!(streamed.events_processed(), pre.events_processed());
        for s in 0..3 {
            assert_eq!(
                streamed.node(SiteId(s)).received,
                pre.node(SiteId(s)).received,
                "site {s}"
            );
        }
        // The source was fully drained and the queue never held the whole
        // workload at once.
        assert_eq!(source.next, 4);
        assert_eq!(streamed.queue_len(), 0);
    }

    #[test]
    fn streaming_respects_horizon_and_resumes() {
        let net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        let mut source = SliceArrivals {
            arrivals: vec![(2.0, SiteId(0), "early"), (50.0, SiteId(1), "late")],
            next: 0,
        };
        sim.run_streaming(&mut source, 10.0);
        // The late arrival is beyond the horizon: neither injected nor lost.
        assert_eq!(source.next, 1);
        assert_eq!(sim.node(SiteId(0)).received, vec![(SiteId(0), "early")]);
        assert!(sim.node(SiteId(1)).received.is_empty());
        sim.run_streaming(&mut source, f64::INFINITY);
        assert_eq!(sim.node(SiteId(1)).received, vec![(SiteId(1), "late")]);
        assert_eq!(source.next, 2);
    }

    #[test]
    fn streaming_honours_the_event_cap() {
        let net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.set_max_events(1);
        let mut source = SliceArrivals {
            arrivals: (0..100).map(|i| (i as f64, SiteId(0), "x")).collect(),
            next: 0,
        };
        sim.run_streaming(&mut source, f64::INFINITY);
        assert_eq!(sim.events_processed(), 1);
        // Once the cap is hit the loop stops pulling instead of buffering
        // the rest of the stream into the heap.
        assert!(
            source.next <= 2,
            "pulled {} arrivals past the cap",
            source.next
        );
    }

    #[test]
    fn faults_recovery_scheduled_before_failure_leaves_the_link_down() {
        // A LinkUp for a healthy link is a no-op; the later LinkDown wins
        // and the link stays failed to the end of the run.
        let net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| CachedFlood::default());
        sim.schedule_fault(
            0.5,
            FaultEvent::LinkUp {
                a: SiteId(1),
                b: SiteId(2),
            },
        );
        sim.schedule_fault(
            1.0,
            FaultEvent::LinkDown {
                a: SiteId(1),
                b: SiteId(2),
            },
        );
        sim.run_to_quiescence();
        assert!(sim.faults.link_is_failed(SiteId(1), SiteId(2)));
        assert_eq!(sim.network().link_delay(SiteId(1), SiteId(2)), None);
        assert_eq!(sim.node(SiteId(2)).seen_at, None);
        assert_eq!(sim.stats().named("sim_fault_events"), 2);
    }

    #[test]
    fn faults_duplicate_site_crash_is_idempotent() {
        // Crashing an already-crashed site is absorbed: a single SiteUp
        // still recovers it (down/up is a state, not a counter).
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.schedule_fault(1.0, FaultEvent::SiteDown { site: SiteId(1) });
        sim.schedule_fault(2.0, FaultEvent::SiteDown { site: SiteId(1) });
        sim.schedule_fault(3.0, FaultEvent::SiteUp { site: SiteId(1) });
        sim.inject_at(2.5, SiteId(1), "dropped");
        sim.inject_at(4.0, SiteId(1), "kept");
        sim.run_to_quiescence();
        assert!(!sim.faults.site_is_down(SiteId(1)));
        assert_eq!(sim.node(SiteId(1)).received, vec![(SiteId(1), "kept")]);
        assert_eq!(sim.stats().named("sim_dropped_arrival_site_down"), 1);
    }

    #[test]
    fn faults_on_a_removed_link_are_ignored() {
        // Failing an already-failed link must not overwrite the remembered
        // recovery delay, and jitter on a never-existing link is a no-op.
        let net = line(3, DelayDistribution::Constant(2.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        let down = FaultEvent::LinkDown {
            a: SiteId(0),
            b: SiteId(1),
        };
        sim.schedule_fault(1.0, down);
        sim.schedule_fault(2.0, down); // duplicate failure: ignored
        sim.schedule_fault(
            3.0,
            FaultEvent::SetLinkDelay {
                a: SiteId(0),
                b: SiteId(2), // never a link on the 3-line
                delay: 9.0,
            },
        );
        sim.schedule_fault(
            4.0,
            FaultEvent::LinkUp {
                a: SiteId(0),
                b: SiteId(1),
            },
        );
        sim.run_to_quiescence();
        // Recovery restores the original delay exactly once.
        assert!(!sim.faults.link_is_failed(SiteId(0), SiteId(1)));
        assert_eq!(sim.network().link_delay(SiteId(0), SiteId(1)), Some(2.0));
        assert_eq!(sim.network().link_delay(SiteId(0), SiteId(2)), None);
        assert_eq!(sim.network().link_count(), 2);
        assert_eq!(sim.stats().named("sim_fault_events"), 4);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn injecting_in_the_past_panics() {
        let net = line(2, DelayDistribution::Constant(1.0), 0);
        let mut sim = Simulator::new(net, |_| TimerEcho::default());
        sim.inject_at(3.0, SiteId(0), "x");
        sim.run_to_quiescence();
        sim.inject_at(1.0, SiteId(0), "too-late");
    }
}
