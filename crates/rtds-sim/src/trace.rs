//! Structured event traces, backed by `rtds-trace` sinks.
//!
//! Traces serve three purposes: debugging protocol implementations, asserting
//! protocol-level properties in integration tests (for example "every Enroll
//! is eventually matched by an Unlock"), and rendering the Fig. 1 algorithm
//! overview as an actual message/stage timeline in the experiment harness.
//!
//! This module is a thin façade over [`rtds_trace`]: [`Trace`] is disabled
//! or owns one of the two sinks (bounded ring / streaming JSONL), and the
//! engine's [`crate::engine::Context::trace`] records typed
//! [`TracePayload`]s into it lazily — when the sink is disabled the payload
//! closure is never even evaluated, so tracing costs one branch on hot
//! paths. The default enabled mode is a bounded *flight recorder* (a ring of
//! [`DEFAULT_RING_CAPACITY`] events with drop counters), so million-job
//! streaming runs can keep tracing on without unbounded memory growth.

use rtds_trace::{Json, JsonlSink, RingSink};
use std::fmt::Write as _;
use std::io::Write;

pub use rtds_trace::{
    chrome_trace, read_jsonl, render_jsonl, DeferReason, Phase, RejectReason, SpanId, TraceEvent,
    TracePayload,
};

/// Ring capacity used by [`Trace::flight_recorder`] (64 Ki events ≈ 4 MiB).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

enum Sink {
    Disabled,
    Ring(RingSink),
    Jsonl(JsonlSink<Box<dyn Write + Send>>),
}

/// A trace recorder: one of the `rtds-trace` sinks behind a uniform API.
/// Disabled recorders drop events before payloads are even built, so tracing
/// can stay in the protocol code paths without costing anything in large
/// experiments.
pub struct Trace {
    sink: Sink,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.sink {
            Sink::Disabled => f.debug_struct("Trace").field("sink", &"null").finish(),
            Sink::Ring(ring) => f
                .debug_struct("Trace")
                .field("sink", &"ring")
                .field("capacity", &ring.capacity())
                .field("recorded", &ring.recorded())
                .finish(),
            Sink::Jsonl(sink) => f
                .debug_struct("Trace")
                .field("sink", &"jsonl")
                .field("recorded", &sink.recorded())
                .finish(),
        }
    }
}

impl Trace {
    /// A recorder that drops events (the default).
    pub(crate) fn disabled() -> Self {
        Trace {
            sink: Sink::Disabled,
        }
    }

    /// A bounded flight recorder: keeps the most recent
    /// [`DEFAULT_RING_CAPACITY`] events and counts drops.
    pub fn flight_recorder() -> Self {
        Trace::ring(DEFAULT_RING_CAPACITY)
    }

    /// A bounded ring recorder with an explicit capacity.
    pub fn ring(capacity: usize) -> Self {
        Trace {
            sink: Sink::Ring(RingSink::new(capacity)),
        }
    }

    /// A streaming `rtds-trace/1` JSONL recorder. The header (schema plus
    /// `metadata`) is written immediately; each recorded event becomes one
    /// line. Memory use is one line buffer regardless of run length.
    pub fn jsonl(out: Box<dyn Write + Send>, metadata: &[(&str, Json)]) -> Self {
        Trace {
            sink: Sink::Jsonl(JsonlSink::new(out, metadata)),
        }
    }

    /// Returns `true` if events are being recorded.
    pub fn is_enabled(&self) -> bool {
        match &self.sink {
            Sink::Disabled => false,
            Sink::Ring(_) | Sink::Jsonl(_) => true,
        }
    }

    /// Records an event (no-op when disabled). Producers should gate on
    /// [`Trace::is_enabled`] to skip payload construction entirely — the
    /// engine's `Context::trace` does.
    pub(crate) fn record(&mut self, event: &TraceEvent) {
        match &mut self.sink {
            Sink::Disabled => {}
            Sink::Ring(ring) => ring.record_event(event),
            Sink::Jsonl(sink) => sink.record_event(event),
        }
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        match &self.sink {
            Sink::Disabled => 0,
            Sink::Ring(ring) => ring.recorded(),
            Sink::Jsonl(sink) => sink.recorded(),
        }
    }

    /// Events dropped by a full ring (always 0 for the other sinks).
    pub fn dropped(&self) -> u64 {
        match &self.sink {
            Sink::Ring(ring) => ring.dropped(),
            _ => 0,
        }
    }

    /// The ring capacity, if this recorder is ring-backed.
    pub fn ring_capacity(&self) -> Option<usize> {
        match &self.sink {
            Sink::Ring(ring) => Some(ring.capacity()),
            _ => None,
        }
    }

    /// Number of retained events (ring only; a JSONL recorder retains
    /// nothing in memory).
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Ring(ring) => ring.len(),
            _ => 0,
        }
    }

    /// Returns `true` if no events are retained in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the retained events in chronological order (empty for
    /// null and JSONL recorders — the JSONL stream already left the process).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.sink {
            Sink::Ring(ring) => ring.snapshot(),
            _ => Vec::new(),
        }
    }

    /// Retained events of a given kind.
    pub fn of_kind<'k>(&self, kind: &'k str) -> impl Iterator<Item = TraceEvent> + 'k {
        self.events().into_iter().filter(move |e| e.kind() == kind)
    }

    /// Renders the retained events as aligned text lines (used by the Fig. 1
    /// binary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let site = format!("s{}", e.site);
            let _ = writeln!(
                out,
                "[{:>10.3}] {:>6}  {:<24} {}",
                e.time,
                site,
                e.kind(),
                e.payload.describe()
            );
        }
        out
    }

    /// Flushes a streaming recorder (no-op otherwise).
    pub fn flush(&mut self) {
        if let Sink::Jsonl(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, site: u32, payload: TracePayload) -> TraceEvent {
        TraceEvent {
            time,
            site,
            span: SpanId::derive(1, Phase::Custom, site, 0),
            parent: SpanId::NONE,
            payload,
        }
    }

    #[test]
    fn ring_trace_records_and_filters() {
        let mut t = Trace::flight_recorder();
        assert!(t.is_enabled());
        assert!(t.is_empty());
        t.record(&ev(
            1.0,
            0,
            TracePayload::LocalTest {
                job: 1,
                tasks: 2,
                deadline: 9.0,
            },
        ));
        t.record(&ev(2.0, 1, TracePayload::AcsEnroll { job: 1, peers: 3 }));
        t.record(&ev(3.0, 0, TracePayload::AcsEnroll { job: 2, peers: 3 }));
        assert_eq!(t.len(), 3);
        assert_eq!(t.of_kind("acs-enroll").count(), 2);
        assert_eq!(t.dropped(), 0);
        let text = t.render();
        assert!(text.contains("local-test"));
        assert!(text.contains("s1"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn small_ring_drops_oldest_and_counts() {
        let mut t = Trace::ring(2);
        assert_eq!(t.ring_capacity(), Some(2));
        for i in 0..5u32 {
            t.record(&ev(i as f64, i, TracePayload::Mark { tag: i, value: 0.0 }));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 3);
        let kept: Vec<u32> = t.events().iter().map(|e| e.site).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn disabled_trace_drops_events() {
        let mut t = Trace::disabled();
        assert!(!t.is_enabled());
        t.record(&ev(1.0, 0, TracePayload::Mark { tag: 0, value: 0.0 }));
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
        let d = Trace::default();
        assert!(!d.is_enabled());
    }

    #[test]
    fn jsonl_trace_streams_instead_of_retaining() {
        let mut t = Trace::jsonl(Box::new(Vec::new()), &[("seed", Json::UInt(1))]);
        assert!(t.is_enabled());
        t.record(&ev(1.0, 0, TracePayload::Mark { tag: 0, value: 0.5 }));
        t.flush();
        assert_eq!(t.recorded(), 1);
        assert_eq!(t.len(), 0);
        assert!(t.events().is_empty());
    }
}
