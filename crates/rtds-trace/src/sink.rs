//! Trace sinks: where recorded events go.
//!
//! Two sinks cover the whole space: [`RingSink`] (bounded flight recorder)
//! and [`JsonlSink`] (streaming `rtds-trace/1` writer). Each takes one
//! `record_event` call per event; `rtds_sim::Trace` picks between them and
//! adds the disabled state, in which producers skip payload construction
//! entirely.

use crate::event::TraceEvent;
use crate::json::Json;
use crate::jsonl;
use std::io::Write;

/// Fixed-capacity ring buffer: keeps the most recent `capacity` events and
/// counts what it had to drop. Memory use is bounded by construction, which
/// makes it the default sink for million-job streaming runs.
#[derive(Debug, Clone)]
pub struct RingSink {
    events: Vec<TraceEvent>,
    capacity: usize,
    next: usize,
    recorded: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            events: Vec::with_capacity(capacity.min(1024)),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (kept + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Iterates the retained events in chronological (recording) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = if self.events.len() == self.capacity {
            self.next
        } else {
            0
        };
        self.events[split..]
            .iter()
            .chain(self.events[..split].iter())
    }

    /// Copies the retained events out in chronological order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.iter().copied().collect()
    }

    /// Records one event, overwriting the oldest once the ring is full.
    pub fn record_event(&mut self, event: &TraceEvent) {
        self.recorded += 1;
        if self.events.len() < self.capacity {
            self.events.push(*event);
        } else {
            self.events[self.next] = *event;
            self.next = (self.next + 1) % self.capacity;
        }
    }
}

/// Streaming `rtds-trace/1` JSONL writer. The header line is written at
/// construction, then one line per event; memory use is one reusable line
/// buffer regardless of run length. I/O errors panic — trace files are
/// artifacts, and a torn trace is worse than a dead run.
pub struct JsonlSink<W: Write> {
    out: W,
    buf: String,
    recorded: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Creates the sink and writes the self-contained header line. The
    /// `metadata` pairs are embedded in the header after the schema field.
    pub fn new(mut out: W, metadata: &[(&str, Json)]) -> JsonlSink<W> {
        let header = jsonl::header_line(metadata);
        out.write_all(header.as_bytes())
            .expect("rtds-trace: failed to write JSONL header");
        out.write_all(b"\n")
            .expect("rtds-trace: failed to write JSONL header");
        JsonlSink {
            out,
            buf: String::with_capacity(256),
            recorded: 0,
        }
    }

    /// Total events written.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Writes one event as one line.
    pub fn record_event(&mut self, event: &TraceEvent) {
        self.buf.clear();
        jsonl::write_event_line(&mut self.buf, event);
        self.buf.push('\n');
        self.out
            .write_all(self.buf.as_bytes())
            .expect("rtds-trace: failed to write JSONL event");
        self.recorded += 1;
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) {
        self.out
            .flush()
            .expect("rtds-trace: failed to flush JSONL sink");
    }
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("recorded", &self.recorded)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TracePayload;
    use crate::span::SpanId;

    fn mark(i: u32) -> TraceEvent {
        TraceEvent {
            time: i as f64,
            site: 0,
            span: SpanId::derive(1, crate::span::Phase::Custom, 0, i),
            parent: SpanId::NONE,
            payload: TracePayload::Mark {
                tag: i,
                value: i as f64,
            },
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.record_event(&mark(i));
        }
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let tags: Vec<u32> = ring
            .iter()
            .map(|e| match e.payload {
                TracePayload::Mark { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![2, 3, 4]);
    }

    #[test]
    fn ring_under_capacity_iterates_in_order_with_no_drops() {
        let mut ring = RingSink::new(8);
        for i in 0..3 {
            ring.record_event(&mark(i));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot().len(), 3);
        assert_eq!(ring.snapshot()[0], mark(0));
    }

    #[test]
    fn jsonl_sink_streams_header_then_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new(), &[("run", Json::UInt(7))]);
        sink.record_event(&mark(0));
        sink.record_event(&mark(1));
        assert_eq!(sink.recorded(), 2);
        let bytes = sink.out;
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"schema\":\"rtds-trace/1\""));
        assert!(lines[0].contains("\"run\":7"));
        assert!(lines[1].contains("\"kind\":\"mark\""));
    }
}
