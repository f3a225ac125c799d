//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around each call into a
//! layer: name, start, end and the span that caused it (the innermost open
//! span). They stay in memory until the run ends and are then written in
//! Chrome trace event format (`chrome://tracing`, Perfetto). A layer's
//! *self time* is its span's duration minus the part its children cover.

use rtds::sim::json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`crate.what`).
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Calls folded into this span (1 for a plain span; the call count for
    /// an aggregate of many short calls, whose `end_ns - start_ns` is their
    /// summed duration, not an interval on the clock).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(usize);

/// The recorder. Single-threaded by design: each workload runs in its own
/// process on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanHandle {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            calls: 1,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        SpanHandle(index)
    }

    /// Closes a span; it must be the innermost open one.
    pub fn exit(&mut self, handle: SpanHandle) {
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(handle.0), "spans must close innermost-first");
        self.spans[handle.0].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let handle = self.enter(name);
        let out = f();
        self.exit(handle);
        out
    }

    /// Records `calls` short calls that together took `total_ns` as one
    /// child of the span `parent` (a per-call span for each of 200 000
    /// `next_job` calls would cost more than the calls).
    pub fn add_aggregate(&mut self, name: &str, parent: SpanHandle, total_ns: u64, calls: u64) {
        let start = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start + total_ns,
            parent: Some(parent.0),
            calls,
        });
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of a closed span in seconds.
    pub fn seconds(&self, handle: SpanHandle) -> f64 {
        self.spans[handle.0].duration_ns() as f64 * 1e-9
    }

    /// Self time of one span in nanoseconds: duration minus its direct
    /// children's durations (never below zero).
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        self.spans[index].duration_ns().saturating_sub(children)
    }

    /// Duration (seconds) of every span with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans as a Chrome trace document: one complete (`"ph":"X"`)
    /// event per span, `ts`/`dur` in microseconds, with the span's index,
    /// its parent's index, its self time and the workload id in `args`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let layer = span.name.split('.').next().unwrap_or("bench");
                Json::object(vec![
                    ("name", Json::str(&span.name)),
                    ("cat", Json::str(layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::object(vec![
                            ("id", Json::UInt(index as u64)),
                            (
                                "parent",
                                match span.parent {
                                    Some(p) => Json::UInt(p as u64),
                                    None => Json::Null,
                                },
                            ),
                            ("self_us", Json::Num(self.self_ns(index) as f64 / 1e3)),
                            ("calls", Json::UInt(span.calls)),
                            ("workload", Json::str(workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object(vec![
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<(&str, u64, u64, Option<usize>)>) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: spans
                .into_iter()
                .map(|(name, start_ns, end_ns, parent)| Span {
                    name: name.to_string(),
                    start_ns,
                    end_ns,
                    parent,
                    calls: 1,
                })
                .collect(),
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let rec = fixed(vec![
            ("core.run", 0, 1000, None),
            ("workload.next_job", 100, 300, Some(0)),
            ("workload.next_job", 500, 600, Some(0)),
            ("graph.generate", 120, 200, Some(1)),
        ]);
        assert_eq!(rec.self_ns(0), 1000 - 200 - 100);
        assert_eq!(rec.self_ns(1), 200 - 80);
        assert_eq!(rec.self_ns(3), 80);
        assert_eq!(rec.self_ns(2), 100);
        let durations = rec.durations("workload.next_job");
        assert_eq!(durations.len(), 2);
        assert!((durations[0] - 200e-9).abs() < 1e-15 && (durations[1] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_records_the_causing_span() {
        let mut rec = Recorder::new();
        let outer = rec.enter("core.run");
        let inner = rec.time("sim.pop", rec_len_probe);
        assert_eq!(inner, 7);
        rec.add_aggregate("workload.next_job", outer, 40, 9);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].calls), (Some(0), 9));
        assert_eq!(spans[2].duration_ns(), 40);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    fn rec_len_probe() -> u32 {
        7
    }

    #[test]
    fn chrome_trace_parses_and_carries_parents() {
        let rec = fixed(vec![
            ("core.run", 0, 2000, None),
            ("sim.x", 0, 500, Some(0)),
        ]);
        let doc = Json::parse(&rec.chrome_trace("w")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.0));
    }
}
