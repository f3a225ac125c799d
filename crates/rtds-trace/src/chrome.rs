//! chrome://tracing / Perfetto export.
//!
//! [`chrome_trace`] converts a slice of [`TraceEvent`]s into the Chrome
//! trace-event JSON format (the "JSON Array Format with metadata" variant):
//! one complete event (`"ph":"X"`) per span covering its first-to-last
//! observation, plus one instant event (`"ph":"i"`) per trace event carrying
//! the typed payload as `args`. Simulated time is mapped 1 unit → 1 ms, so
//! timestamps (which Chrome reads as microseconds) are `time * 1000`. The
//! track (`tid`) is the recording site; `pid` is always 0.
//!
//! The output is deterministic: spans appear in first-observation order and
//! every number uses the same shortest-round-trip float format as the JSONL
//! writer, so two exports of the same trace are byte-identical.

use crate::event::{Arg, TraceEvent};
use crate::json::write_f64;
use crate::span::SpanId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn write_arg(out: &mut String, arg: Arg) {
    match arg {
        Arg::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Arg::F64(x) => write_f64(out, x),
        Arg::Str(s) => {
            // Wire names are static identifiers with nothing to escape.
            let _ = write!(out, "\"{s}\"");
        }
        Arg::Bool(b) => out.push_str(if b { "true" } else { "false" }),
    }
}

struct SpanExtent {
    name: &'static str,
    site: u32,
    parent: SpanId,
    start: f64,
    end: f64,
}

/// Renders the events as a single-line Chrome trace JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    // Collect span extents in first-appearance order.
    let mut order: Vec<SpanId> = Vec::new();
    let mut extents: BTreeMap<SpanId, SpanExtent> = BTreeMap::new();
    for event in events {
        if event.span.is_none() {
            continue;
        }
        match extents.get_mut(&event.span) {
            Some(extent) => {
                extent.start = extent.start.min(event.time);
                extent.end = extent.end.max(event.time);
            }
            None => {
                order.push(event.span);
                extents.insert(
                    event.span,
                    SpanExtent {
                        name: event.kind(),
                        site: event.site,
                        parent: event.parent,
                        start: event.time,
                        end: event.time,
                    },
                );
            }
        }
    }

    let mut out = String::with_capacity(64 + events.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for span in &order {
        let extent = &extents[span];
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":",
            extent.name, extent.site
        );
        write_f64(&mut out, extent.start * 1000.0);
        out.push_str(",\"dur\":");
        write_f64(&mut out, (extent.end - extent.start) * 1000.0);
        let _ = write!(
            out,
            ",\"args\":{{\"span\":{},\"parent\":{}}}}}",
            span.0, extent.parent.0
        );
    }
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":",
            event.kind(),
            event.site
        );
        write_f64(&mut out, event.time * 1000.0);
        let _ = write!(
            out,
            ",\"args\":{{\"span\":{},\"parent\":{}",
            event.span.0, event.parent.0
        );
        event.payload.for_each_arg(&mut |name, arg| {
            let _ = write!(out, ",\"{name}\":");
            write_arg(&mut out, arg);
        });
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TracePayload;
    use crate::span::Phase;

    fn events() -> Vec<TraceEvent> {
        let span = SpanId::derive(3, Phase::Acceptance, 1, 0);
        vec![
            TraceEvent {
                time: 1.0,
                site: 1,
                span,
                parent: SpanId::job_root(3),
                payload: TracePayload::LocalTest {
                    job: 3,
                    tasks: 2,
                    deadline: 50.0,
                },
            },
            TraceEvent {
                time: 2.5,
                site: 1,
                span,
                parent: SpanId::job_root(3),
                payload: TracePayload::LocalReject { job: 3 },
            },
        ]
    }

    #[test]
    fn export_contains_span_extents_and_instants() {
        let doc = chrome_trace(&events());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // One X event spanning [1000, 2500] µs plus two instants.
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":1000.0,\"dur\":1500.0"));
        assert_eq!(doc.matches("\"ph\":\"i\"").count(), 2);
        assert!(doc.contains("\"tid\":1"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace(&events()), chrome_trace(&events()));
    }

    #[test]
    fn empty_input_is_still_a_valid_document() {
        assert_eq!(
            chrome_trace(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
