//! Causal span tracing for the RTDS simulator.
//!
//! This crate is the observability layer the protocol stack records into:
//!
//! - [`span`] — deterministic span identities. A [`SpanId`] is *derived* from
//!   `(job_seed, phase, site, seq)` with a splitmix64 mixer, never allocated
//!   from a counter, so traces are byte-stable across runs and across sweep
//!   thread counts.
//! - [`event`] — typed, `Copy`, allocation-free payloads ([`TracePayload`])
//!   with parent/child causality links: arrival → acceptance →
//!   enrollment → trial mapping → validation → dispatch → verdict.
//! - [`sink`] — the two sinks: [`RingSink`] (bounded flight recorder with
//!   drop counters) and [`JsonlSink`] (streaming `rtds-trace/1` writer).
//! - [`json`] — the workspace's one JSON dialect: the [`Json`] value, its
//!   deterministic pretty/compact writers, the scalar writers streaming
//!   sinks call directly, and a linear-time, depth-bounded parser. Reports,
//!   workload traces and checkpoints upstream all go through it
//!   (`rtds_sim::json` re-exports it).
//! - [`jsonl`] — the `rtds-trace/1` wire format: deterministic JSONL with a
//!   self-contained header; record → parse → re-render is a byte fixpoint.
//! - [`chrome`] — a chrome://tracing / Perfetto exporter over any slice of
//!   recorded events.
//!
//! Like `rtds-metrics`, the crate is deliberately dependency-free so the
//! engine hot path can sit on top of it without pulling anything else in.
//! See `docs/TRACING.md` for the span model, the wire schema and the
//! chrome-trace workflow.

pub mod chrome;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod sink;
pub mod span;

pub use chrome::chrome_trace;
pub use event::{DeferReason, RejectReason, TraceEvent, TracePayload};
pub use json::Json;
pub use jsonl::{read_jsonl, render_jsonl, render_jsonl_with_header, TRACE_SCHEMA};
pub use sink::{JsonlSink, RingSink};
pub use span::{Phase, SpanId};

use std::collections::BTreeMap;

/// Checks that a chronological event stream forms well-formed span trees:
///
/// - no event uses [`SpanId::NONE`] as its own span,
/// - no event is its own parent,
/// - every non-root parent has already appeared as some earlier event's span
///   (causes precede effects),
/// - a span's non-null parent never changes,
/// - the parent links contain no cycles.
///
/// Returns `Err` with a description of the first violation.
pub fn check_well_formed(events: &[TraceEvent]) -> Result<(), String> {
    let mut parent_of: BTreeMap<SpanId, SpanId> = BTreeMap::new();
    let mut seen: std::collections::BTreeSet<SpanId> = std::collections::BTreeSet::new();
    for (i, event) in events.iter().enumerate() {
        if event.span.is_none() {
            return Err(format!("event {i} ({}) has a null span id", event.kind()));
        }
        if event.span == event.parent {
            return Err(format!("event {i} ({}) is its own parent", event.kind()));
        }
        if !event.parent.is_none() && !seen.contains(&event.parent) {
            return Err(format!(
                "event {i} ({}) references parent span {} before any event recorded it",
                event.kind(),
                event.parent.0
            ));
        }
        if !event.parent.is_none() {
            match parent_of.get(&event.span) {
                Some(existing) if *existing != event.parent => {
                    return Err(format!(
                        "event {i} ({}) re-parents span {} from {} to {}",
                        event.kind(),
                        event.span.0,
                        existing.0,
                        event.parent.0
                    ));
                }
                Some(_) => {}
                None => {
                    parent_of.insert(event.span, event.parent);
                }
            }
        }
        seen.insert(event.span);
    }
    // Walk every parent chain; with N spans a chain longer than N is a cycle.
    let n = parent_of.len();
    for start in parent_of.keys() {
        let mut cur = *start;
        for _ in 0..=n {
            match parent_of.get(&cur) {
                Some(next) => {
                    if *next == *start {
                        return Err(format!("span {} participates in a parent cycle", start.0));
                    }
                    cur = *next;
                }
                None => break,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: SpanId, parent: SpanId) -> TraceEvent {
        TraceEvent {
            time: 0.0,
            site: 0,
            span,
            parent,
            payload: TracePayload::Mark { tag: 0, value: 0.0 },
        }
    }

    #[test]
    fn a_linear_span_chain_is_well_formed() {
        let a = SpanId(1);
        let b = SpanId(2);
        let c = SpanId(3);
        let events = [ev(a, SpanId::NONE), ev(b, a), ev(c, b), ev(a, SpanId::NONE)];
        assert!(check_well_formed(&events).is_ok());
    }

    #[test]
    fn orphan_parents_self_loops_and_cycles_are_rejected() {
        let a = SpanId(1);
        let b = SpanId(2);
        assert!(check_well_formed(&[ev(SpanId::NONE, SpanId::NONE)]).is_err());
        assert!(check_well_formed(&[ev(a, a)]).is_err());
        // Parent referenced before any event recorded it.
        assert!(check_well_formed(&[ev(b, a)]).is_err());
        // Re-parenting.
        let c = SpanId(3);
        assert!(check_well_formed(
            &[ev(a, SpanId::NONE), ev(c, SpanId::NONE), ev(b, a), ev(b, c),]
        )
        .is_err());
    }

    #[test]
    fn full_pipeline_record_roundtrip_and_chrome_export() {
        // Record through a ring, render, re-read, check well-formedness and
        // export — the complete in-crate pipeline in one place.
        let root = SpanId::job_root(9);
        let acc = SpanId::derive(9, Phase::Acceptance, 0, 0);
        let mut ring = RingSink::new(16);
        for event in [
            TraceEvent {
                time: 0.0,
                site: 0,
                span: root,
                parent: SpanId::NONE,
                payload: TracePayload::Arrival {
                    job: 9,
                    tasks: 1,
                    deadline: 10.0,
                },
            },
            TraceEvent {
                time: 0.0,
                site: 0,
                span: acc,
                parent: root,
                payload: TracePayload::LocalAccept {
                    job: 9,
                    completion: 4.0,
                },
            },
        ] {
            ring.record_event(&event);
        }
        let events = ring.snapshot();
        check_well_formed(&events).unwrap();
        let doc = render_jsonl(&[("seed", Json::UInt(9))], &events);
        let (header, parsed) = read_jsonl(&doc).unwrap();
        assert_eq!(parsed, events);
        assert_eq!(render_jsonl_with_header(&header, &parsed), doc);
        let chrome = chrome_trace(&events);
        assert!(chrome.contains("\"name\":\"arrival\""));
    }
}
