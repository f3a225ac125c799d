//! The `rtds-trace/1` JSONL wire format.
//!
//! One JSON object per line, in the workspace's one deterministic dialect
//! ([`crate::json`]: shortest-round-trip floats via `{:?}`, non-finite floats
//! as `null`, minimal escapes, compact objects, insertion-ordered keys). The
//! first line is a self-contained header:
//!
//! ```text
//! {"schema":"rtds-trace/1","scenario":"paper-baseline","seed":42}
//! ```
//!
//! followed by one event per line:
//!
//! ```text
//! {"t":0.0,"site":0,"span":17052..,"parent":0,"kind":"arrival","job":10,"tasks":3,"deadline":70.0}
//! ```
//!
//! Event lines stream into one `String` through the shared scalar writers —
//! no tree is built on the recording path — and are read back by
//! [`Json::parse`]. Because the writer and `parse_event_line` agree
//! field-for-field and the float formats are shortest-round-trip, record →
//! parse → re-render is a byte fixpoint — mirroring the
//! `rtds-workload-trace/1` design.

use crate::event::{Arg, DeferReason, RejectReason, TraceEvent, TracePayload};
use crate::json::{write_escaped, write_f64, Json};
use crate::span::SpanId;
use std::fmt::Write as _;
use std::io::BufRead;

/// Schema tag written into (and required in) every trace header.
pub const TRACE_SCHEMA: &str = "rtds-trace/1";

/// Renders the header line (without trailing newline): the schema field
/// first, then `metadata` in the given order.
pub(crate) fn header_line(metadata: &[(&str, Json)]) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"schema\":");
    write_escaped(&mut out, TRACE_SCHEMA);
    for (key, value) in metadata {
        out.push(',');
        write_escaped(&mut out, key);
        out.push(':');
        value.write_compact(&mut out);
    }
    out.push('}');
    out
}

/// Appends one event line (without trailing newline) to `out`.
pub(crate) fn write_event_line(out: &mut String, event: &TraceEvent) {
    out.push_str("{\"t\":");
    write_f64(out, event.time);
    let _ = write!(out, ",\"site\":{}", event.site);
    let _ = write!(out, ",\"span\":{}", event.span.0);
    let _ = write!(out, ",\"parent\":{}", event.parent.0);
    out.push_str(",\"kind\":");
    write_escaped(out, event.kind());
    event.payload.for_each_arg(&mut |name, arg| {
        out.push(',');
        write_escaped(out, name);
        out.push(':');
        match arg {
            Arg::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Arg::F64(x) => write_f64(out, x),
            Arg::Str(s) => write_escaped(out, s),
            Arg::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    });
    out.push('}');
}

/// Renders a complete trace document: header plus one line per event, each
/// newline-terminated.
pub fn render_jsonl(metadata: &[(&str, Json)], events: &[TraceEvent]) -> String {
    render_jsonl_with_header(&header_line(metadata), events)
}

/// Renders a trace document reusing an existing header line verbatim — the
/// re-render half of the byte-fixpoint round trip.
pub fn render_jsonl_with_header(header: &str, events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(header.len() + 1 + events.len() * 96);
    out.push_str(header);
    out.push('\n');
    for event in events {
        write_event_line(&mut out, event);
        out.push('\n');
    }
    out
}

/// One parsed line: the fields of a JSON object, read by name and type.
struct Line(Vec<(String, Json)>);

impl Line {
    fn parse(line: &str) -> Result<Line, String> {
        match Json::parse(line).map_err(|e| e.to_string())? {
            Json::Object(fields) => Ok(Line(fields)),
            _ => Err("expected a JSON object".to_string()),
        }
    }

    fn get(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn u64_field(&self, name: &str) -> Result<u64, String> {
        match self.get(name) {
            Some(Json::UInt(u)) => Ok(*u),
            other => Err(format!("field {name:?}: expected integer, got {other:?}")),
        }
    }

    fn u32_field(&self, name: &str) -> Result<u32, String> {
        let u = self.u64_field(name)?;
        u32::try_from(u).map_err(|_| format!("field {name:?}: {u} exceeds u32"))
    }

    fn f64_field(&self, name: &str) -> Result<f64, String> {
        match self.get(name) {
            // A non-finite float was written as `null`.
            Some(Json::Null) => Some(f64::NAN),
            // An integer token is a float that printed without a fraction.
            Some(value) => value.as_f64(),
            None => None,
        }
        .ok_or_else(|| format!("field {name:?}: expected number"))
    }

    fn str_field(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("field {name:?}: expected string"))
    }

    fn bool_field(&self, name: &str) -> Result<bool, String> {
        match self.get(name) {
            Some(Json::Bool(b)) => Ok(*b),
            other => Err(format!("field {name:?}: expected bool, got {other:?}")),
        }
    }
}

/// Parses a header line and checks its schema tag.
fn parse_header(line: &str) -> Result<Line, String> {
    let header = Line::parse(line)?;
    match header.get("schema").and_then(Json::as_str) {
        Some(TRACE_SCHEMA) => Ok(header),
        other => Err(format!(
            "unsupported trace schema {other:?} (expected {TRACE_SCHEMA:?})"
        )),
    }
}

fn payload_from(kind: &str, obj: &Line) -> Result<TracePayload, String> {
    let payload = match kind {
        "arrival" => TracePayload::Arrival {
            job: obj.u64_field("job")?,
            tasks: obj.u32_field("tasks")?,
            deadline: obj.f64_field("deadline")?,
        },
        "arrival-deferred" => TracePayload::ArrivalDeferred {
            job: obj.u64_field("job")?,
            reason: {
                let wire = obj.str_field("reason")?;
                DeferReason::from_wire(wire)
                    .ok_or_else(|| format!("unknown defer reason {wire:?}"))?
            },
        },
        "local-test" => TracePayload::LocalTest {
            job: obj.u64_field("job")?,
            tasks: obj.u32_field("tasks")?,
            deadline: obj.f64_field("deadline")?,
        },
        "local-accept" => TracePayload::LocalAccept {
            job: obj.u64_field("job")?,
            completion: obj.f64_field("completion")?,
        },
        "local-reject" => TracePayload::LocalReject {
            job: obj.u64_field("job")?,
        },
        "acs-enroll" => TracePayload::AcsEnroll {
            job: obj.u64_field("job")?,
            peers: obj.u32_field("peers")?,
        },
        "acs-joined" => TracePayload::AcsJoined {
            job: obj.u64_field("job")?,
            initiator: obj.u32_field("initiator")?,
            surplus: obj.f64_field("surplus")?,
        },
        "trial-mapping" => TracePayload::TrialMapping {
            job: obj.u64_field("job")?,
            used: obj.u32_field("used")?,
            makespan: obj.f64_field("makespan")?,
            makespan_star: obj.f64_field("makespan_star")?,
            omega: obj.f64_field("omega")?,
        },
        "validation" => TracePayload::Validation {
            job: obj.u64_field("job")?,
            endorsable: obj.u32_field("endorsable")?,
            total: obj.u32_field("total")?,
        },
        "mapping-validated" => TracePayload::MappingValidated {
            job: obj.u64_field("job")?,
            coupling: obj.u32_field("coupling")?,
        },
        "job-accepted" => TracePayload::JobAccepted {
            job: obj.u64_field("job")?,
            distributed: obj.bool_field("distributed")?,
        },
        "reject" => TracePayload::Reject {
            job: obj.u64_field("job")?,
            reason: match obj.str_field("reason")? {
                "empty-sphere" => RejectReason::EmptySphere,
                "mapper-failed" => RejectReason::MapperFailed,
                "adjustment-window" => RejectReason::AdjustmentWindow,
                "coupling-too-small" => RejectReason::CouplingTooSmall {
                    size: obj.u32_field("size")?,
                    required: obj.u32_field("required")?,
                },
                other => return Err(format!("unknown reject reason {other:?}")),
            },
        },
        "execute" => TracePayload::Execute {
            job: obj.u64_field("job")?,
            logical: obj.u32_field("logical")?,
        },
        "not-selected" => TracePayload::NotSelected {
            job: obj.u64_field("job")?,
        },
        "placement-failure" => TracePayload::PlacementFailure {
            job: obj.u64_field("job")?,
        },
        "unlocked" => TracePayload::Unlocked {
            job: obj.u64_field("job")?,
        },
        "routing-fanout" => TracePayload::RoutingFanout {
            phase: obj.u32_field("phase")?,
            fanout: obj.u32_field("fanout")?,
        },
        "mark" => TracePayload::Mark {
            tag: obj.u32_field("tag")?,
            value: obj.f64_field("value")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(payload)
}

/// Parses one event line back into a [`TraceEvent`].
pub(crate) fn parse_event_line(line: &str) -> Result<TraceEvent, String> {
    let obj = Line::parse(line)?;
    Ok(TraceEvent {
        time: obj.f64_field("t")?,
        site: obj.u32_field("site")?,
        span: SpanId(obj.u64_field("span")?),
        parent: SpanId(obj.u64_field("parent")?),
        payload: payload_from(obj.str_field("kind")?, &obj)?,
    })
}

/// Streaming reader over an `rtds-trace/1` document. Construction validates
/// the header; every failure — I/O, a malformed line, a wrong schema — is an
/// `Err` carrying the line number, never a panic.
#[derive(Debug)]
pub(crate) struct JsonlReader<R: BufRead> {
    input: R,
    header_line: String,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> JsonlReader<R> {
    /// Reads and validates the header line: the input must start with an
    /// object whose `schema` is [`TRACE_SCHEMA`].
    pub(crate) fn new(mut input: R) -> Result<JsonlReader<R>, String> {
        let mut header_line = String::new();
        let n = input
            .read_line(&mut header_line)
            .map_err(|e| format!("failed to read trace header: {e}"))?;
        if n == 0 {
            return Err("empty trace input (missing header)".to_string());
        }
        header_line.truncate(header_line.trim_end().len());
        parse_header(&header_line).map_err(|e| format!("header: {e}"))?;
        Ok(JsonlReader {
            input,
            header_line,
            line_no: 1,
            buf: String::new(),
        })
    }

    /// Reads the next event; `Ok(None)` at end of input.
    pub(crate) fn next_event(&mut self) -> Result<Option<TraceEvent>, String> {
        loop {
            self.buf.clear();
            let n = self
                .input
                .read_line(&mut self.buf)
                .map_err(|e| format!("line {}: {e}", self.line_no + 1))?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if !self.buf.trim().is_empty() {
                return parse_event_line(&self.buf)
                    .map(Some)
                    .map_err(|e| format!("line {}: {e}", self.line_no));
            }
        }
    }
}

/// Parses a whole trace document, returning the raw header line and every
/// event. Errors (rather than panics) so tools can report bad inputs.
pub fn read_jsonl(text: &str) -> Result<(String, Vec<TraceEvent>), String> {
    let mut reader = JsonlReader::new(text.as_bytes())?;
    let mut events = Vec::new();
    while let Some(event) = reader.next_event()? {
        events.push(event);
    }
    Ok((reader.header_line, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    fn sample_events() -> Vec<TraceEvent> {
        let root = SpanId::job_root(10);
        let acc = SpanId::derive(10, Phase::Acceptance, 0, 0);
        vec![
            TraceEvent {
                time: 0.0,
                site: 0,
                span: root,
                parent: SpanId::NONE,
                payload: TracePayload::Arrival {
                    job: 10,
                    tasks: 3,
                    deadline: 70.0,
                },
            },
            TraceEvent {
                time: 0.0,
                site: 0,
                span: acc,
                parent: root,
                payload: TracePayload::LocalTest {
                    job: 10,
                    tasks: 3,
                    deadline: 70.0,
                },
            },
            TraceEvent {
                time: 0.125,
                site: 2,
                span: SpanId::derive(10, Phase::Enrollment, 2, 0),
                parent: SpanId::derive(10, Phase::Enrollment, 0, 0),
                payload: TracePayload::AcsJoined {
                    job: 10,
                    initiator: 0,
                    surplus: 12.5,
                },
            },
            TraceEvent {
                time: 1.5,
                site: 0,
                span: root,
                parent: SpanId::NONE,
                payload: TracePayload::Reject {
                    job: 10,
                    reason: RejectReason::CouplingTooSmall {
                        size: 1,
                        required: 3,
                    },
                },
            },
        ]
    }

    #[test]
    fn record_then_rerender_is_a_byte_fixpoint() {
        let metadata = [
            ("scenario", Json::str("paper-baseline")),
            ("seed", Json::UInt(42)),
        ];
        let doc = render_jsonl(&metadata, &sample_events());
        let (header, events) = read_jsonl(&doc).unwrap();
        assert_eq!(events, sample_events());
        let again = render_jsonl_with_header(&header, &events);
        assert_eq!(doc, again);
    }

    #[test]
    fn every_payload_variant_round_trips() {
        let variants = vec![
            TracePayload::Arrival {
                job: 1,
                tasks: 2,
                deadline: 3.5,
            },
            TracePayload::ArrivalDeferred {
                job: 1,
                reason: DeferReason::SiteLocked,
            },
            TracePayload::ArrivalDeferred {
                job: 1,
                reason: DeferReason::PcsConstruction,
            },
            TracePayload::LocalTest {
                job: 1,
                tasks: 2,
                deadline: 3.5,
            },
            TracePayload::LocalAccept {
                job: 1,
                completion: 9.25,
            },
            TracePayload::LocalReject { job: 1 },
            TracePayload::AcsEnroll { job: 1, peers: 4 },
            TracePayload::AcsJoined {
                job: 1,
                initiator: 2,
                surplus: 0.5,
            },
            TracePayload::TrialMapping {
                job: 1,
                used: 2,
                makespan: 10.0,
                makespan_star: 8.0,
                omega: 1.5,
            },
            TracePayload::Validation {
                job: 1,
                endorsable: 2,
                total: 3,
            },
            TracePayload::MappingValidated {
                job: 1,
                coupling: 3,
            },
            TracePayload::JobAccepted {
                job: 1,
                distributed: true,
            },
            TracePayload::JobAccepted {
                job: 1,
                distributed: false,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::EmptySphere,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::MapperFailed,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::AdjustmentWindow,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::CouplingTooSmall {
                    size: 1,
                    required: 2,
                },
            },
            TracePayload::Execute { job: 1, logical: 0 },
            TracePayload::NotSelected { job: 1 },
            TracePayload::PlacementFailure { job: 1 },
            TracePayload::Unlocked { job: 1 },
            TracePayload::RoutingFanout {
                phase: 2,
                fanout: 5,
            },
            TracePayload::Mark {
                tag: 7,
                value: 0.75,
            },
        ];
        for (i, payload) in variants.into_iter().enumerate() {
            let event = TraceEvent {
                time: i as f64 + 0.5,
                site: i as u32,
                span: SpanId::derive(1, Phase::Custom, i as u32, 0),
                parent: SpanId::NONE,
                payload,
            };
            let mut line = String::new();
            write_event_line(&mut line, &event);
            let parsed = parse_event_line(&line).unwrap();
            assert_eq!(parsed, event, "variant {i} failed to round-trip");
            let mut again = String::new();
            write_event_line(&mut again, &parsed);
            assert_eq!(line, again, "variant {i} is not a byte fixpoint");
        }
    }

    #[test]
    fn reader_streams_events_and_keeps_the_header_line() {
        let doc = render_jsonl(&[("seed", Json::UInt(7))], &sample_events());
        let mut reader = JsonlReader::new(doc.as_bytes()).unwrap();
        assert!(reader.header_line.contains("\"seed\":7"));
        let mut n = 0;
        while let Some(event) = reader.next_event().unwrap() {
            assert_eq!(event, sample_events()[n]);
            n += 1;
        }
        assert_eq!(n, sample_events().len());
    }

    /// A wrong schema, an empty input and a torn or mistyped line are `Err`s
    /// naming the line — never panics.
    #[test]
    fn reader_rejects_a_wrong_schema() {
        let wrong = JsonlReader::new("{\"schema\":\"rtds-workload-trace/1\"}\n".as_bytes());
        assert!(wrong.unwrap_err().contains("unsupported trace schema"));
        assert!(JsonlReader::new("".as_bytes()).is_err());
        assert!(JsonlReader::new("[1]\n".as_bytes()).is_err());
        let doc = render_jsonl(&[], &sample_events());
        let torn = &doc[..doc.len() - 9];
        let e = read_jsonl(torn).unwrap_err();
        assert!(e.starts_with("line 5: "), "{e}");
        let mistyped = doc.replace("\"site\":2", "\"site\":-2");
        let e = read_jsonl(&mistyped).unwrap_err();
        assert!(e.starts_with("line 4: field \"site\""), "{e}");
    }

    /// Every escape of the shared dialect reads back, including the ones the
    /// crate's former private parser refused (`\/`, `\b`, `\f`, surrogate
    /// pairs); what the writer emits for them is a fixpoint.
    #[test]
    fn string_escapes_round_trip() {
        let label = "a\"b\\c\nd\te\u{1}/\u{8}\u{c}\u{1D11E}";
        let header = header_line(&[("label", Json::str(label))]);
        let parsed = parse_header(&header).unwrap();
        assert_eq!(parsed.get("label"), Some(&Json::str(label)));
        let foreign =
            r#"{"schema":"rtds-trace/1","label":"a\"b\\c\nd\te\u0001\/\b\f\uD834\uDD1E"}"#;
        let value = parse_header(foreign)
            .unwrap()
            .get("label")
            .cloned()
            .unwrap();
        assert_eq!(value, Json::str(label));
        assert_eq!(header_line(&[("label", value)]), header);
    }
}
