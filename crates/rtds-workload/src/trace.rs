//! The deterministic JSONL trace format: record and replay.
//!
//! A trace is a header line followed by one line per arrival, every line a
//! compact JSON object rendered by the hand-rolled deterministic writer
//! ([`rtds_sim::json::Json::render_compact`]):
//!
//! ```text
//! {"schema":"rtds-workload-trace/1","jobs":3,...caller metadata...}
//! {"t":0.8137,"site":2,"tasks":8,"seed":9231374406799782802}
//! {"t":2.4501,"site":0,"tasks":11,"seed":17291842203306527217}
//! {"t":5.0909,"site":1,"tasks":7,"seed":3493573349215806283}
//! ```
//!
//! Because arrival times render in shortest-round-trip form, parsing a line
//! back yields bit-identical values — replaying a recorded trace feeds the
//! simulation the *exact* workload of the live run, and re-recording a
//! replay reproduces the original trace byte-for-byte (the property tests
//! pin both). The header carries caller metadata (seed, topology size, job
//! count, template description) so a trace is self-contained: `rtds-exp
//! workloads --replay` reconstructs the whole experiment from the file alone.

use crate::source::WorkloadSource;
use crate::spec::JobSpec;
use rtds_sim::json::Json;
use std::io::{BufRead, Write};

/// Identifier of the trace schema (bump on breaking format changes).
pub(crate) const TRACE_SCHEMA: &str = "rtds-workload-trace/1";

/// Streams arrivals to a writer as JSONL (see the module docs). Construction
/// writes the header line; [`TraceWriter::record`] appends one arrival.
#[derive(Debug)]
pub(crate) struct TraceWriter<W: Write> {
    out: W,
    recorded: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates the writer and emits the header line. `metadata` fields are
    /// appended to the mandatory `schema` field.
    pub(crate) fn new(mut out: W, metadata: &[(&str, Json)]) -> std::io::Result<Self> {
        let mut fields = vec![("schema", Json::str(TRACE_SCHEMA))];
        fields.extend(metadata.iter().map(|(k, v)| (*k, v.clone())));
        writeln!(out, "{}", Json::object(fields).render_compact())?;
        Ok(TraceWriter { out, recorded: 0 })
    }

    /// Appends one arrival line.
    pub(crate) fn record(&mut self, time: f64, spec: &JobSpec) -> std::io::Result<()> {
        let line = Json::object(vec![
            ("t", Json::Num(time)),
            ("site", Json::UInt(spec.site as u64)),
            ("tasks", Json::UInt(spec.tasks as u64)),
            ("seed", Json::UInt(spec.seed)),
        ]);
        self.recorded += 1;
        writeln!(self.out, "{}", line.render_compact())
    }

    /// Flushes and returns the underlying writer.
    pub(crate) fn finish(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Replays a JSONL trace as a [`WorkloadSource`].
///
/// # Panics
/// Malformed traces (bad JSON, wrong schema, missing fields, I/O errors)
/// panic with a line-numbered message: a trace is an experiment artifact,
/// and silently skipping corrupt arrivals would un-pin the replay.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    input: R,
    header: Json,
    line_number: u64,
    /// Reused line buffer — a million-line replay must not allocate one
    /// `String` per arrival.
    line: String,
}

impl<R: BufRead> TraceReader<R> {
    /// Opens a trace: reads and validates the header line.
    pub fn new(mut input: R) -> Self {
        let mut first = String::new();
        input
            .read_line(&mut first)
            .expect("cannot read trace header");
        let header = Json::parse(first.trim_end_matches('\n'))
            .unwrap_or_else(|e| panic!("malformed trace header: {e}"));
        let schema = header.get("schema").and_then(Json::as_str);
        assert!(
            schema == Some(TRACE_SCHEMA),
            "unsupported trace schema {schema:?} (expected {TRACE_SCHEMA:?})"
        );
        TraceReader {
            input,
            header,
            line_number: 1,
            line: String::new(),
        }
    }

    /// The parsed header (schema plus the recorder's metadata).
    pub fn header(&self) -> &Json {
        &self.header
    }

    /// A required `u64` metadata field of the header.
    pub fn header_u64(&self, key: &str) -> Option<u64> {
        self.header.get(key).and_then(Json::as_u64)
    }
}

/// Opens an in-memory trace (the record → replay round-trip used by the
/// `replayed-trace` scenario and the property tests).
pub fn reader_from_string(trace: String) -> TraceReader<std::io::Cursor<Vec<u8>>> {
    TraceReader::new(std::io::Cursor::new(trace.into_bytes()))
}

/// Drains `source` into an in-memory trace with the given header metadata.
pub fn record_to_string(source: &mut impl WorkloadSource, metadata: &[(&str, Json)]) -> String {
    let mut writer = TraceWriter::new(Vec::new(), metadata).expect("in-memory writes cannot fail");
    while let Some((t, spec)) = source.next_arrival() {
        writer
            .record(t, &spec)
            .expect("in-memory writes cannot fail");
    }
    let bytes = writer.finish().expect("in-memory flush cannot fail");
    String::from_utf8(bytes).expect("traces are ASCII JSON")
}

impl<R: BufRead> WorkloadSource for TraceReader<R> {
    fn next_arrival(&mut self) -> Option<(f64, JobSpec)> {
        loop {
            self.line.clear();
            let read = self.input.read_line(&mut self.line).unwrap_or_else(|e| {
                panic!("trace read failed after line {}: {e}", self.line_number)
            });
            if read == 0 {
                return None;
            }
            self.line_number += 1;
            if !self.line.trim().is_empty() {
                break;
            }
        }
        let n = self.line_number;
        let entry = Json::parse(self.line.trim_end_matches('\n'))
            .unwrap_or_else(|e| panic!("malformed trace line {n}: {e}"));
        let field = |key: &str| {
            entry
                .get(key)
                .unwrap_or_else(|| panic!("trace line {n} is missing {key:?}"))
        };
        let t = field("t")
            .as_f64()
            .unwrap_or_else(|| panic!("trace line {n}: \"t\" is not a number"));
        let to_u64 = |key: &str| {
            field(key)
                .as_u64()
                .unwrap_or_else(|| panic!("trace line {n}: {key:?} is not an unsigned integer"))
        };
        Some((
            t,
            JobSpec {
                site: to_u64("site") as usize,
                tasks: to_u64("tasks") as usize,
                seed: to_u64("seed"),
            },
        ))
    }
}

/// Tees a source into a trace writer: arrivals pass through unchanged and
/// are appended to the trace as a side effect (the `--record` mode).
#[derive(Debug)]
pub struct RecordingSource<S: WorkloadSource, W: Write> {
    inner: S,
    writer: TraceWriter<W>,
}

impl<S: WorkloadSource, W: Write> RecordingSource<S, W> {
    /// Wraps `inner`, writing the trace (header included) to `out`.
    pub fn new(inner: S, out: W, metadata: &[(&str, Json)]) -> std::io::Result<Self> {
        Ok(RecordingSource {
            inner,
            writer: TraceWriter::new(out, metadata)?,
        })
    }

    /// Flushes the trace and returns the inner source and writer.
    pub fn finish(self) -> std::io::Result<(S, W)> {
        let out = self.writer.finish()?;
        Ok((self.inner, out))
    }
}

impl<S: WorkloadSource, W: Write> WorkloadSource for RecordingSource<S, W> {
    fn next_arrival(&mut self) -> Option<(f64, JobSpec)> {
        let (t, spec) = self.inner.next_arrival()?;
        self.writer
            .record(t, &spec)
            .expect("trace write failed while recording");
        Some((t, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{OpenLoopSpec, RateProcess};
    use crate::spec::SizeMix;

    fn sample_source() -> impl WorkloadSource {
        OpenLoopSpec {
            process: RateProcess::Poisson { rate: 0.7 },
            sizes: SizeMix::Uniform { min: 4, max: 12 },
            hotspots: 0,
            horizon: 60.0,
            max_jobs: 0,
        }
        .build(5, 11)
    }

    #[test]
    fn record_then_replay_reproduces_every_arrival() {
        let mut live = sample_source();
        let trace = record_to_string(&mut live, &[("seed", Json::UInt(11))]);
        assert!(trace.starts_with("{\"schema\":\"rtds-workload-trace/1\""));

        let mut replayed = Vec::new();
        let mut reader = reader_from_string(trace.clone());
        assert_eq!(reader.header_u64("seed"), Some(11));
        while let Some(a) = reader.next_arrival() {
            replayed.push(a);
        }
        let mut expected = Vec::new();
        let mut again = sample_source();
        while let Some(a) = again.next_arrival() {
            expected.push(a);
        }
        assert_eq!(replayed, expected);
        assert!(!replayed.is_empty());

        // Re-recording the replay reproduces the trace byte-for-byte.
        let mut reader = reader_from_string(trace.clone());
        let metadata = [("seed", Json::UInt(11))];
        let second = record_to_string(&mut reader, &metadata);
        assert_eq!(second, trace);
    }

    #[test]
    fn recording_source_tees_without_altering_the_stream() {
        let mut recorded = RecordingSource::new(sample_source(), Vec::new(), &[]).unwrap();
        let mut seen = Vec::new();
        while let Some(a) = recorded.next_arrival() {
            seen.push(a);
        }
        let (_, bytes) = recorded.finish().unwrap();
        let trace = String::from_utf8(bytes).unwrap();
        assert_eq!(trace.lines().count(), seen.len() + 1);
        let mut direct = Vec::new();
        let mut source = sample_source();
        while let Some(a) = source.next_arrival() {
            direct.push(a);
        }
        assert_eq!(seen, direct);
    }

    #[test]
    #[should_panic(expected = "unsupported trace schema")]
    fn wrong_schema_is_rejected() {
        reader_from_string("{\"schema\":\"other/9\"}\n".to_string());
    }

    #[test]
    #[should_panic(expected = "malformed trace line 2")]
    fn malformed_lines_are_rejected() {
        let mut reader = reader_from_string(format!(
            "{}\nnot json\n",
            Json::object(vec![("schema", Json::str(TRACE_SCHEMA))]).render_compact()
        ));
        let _ = reader.next_arrival();
    }

    #[test]
    fn blank_lines_are_skipped() {
        let header = Json::object(vec![("schema", Json::str(TRACE_SCHEMA))]).render_compact();
        let mut reader = reader_from_string(format!(
            "{header}\n\n{{\"t\":1.5,\"site\":0,\"tasks\":3,\"seed\":9}}\n\n"
        ));
        let (t, spec) = reader.next_arrival().unwrap();
        assert_eq!(t, 1.5);
        assert_eq!(
            spec,
            JobSpec {
                site: 0,
                tasks: 3,
                seed: 9
            }
        );
        assert!(reader.next_arrival().is_none());
    }
}
