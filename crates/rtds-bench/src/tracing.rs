//! Shared `--trace-out` / `--trace-ring` / `--chrome-trace` wiring for the
//! experiments.
//!
//! Every experiment that exposes protocol tracing (`fig1`, `scenarios`,
//! `workloads`) lists the same three value flags in its dispatch-table row
//! and reads them through [`TraceSetup::from_args`]:
//!
//! * `--trace-out <path>` — stream every protocol event as one
//!   `rtds-trace/1` JSONL line (constant memory, unbounded file),
//! * `--trace-ring <capacity>` — keep the most recent `capacity` events in
//!   a bounded in-process ring (the flight recorder) and print retention /
//!   drop counters at the end,
//! * `--chrome-trace <path>` — export the captured events in Chrome's
//!   `about:tracing` / Perfetto JSON format.
//!
//! `--trace-out` and `--trace-ring` are mutually exclusive: the first
//! retains nothing in memory, the second writes nothing to disk. A lone
//! `--chrome-trace` implicitly enables the default flight recorder; with
//! `--trace-out` the exporter re-reads the JSONL file instead, so the two
//! renderings come from the same byte stream. See `docs/TRACING.md`.

use crate::ExpArgs;
use rtds_core::RtdsSystem;
use rtds_scenarios::Json;
use rtds_sim::trace::{chrome_trace, read_jsonl, TraceEvent, DEFAULT_RING_CAPACITY};
use rtds_sim::Trace;
use std::fs::File;
use std::io::BufWriter;

/// Parsed tracing configuration of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct TraceSetup {
    out: Option<String>,
    ring: Option<usize>,
    chrome: Option<String>,
}

impl TraceSetup {
    /// Reads the three tracing flags from parsed arguments, rejecting the
    /// contradictory `--trace-out` + `--trace-ring` combination.
    pub fn from_args(args: &ExpArgs) -> TraceSetup {
        let out = args.value_of("trace-out").map(str::to_string);
        let ring = args
            .has("trace-ring")
            .then(|| args.usize_of("trace-ring", 0));
        let chrome = args.value_of("chrome-trace").map(str::to_string);
        if out.is_some() && ring.is_some() {
            eprintln!(
                "--trace-out streams every event to disk and retains nothing; \
                 it cannot be combined with the bounded in-memory --trace-ring"
            );
            std::process::exit(2);
        }
        TraceSetup { out, ring, chrome }
    }

    /// Returns `true` if any tracing flag was given.
    pub fn is_active(&self) -> bool {
        self.out.is_some() || self.ring.is_some() || self.chrome.is_some()
    }

    /// Installs the requested recorder on the system (no-op when inactive).
    /// `metadata` becomes the JSONL header of a `--trace-out` stream, so the
    /// file is self-describing.
    pub fn install(&self, system: &mut RtdsSystem, metadata: &[(&str, Json)]) {
        if !self.is_active() {
            return;
        }
        let trace = match &self.out {
            Some(path) => {
                let file = File::create(path).unwrap_or_else(|e| {
                    eprintln!("cannot create trace {path}: {e}");
                    std::process::exit(1);
                });
                Trace::jsonl(Box::new(BufWriter::new(file)), metadata)
            }
            None => Trace::ring(self.ring.unwrap_or(DEFAULT_RING_CAPACITY)),
        };
        system.set_trace(trace);
    }

    /// The ring capacity to use for bounded captures: `--trace-ring` when
    /// given, the flight-recorder default otherwise.
    pub fn ring_capacity(&self) -> usize {
        self.ring.unwrap_or(DEFAULT_RING_CAPACITY)
    }

    /// Writes an already-rendered `rtds-trace/1` JSONL document to
    /// `--trace-out` and/or its Chrome rendering to `--chrome-trace`. Used
    /// by experiments that capture a bounded trace in memory (the Fig. 1
    /// walkthrough, a traced scenario cell) rather than streaming — for
    /// those, `--trace-out` means "render the retained events", and the
    /// Chrome export parses the exact document written to disk.
    pub fn export_document(&self, jsonl: &str) {
        if let Some(path) = &self.out {
            if let Err(e) = std::fs::write(path, jsonl) {
                eprintln!("cannot write trace to {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "trace: wrote {} JSONL lines to {path}",
                jsonl.lines().count()
            );
        }
        let Some(chrome_path) = &self.chrome else {
            return;
        };
        let (_header, events) = read_jsonl(jsonl).unwrap_or_else(|e| {
            eprintln!("internal error: trace document does not parse: {e}");
            std::process::exit(1);
        });
        write_chrome_trace(chrome_path, &events);
    }

    /// Flushes the recorder, prints the retention summary and renders the
    /// Chrome export if one was requested (no-op when inactive).
    pub fn finish(&self, system: &mut RtdsSystem) {
        if !self.is_active() {
            return;
        }
        system.trace_mut().flush();
        let recorded = system.trace().recorded();
        match &self.out {
            Some(path) => println!("trace: streamed {recorded} events to {path}"),
            None => println!(
                "trace: recorded {recorded} events, retained {}, dropped {}",
                system.trace().len(),
                system.trace().dropped()
            ),
        }
        let Some(chrome_path) = &self.chrome else {
            return;
        };
        let events = match &self.out {
            // Re-read the streamed file so the export reflects exactly the
            // bytes on disk (and doubles as a parse check of the stream).
            Some(path) => {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot re-read trace {path}: {e}");
                    std::process::exit(1);
                });
                let (_header, events) = read_jsonl(&text).unwrap_or_else(|e| {
                    eprintln!("trace {path} does not round-trip: {e}");
                    std::process::exit(1);
                });
                events
            }
            None => system.trace().events(),
        };
        write_chrome_trace(chrome_path, &events);
    }
}

/// Renders `events` in Chrome's trace format, checks the rendering is valid
/// JSON and writes it to `path`.
fn write_chrome_trace(path: &str, events: &[TraceEvent]) {
    let rendered = chrome_trace(events);
    if let Err(e) = Json::parse(&rendered) {
        eprintln!("internal error: Chrome export is not valid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, &rendered) {
        eprintln!("cannot write Chrome trace to {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "trace: wrote Chrome trace ({} events) to {path}",
        events.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(argv: &[&str]) -> TraceSetup {
        let args = ExpArgs::from_vec(
            "exp_test",
            argv.iter().map(|s| s.to_string()).collect(),
            &["trace-out", "trace-ring", "chrome-trace"],
            &[],
        );
        TraceSetup::from_args(&args)
    }

    #[test]
    fn inactive_without_flags() {
        let s = setup(&[]);
        assert!(!s.is_active());
        assert!(TraceSetup::default().out.is_none());
    }

    #[test]
    fn ring_and_chrome_flags_parse() {
        let s = setup(&["--trace-ring", "128", "--chrome-trace", "/tmp/x.json"]);
        assert!(s.is_active());
        assert_eq!(s.ring, Some(128));
        assert_eq!(s.chrome.as_deref(), Some("/tmp/x.json"));
        assert!(s.out.is_none());
        let s = setup(&["--trace-out=/tmp/t.jsonl"]);
        assert_eq!(s.out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(s.ring.is_none());
    }

    #[test]
    fn install_and_finish_round_trip_through_a_system() {
        use rtds_core::RtdsConfig;
        use rtds_graph::paper_instance::paper_job;
        use rtds_graph::JobId;
        use rtds_net::generators::{line, DelayDistribution};

        let dir = std::env::temp_dir();
        let out = dir.join("rtds_trace_setup_test.jsonl");
        let chrome = dir.join("rtds_trace_setup_test.chrome.json");
        let s = TraceSetup {
            out: Some(out.to_str().unwrap().to_string()),
            ring: None,
            chrome: Some(chrome.to_str().unwrap().to_string()),
        };
        let network = line(4, DelayDistribution::Constant(1.0), 0);
        let mut system = RtdsSystem::new(network, RtdsConfig::default(), 1);
        s.install(&mut system, &[("seed", Json::UInt(1))]);
        assert!(system.trace().is_enabled());
        system.run(vec![paper_job(JobId(1), 1)]);
        s.finish(&mut system);

        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("{\"schema\":\"rtds-trace/1\""));
        let (_, events) = read_jsonl(&text).unwrap();
        assert!(!events.is_empty());
        let rendered = std::fs::read_to_string(&chrome).unwrap();
        assert!(rendered.contains("\"traceEvents\""));
        Json::parse(&rendered).unwrap();
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&chrome);
    }
}
