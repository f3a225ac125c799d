//! A checkpoint file is untrusted input: whatever is done to a real mid-run
//! `rtds-stream-replay/1` document — cut short, a field deleted, a value
//! swapped for one of another type, an integer pushed to `u64::MAX` (which
//! turns ids into out-of-range indices and bit-pattern floats into NaNs) —
//! [`RtdsSystem::resume_streaming`] either returns a `SnapshotError` or
//! replays the run to its end. It never panics and never aborts.
//!
//! The document is the system's record (network, configuration, seed,
//! resource bundles, faults, fault seed, event cap) plus the harvest
//! interval, the pause point and the digest; each refusal the record's
//! decoder and the replay owe is checked by name below.

use rtds::core::{RtdsConfig, RtdsSystem, StreamOptions, StreamPause, StreamReport, StreamRun};
use rtds::net::generators::{grid, DelayDistribution};
use rtds::net::SiteId;
use rtds::sched::SiteResources;
use rtds::sim::{FaultEvent, Json};
use rtds::workload::{JobFactory, JobTemplate, OpenLoopSource, OpenLoopSpec, RateProcess, SizeMix};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 11;

/// A short harvest cadence, so the pause lands between protocol rounds
/// rather than at the next quiet moment.
const OPTIONS: StreamOptions = StreamOptions {
    harvest_interval: 0.25,
};

/// Mid-run, with the brownout applied and every other fault still ahead.
const PAUSE_AT: f64 = 12.5;

/// A cap well above the run's events, so a mutation that makes the
/// protocol loop still ends.
const CAP: u64 = 50_000;

/// A short overloaded stream, so the run distributes, defers and transfers.
fn source() -> JobFactory<OpenLoopSource> {
    let spec = OpenLoopSpec {
        process: RateProcess::Poisson { rate: 1.5 },
        sizes: SizeMix::Uniform { min: 4, max: 7 },
        hotspots: 2,
        horizon: 30.0,
        max_jobs: 0,
    };
    let template = JobTemplate {
        ccr: 0.5,
        ..JobTemplate::default()
    };
    JobFactory::new(spec.build(6, SEED), template)
}

/// A 6-site system with every part of the record populated: flow
/// transfers and the exact-distance table, two-core bundles on two sites,
/// a link that fails and recovers, a bandwidth brownout, a crash and
/// message loss, a fault seed and an event cap. The losses come late: a
/// lost message leaves its sites locked for the rest of the run.
fn system() -> RtdsSystem {
    let mut network = grid(2, 3, false, DelayDistribution::Constant(1.0), SEED);
    for (a, b, _) in network.links().collect::<Vec<_>>() {
        network.set_link_bandwidth(a, b, 4.0).expect("grid link");
    }
    let config = RtdsConfig {
        data_volume_aware: true,
        flow_transfers: true,
        exact_acs_diameter: true,
        ..RtdsConfig::default()
    };
    let mut resources = vec![SiteResources::default(); 6];
    resources[1] = SiteResources::multicore(2, 1.0);
    resources[4] = SiteResources::multicore(2, 1.5);
    let mut system = RtdsSystem::with_resources(network, config, SEED, resources);
    system.set_fault_seed(SEED);
    system.set_max_events(CAP);
    let (a, b) = (SiteId(4), SiteId(5));
    system.schedule_fault(18.0, FaultEvent::LinkDown { a, b });
    system.schedule_fault(28.0, FaultEvent::LinkUp { a, b });
    let (c, d) = (SiteId(0), SiteId(1));
    system.schedule_fault(
        6.0,
        FaultEvent::SetLinkBandwidth {
            a: c,
            b: d,
            bandwidth: 0.5,
        },
    );
    system.schedule_fault(27.0, FaultEvent::SetMessageLoss { probability: 0.3 });
    system.schedule_fault(22.0, FaultEvent::SiteDown { site: SiteId(2) });
    system.schedule_fault(24.0, FaultEvent::SiteUp { site: SiteId(2) });
    system.schedule_fault(29.0, FaultEvent::SetMessageLoss { probability: 0.0 });
    system
}

/// The fixture's checkpoint at [`PAUSE_AT`].
fn checkpoint() -> String {
    let pause = StreamPause::AtTime(PAUSE_AT);
    match system().run_streaming_checkpoint(&mut source(), &OPTIONS, &pause) {
        StreamRun::Paused(text) => text,
        StreamRun::Finished(_) => panic!("the run must pause before draining"),
    }
}

/// What became of one document.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Refused with this `SnapshotError`.
    Refused(String),
    /// Replayed and ran to its end.
    Ran(Box<StreamReport>),
    /// The failure this file exists to catch.
    Panicked,
}

/// Resumes `text` and runs it out.
fn resume(text: &str) -> Outcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        RtdsSystem::resume_streaming(text, &mut source())
    }));
    match outcome {
        Ok(Ok(report)) => Outcome::Ran(Box::new(report)),
        Ok(Err(e)) => Outcome::Refused(e.to_string()),
        Err(_) => Outcome::Panicked,
    }
}

/// The fixture's checkpoint with the value at `path` (object keys, or
/// array indices as decimal strings) replaced by `value`.
fn with(path: &[&str], value: Json) -> String {
    let mut doc = Json::parse(&checkpoint()).expect("checkpoint parses");
    *at(&mut doc, path) = value;
    doc.render_compact()
}

fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(doc, |doc, key| match doc {
        Json::Object(fields) => {
            let field = fields.iter_mut().find(|(k, _)| k == key);
            &mut field.unwrap_or_else(|| panic!("no field {key}")).1
        }
        Json::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
        _ => panic!("{key}: not a container"),
    })
}

/// Resumes `text` and expects a refusal whose message contains every one
/// of `parts`.
fn refused(text: &str, parts: &[&str]) {
    match resume(text) {
        Outcome::Refused(why) => {
            for part in parts {
                assert!(why.contains(part), "{part:?} not in {why:?}");
            }
        }
        other => panic!("expected a refusal naming {parts:?}, got {other:?}"),
    }
}

/// The index, in the fixture's record, of the first fault of kind `kind`
/// (its `"k"` tag).
fn fault_index(kind: &str) -> String {
    let mut doc = Json::parse(&checkpoint()).expect("checkpoint parses");
    let faults = at(&mut doc, &["system", "faults"]).items().expect("a list");
    let is_kind = |fault: &Json| fault.items().and_then(|f| f[1].get("k")?.as_str()) == Some(kind);
    let index = faults.iter().position(is_kind);
    index.expect("a fixture fault").to_string()
}

#[test]
fn the_fixtures_are_rich_and_valid_checkpoints() {
    let text = checkpoint();
    for part in [
        "rtds-stream-replay/1",
        "rtds-system-record/1",
        "\"link_down\"",
        "\"link_up\"",
        "\"bw\"",
        "\"loss\"",
        "\"site_down\"",
        "\"exact_acs_diameter\": true",
    ] {
        assert!(text.contains(part), "fixture lacks {part}");
    }
    let mut doc = Json::parse(&text).expect("checkpoint parses");
    let cores = at(&mut doc, &["system", "resources", "4", "0"]).as_u64();
    assert_eq!(cores, Some(2));
    // The pause lands mid-run, and the resumed run is the uninterrupted one.
    let full = system().run_streaming(&mut source(), &OPTIONS);
    let paused_at = at(&mut doc, &["events_processed"]).as_u64();
    assert!(paused_at.is_some_and(|events| events < full.events_processed));
    assert!(full.stats.named("sim_flow_finished") > 0);
    assert!(full.stats.named("sim_lost_random") > 0);
    assert_eq!(resume(&text), Outcome::Ran(Box::new(full)));
}

#[test]
fn a_nan_observation_window_is_refused() {
    // Floats travel as their bit patterns, so a NaN is a well-formed value;
    // only the config's own check can refuse it.
    let nan = Json::UInt(f64::NAN.to_bits());
    let text = with(&["system", "config", "observation_window"], nan);
    refused(&text, &["stream.system.config: observation_window"]);
}

#[test]
fn an_invalid_config_is_refused() {
    // Flows are sized by data volumes, so flow transfers need them.
    let text = with(
        &["system", "config", "data_volume_aware"],
        Json::Bool(false),
    );
    refused(&text, &["stream.system.config: flow_transfers requires"]);
}

#[test]
fn a_bundle_that_fails_validation_is_refused() {
    let text = with(&["system", "resources", "1", "0"], Json::UInt(0));
    refused(
        &text,
        &["stream.system.resources[1]: ", "at least one core"],
    );
    let nan = Json::UInt(f64::NAN.to_bits());
    let text = with(&["system", "resources", "4", "1"], nan);
    refused(&text, &["stream.system.resources[4]: ", "speed"]);
}

#[test]
fn a_bundle_with_more_cores_than_memory_allows_is_refused() {
    // One plan per core: a hostile count must not reach the constructor.
    let text = with(&["system", "resources", "1", "0"], Json::UInt(1 << 40));
    refused(&text, &["stream.system.resources[1]: ", "cores"]);
}

#[test]
fn a_bundle_count_that_is_not_the_site_count_is_refused() {
    let mut doc = Json::parse(&checkpoint()).expect("checkpoint parses");
    let Json::Array(bundles) = at(&mut doc, &["system", "resources"]) else {
        panic!("the bundles are an array");
    };
    bundles.pop();
    refused(
        &doc.render_compact(),
        &["stream.system.resources: ", "5 bundles for 6 sites"],
    );
}

#[test]
fn a_fault_at_a_missing_site_is_refused() {
    let crash = fault_index("site_down");
    let text = with(&["system", "faults", &crash, "1", "s"], Json::UInt(6));
    refused(
        &text,
        &[&format!("stream.system.faults[{crash}][1].s: "), "outside"],
    );
}

#[test]
fn a_fault_on_a_missing_link_is_refused() {
    // Sites 0 and 5 are opposite corners of the 2 × 3 grid.
    let brownout = fault_index("bw");
    let text = with(&["system", "faults", &brownout, "1", "b"], Json::UInt(5));
    refused(
        &text,
        &[
            &format!("stream.system.faults[{brownout}]: "),
            "no link s0 -- s5",
        ],
    );
}

#[test]
fn a_negative_or_non_finite_fault_time_is_refused() {
    let failure = fault_index("link_down");
    for time in [-1.0, f64::INFINITY, f64::NAN] {
        let bits = Json::UInt(f64::to_bits(time));
        let text = with(&["system", "faults", &failure, "0"], bits);
        refused(
            &text,
            &[&format!("stream.system.faults[{failure}]: "), "fault time"],
        );
    }
}

#[test]
fn a_pause_point_past_the_end_is_refused() {
    let text = with(&["events_processed"], Json::UInt(CAP));
    refused(
        &text,
        &["stream.events_processed: ", "before the pause point"],
    );
}

#[test]
fn a_digest_mismatch_is_refused() {
    let mut doc = Json::parse(&checkpoint()).expect("checkpoint parses");
    let digest = at(&mut doc, &["digest"]);
    *digest = Json::UInt(digest.as_u64().expect("a digest") ^ 1);
    refused(&doc.render_compact(), &["stream.digest: ", "another state"]);
}

#[test]
fn truncated_checkpoints_are_errors() {
    let text = checkpoint();
    for step in 0..64 {
        let mut cut = text.len() * step / 64;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let outcome = resume(&text[..cut]);
        assert!(
            matches!(outcome, Outcome::Refused(_)),
            "cut at byte {cut}: {outcome:?}"
        );
    }
}

/// The index path of every value in the tree, parents before children.
fn addresses(doc: &Json, here: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(here.clone());
    let children: Vec<&Json> = match doc {
        Json::Array(items) => items.iter().collect(),
        Json::Object(fields) => fields.iter().map(|(_, value)| value).collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        here.push(i);
        addresses(child, here, out);
        here.pop();
    }
}

/// The value at `address`, plus its rendered location for failure messages.
fn node_mut<'a>(mut doc: &'a mut Json, address: &[usize]) -> (&'a mut Json, String) {
    let mut location = String::from("stream");
    for &i in address {
        doc = match doc {
            Json::Array(items) => {
                location += &format!("[{i}]");
                &mut items[i]
            }
            Json::Object(fields) => {
                location += &format!(".{}", fields[i].0);
                &mut fields[i].1
            }
            _ => unreachable!("addresses only descend into containers"),
        };
    }
    (doc, location)
}

/// Removes child `i` of a container (with its key, for an object).
fn take_child(parent: &mut Json, i: usize) -> (String, Json) {
    match parent {
        Json::Array(items) => (String::new(), items.remove(i)),
        Json::Object(fields) => fields.remove(i),
        _ => unreachable!("only containers have children"),
    }
}

/// Undoes [`take_child`].
fn put_child(parent: &mut Json, i: usize, (key, child): (String, Json)) {
    match parent {
        Json::Array(items) => items.insert(i, child),
        Json::Object(fields) => fields.insert(i, (key, child)),
        _ => unreachable!("only containers have children"),
    }
}

#[test]
fn single_field_mutations_never_panic() {
    let text = checkpoint();
    let mut doc = Json::parse(&text).expect("checkpoint parses");
    let mut all = Vec::new();
    addresses(&doc, &mut Vec::new(), &mut all);
    let (mut tried, mut refused, mut panicked) = (0u32, 0u32, Vec::new());
    let mut attempt = |what: String, doc: &Json| {
        tried += 1;
        match resume(&doc.render_compact()) {
            Outcome::Refused(_) => refused += 1,
            Outcome::Ran(_) => {}
            Outcome::Panicked => panicked.push(what),
        }
    };
    // Every mutation is undone before the next, so each attempt differs
    // from the real checkpoint in exactly one place.
    for address in &all {
        let (node, location) = node_mut(&mut doc, address);
        let other_type = match node {
            Json::Str(_) => Json::UInt(0),
            Json::Array(_) => Json::Object(Vec::new()),
            Json::Object(_) => Json::Array(Vec::new()),
            _ => Json::str("x"),
        };
        let original = std::mem::replace(node, other_type);
        attempt(format!("{location} type-swapped"), &doc);
        if let Json::UInt(_) = original {
            // Out of every range, then merely out of this system's.
            for hostile in [u64::MAX, 1 << 40, 77] {
                *node_mut(&mut doc, address).0 = Json::UInt(hostile);
                attempt(format!("{location} = {hostile}"), &doc);
            }
        }
        *node_mut(&mut doc, address).0 = original;
        let Some((&last, parent)) = address.split_last() else {
            continue;
        };
        let removed = take_child(node_mut(&mut doc, parent).0, last);
        attempt(format!("{location} deleted"), &doc);
        put_child(node_mut(&mut doc, parent).0, last, removed);
    }
    assert!(matches!(resume(&doc.render_compact()), Outcome::Ran(_)));
    assert!(panicked.is_empty(), "resuming panicked on: {panicked:#?}");
    // Most single-field damage is detectable; a document that still resumes
    // ran to its end without a panic, which is the other allowed outcome.
    assert!(
        refused * 10 > tried * 7,
        "only {refused} of {tried} refused"
    );
}
