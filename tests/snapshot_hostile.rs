//! A snapshot file is untrusted input: whatever is done to a real mid-run
//! `rtds-stream-snapshot/1` document — cut short, a field deleted, a value
//! swapped for one of another type, an integer pushed to `u64::MAX` (which
//! turns ids into out-of-range indices and bit-pattern floats into NaNs) —
//! [`RtdsSystem::resume_streaming`] either returns a `SnapshotError` or a
//! system that runs to quiescence. It never panics and never aborts.

use rtds::core::{RtdsConfig, RtdsSystem, StreamOptions, StreamPause, StreamRun};
use rtds::net::generators::{grid, DelayDistribution};
use rtds::net::SiteId;
use rtds::sim::{FaultEvent, Json};
use rtds::workload::{JobFactory, JobTemplate, OpenLoopSource, OpenLoopSpec, RateProcess, SizeMix};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 11;

/// A short harvest cadence, so the pause lands between protocol rounds
/// rather than at the next quiet moment.
const OPTIONS: StreamOptions = StreamOptions {
    harvest_interval: 0.25,
};

/// Two pause instants that between them populate every section of a
/// running system: at the first a Trial-Mapping validation round is open
/// (replies on the wire), at the second a data transfer is in flight on the
/// bandwidth plane. Both hold locked sites, deferred arrivals, a failed link
/// and a pending fault.
const PAUSES: [f64; 2] = [12.5, 16.5];

/// A short overloaded stream, so the pause catches deferred arrivals,
/// distributions in flight and data transfers on the wire.
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

/// A mid-run checkpoint of a 6-site system with every optional section
/// populated: flow transfers, the exact-distance table, a failed link, a
/// pending fault and message loss.
fn checkpoint(pause_at: f64) -> String {
    checkpoint_with(DelayDistribution::Constant(1.0), pause_at)
}

/// A checkpoint from the middle of the §7 construction. Unequal link delays
/// spread the routing updates out, so sites hold tables for the phase they
/// are collecting and early ones for the phase after.
fn construction_checkpoint() -> String {
    checkpoint_with(DelayDistribution::Uniform { min: 0.2, max: 2.0 }, 1.0)
}

fn checkpoint_with(delays: DelayDistribution, pause_at: f64) -> String {
    let mut network = grid(2, 3, false, delays, SEED);
    for (a, b, _) in network.links().collect::<Vec<_>>() {
        network.set_link_bandwidth(a, b, 4.0).expect("grid link");
    }
    let config = RtdsConfig {
        data_volume_aware: true,
        flow_transfers: true,
        exact_acs_diameter: true,
        ..RtdsConfig::default()
    };
    let mut system = RtdsSystem::new(network, config, SEED);
    system.set_fault_seed(SEED);
    let (a, b) = (SiteId(4), SiteId(5));
    system.schedule_fault(3.0, FaultEvent::LinkDown { a, b });
    system.schedule_fault(28.0, FaultEvent::LinkUp { a, b });
    let pause = StreamPause::AtTime(pause_at);
    match system.run_streaming_checkpoint(&mut source(), &OPTIONS, &pause) {
        StreamRun::Paused(text) => text,
        StreamRun::Finished(_) => panic!("the run must pause before draining"),
    }
}

/// What became of one document.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Refused with this `SnapshotError`.
    Refused(String),
    /// Restored and ran to quiescence.
    Ran,
    /// The failure this file exists to catch.
    Panicked,
}

/// Resumes `text` and runs it out.
fn resume(text: &str) -> Outcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        RtdsSystem::resume_streaming(text, &mut source())
    }));
    match outcome {
        Ok(Ok(_)) => Outcome::Ran,
        Ok(Err(e)) => Outcome::Refused(e.to_string()),
        Err(_) => Outcome::Panicked,
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
fn the_fixtures_are_rich_and_valid_checkpoints() {
    let texts = PAUSES.map(checkpoint);
    for text in &texts {
        for section in [
            "rtds-stream-snapshot/1",
            "rtds-system-snapshot/1",
            "rtds-engine-snapshot/1",
            "rtds-flow-snapshot/1",
            "rtds-sched-snapshot/1",
            "\"link_up\"",
        ] {
            assert!(text.contains(section), "fixture lacks {section}");
        }
        let doc = Json::parse(text).expect("checkpoint parses");
        let has_items = |path: &[&str]| {
            let section = path.iter().try_fold(&doc, |d, key| d.get(key));
            section.and_then(Json::items).is_some_and(|i| !i.is_empty())
        };
        assert!(has_items(&["system", "engine", "faults", "failed_links"]));
        assert!(has_items(&["system", "engine", "queue", "events"]));
        assert!(has_items(&["system", "global_distances"]));
        assert!(has_items(&["harvest", "inflight"]));
        assert_eq!(resume(text), Outcome::Ran);
    }
    assert!(texts[0].contains("\"validation\": {") && texts[0].contains("\"k\": \"tm\""));
    assert!(texts[1].contains("\"rate\": ") && texts[1].contains("\"k\": \"td\""));

    let text = construction_checkpoint();
    let doc = Json::parse(&text).expect("checkpoint parses");
    let nodes = doc
        .get("system")
        .and_then(|d| d.get("engine")?.get("nodes")?.items());
    let some_node_holds = |key: &str| {
        let held = |node: &Json| node.get("pcs")?.get(key)?.items().map(|i| !i.is_empty());
        nodes.is_some_and(|nodes| nodes.iter().any(|node| held(node) == Some(true)))
    };
    assert!(some_node_holds("pending") && some_node_holds("future"));
    assert_eq!(resume(&text), Outcome::Ran);
}

/// The node whose `pcs` section holds a routing update with its sender at
/// `location`: `pending[i][0]` or `future[i][1][j][0]`.
fn held_sender(location: &str) -> Option<usize> {
    let (_, rest) = location.split_once(".nodes[")?;
    let (node, rest) = rest.split_once("].pcs.")?;
    let depth = |indices: &str| indices.matches('[').count();
    let is_sender = match (rest.strip_prefix("pending"), rest.strip_prefix("future")) {
        (Some(indices), _) => depth(indices) == 2,
        (_, Some(indices)) => depth(indices) == 4 && indices.contains("][1]["),
        _ => false,
    };
    (is_sender && rest.ends_with("[0]")).then(|| node.parse().ok())?
}

#[test]
fn a_routing_update_from_a_stranger_is_refused() {
    // In range, so the site-id check passes it — but no site is its own
    // neighbor, and only neighbors send routing updates.
    let text = construction_checkpoint();
    let mut doc = Json::parse(&text).expect("checkpoint parses");
    let mut all = Vec::new();
    addresses(&doc, &mut Vec::new(), &mut all);
    let mut rewritten = 0;
    for address in &all {
        let (node, location) = node_mut(&mut doc, address);
        let Some(holder) = held_sender(&location) else {
            continue;
        };
        let original = std::mem::replace(node, Json::UInt(holder as u64));
        match resume(&doc.render_compact()) {
            Outcome::Refused(why) => assert!(
                why.contains(&format!("nodes[{holder}].pcs.")) && why.contains("not a neighbor"),
                "{location}: {why}"
            ),
            other => panic!("{location} = {holder}: {other:?}"),
        }
        *node_mut(&mut doc, address).0 = original;
        rewritten += 1;
    }
    assert!(
        rewritten >= 2,
        "the fixture holds tables in pending and future"
    );
}

#[test]
fn a_nan_observation_window_is_refused() {
    // Floats travel as their bit patterns, so a NaN is a well-formed value;
    // only the config's own check can refuse it.
    let mut doc = Json::parse(&checkpoint(PAUSES[0])).expect("checkpoint parses");
    let mut all = Vec::new();
    addresses(&doc, &mut Vec::new(), &mut all);
    let address = all
        .iter()
        .find(|address| {
            node_mut(&mut doc, address)
                .1
                .ends_with(".observation_window")
        })
        .expect("the checkpoint carries the config");
    let (node, location) = node_mut(&mut doc, address);
    *node = Json::UInt(f64::NAN.to_bits());
    let config_path = location.trim_end_matches(".observation_window");
    match resume(&doc.render_compact()) {
        Outcome::Refused(why) => assert!(
            why.contains(&format!("{config_path}: observation_window")),
            "{location}: {why}"
        ),
        other => panic!("{location} = NaN: {other:?}"),
    }
}

#[test]
fn more_acceptances_than_injected_jobs_are_refused() {
    // Each counter is a well-formed integer on its own; only the harvest's
    // check that acceptances are a subset of injected jobs can refuse it.
    let mut doc = Json::parse(&checkpoint(PAUSES[0])).expect("checkpoint parses");
    let injected = doc.get("harvest").and_then(|h| h.get("injected")?.as_u64());
    let local = injected.expect("the harvest counts injected jobs") + 1;
    let mut all = Vec::new();
    addresses(&doc, &mut Vec::new(), &mut all);
    let address = all
        .iter()
        .find(|address| node_mut(&mut doc, address).1 == "stream.harvest.accepted_locally")
        .expect("the harvest counts local acceptances");
    *node_mut(&mut doc, address).0 = Json::UInt(local);
    match resume(&doc.render_compact()) {
        Outcome::Refused(why) => assert!(
            why.contains("stream.harvest") && why.contains("accepted_locally"),
            "{why}"
        ),
        other => panic!("accepted_locally = {local}: {other:?}"),
    }
}

#[test]
fn truncated_checkpoints_are_errors() {
    let text = checkpoint(PAUSES[0]);
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

#[test]
fn single_field_mutations_never_panic() {
    for text in PAUSES
        .map(checkpoint)
        .into_iter()
        .chain([construction_checkpoint()])
    {
        mutate_every_field(Json::parse(&text).expect("checkpoint parses"));
    }
}

fn mutate_every_field(mut doc: Json) {
    let mut all = Vec::new();
    addresses(&doc, &mut Vec::new(), &mut all);
    let (mut tried, mut refused, mut panicked) = (0u32, 0u32, Vec::new());
    let mut attempt = |what: String, doc: &Json| {
        tried += 1;
        match resume(&doc.render_compact()) {
            Outcome::Refused(_) => refused += 1,
            Outcome::Ran => {}
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
    assert_eq!(resume(&doc.render_compact()), Outcome::Ran);
    assert!(panicked.is_empty(), "resuming panicked on: {panicked:#?}");
    // Most single-field damage is detectable; a document that still resumes
    // ran to quiescence without a panic, which is the other allowed outcome.
    assert!(
        refused * 10 > tried * 7,
        "only {refused} of {tried} refused"
    );
}

/// The first histogram in a checkpoint with at least `buckets` non-empty
/// buckets: its address and its rendered location.
fn histogram_with(doc: &mut Json, buckets: usize) -> (Vec<usize>, String) {
    let mut all = Vec::new();
    addresses(doc, &mut Vec::new(), &mut all);
    all.into_iter()
        .find_map(|address| {
            let (node, location) = node_mut(doc, &address);
            let filled = node.get("buckets").and_then(Json::items)?.len();
            let histogram = location.contains(".histograms[") && node.get("count").is_some();
            (histogram && filled >= buckets).then_some((address, location))
        })
        .expect("the checkpoint records histograms")
}

/// Applies `damage` to the first histogram with `buckets` non-empty buckets
/// and checks that resuming refuses it with an error naming that histogram
/// and containing `why`.
fn refused_histogram(buckets: usize, why: &str, damage: impl FnOnce(&mut Vec<(String, Json)>)) {
    let mut doc = Json::parse(&checkpoint(PAUSES[0])).expect("checkpoint parses");
    let (address, location) = histogram_with(&mut doc, buckets);
    match node_mut(&mut doc, &address).0 {
        Json::Object(fields) => damage(fields),
        _ => unreachable!("a histogram is an object"),
    }
    match resume(&doc.render_compact()) {
        Outcome::Refused(error) => assert!(
            error.contains(&format!("{location}: ")) && error.contains(why),
            "{location}: {error}"
        ),
        other => panic!("{location}: {other:?}"),
    }
}

/// The value of histogram field `key`.
fn histogram_field<'a>(fields: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
    let (_, value) = fields.iter_mut().find(|(k, _)| k == key).expect("field");
    value
}

#[test]
fn a_histogram_bucket_listed_twice_is_refused() {
    // Listed again with the same count, so overwriting it would restore
    // the same histogram and hide the damage.
    refused_histogram(1, "listed after bucket", |fields| {
        if let Json::Array(buckets) = histogram_field(fields, "buckets") {
            buckets.push(buckets[0].clone());
        }
    });
}

#[test]
fn histogram_buckets_out_of_order_are_refused() {
    refused_histogram(2, "listed after bucket", |fields| {
        if let Json::Array(buckets) = histogram_field(fields, "buckets") {
            buckets.swap(0, 1);
        }
    });
}

#[test]
fn an_empty_histogram_bucket_is_refused() {
    refused_histogram(1, "with no samples", |fields| {
        if let Json::Array(buckets) = histogram_field(fields, "buckets") {
            buckets.push(Json::Array(vec![Json::UInt(64), Json::UInt(0)]));
        }
    });
}

#[test]
fn a_histogram_count_that_is_not_its_buckets_is_refused() {
    refused_histogram(1, "is not the sum of the bucket counts", |fields| {
        let count = histogram_field(fields, "count");
        *count = Json::UInt(count.as_u64().expect("a count") + 1);
    });
}

#[test]
fn a_nan_histogram_bound_is_refused() {
    // Floats travel as their bit patterns, so a NaN min or max is a
    // well-formed value that would poison every later merge.
    for bound in ["min", "max"] {
        refused_histogram(1, &format!("histogram {bound} is NaN"), |fields| {
            *histogram_field(fields, bound) = Json::UInt(f64::NAN.to_bits());
        });
    }
}
