//! Deterministic engine snapshot/restore (`rtds-engine-snapshot/1`) and the
//! [`Snap`] trait every snapshot layer is written in.
//!
//! A snapshot captures everything the engine needs to continue a run with
//! bit-identical behaviour: the pending-event queue (in pop order, with
//! sequence numbers), the clock, the fault plane including the exact
//! message-loss RNG position, the mutated topology (per-site adjacency
//! **insertion order** is semantic — broadcast order follows it), the
//! statistics registry and the dispatch counters. Protocol node state and
//! wire messages are domain types the engine knows nothing about beyond
//! their own [`Snap`] impls; the RTDS ones live in `rtds-core`.
//!
//! Deliberately **not** captured: trace recorders, the engine self-profile
//! wall clocks and the ordering log. They are observability surfaces whose
//! content is allowed to differ between an interrupted and an
//! uninterrupted run; a restored engine restarts them disabled.
//!
//! # One encoding
//!
//! [`Snap`] is implemented once per shape — `f64` as its IEEE-754 bit
//! pattern (a JSON integer, so restore is exact by construction, including
//! the `±inf` min/max sentinels of empty histograms that the JSON layer
//! would otherwise flatten to `null`), integers through `try_from`, `bool`,
//! `String`, `Option` as `null`-or-value, sequences as arrays, `BTreeMap` as
//! an array of `[key, value]` pairs, tuples and `[T; N]` as fixed-length
//! arrays, [`SiteId`] range-checked against the topology being restored —
//! and every structure's codec is an impl that composes those. A snapshot is
//! untrusted input: decoding returns a [`SnapshotError`] naming the
//! offending field's [`Path`], and never panics.

use crate::engine::{Protocol, Simulator};
use crate::event::EventPayload;
use crate::faults::{FaultEvent, FaultState};
use crate::flow::{EngineFlow, FlowPlane};
use crate::json::Json;
use crate::queue::CalendarQueue;
use crate::stats::SimStats;
use rand::rngs::StdRng;
use rtds_flow::FlowModel;
use rtds_metrics::{Gauge, Histogram, MetricsRegistry, Scope, ScopeMap};
use rtds_net::routing::RouteEntry;
use rtds_net::sphere::Sphere;
use rtds_net::{LinkState, Network, SiteId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Schema tag of the engine snapshot format.
pub(crate) const ENGINE_SNAPSHOT_SCHEMA: &str = "rtds-engine-snapshot/1";

/// Schema tag of the embedded shared-bandwidth plane section.
pub(crate) const FLOW_SNAPSHOT_SCHEMA: &str = "rtds-flow-snapshot/1";

/// Error raised when a snapshot document cannot be decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

// ----- the trait -----------------------------------------------------------

/// Where in a snapshot document a value sits: a chain of object keys and
/// array indices kept on the decoder's stack and rendered (`engine.queue.
/// events[3][2]`) only when an error is raised. The path also carries the
/// one piece of context decoding needs — the site count of the topology
/// being restored, which every decoded [`SiteId`] is checked against.
#[derive(Debug, Clone, Copy)]
pub struct Path<'a> {
    parent: Option<&'a Path<'a>>,
    key: &'a str,
    index: Option<usize>,
    sites: usize,
}

impl<'a> Path<'a> {
    /// The root of a document, named for error messages. Site ids are
    /// unbounded until [`Path::within`] narrows them.
    pub fn root(name: &'a str) -> Path<'a> {
        Path {
            parent: None,
            key: name,
            index: None,
            sites: usize::MAX,
        }
    }

    /// The path of object field `key` under this one.
    pub fn key(&'a self, key: &'a str) -> Path<'a> {
        Path {
            parent: Some(self),
            key,
            index: None,
            sites: self.sites,
        }
    }

    /// The path of array element `index` under this one.
    pub fn index(&'a self, index: usize) -> Path<'a> {
        Path {
            parent: Some(self),
            key: "",
            index: Some(index),
            sites: self.sites,
        }
    }

    /// The same path, with site ids below it bounded by `sites`.
    pub fn within(&self, sites: usize) -> Path<'a> {
        Path { sites, ..*self }
    }

    /// The site count decoded [`SiteId`]s must stay below.
    pub(crate) fn sites(&self) -> usize {
        self.sites
    }

    /// An error at this path.
    pub fn err(&self, message: impl fmt::Display) -> SnapshotError {
        SnapshotError(format!("{self}: {message}"))
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.parent, self.index) {
            (None, _) => f.write_str(self.key),
            (Some(parent), Some(index)) => write!(f, "{parent}[{index}]"),
            (Some(parent), None) => write!(f, "{parent}.{}", self.key),
        }
    }
}

/// A value with one snapshot encoding and its exact inverse.
pub trait Snap: Sized {
    /// The value as a snapshot document fragment.
    fn encode(&self) -> Json;

    /// Inverse of [`Snap::encode`]; `path` locates `j` for error messages.
    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError>;
}

/// Decodes the required field `key` of object `doc`.
pub fn field<T: Snap>(doc: &Json, path: &Path<'_>, key: &str) -> Result<T, SnapshotError> {
    field_with(doc, path, key, T::decode)
}

/// [`field`] with an explicit decoder, for values whose type cannot
/// implement [`Snap`] (the crate that owns it sits below this one).
pub fn field_with<T>(
    doc: &Json,
    path: &Path<'_>,
    key: &str,
    decode: impl FnOnce(&Json, &Path<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let path = path.key(key);
    decode(
        doc.get(key).ok_or_else(|| path.err("missing field"))?,
        &path,
    )
}

/// `x`, refused unless finite and non-negative — what a delay, a distance, a
/// volume or a surplus must be before the protocol sorts or schedules by it.
pub fn non_negative(x: f64, path: &Path<'_>) -> Result<f64, SnapshotError> {
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(path.err(format!("{x} is not a finite non-negative number")))
    }
}

/// Checks the `schema` field of a versioned section.
pub fn expect_schema(doc: &Json, path: &Path<'_>, want: &str) -> Result<(), SnapshotError> {
    let schema: String = field(doc, path, "schema")?;
    if schema == want {
        Ok(())
    } else {
        Err(path.err(format!("unsupported schema {schema:?} (expected {want:?})")))
    }
}

/// A `{"k": kind, …fields}` object — the shape of every enum variant.
pub fn tagged(kind: &str, mut fields: Vec<(&str, Json)>) -> Json {
    fields.insert(0, ("k", Json::str(kind)));
    Json::object(fields)
}

/// Encodes borrowed items as an array (the encode half of every sequence
/// impl, public for slices and iterators that are not themselves [`Snap`]).
pub fn encode_all<'a, T: Snap + 'a>(items: impl IntoIterator<Item = &'a T>) -> Json {
    Json::Array(items.into_iter().map(Snap::encode).collect())
}

/// Decodes every element of array `j` with `decode`, each under its index
/// (the decode half of every sequence impl).
pub fn decode_each<T, C: FromIterator<T>>(
    j: &Json,
    path: &Path<'_>,
    decode: impl Fn(&Json, &Path<'_>) -> Result<T, SnapshotError>,
) -> Result<C, SnapshotError> {
    j.items()
        .ok_or_else(|| path.err("expected array"))?
        .iter()
        .enumerate()
        .map(|(i, item)| decode(item, &path.index(i)))
        .collect()
}

// ----- primitives and containers -------------------------------------------

/// A full-range 64-bit word: a float's bit pattern, an RNG state word, a
/// seed, an opaque id, the "no cap" sentinel of an event budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Word(pub u64);

impl Snap for Word {
    fn encode(&self) -> Json {
        Json::UInt(self.0)
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let word = j.as_u64();
        word.map(Word)
            .ok_or_else(|| path.err("expected unsigned integer"))
    }
}

/// Counts, ids and sizes. None legitimately comes within a factor of two of
/// its type's range, and refusing those that do keeps every later `+ 1` on
/// a restored counter from overflowing.
macro_rules! snap_uint {
    ($($int:ty),*) => {$(
        impl Snap for $int {
            fn encode(&self) -> Json {
                // Widening (or identity) on every supported target.
                Json::UInt(*self as u64)
            }

            fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
                let Word(wide) = Word::decode(j, path)?;
                <$int>::try_from(wide)
                    .ok()
                    .filter(|n| *n <= <$int>::MAX / 2)
                    .ok_or_else(|| path.err(format!("{wide} is out of range")))
            }
        }
    )*};
}

snap_uint!(u64, u32, usize);

impl Snap for f64 {
    fn encode(&self) -> Json {
        Json::UInt(self.to_bits())
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        Word::decode(j, path).map(|Word(bits)| f64::from_bits(bits))
    }
}

impl Snap for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        match j {
            Json::Bool(b) => Ok(*b),
            _ => Err(path.err("expected bool")),
        }
    }
}

impl Snap for String {
    fn encode(&self) -> Json {
        Json::str(self.as_str())
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        j.as_str()
            .map(str::to_owned)
            .ok_or_else(|| path.err("expected string"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Snap::encode)
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        match j {
            Json::Null => Ok(None),
            value => T::decode(value, path).map(Some),
        }
    }
}

macro_rules! snap_seq {
    ($($seq:ty),*) => {$(
        impl<T: Snap> Snap for $seq {
            fn encode(&self) -> Json {
                encode_all(self.iter())
            }

            fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
                decode_each(j, path, T::decode)
            }
        }
    )*};
}

snap_seq!(Vec<T>, VecDeque<T>, Arc<[T]>);

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self) -> Json {
        encode_all(self)
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        Vec::decode(j, path)?
            .try_into()
            .map_err(|_| path.err(format!("expected {N} entries")))
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn encode(&self) -> Json {
        Json::Array(
            self.iter()
                .map(|(k, v)| Json::Array(vec![k.encode(), v.encode()]))
                .collect(),
        )
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        decode_each(j, path, <(K, V)>::decode)
    }
}

macro_rules! snap_tuple {
    ($len:literal: $($name:ident $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn encode(&self) -> Json {
                Json::Array(vec![$(self.$idx.encode()),+])
            }

            fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
                match j.items() {
                    Some(items) if items.len() == $len => {
                        Ok(($($name::decode(&items[$idx], &path.index($idx))?,)+))
                    }
                    _ => Err(path.err(concat!("expected an array of ", $len, " entries"))),
                }
            }
        }
    };
}

snap_tuple!(2: A 0, B 1);
snap_tuple!(3: A 0, B 1, C 2);
snap_tuple!(4: A 0, B 1, C 2, D 3);

/// A site id, refused unless it names a site of the topology being restored
/// (see [`Path::within`]) — so no decoded id can index out of range later.
impl Snap for SiteId {
    fn encode(&self) -> Json {
        self.0.encode()
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let site = usize::decode(j, path)?;
        if site < path.sites() {
            Ok(SiteId(site))
        } else {
            Err(path.err(format!(
                "site {site} outside the {}-site topology",
                path.sites()
            )))
        }
    }
}

// ----- name interning ------------------------------------------------------

/// Process-wide intern table for instrument names read back from snapshots.
/// The registry keys instruments by `&'static str`; a restored name is
/// leaked exactly once per distinct string, so repeated restores in one
/// process do not accumulate memory.
static INTERNED: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());

/// Returns a `&'static str` with the given content (leaked once per
/// distinct name, process-wide).
pub(crate) fn intern(name: &str) -> &'static str {
    // Every update leaves the table valid, so a poisoned lock is still usable.
    let mut table = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&interned) = table.get(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.insert(name.to_owned(), leaked);
    leaked
}

// ----- metrics -------------------------------------------------------------

/// `"g"`, `["p", phase]` or `["s", site]`.
impl Snap for Scope {
    fn encode(&self) -> Json {
        match *self {
            Scope::Global => Json::str("g"),
            Scope::Phase(p) => Json::Array(vec![Json::str("p"), p.encode()]),
            Scope::Site(s) => Json::Array(vec![Json::str("s"), s.encode()]),
        }
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        if j.as_str() == Some("g") {
            return Ok(Scope::Global);
        }
        let (kind, n) = <(String, u32)>::decode(j, path)?;
        match kind.as_str() {
            "p" => Ok(Scope::Phase(n)),
            "s" => Ok(Scope::Site(n)),
            other => Err(path.err(format!("unknown scope kind {other:?}"))),
        }
    }
}

/// Count, exact min/max and the non-empty buckets as `[index, count]` in
/// index order. Decoding refuses what no run records (see
/// [`Histogram::from_buckets`]): a NaN bound, a bucket listed twice, out of
/// order or empty, or a count that is not the sum of the buckets.
impl Snap for Histogram {
    fn encode(&self) -> Json {
        let (min, max) = self.raw_bounds();
        Json::object(vec![
            ("count", self.count().encode()),
            ("min", min.encode()),
            ("max", max.encode()),
            (
                "buckets",
                Json::Array(self.buckets().map(|bucket| bucket.encode()).collect()),
            ),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        Histogram::from_buckets(
            field(doc, path, "count")?,
            field(doc, path, "min")?,
            field(doc, path, "max")?,
            field::<Vec<(usize, u64)>>(doc, path, "buckets")?,
        )
        .map_err(|e| path.err(e))
    }
}

/// Counters, scoped counters, gauges and histograms as `[name, …]` rows in
/// name order, with exact float bits.
impl Snap for MetricsRegistry {
    fn encode(&self) -> Json {
        fn families<'a, V: 'a>(
            families: impl Iterator<Item = (&'static str, &'a ScopeMap<V>)>,
            entry: impl Fn(&Scope, &V) -> Json,
        ) -> Json {
            let row = |(name, scopes): (&str, &ScopeMap<V>)| {
                let entries = scopes.iter().map(|(s, v)| entry(s, v)).collect();
                Json::Array(vec![Json::str(name), Json::Array(entries)])
            };
            Json::Array(families.map(row).collect())
        }
        let counters = self
            .global_counters()
            .map(|(name, value)| Json::Array(vec![Json::str(name), value.encode()]))
            .collect();
        Json::object(vec![
            ("counters", Json::Array(counters)),
            (
                "scoped",
                families(self.scoped_counter_families(), |s, v| (*s, *v).encode()),
            ),
            (
                "gauges",
                families(self.gauge_families(), |s, g| (*s, g.last, g.peak).encode()),
            ),
            (
                "histograms",
                families(self.histogram_families(), |s, h| {
                    Json::Array(vec![s.encode(), h.encode()])
                }),
            ),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        type Families<V> = Vec<(String, Vec<V>)>;
        let mut reg = MetricsRegistry::new();
        for (name, value) in field::<Vec<(String, u64)>>(doc, path, "counters")? {
            reg.add(intern(&name), value);
        }
        for (name, scopes) in field::<Families<(Scope, u64)>>(doc, path, "scoped")? {
            for (scope, value) in scopes {
                reg.add_scoped(intern(&name), scope, value);
            }
        }
        for (name, scopes) in field::<Families<(Scope, f64, f64)>>(doc, path, "gauges")? {
            for (scope, last, peak) in scopes {
                reg.gauge_restore(intern(&name), scope, Gauge { last, peak });
            }
        }
        for (name, scopes) in field::<Families<(Scope, Histogram)>>(doc, path, "histograms")? {
            for (scope, histogram) in scopes {
                reg.histogram_restore(intern(&name), scope, histogram);
            }
        }
        Ok(reg)
    }
}

/// The engine statistics: message counters plus the registry.
impl Snap for SimStats {
    fn encode(&self) -> Json {
        Json::object(vec![
            ("messages_sent", self.messages_sent.encode()),
            ("messages_delivered", self.messages_delivered.encode()),
            ("metrics", self.metrics().encode()),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let mut stats = SimStats::default();
        stats.messages_sent = field(doc, path, "messages_sent")?;
        stats.messages_delivered = field(doc, path, "messages_delivered")?;
        *stats.metrics_mut() = field(doc, path, "metrics")?;
        Ok(stats)
    }
}

// ----- topology ------------------------------------------------------------

/// The (possibly fault-mutated) topology with its exact adjacency insertion
/// order; each adjacency entry is `[neighbor, delay, bandwidth]`. Neighbour
/// ids beyond the site count and asymmetric lists are refused.
impl Snap for Network {
    fn encode(&self) -> Json {
        let (adjacency, speeds) = self.raw_adjacency();
        let rows = adjacency
            .iter()
            .zip(self.raw_bandwidths())
            .map(|(neighbors, bandwidths)| {
                let links = neighbors.iter().zip(bandwidths);
                Json::Array(links.map(|(&(n, d), &bw)| (n, d, bw).encode()).collect())
            })
            .collect();
        Json::object(vec![
            ("adjacency", Json::Array(rows)),
            ("speeds", encode_all(speeds)),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let speeds: Vec<f64> = field(doc, path, "speeds")?;
        let rows: Vec<Vec<(SiteId, f64, f64)>> =
            field(doc, &path.within(speeds.len()), "adjacency")?;
        let adjacency = rows
            .iter()
            .map(|row| row.iter().map(|&(n, d, _)| (n, d)).collect())
            .collect();
        let bandwidths = rows
            .iter()
            .map(|row| row.iter().map(|&(_, _, bw)| bw).collect())
            .collect();
        Network::from_raw_parts(adjacency, bandwidths, speeds).map_err(|e| path.err(e))
    }
}

/// One route line as `[destination, distance, next_hop | null, hops]`.
impl Snap for RouteEntry {
    fn encode(&self) -> Json {
        (self.destination, self.distance, self.next_hop, self.hops).encode()
    }

    fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        // Routing tables keep hop counts in 32 bits.
        let (destination, distance, next_hop, hops): (_, _, _, u32) = Snap::decode(j, path)?;
        Ok(RouteEntry {
            destination,
            // Distances become routed-send delays.
            distance: non_negative(distance, path)?,
            next_hop,
            hops: hops as usize,
        })
    }
}

impl Snap for Sphere {
    fn encode(&self) -> Json {
        Json::object(vec![
            ("center", self.center.encode()),
            ("radius", self.radius.encode()),
            ("members", self.members.encode()),
            ("delays", self.delays.encode()),
            ("delay_diameter", self.delay_diameter.encode()),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let members: Vec<SiteId> = field(doc, path, "members")?;
        let delays: Vec<f64> = field(doc, path, "delays")?;
        if members.len() != delays.len() || !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(path.err("members must be sorted, with one delay each"));
        }
        for &delay in &delays {
            non_negative(delay, path)?;
        }
        Ok(Sphere::new(
            field(doc, path, "center")?,
            field(doc, path, "radius")?,
            members,
            delays,
            field(doc, path, "delay_diameter")?,
        ))
    }
}

// ----- faults --------------------------------------------------------------

/// The fault plane, including the message-loss RNG position; failed links
/// are `[a, b, delay, bandwidth]`.
impl Snap for FaultState {
    fn encode(&self) -> Json {
        let failed = self
            .failed_links
            .iter()
            .map(|(&(a, b), state)| (a, b, state.delay, state.bandwidth).encode())
            .collect();
        Json::object(vec![
            ("failed_links", Json::Array(failed)),
            ("down_sites", self.down_sites.encode()),
            ("loss_probability", self.loss_probability.encode()),
            ("rng", self.rng.state().map(Word).encode()),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let failed: Vec<(SiteId, SiteId, f64, f64)> = field(doc, path, "failed_links")?;
        let loss_probability: f64 = field(doc, path, "loss_probability")?;
        if !(0.0..=1.0).contains(&loss_probability) {
            return Err(path.err("loss_probability outside [0, 1]"));
        }
        Ok(FaultState {
            failed_links: failed
                .into_iter()
                .map(|(a, b, delay, bandwidth)| ((a.0, b.0), LinkState { delay, bandwidth }))
                .collect(),
            down_sites: field(doc, path, "down_sites")?,
            loss_probability,
            rng: StdRng::from_state(field::<[Word; 4]>(doc, path, "rng")?.map(|Word(w)| w)),
        })
    }
}

/// A scheduled perturbation as a `{"k": kind, …}` object.
impl Snap for FaultEvent {
    fn encode(&self) -> Json {
        let link = |kind, a: SiteId, b: SiteId, extra: Option<(&'static str, f64)>| {
            let mut fields = vec![("a", a.encode()), ("b", b.encode())];
            fields.extend(extra.map(|(key, x)| (key, x.encode())));
            tagged(kind, fields)
        };
        match *self {
            FaultEvent::SetLinkDelay { a, b, delay } => link("delay", a, b, Some(("d", delay))),
            FaultEvent::LinkDown { a, b } => link("link_down", a, b, None),
            FaultEvent::LinkUp { a, b } => link("link_up", a, b, None),
            FaultEvent::SiteDown { site } => tagged("site_down", vec![("s", site.encode())]),
            FaultEvent::SiteUp { site } => tagged("site_up", vec![("s", site.encode())]),
            FaultEvent::SetMessageLoss { probability } => {
                tagged("loss", vec![("p", probability.encode())])
            }
            FaultEvent::SetLinkBandwidth { a, b, bandwidth } => {
                link("bw", a, b, Some(("w", bandwidth)))
            }
        }
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        let (a, b) = (|| field(doc, path, "a"), || field(doc, path, "b"));
        match field::<String>(doc, path, "k")?.as_str() {
            "delay" => Ok(FaultEvent::SetLinkDelay {
                a: a()?,
                b: b()?,
                delay: field(doc, path, "d")?,
            }),
            "link_down" => Ok(FaultEvent::LinkDown { a: a()?, b: b()? }),
            "link_up" => Ok(FaultEvent::LinkUp { a: a()?, b: b()? }),
            "site_down" => Ok(FaultEvent::SiteDown {
                site: field(doc, path, "s")?,
            }),
            "site_up" => Ok(FaultEvent::SiteUp {
                site: field(doc, path, "s")?,
            }),
            "loss" => Ok(FaultEvent::SetMessageLoss {
                probability: field(doc, path, "p")?,
            }),
            "bw" => Ok(FaultEvent::SetLinkBandwidth {
                a: a()?,
                b: b()?,
                bandwidth: field(doc, path, "w")?,
            }),
            other => Err(path.err(format!("unknown fault kind {other:?}"))),
        }
    }
}

// ----- event payloads ------------------------------------------------------

/// A queued event's payload as a `{"k": kind, …}` object.
impl<M: Snap> Snap for EventPayload<M> {
    fn encode(&self) -> Json {
        match self {
            EventPayload::Deliver { from, message } => tagged(
                "d",
                vec![("from", from.encode()), ("msg", message.encode())],
            ),
            EventPayload::External { message } => tagged("e", vec![("msg", message.encode())]),
            EventPayload::Timer { timer_id } => tagged("t", vec![("id", timer_id.encode())]),
            EventPayload::Fault { fault } => tagged("f", vec![("fault", fault.encode())]),
            EventPayload::FlowStart {
                from,
                volume,
                message,
            } => tagged(
                "fs",
                vec![
                    ("from", from.encode()),
                    ("vol", volume.encode()),
                    ("msg", message.encode()),
                ],
            ),
            EventPayload::FlowFinish { flow, epoch } => {
                tagged("ff", vec![("id", flow.encode()), ("ep", epoch.encode())])
            }
        }
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        match field::<String>(doc, path, "k")?.as_str() {
            "d" => Ok(EventPayload::Deliver {
                from: field(doc, path, "from")?,
                message: field(doc, path, "msg")?,
            }),
            "e" => Ok(EventPayload::External {
                message: field(doc, path, "msg")?,
            }),
            // A timer id is the protocol's own opaque word.
            "t" => Ok(EventPayload::Timer {
                timer_id: field::<Word>(doc, path, "id")?.0,
            }),
            "f" => Ok(EventPayload::Fault {
                fault: field(doc, path, "fault")?,
            }),
            "fs" => Ok(EventPayload::FlowStart {
                from: field(doc, path, "from")?,
                volume: non_negative(field(doc, path, "vol")?, path)?,
                message: field(doc, path, "msg")?,
            }),
            "ff" => Ok(EventPayload::FlowFinish {
                flow: field(doc, path, "id")?,
                epoch: field(doc, path, "ep")?,
            }),
            other => Err(path.err(format!("unknown payload kind {other:?}"))),
        }
    }
}

// ----- flow plane ----------------------------------------------------------

/// The shared-bandwidth plane (`rtds-flow-snapshot/1`): the plane-allocated
/// link table `[a, b, id, capacity]` with exact capacities, and every
/// in-flight flow with its exact remaining volume and rate — rates are
/// restored verbatim, **not** recomputed, so a restored run replays the same
/// completion predictions bit-for-bit.
impl<M: Snap> Snap for FlowPlane<M> {
    fn encode(&self) -> Json {
        let links = self
            .link_ids
            .iter()
            .map(|(&(a, b), &id)| (a, b, id, self.model.link_capacity(id)).encode())
            .collect();
        let flows = self
            .flows
            .iter()
            .map(|(&id, f)| {
                Json::object(vec![
                    ("id", id.encode()),
                    ("from", f.from.encode()),
                    ("to", f.to.encode()),
                    ("vol", f.volume.encode()),
                    ("start", f.started.encode()),
                    ("ep", f.epoch.encode()),
                    ("fin", f.finish.encode()),
                    ("rem", self.model.remaining(id).encode()),
                    ("rate", self.model.rate(id).encode()),
                    ("links", f.links.encode()),
                    ("msg", f.message.encode()),
                ])
            })
            .collect();
        Json::object(vec![
            ("schema", Json::str(FLOW_SNAPSHOT_SCHEMA)),
            ("time", self.model.time().encode()),
            ("next_id", self.model.next_id().encode()),
            ("next_epoch", self.next_epoch.encode()),
            ("links", Json::Array(links)),
            ("flows", Json::Array(flows)),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        expect_schema(doc, path, FLOW_SNAPSHOT_SCHEMA)?;
        let mut links: Vec<(SiteId, SiteId, u32, f64)> = field(doc, path, "links")?;
        let link_ids: BTreeMap<(usize, usize), u32> = links
            .iter()
            .map(|&(a, b, id, _)| ((a.0, b.0), id))
            .collect();
        links.sort_by_key(|&(_, _, id, _)| id);
        if links
            .iter()
            .zip(0u32..)
            .any(|(&(_, _, id, _), dense)| id != dense)
        {
            return Err(path.key("links").err("ids must be dense from 0"));
        }
        let capacities = links.iter().map(|&(_, _, _, capacity)| capacity).collect();
        type FlowRow<M> = (u64, EngineFlow<M>, Vec<u32>, f64, f64);
        let decode_row = |entry: &Json, path: &Path<'_>| -> Result<FlowRow<M>, SnapshotError> {
            let links: Vec<(SiteId, SiteId)> = field(entry, path, "links")?;
            let links: Vec<(usize, usize)> = links.into_iter().map(|(a, b)| (a.0, b.0)).collect();
            let model_links = links
                .iter()
                .map(|pair| link_ids.get(pair).copied())
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| path.err("path crosses a link missing from the link table"))?;
            let flow = EngineFlow {
                from: field(entry, path, "from")?,
                to: field(entry, path, "to")?,
                message: field(entry, path, "msg")?,
                volume: field(entry, path, "vol")?,
                started: field(entry, path, "start")?,
                epoch: field(entry, path, "ep")?,
                links,
                finish: field(entry, path, "fin")?,
            };
            Ok((
                field(entry, path, "id")?,
                flow,
                model_links,
                field(entry, path, "rem")?,
                field(entry, path, "rate")?,
            ))
        };
        let rows: Vec<FlowRow<M>> = field_with(doc, path, "flows", |j, path| {
            decode_each(j, path, decode_row)
        })?;
        let mut model_flows = Vec::with_capacity(rows.len());
        let mut flows = BTreeMap::new();
        for (id, flow, links, remaining, rate) in rows {
            model_flows.push((id, links, remaining, rate));
            flows.insert(id, flow);
        }
        let model = FlowModel::from_raw_parts(
            capacities,
            field(doc, path, "time")?,
            field(doc, path, "next_id")?,
            model_flows,
        )
        .map_err(|e| path.err(e))?;
        Ok(FlowPlane {
            model,
            flows,
            link_ids,
            next_epoch: field(doc, path, "next_epoch")?,
            topo_version: 0,
        })
    }
}

// ----- engine --------------------------------------------------------------

/// The engine-owned state of a simulator — clock, queue (events as `[time,
/// seq, target, payload]` in pop order), faults, topology, statistics —
/// around the protocol's own node and message codecs. The restored engine
/// continues the run event-for-event identically to the uninterrupted one;
/// trace recording, profiling and the order log restart disabled.
impl<P: Protocol + Snap> Snap for Simulator<P>
where
    P::Msg: Snap,
{
    fn encode(&self) -> Json {
        let queue = self.queue();
        let mut events = Vec::with_capacity(queue.len());
        queue.for_each_sorted(|time, seq, target, payload| {
            events.push(Json::Array(vec![
                time.encode(),
                seq.encode(),
                target.encode(),
                payload.encode(),
            ]));
        });
        Json::object(vec![
            ("schema", Json::str(ENGINE_SNAPSHOT_SCHEMA)),
            ("now", self.now().encode()),
            ("started", self.started().encode()),
            ("max_events", Word(self.max_events()).encode()),
            ("events_processed", self.events_processed().encode()),
            ("dispatch_counts", self.profile().dispatch_counts.encode()),
            ("stats", self.stats().encode()),
            ("faults", self.faults().encode()),
            ("network", self.network().encode()),
            ("flows", self.flow_plane().encode()),
            (
                "queue",
                Json::object(vec![
                    ("next_seq", queue.next_seq().encode()),
                    ("events", Json::Array(events)),
                ]),
            ),
            ("nodes", encode_all(self.nodes())),
        ])
    }

    fn decode(doc: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
        expect_schema(doc, path, ENGINE_SNAPSHOT_SCHEMA)?;
        let network: Network = field(doc, path, "network")?;
        let path = &path.within(network.site_count());
        let now: f64 = field(doc, path, "now")?;
        let nodes: Vec<P> = field(doc, path, "nodes")?;
        let faults: FaultState = field(doc, path, "faults")?;
        if nodes.len() != network.site_count() || faults.down_sites.len() != nodes.len() {
            return Err(path.err("node and down-site counts must match the topology"));
        }
        let flows: FlowPlane<P::Msg> = field(doc, path, "flows")?;
        if !(now.is_finite() && flows.model.time() <= now) {
            return Err(path.err("the clock must be finite and not behind the flow plane"));
        }
        type QueuedEvent<M> = (f64, u64, SiteId, EventPayload<M>);
        let queue = field_with(doc, path, "queue", |doc, path| {
            let next_seq: u64 = field(doc, path, "next_seq")?;
            let events: Vec<QueuedEvent<P::Msg>> = field(doc, path, "events")?;
            let mut queue = CalendarQueue::with_capacity(events.len() + 16);
            for (time, seq, target, payload) in events {
                // The queue packs sequence numbers into 62 bits.
                if !(time.is_finite() && time >= now && seq < next_seq && next_seq < 1 << 62) {
                    return Err(path.err(format!(
                        "event (time bits {:#x}, seq {seq}) is not pending at this clock",
                        time.to_bits()
                    )));
                }
                queue.push_raw(time, seq, target, payload);
            }
            queue.set_next_seq(next_seq);
            Ok(queue)
        })?;
        Ok(Simulator::from_restored(
            network,
            nodes,
            queue,
            now,
            field(doc, path, "started")?,
            field(doc, path, "stats")?,
            faults,
            field::<Word>(doc, path, "max_events")?.0,
            field(doc, path, "events_processed")?,
            field(doc, path, "dispatch_counts")?,
            flows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Context;
    use rtds_net::generators::{line, ring, DelayDistribution};

    fn root() -> Path<'static> {
        Path::root("snapshot")
    }

    /// A protocol with nontrivial state: floods a token, counts sightings,
    /// keeps a periodic timer running and records a histogram.
    #[derive(Debug, Default, PartialEq)]
    struct Gossip {
        seen: u32,
    }

    impl Protocol for Gossip {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.site() == SiteId(0) {
                ctx.broadcast(1);
                ctx.set_timer(3.0, 7);
            }
        }

        fn on_message(&mut self, _from: SiteId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.seen += 1;
            ctx.count("gossip_seen", 1);
            ctx.record("gossip_hop", msg as f64);
            if msg < 4 {
                ctx.broadcast(msg + 1);
            }
        }

        fn on_timer(&mut self, timer_id: u64, ctx: &mut Context<'_, u32>) {
            if ctx.now() < 20.0 {
                ctx.set_timer(3.0, timer_id);
                ctx.count("gossip_timer", 1);
            }
        }
    }

    impl Snap for Gossip {
        fn encode(&self) -> Json {
            Json::object(vec![("seen", self.seen.encode())])
        }

        fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
            Ok(Gossip {
                seen: field(j, path, "seen")?,
            })
        }
    }

    /// Runs a gossip sim to `pause`, snapshots (through a render → parse
    /// cycle), restores, finishes both, and demands identical end state.
    fn round_trip_at(pause: f64, loss: Option<(u64, f64)>) {
        let build = || {
            let net = ring(6, DelayDistribution::Uniform { min: 1.0, max: 3.0 }, 11);
            let mut sim = Simulator::new(net, |_| Gossip::default());
            if let Some((seed, p)) = loss {
                sim.set_fault_seed(seed);
                sim.schedule_fault(0.5, FaultEvent::SetMessageLoss { probability: p });
            }
            sim.schedule_fault(
                2.0,
                FaultEvent::LinkDown {
                    a: SiteId(1),
                    b: SiteId(2),
                },
            );
            sim.schedule_fault(
                8.0,
                FaultEvent::LinkUp {
                    a: SiteId(1),
                    b: SiteId(2),
                },
            );
            sim
        };

        // Uninterrupted reference run.
        let mut reference = build();
        reference.run_to_quiescence();

        // Interrupted run: pause, serialize, parse back, restore, finish.
        let mut paused = build();
        paused.run_until(pause);
        let doc = paused.encode();
        let text = doc.render();
        let parsed = Json::parse(&text).expect("snapshot parses");
        // render → parse → render is a byte fixpoint (integers only).
        assert_eq!(parsed.render(), text);
        let mut restored: Simulator<Gossip> =
            Snap::decode(&parsed, &root()).expect("snapshot restores");
        restored.run_to_quiescence();

        assert_eq!(restored.now(), reference.now(), "final clock");
        assert_eq!(
            restored.events_processed(),
            reference.events_processed(),
            "event count"
        );
        assert_eq!(
            restored.stats().messages_sent,
            reference.stats().messages_sent
        );
        assert_eq!(
            restored.stats().messages_delivered,
            reference.stats().messages_delivered
        );
        assert_eq!(restored.stats().metrics(), reference.stats().metrics());
        assert_eq!(
            restored.profile().dispatch_counts,
            reference.profile().dispatch_counts
        );
        for s in 0..6 {
            assert_eq!(
                restored.node(SiteId(s)),
                reference.node(SiteId(s)),
                "site {s}"
            );
        }
    }

    #[test]
    fn round_trip_mid_flood_matches_uninterrupted_run() {
        round_trip_at(2.5, None);
    }

    #[test]
    fn round_trip_before_start_matches() {
        // Pause at 0: the on_start wave has run (run_until ensures start),
        // but almost everything is still queued.
        round_trip_at(0.0, None);
    }

    #[test]
    fn round_trip_preserves_the_loss_rng_stream() {
        // With message loss active, the restored run must continue the
        // exact RNG stream — a reseed would diverge immediately.
        round_trip_at(4.0, Some((42, 0.3)));
        round_trip_at(9.5, Some((7, 0.5)));
    }

    #[test]
    fn round_trip_preserves_fault_mutated_topology() {
        let mut sim = {
            let net = line(4, DelayDistribution::Constant(2.0), 0);
            let mut sim = Simulator::new(net, |_| Gossip::default());
            sim.schedule_fault(
                1.0,
                FaultEvent::LinkDown {
                    a: SiteId(2),
                    b: SiteId(3),
                },
            );
            sim.schedule_fault(
                1.5,
                FaultEvent::SetLinkDelay {
                    a: SiteId(0),
                    b: SiteId(1),
                    delay: 9.0,
                },
            );
            sim
        };
        sim.run_until(3.0);
        let restored: Simulator<Gossip> = Snap::decode(&sim.encode(), &root()).unwrap();
        assert!(restored.faults().link_is_failed(SiteId(2), SiteId(3)));
        assert_eq!(
            restored.network().link_delay(SiteId(0), SiteId(1)),
            Some(9.0)
        );
        assert_eq!(restored.network().link_count(), 2);
        assert_eq!(restored.now(), sim.now());
    }

    /// A transfer-driven protocol for mid-flow snapshot tests: an external
    /// kick `1000 + v` moves `v` units to the last site.
    #[derive(Debug, Default, PartialEq)]
    struct Mover {
        received: Vec<(usize, u32, u64)>, // (from, volume, arrival bits)
    }

    impl Protocol for Mover {
        type Msg = u32;

        fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {}

        fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut Context<'_, u32>) {
            if msg >= 1000 {
                let volume = msg - 1000;
                let to = SiteId(1); // the far end of the two-site link
                ctx.transfer(to, volume as f64, volume);
            } else {
                self.received.push((from.0, msg, ctx.now().to_bits()));
            }
        }
    }

    impl Snap for Mover {
        fn encode(&self) -> Json {
            self.received.encode()
        }

        fn decode(j: &Json, path: &Path<'_>) -> Result<Self, SnapshotError> {
            Ok(Mover {
                received: Snap::decode(j, path)?,
            })
        }
    }

    #[test]
    fn round_trip_mid_transfer_resumes_flows_bit_exactly() {
        let build = || {
            // 0 —(delay 1, bandwidth 0.5)— 1: transfers are slow, so the
            // pause lands with flows in flight.
            let mut net = Network::new(2);
            net.add_link_with_bandwidth(SiteId(0), SiteId(1), 1.0, 0.5)
                .unwrap();
            let mut sim = Simulator::new(net, |_| Mover::default());
            sim.inject_at(0.0, SiteId(0), 1008); // 8 units: alone, done at 17
            sim.inject_at(2.0, SiteId(0), 1004); // 4 units: contends from t = 3
                                                 // Mid-flight bandwidth brownout after the pause point, so the
                                                 // restored plane must also replay fault-driven rescheduling.
            sim.schedule_fault(
                9.0,
                FaultEvent::SetLinkBandwidth {
                    a: SiteId(0),
                    b: SiteId(1),
                    bandwidth: 0.25,
                },
            );
            sim
        };

        let mut reference = build();
        reference.run_to_quiescence();
        assert_eq!(reference.stats().named("sim_flow_finished"), 2);
        // The second transfer and the brownout each supersede a scheduled
        // completion; the flow plane retires those by epoch when they pop.
        assert!(reference.stats().named("sim_flow_stale_finish") > 0);

        let mut paused = build();
        paused.run_until(5.0);
        assert!(
            paused.flows_in_flight() > 0,
            "pause must land mid-transfer for this test to bite"
        );
        let doc = paused.encode();
        let text = doc.render();
        assert!(
            text.contains(FLOW_SNAPSHOT_SCHEMA),
            "snapshot must carry the versioned flow section"
        );
        // A superseded completion is still queued at the pause, so it
        // crosses the snapshot and must be recognised as stale after restore
        // (the metrics comparison below counts it).
        assert!(
            text.matches("\"ff\"").count() > paused.flows_in_flight(),
            "the snapshot must carry a stale flow completion"
        );
        let parsed = Json::parse(&text).expect("snapshot parses");
        assert_eq!(parsed.render(), text);
        let mut restored: Simulator<Mover> =
            Snap::decode(&parsed, &root()).expect("snapshot restores");
        assert_eq!(restored.flows_in_flight(), paused.flows_in_flight());
        restored.run_to_quiescence();

        assert_eq!(restored.now(), reference.now(), "final clock");
        assert_eq!(restored.events_processed(), reference.events_processed());
        assert_eq!(restored.stats().metrics(), reference.stats().metrics());
        assert_eq!(
            restored.profile().dispatch_counts,
            reference.profile().dispatch_counts
        );
        assert_eq!(restored.node(SiteId(1)), reference.node(SiteId(1)));
    }

    #[test]
    fn restore_rejects_bad_documents() {
        let restore = |doc: &Json| Simulator::<Gossip>::decode(doc, &root()).map(|_| ());
        let missing = Json::object(vec![("schema", Json::str("rtds-engine-snapshot/1"))]);
        let e = restore(&missing).unwrap_err();
        assert_eq!(e.0, "snapshot.network: missing field");
        let wrong = Json::object(vec![("schema", Json::str("something-else/9"))]);
        let e = restore(&wrong).unwrap_err();
        assert!(e.to_string().contains("schema"), "{e}");
    }

    #[test]
    fn fault_event_codec_round_trips_every_variant() {
        let variants = [
            FaultEvent::SetLinkDelay {
                a: SiteId(1),
                b: SiteId(2),
                delay: 0.1 + 0.2, // a value with no short decimal form
            },
            FaultEvent::LinkDown {
                a: SiteId(0),
                b: SiteId(5),
            },
            FaultEvent::LinkUp {
                a: SiteId(3),
                b: SiteId(4),
            },
            FaultEvent::SiteDown { site: SiteId(9) },
            FaultEvent::SiteUp { site: SiteId(9) },
            FaultEvent::SetMessageLoss { probability: 0.37 },
            FaultEvent::SetLinkBandwidth {
                a: SiteId(2),
                b: SiteId(6),
                bandwidth: 1.0 / 3.0,
            },
        ];
        for fault in variants {
            let text = fault.encode().render_compact();
            let back = FaultEvent::decode(&Json::parse(&text).unwrap(), &root()).unwrap();
            assert_eq!(back, fault);
        }
    }

    #[test]
    fn registry_codec_round_trips_exactly() {
        let mut reg = MetricsRegistry::new();
        reg.add("alpha", 3);
        reg.add("beta", 1 << 60);
        reg.add_scoped("alpha", Scope::Site(4), 2);
        reg.add_scoped("alpha", Scope::Phase(1), 7);
        reg.gauge_set("queue", 12.0);
        reg.gauge_set("queue", 5.0); // last below peak
        reg.record("lat", 0.125);
        reg.record("lat", 1e9);
        reg.record_scoped("lat", Scope::Phase(2), f64::NAN);
        let text = reg.encode().render();
        let parsed = Json::parse(&text).unwrap();
        let back = MetricsRegistry::decode(&parsed, &root()).unwrap();
        assert_eq!(back, reg);
        // Gauge last/peak restore exactly (set() could not produce this).
        let g = back.gauge_scoped("queue", Scope::Global).unwrap();
        assert_eq!((g.last, g.peak), (5.0, 12.0));
        // Re-encoding the restored registry is byte-identical.
        assert_eq!(back.encode().render(), text);
    }

    #[test]
    fn interning_returns_one_address_per_name() {
        let a = intern("snapshot-test-name");
        let b = intern("snapshot-test-name");
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, "snapshot-test-name");
    }
}
