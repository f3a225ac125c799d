//! The [`Snap`] trait every checkpoint document is written in, its
//! primitives, and the codecs of the engine types a system record carries:
//! the topology ([`Network`]) and scheduled perturbations ([`FaultEvent`]).
//!
//! A checkpoint holds no live state — a run is a pure function of its
//! construction inputs and seeds, so resuming replays it (see
//! `rtds_core::snapshot`).
//!
//! # One encoding
//!
//! [`Snap`] is implemented once per shape — `f64` as its IEEE-754 bit
//! pattern (a JSON integer, so restore is exact by construction, including
//! infinities and NaN payloads that the JSON layer would otherwise flatten
//! to `null`), integers through `try_from`, `bool`, `String`, `Option` as
//! `null`-or-value, sequences as arrays, `BTreeMap` as an array of `[key,
//! value]` pairs, tuples and `[T; N]` as fixed-length arrays, [`SiteId`]
//! range-checked against the topology being rebuilt — and every
//! structure's codec is an impl that composes those. A document is
//! untrusted input: decoding returns a [`SnapshotError`] naming the
//! offending field's [`Path`], and never panics.

use crate::faults::FaultEvent;
use crate::json::Json;
use rtds_net::{Network, SiteId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Error raised when a checkpoint document cannot be decoded or resumed.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

// ----- the trait -----------------------------------------------------------

/// Where in a checkpoint document a value sits: a chain of object keys and
/// array indices kept on the decoder's stack and rendered (`system.faults[3]
/// [1].s`) only when an error is raised. The path also carries the one piece
/// of context decoding needs — the site count of the topology being
/// rebuilt, which every decoded [`SiteId`] is checked against.
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

/// A value with one checkpoint encoding and its exact inverse.
pub trait Snap: Sized {
    /// The value as a checkpoint document fragment.
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
/// a decoded counter from overflowing.
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

/// A site id, refused unless it names a site of the topology being rebuilt
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

// ----- faults --------------------------------------------------------------

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

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_net::generators::{line, DelayDistribution};

    fn root() -> Path<'static> {
        Path::root("snapshot")
    }

    #[test]
    fn round_trip_preserves_fault_mutated_topology() {
        // A line whose 1 — 2 link failed and came back (so it now sits last
        // in both adjacency lists) and whose 0 — 1 delay and 2 — 3
        // bandwidth changed: the codec keeps every list in insertion order
        // with exact delays, bandwidths and speeds.
        let mut net = line(4, DelayDistribution::Constant(2.0), 0);
        net.set_speed(SiteId(3), 0.1 + 0.2);
        let cut = FaultEvent::LinkDown {
            a: SiteId(1),
            b: SiteId(2),
        };
        let mut faults = crate::faults::FaultState::new(4, 0);
        faults.apply(cut, &mut net);
        net.set_link_delay(SiteId(0), SiteId(1), 9.0).unwrap();
        faults.apply(
            FaultEvent::LinkUp {
                a: SiteId(1),
                b: SiteId(2),
            },
            &mut net,
        );
        net.set_link_bandwidth(SiteId(2), SiteId(3), 1.0 / 3.0)
            .unwrap();
        let text = net.encode().render();
        let back = Network::decode(&Json::parse(&text).unwrap(), &root()).unwrap();
        assert_eq!(back, net);
        assert_eq!(back.raw_adjacency(), net.raw_adjacency());
        assert_eq!(back.raw_bandwidths(), net.raw_bandwidths());
        assert_eq!(
            back.neighbors(SiteId(1)).last().map(|n| n.0),
            Some(SiteId(2))
        );
        assert_eq!(back.link_delay(SiteId(0), SiteId(1)), Some(9.0));
    }

    #[test]
    fn restore_rejects_bad_documents() {
        let net = line(3, DelayDistribution::Constant(1.0), 0);
        let decode = |doc: &Json| Network::decode(doc, &root()).map(|_| ());
        let missing = Json::object(vec![(
            "speeds",
            net.encode().get("speeds").unwrap().clone(),
        )]);
        assert_eq!(
            decode(&missing).unwrap_err().0,
            "snapshot.adjacency: missing field"
        );
        // A one-sided link: site 0 lists site 1, site 1 does not list 0.
        let mut lopsided = net.encode();
        if let Json::Object(fields) = &mut lopsided {
            if let Some((_, Json::Array(rows))) = fields.iter_mut().find(|(k, _)| k == "adjacency")
            {
                rows[1] = Json::Array(vec![rows[1].items().unwrap()[1].clone()]);
            }
        }
        let e = decode(&lopsided).unwrap_err();
        assert!(e.0.starts_with("snapshot: no link"), "{e}");
        // A neighbour beyond the site count is refused by the site check.
        let mut stranger = net.encode();
        if let Json::Object(fields) = &mut stranger {
            if let Some((_, Json::Array(rows))) = fields.iter_mut().find(|(k, _)| k == "adjacency")
            {
                rows[0] = Json::Array(vec![(SiteId(7), 1.0, f64::INFINITY).encode()]);
            }
        }
        let e = decode(&stranger).unwrap_err();
        assert!(e.to_string().contains("outside the 3-site topology"), "{e}");
        assert_eq!(decode(&net.encode()), Ok(()));
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
}
