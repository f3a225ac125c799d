//! The named-instrument registry: counters, gauges and histograms under
//! `&'static str` names with optional scoped labels.
//!
//! Instruments are keyed by a static name (every instrument name in the
//! workspace is a literal, so the hot path never allocates a `String` per
//! bump) plus a [`Scope`] label — `Global`, `Phase(n)` (one routing-exchange
//! phase, one harvest pass, …) or `Site(n)` (one site of the simulated
//! network). Storage is ordered — a `BTreeMap` keyed by name whose values
//! are [`ScopeMap`]s, exact-size vectors sorted by scope — so iteration
//! order, and therefore any JSON rendering, is deterministic.
//!
//! [`MetricsRegistry::merge`] folds a whole registry into another:
//! counters add, gauges fold by maximum, histograms merge bucket-wise. All
//! three operations are associative and commutative, which makes a merged
//! registry independent of merge order — the property the sharded sweep
//! runner and the per-scenario aggregates rely on for byte-identical
//! reports at any thread count.

use crate::histogram::Histogram;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The label dimension of an instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Unscoped (the default for [`MetricsRegistry::add`] and friends).
    Global,
    /// One phase of a phased computation (routing exchange, harvest, …).
    Phase(u32),
    /// One site of the simulated network.
    Site(u32),
}

impl Scope {
    /// The suffix appended to the instrument name in flattened exports
    /// (empty for `Global`, `/phase<n>` and `/site<n>` otherwise).
    pub fn suffix(&self) -> String {
        match self {
            Scope::Global => String::new(),
            Scope::Phase(p) => format!("/phase{p}"),
            Scope::Site(s) => format!("/site{s}"),
        }
    }
}

/// A gauge: the last value set and the peak (high-water mark) ever set.
/// Merging two gauges keeps the maxima of both fields, so a merged gauge
/// reports the global high-water mark regardless of merge order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    /// Most recently set value (under merge: the maximum of the two).
    pub last: f64,
    /// Largest value ever set.
    pub peak: f64,
}

impl Gauge {
    fn set(&mut self, value: f64) {
        self.last = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Folds `other` in: both fields keep their maximum.
    pub fn merge(&mut self, other: &Gauge) {
        self.last = self.last.max(other.last);
        self.peak = self.peak.max(other.peak);
    }
}

/// The scopes of one instrument family: `(scope, value)` pairs sorted by
/// [`Scope`], found by binary search.
///
/// Almost every family has exactly one scope, so the container is sized to
/// its entries: the first insert allocates exactly one slot, 112 B for a
/// histogram. A `BTreeMap` leaf always allocates eleven, which made each
/// one-scope histogram family cost about 6 KB when a histogram was a
/// 544-B bucket array; a sweep keeps one registry per cell, so that slack
/// was most of its memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeMap<V>(Vec<(Scope, V)>);

impl<V> Default for ScopeMap<V> {
    fn default() -> Self {
        ScopeMap(Vec::new())
    }
}

impl<V> ScopeMap<V> {
    /// The value under `scope`, inserting `make()` first if absent.
    fn entry(&mut self, scope: Scope, make: impl FnOnce() -> V) -> &mut V {
        let index = match self.0.binary_search_by(|(s, _)| s.cmp(&scope)) {
            Ok(index) => index,
            Err(index) => {
                if self.0.is_empty() {
                    self.0.reserve_exact(1);
                }
                self.0.insert(index, (scope, make()));
                index
            }
        };
        &mut self.0[index].1
    }

    /// The value under `scope`, if any.
    pub fn get(&self, scope: &Scope) -> Option<&V> {
        self.0
            .binary_search_by(|(s, _)| s.cmp(scope))
            .ok()
            .map(|index| &self.0[index].1)
    }

    /// The `(scope, value)` entries in `Scope` order (`Global` first).
    pub fn iter(&self) -> std::slice::Iter<'_, (Scope, V)> {
        self.0.iter()
    }

    /// The values in `Scope` order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }
}

impl<'a, V> IntoIterator for &'a ScopeMap<V> {
    type Item = &'a (Scope, V);
    type IntoIter = std::slice::Iter<'a, (Scope, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The scopes of one counter, as [`MetricsRegistry::counter_families`]
/// yields them.
#[derive(Debug, Clone, Copy)]
pub struct CounterFamily<'a> {
    global: Option<u64>,
    scoped: &'a [(Scope, u64)],
}

impl<'a> CounterFamily<'a> {
    /// The `(scope, value)` entries in `Scope` order (`Global` first).
    pub fn iter(&self) -> impl Iterator<Item = (Scope, u64)> + 'a {
        let global = self.global.map(|value| (Scope::Global, value));
        global.into_iter().chain(self.scoped.iter().copied())
    }

    /// The counter totalled across its scopes.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, value)| value).sum()
    }
}

/// The scopes of one gauge, borrowed from a [`MetricsRegistry`] by
/// [`MetricsRegistry::gauge_family`].
#[derive(Debug)]
pub struct GaugeFamily<'a>(&'a mut ScopeMap<Gauge>);

impl GaugeFamily<'_> {
    /// Sets one scope of the gauge (tracks both the last and the peak value).
    pub fn set(&mut self, scope: Scope, value: f64) {
        self.0
            .entry(scope, || Gauge {
                last: f64::NEG_INFINITY,
                peak: f64::NEG_INFINITY,
            })
            .set(value);
    }
}

/// Open-addressed `(name ptr, name len) → slot` cache backing the counter
/// hot path. Every counter name in the workspace is a `&'static str`
/// literal, so its address is stable for the life of the process and can
/// key a hash lookup with no byte comparison at all on a hit. Distinct
/// literals with equal content (possible across codegen units) simply
/// occupy two cache entries pointing at the same slot — the canonical
/// name→slot map resolves content equality on the one-time miss path.
#[derive(Debug, Default)]
struct CounterIndex {
    /// `(ptr, len, slot)`; `ptr == 0` marks an empty bucket (no real
    /// `&'static str` has address zero). Length is a power of two.
    buckets: Vec<(usize, u32, u32)>,
    len: usize,
}

impl CounterIndex {
    #[inline]
    fn bucket_mask(&self) -> usize {
        self.buckets.len() - 1
    }

    #[inline]
    fn probe_start(&self, ptr: usize) -> usize {
        // Fibonacci hashing on the address; low bits of static addresses
        // are alignment-biased, the multiply spreads them.
        let h = (ptr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.bucket_mask()
    }

    #[inline]
    fn get(&self, ptr: usize, len: u32) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.bucket_mask();
        let mut i = self.probe_start(ptr);
        loop {
            let (p, l, slot) = self.buckets[i];
            if p == ptr && l == len {
                return Some(slot);
            }
            if p == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, ptr: usize, len: u32, slot: u32) {
        // Keep load below 1/2 so hit probes stay short.
        if self.buckets.len() < 2 * (self.len + 1) {
            let new_cap = (self.buckets.len() * 2).max(64);
            let old = std::mem::replace(&mut self.buckets, vec![(0, 0, 0); new_cap]);
            for (p, l, s) in old {
                if p != 0 {
                    self.insert_raw(p, l, s);
                }
            }
        }
        if self.insert_raw(ptr, len, slot) {
            self.len += 1;
        }
    }

    /// Inserts without growing; returns `false` if the key was present.
    fn insert_raw(&mut self, ptr: usize, len: u32, slot: u32) -> bool {
        let mask = self.bucket_mask();
        let mut i = self.probe_start(ptr);
        while self.buckets[i].0 != 0 {
            if self.buckets[i].0 == ptr && self.buckets[i].1 == len {
                return false;
            }
            i = (i + 1) & mask;
        }
        self.buckets[i] = (ptr, len, slot);
        true
    }
}

/// The registry of named instruments (see the module docs).
///
/// Global counters — the by-far hottest instrument (several bumps per
/// protocol message) — live in a dense `Vec<u64>` of slots. A bump is a
/// pointer-keyed cache hit (`CounterIndex`) plus one array add; the
/// ordered name→slot map is consulted only the first time each name (by
/// address) is seen and for exports, which iterate it in name order so
/// every rendering stays deterministic. The rarer scoped counters, and
/// the cold gauges and histograms, map each name to a [`ScopeMap`]: a
/// vector sorted by scope that holds exactly the scopes recorded, so a
/// one-scope histogram family costs one slot, not an eleven-slot B-tree
/// leaf of them.
///
/// A clone starts with an empty address cache, which refills on its first
/// bumps: a report keeps a clone of its run's registry, and the cache is
/// a kilobyte that only a registry still being recorded into uses.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// `Scope::Global` counter values, indexed by slot (creation order).
    counter_slots: Vec<u64>,
    /// Canonical name → slot map; iteration order is export order.
    counter_names: BTreeMap<&'static str, usize>,
    /// Hot-path address cache (derived state, never compared).
    counter_index: CounterIndex,
    /// Non-global counters only (`add_scoped` with `Global` routes to the
    /// flat slots, keeping the representation canonical).
    scoped_counters: BTreeMap<&'static str, ScopeMap<u64>>,
    gauges: BTreeMap<&'static str, ScopeMap<Gauge>>,
    histograms: BTreeMap<&'static str, ScopeMap<Histogram>>,
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> Self {
        MetricsRegistry {
            counter_slots: self.counter_slots.clone(),
            counter_names: self.counter_names.clone(),
            counter_index: CounterIndex::default(),
            scoped_counters: self.scoped_counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

impl PartialEq for MetricsRegistry {
    /// Equality compares name → value (slot numbering and the address
    /// cache are representation details that differ between registries
    /// whose counters were first touched in different orders).
    fn eq(&self, other: &Self) -> bool {
        self.counter_names.len() == other.counter_names.len()
            && self.counter_names.iter().all(|(name, &slot)| {
                other
                    .counter_names
                    .get(name)
                    .map(|&o| other.counter_slots[o])
                    == Some(self.counter_slots[slot])
            })
            && self.scoped_counters == other.scoped_counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
}

impl MetricsRegistry {
    /// An empty registry (the identity element of [`MetricsRegistry::merge`]).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    // ----- counters -------------------------------------------------------

    /// Adds to a global counter, creating it at zero if needed. One
    /// address-cache probe plus one array add — this is the
    /// per-protocol-message hot path.
    #[inline]
    pub fn add(&mut self, name: &'static str, amount: u64) {
        let ptr = name.as_ptr() as usize;
        let len = name.len() as u32;
        if let Some(slot) = self.counter_index.get(ptr, len) {
            self.counter_slots[slot as usize] += amount;
        } else {
            self.add_miss(name, amount);
        }
    }

    /// Cache-miss half of [`MetricsRegistry::add`]: resolve (or create)
    /// the canonical slot, then remember this address for next time.
    #[cold]
    fn add_miss(&mut self, name: &'static str, amount: u64) {
        let slot = self.counter_slot(name);
        self.counter_index
            .insert(name.as_ptr() as usize, name.len() as u32, slot as u32);
        self.counter_slots[slot] += amount;
    }

    /// Slot of a global counter in the canonical map, creating it at zero.
    fn counter_slot(&mut self, name: &'static str) -> usize {
        match self.counter_names.get(name) {
            Some(&slot) => slot,
            None => {
                let slot = self.counter_slots.len();
                self.counter_slots.push(0);
                self.counter_names.insert(name, slot);
                slot
            }
        }
    }

    /// Adds to a scoped counter.
    pub fn add_scoped(&mut self, name: &'static str, scope: Scope, amount: u64) {
        match scope {
            Scope::Global => self.add(name, amount),
            scope => {
                *self
                    .scoped_counters
                    .entry(name)
                    .or_default()
                    .entry(scope, || 0) += amount;
            }
        }
    }

    /// Value of a global counter by canonical-name lookup (zero if never
    /// touched).
    fn global_counter(&self, name: &str) -> u64 {
        self.counter_names
            .get(name)
            .map(|&slot| self.counter_slots[slot])
            .unwrap_or(0)
    }

    /// Total of a counter across all scopes (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.global_counter(name)
            + self
                .scoped_counters
                .get(name)
                .map(|scopes| scopes.values().sum())
                .unwrap_or(0)
    }

    /// Value of one scoped counter entry (zero if never touched).
    pub fn counter_scoped(&self, name: &str, scope: Scope) -> u64 {
        match scope {
            Scope::Global => self.global_counter(name),
            scope => self
                .scoped_counters
                .get(name)
                .and_then(|scopes| scopes.get(&scope).copied())
                .unwrap_or(0),
        }
    }

    /// All counter families in name order, each with its scopes in `Scope`
    /// order (`Global` first). Export path: a merge-join of the global and
    /// the scoped counters, which are both kept in name order, so it
    /// allocates nothing.
    pub fn counter_families(&self) -> impl Iterator<Item = (&'static str, CounterFamily<'_>)> {
        let mut globals = self.counter_names.iter().peekable();
        let mut scoped = self.scoped_counters.iter().peekable();
        std::iter::from_fn(move || {
            let order = match (globals.peek(), scoped.peek()) {
                (None, None) => return None,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((g, _)), Some((s, _))) => g.cmp(s),
            };
            let global = order
                .is_le()
                .then(|| globals.next())
                .flatten()
                .map(|(name, &slot)| (*name, self.counter_slots[slot]));
            let scopes = order
                .is_ge()
                .then(|| scoped.next())
                .flatten()
                .map(|(name, scopes)| (*name, scopes.0.as_slice()));
            let name = global
                .map(|(name, _)| name)
                .or(scopes.map(|(name, _)| name))?;
            let family = CounterFamily {
                global: global.map(|(_, value)| value),
                scoped: scopes.map_or(&[], |(_, scopes)| scopes),
            };
            Some((name, family))
        })
    }

    // ----- gauges ---------------------------------------------------------

    /// Sets a global gauge (tracks both the last and the peak value).
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauge_set_scoped(name, Scope::Global, value);
    }

    /// Sets a scoped gauge.
    pub(crate) fn gauge_set_scoped(&mut self, name: &'static str, scope: Scope, value: f64) {
        self.gauge_family(name).set(scope, value);
    }

    /// Resolves a gauge family (created empty if absent) so that a caller
    /// setting many scopes of one gauge looks the name up once.
    pub fn gauge_family(&mut self, name: &'static str) -> GaugeFamily<'_> {
        GaugeFamily(self.gauges.entry(name).or_default())
    }

    /// A gauge merged across all its scopes (None if never set).
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        let scopes = self.gauges.get(name)?;
        let mut merged: Option<Gauge> = None;
        for g in scopes.values() {
            match merged.as_mut() {
                Some(m) => m.merge(g),
                None => merged = Some(*g),
            }
        }
        merged
    }

    /// One scoped gauge entry.
    pub fn gauge_scoped(&self, name: &str, scope: Scope) -> Option<Gauge> {
        self.gauges
            .get(name)
            .and_then(|scopes| scopes.get(&scope))
            .copied()
    }

    /// All gauge families in name order.
    pub fn gauge_families(&self) -> impl Iterator<Item = (&'static str, &ScopeMap<Gauge>)> {
        self.gauges.iter().map(|(k, v)| (*k, v))
    }

    // ----- histograms -----------------------------------------------------

    /// Records a sample into a global histogram.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.record_scoped(name, Scope::Global, value);
    }

    /// Records a sample into a scoped histogram.
    pub fn record_scoped(&mut self, name: &'static str, scope: Scope, value: f64) {
        self.histograms
            .entry(name)
            .or_default()
            .entry(scope, Histogram::new)
            .record(value);
    }

    /// A histogram merged across all its scopes (empty if never recorded).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut merged = Histogram::new();
        if let Some(scopes) = self.histograms.get(name) {
            for h in scopes.values() {
                merged.merge(h);
            }
        }
        merged
    }

    /// One scoped histogram entry.
    pub fn histogram_scoped(&self, name: &str, scope: Scope) -> Option<&Histogram> {
        self.histograms
            .get(name)
            .and_then(|scopes| scopes.get(&scope))
    }

    /// All histogram families in name order.
    pub fn histogram_families(&self) -> impl Iterator<Item = (&'static str, &ScopeMap<Histogram>)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    // ----- aggregation ----------------------------------------------------

    /// Folds another registry into this one: counters add, gauges keep
    /// maxima, histograms merge bucket-wise. Associative and commutative,
    /// with the empty registry as identity.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &slot) in &other.counter_names {
            let mine = self.counter_slot(name);
            self.counter_slots[mine] += other.counter_slots[slot];
        }
        for (name, scopes) in &other.scoped_counters {
            let mine = self.scoped_counters.entry(name).or_default();
            for (scope, value) in scopes {
                *mine.entry(*scope, || 0) += value;
            }
        }
        for (name, scopes) in &other.gauges {
            let mine = self.gauges.entry(name).or_default();
            for (scope, gauge) in scopes {
                mine.entry(*scope, || *gauge).merge(gauge);
            }
        }
        for (name, scopes) in &other.histograms {
            let mine = self.histograms.entry(name).or_default();
            for (scope, histogram) in scopes {
                mine.entry(*scope, Histogram::new).merge(histogram);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_total_across_scopes() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter_families().count(), 0);
        m.add("msgs", 3);
        m.add_scoped("msgs", Scope::Site(2), 4);
        m.add_scoped("msgs", Scope::Phase(1), 1);
        assert_eq!(m.counter("msgs"), 8);
        assert_eq!(m.counter_scoped("msgs", Scope::Global), 3);
        assert_eq!(m.counter_scoped("msgs", Scope::Site(2)), 4);
        assert_eq!(m.counter("absent"), 0);
        // Family iteration surfaces scopes in Ord order: Global, Phase, Site.
        let (name, scopes) = m.counter_families().next().expect("one family");
        assert_eq!(name, "msgs");
        let order: Vec<Scope> = scopes.iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![Scope::Global, Scope::Phase(1), Scope::Site(2)]);
        assert_eq!(scopes.total(), 8);
        // A purely scoped counter still shows up as a family.
        let mut scoped_only = MetricsRegistry::new();
        scoped_only.add_scoped("only", Scope::Phase(4), 2);
        assert_eq!(scoped_only.counter("only"), 2);
        assert_eq!(scoped_only.counter_families().count(), 1);
    }

    #[test]
    fn counter_families_join_global_and_scoped_names_in_order() {
        let mut m = MetricsRegistry::new();
        m.add("b", 1);
        m.add_scoped("a", Scope::Site(0), 2);
        m.add("c", 3);
        m.add_scoped("c", Scope::Phase(1), 4);
        m.add_scoped("d", Scope::Phase(0), 5);
        m.add("e", 6);
        let families: Vec<(&str, Vec<(Scope, u64)>)> = m
            .counter_families()
            .map(|(name, scopes)| (name, scopes.iter().collect()))
            .collect();
        assert_eq!(
            families,
            vec![
                ("a", vec![(Scope::Site(0), 2)]),
                ("b", vec![(Scope::Global, 1)]),
                ("c", vec![(Scope::Global, 3), (Scope::Phase(1), 4)]),
                ("d", vec![(Scope::Phase(0), 5)]),
                ("e", vec![(Scope::Global, 6)]),
            ]
        );
        let totals: Vec<u64> = m.counter_families().map(|(_, s)| s.total()).collect();
        assert_eq!(totals, vec![2, 1, 7, 5, 6]);
    }

    #[test]
    fn a_clone_leaves_the_address_cache_behind() {
        let mut m = MetricsRegistry::new();
        m.add("x", 1);
        m.add("y", 2);
        assert!(!m.counter_index.buckets.is_empty());
        let mut copy = m.clone();
        assert!(copy.counter_index.buckets.is_empty());
        assert_eq!(copy, m);
        // The first bump refills it from the name map.
        copy.add("x", 1);
        copy.add("z", 1);
        assert_eq!(copy.counter("x"), 2);
        assert_eq!(copy.counter("z"), 1);
        assert_eq!(copy.counter_index.len, 2);
    }

    #[test]
    fn gauges_track_last_and_peak() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("inflight", 5.0);
        m.gauge_set("inflight", 12.0);
        m.gauge_set("inflight", 3.0);
        let g = m.gauge("inflight").unwrap();
        assert_eq!(g.last, 3.0);
        assert_eq!(g.peak, 12.0);
        assert!(m.gauge("absent").is_none());
        m.gauge_set_scoped("inflight", Scope::Site(1), 40.0);
        // The merged view keeps the global high-water mark.
        assert_eq!(m.gauge("inflight").unwrap().peak, 40.0);
        assert_eq!(
            m.gauge_scoped("inflight", Scope::Global).unwrap().peak,
            12.0
        );
    }

    #[test]
    fn histograms_roll_up_across_scopes() {
        let mut m = MetricsRegistry::new();
        m.record_scoped("fanout", Scope::Phase(1), 4.0);
        m.record_scoped("fanout", Scope::Phase(2), 4.0);
        m.record_scoped("fanout", Scope::Phase(2), 16.0);
        assert_eq!(m.histogram("fanout").count(), 3);
        assert_eq!(m.histogram("fanout").max(), 16.0);
        assert_eq!(
            m.histogram_scoped("fanout", Scope::Phase(2))
                .unwrap()
                .count(),
            2
        );
        assert!(m.histogram_scoped("fanout", Scope::Site(9)).is_none());
        assert!(m.histogram("absent").is_empty());
    }

    #[test]
    fn merge_combines_every_family() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1);
        a.gauge_set("g", 10.0);
        a.record("h", 2.0);
        let mut b = MetricsRegistry::new();
        b.add("c", 2);
        b.add_scoped("c", Scope::Site(0), 5);
        b.gauge_set("g", 4.0);
        b.record("h", 50.0);
        b.record_scoped("h", Scope::Phase(3), 1.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 8);
        assert_eq!(ab.gauge("g").unwrap().peak, 10.0);
        assert_eq!(ab.histogram("h").count(), 3);
        // Identity.
        let mut with_empty = ab.clone();
        with_empty.merge(&MetricsRegistry::new());
        assert_eq!(with_empty, ab);
    }

    #[test]
    fn equality_ignores_slot_creation_order() {
        // Same final counts reached through different first-touch orders:
        // slot numbering differs, registries must still compare equal.
        let mut a = MetricsRegistry::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = MetricsRegistry::new();
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a, b);
        b.add("x", 1);
        assert_ne!(a, b);
        // Many distinct names: exercises index growth past the initial
        // table size and the canonical fallback.
        const NAMES: [&str; 20] = [
            "n00", "n01", "n02", "n03", "n04", "n05", "n06", "n07", "n08", "n09", "n10", "n11",
            "n12", "n13", "n14", "n15", "n16", "n17", "n18", "n19",
        ];
        let mut m = MetricsRegistry::new();
        for round in 1..=100u64 {
            for name in NAMES {
                m.add(name, round);
            }
        }
        for name in NAMES {
            assert_eq!(m.counter(name), 5050);
        }
        assert_eq!(m.counter_families().count(), NAMES.len());
    }

    #[test]
    fn scope_maps_iterate_in_scope_order_whatever_the_insert_order() {
        let mut m = MetricsRegistry::new();
        for (scope, value) in [
            (Scope::Site(3), 1.0),
            (Scope::Global, 2.0),
            (Scope::Phase(2), 4.0),
        ] {
            m.record_scoped("h", scope, value);
            m.add_scoped("c", scope, 1);
            m.gauge_set_scoped("g", scope, value);
        }
        let expected = vec![Scope::Global, Scope::Phase(2), Scope::Site(3)];
        let (_, histograms) = m.histogram_families().next().unwrap();
        assert_eq!(
            histograms.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            expected
        );
        let (_, gauges) = m.gauge_families().next().unwrap();
        let order: Vec<Scope> = gauges.into_iter().map(|(s, _)| *s).collect();
        assert_eq!(order, expected);
        assert_eq!(gauges.get(&Scope::Phase(2)).unwrap().last, 4.0);
        assert!(gauges.get(&Scope::Phase(3)).is_none());
        // Global lives in the flat slots; the scoped family keeps the rest.
        let (_, counters) = m.scoped_counters.iter().next().unwrap();
        assert_eq!(
            counters.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            expected[1..]
        );
        assert_eq!(counters.values().sum::<u64>(), 2);
    }

    #[test]
    fn a_one_scope_family_holds_exactly_one_slot() {
        let mut m = MetricsRegistry::new();
        for _ in 0..5 {
            m.record("h", 1.0);
            m.gauge_set("g", 1.0);
            m.add_scoped("c", Scope::Site(0), 1);
        }
        fn slots<'a, V: 'a>(
            mut families: impl Iterator<Item = (&'static str, &'a ScopeMap<V>)>,
        ) -> usize {
            let (_, scopes) = families.next().expect("one family");
            scopes.0.capacity()
        }
        assert_eq!(slots(m.histogram_families()), 1);
        assert_eq!(slots(m.gauge_families()), 1);
        assert_eq!(slots(m.scoped_counters.iter().map(|(k, v)| (*k, v))), 1);
        // A merge into an empty registry keeps the exact size too.
        let mut merged = MetricsRegistry::new();
        merged.merge(&m);
        assert_eq!(slots(merged.histogram_families()), 1);
    }

    #[test]
    fn merging_interleaved_scopes_is_order_independent() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for site in 0..8u32 {
            let (mine, other) = if site % 2 == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            mine.record_scoped("h", Scope::Site(site), f64::from(site));
            mine.add_scoped("c", Scope::Site(site), u64::from(site));
            mine.gauge_set_scoped("g", Scope::Site(site), f64::from(site));
            other.record_scoped("h", Scope::Phase(site), 1.0);
        }
        a.record("h", 0.5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let (_, scopes) = ab.histogram_families().next().unwrap();
        assert_eq!(scopes.iter().count(), 17);
        assert!(scopes
            .iter()
            .zip(scopes.iter().skip(1))
            .all(|(x, y)| x.0 < y.0));
        assert_eq!(ab.histogram("h").count(), 17);
        assert_eq!(ab.counter("c"), 28);
        assert_eq!(ab.gauge("g").unwrap().peak, 7.0);
    }

    #[test]
    fn scope_suffixes() {
        assert_eq!(Scope::Global.suffix(), "");
        assert_eq!(Scope::Phase(2).suffix(), "/phase2");
        assert_eq!(Scope::Site(17).suffix(), "/site17");
    }
}
