//! Deterministic JSON export of a [`MetricsRegistry`].
//!
//! Renders a registry as the `metrics` section every report format shares:
//!
//! ```json
//! {
//!   "counters": { "enroll": 12, "routing_update/phase1": 40 },
//!   "gauges": { "inflight_jobs": { "last": 3.0, "peak": 59.0 } },
//!   "histograms": {
//!     "accept_latency": {
//!       "count": 46, "min": 0.5, "max": 31.0,
//!       "p50": 8.0, "p90": 16.0, "p99": 31.0
//!     }
//!   }
//! }
//! ```
//!
//! Two flattenings are provided. With `detail = true` every `(name, scope)`
//! entry renders separately under `name`, `name/phase<n>` or `name/site<n>`
//! keys; with `detail = false` each family is rolled up across its scopes
//! first (counters sum, gauges keep maxima, histograms merge) — the
//! compact form sweep reports use. Both renderings are byte-deterministic:
//! the registry iterates in key order and every number is either a `u64`
//! count, an exact recorded `f64`, or a power-of-two bucket bound.

use crate::json::Json;
use rtds_metrics::{Histogram, HistogramSummary, MetricsRegistry};

/// Renders a histogram summary as the fixed six-field object.
pub fn summary_to_json(summary: &HistogramSummary) -> Json {
    Json::object(vec![
        ("count", Json::UInt(summary.count)),
        ("min", Json::Num(summary.min)),
        ("max", Json::Num(summary.max)),
        ("p50", Json::Num(summary.p50)),
        ("p90", Json::Num(summary.p90)),
        ("p99", Json::Num(summary.p99)),
    ])
}

/// Renders a registry as the shared `metrics` report section (see the
/// module docs for the two flattenings).
pub fn metrics_to_json(metrics: &MetricsRegistry, detail: bool) -> Json {
    let mut counters = Vec::new();
    for (name, scopes) in metrics.counter_families() {
        if detail {
            for (scope, value) in scopes.iter() {
                counters.push((format!("{name}{}", scope.suffix()), Json::UInt(value)));
            }
        } else {
            counters.push((name.to_string(), Json::UInt(scopes.total())));
        }
    }
    let mut gauges = Vec::new();
    for (name, scopes) in metrics.gauge_families() {
        if detail {
            for (scope, gauge) in scopes {
                gauges.push((
                    format!("{name}{}", scope.suffix()),
                    Json::object(vec![
                        ("last", Json::Num(gauge.last)),
                        ("peak", Json::Num(gauge.peak)),
                    ]),
                ));
            }
        } else if let Some(gauge) = scopes.values().copied().reduce(|mut a, b| {
            a.merge(&b);
            a
        }) {
            gauges.push((
                name.to_string(),
                Json::object(vec![
                    ("last", Json::Num(gauge.last)),
                    ("peak", Json::Num(gauge.peak)),
                ]),
            ));
        }
    }
    let mut histograms = Vec::new();
    for (name, scopes) in metrics.histogram_families() {
        if detail {
            for (scope, histogram) in scopes {
                histograms.push((
                    format!("{name}{}", scope.suffix()),
                    summary_to_json(&histogram.summary()),
                ));
            }
        } else {
            let mut merged = Histogram::new();
            for histogram in scopes.values() {
                merged.merge(histogram);
            }
            histograms.push((name.to_string(), summary_to_json(&merged.summary())));
        }
    }
    Json::Object(vec![
        ("counters".to_string(), Json::Object(counters)),
        ("gauges".to_string(), Json::Object(gauges)),
        ("histograms".to_string(), Json::Object(histograms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_metrics::Scope;

    fn sample_registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.add("enroll", 12);
        m.add_scoped("routing_update", Scope::Phase(1), 40);
        m.add_scoped("routing_update", Scope::Phase(2), 38);
        m.gauge_set("inflight", 3.0);
        m.gauge_set("inflight", 9.0);
        m.gauge_set("inflight", 5.0);
        for v in [0.5, 1.5, 1.75, 8.0, 31.0] {
            m.record("latency", v);
        }
        m.record_scoped("fanout", Scope::Phase(1), 4.0);
        m
    }

    #[test]
    fn detail_rendering_flattens_scopes() {
        let json = metrics_to_json(&sample_registry(), true);
        let counters = json.get("counters").unwrap();
        assert_eq!(counters.get("enroll").and_then(Json::as_u64), Some(12));
        assert_eq!(
            counters.get("routing_update/phase1").and_then(Json::as_u64),
            Some(40)
        );
        assert!(counters.get("routing_update").is_none());
        let hist = json.get("histograms").unwrap();
        assert!(hist.get("fanout/phase1").is_some());
        let latency = hist.get("latency").unwrap();
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(5));
        assert_eq!(latency.get("min").and_then(Json::as_f64), Some(0.5));
        assert_eq!(latency.get("max").and_then(Json::as_f64), Some(31.0));
        // p50 (rank 3 of 5) falls in the [1, 2) bucket: bound 2.
        assert_eq!(latency.get("p50").and_then(Json::as_f64), Some(2.0));
        let gauge = json.get("gauges").unwrap().get("inflight").unwrap();
        assert_eq!(gauge.get("last").and_then(Json::as_f64), Some(5.0));
        assert_eq!(gauge.get("peak").and_then(Json::as_f64), Some(9.0));
    }

    #[test]
    fn compact_rendering_rolls_scopes_up() {
        let mut registry = sample_registry();
        // A gauge family opened but never set has no scopes to roll up.
        registry.gauge_family("never_set");
        let json = metrics_to_json(&registry, false);
        assert!(json.get("gauges").unwrap().get("never_set").is_none());
        let counters = json.get("counters").unwrap();
        assert_eq!(
            counters.get("routing_update").and_then(Json::as_u64),
            Some(78)
        );
        assert!(counters.get("routing_update/phase1").is_none());
        let hist = json.get("histograms").unwrap();
        assert_eq!(
            hist.get("fanout")
                .unwrap()
                .get("count")
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn rendering_round_trips_and_is_stable() {
        for detail in [false, true] {
            let json = metrics_to_json(&sample_registry(), detail);
            let rendered = json.render();
            let reparsed = Json::parse(&rendered).unwrap();
            assert_eq!(reparsed, json);
            assert_eq!(reparsed.render(), rendered);
            // Rebuilding the registry renders byte-identically.
            assert_eq!(
                metrics_to_json(&sample_registry(), detail).render(),
                rendered
            );
        }
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let json = metrics_to_json(&MetricsRegistry::new(), false);
        assert_eq!(
            json.render_compact(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
