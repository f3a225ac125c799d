//! `BENCHMARK.json`, embedded at build time: the one place that names the
//! workloads and metrics, their units, directions and bounds. The runner
//! emits exactly the metrics listed there, so the file and the program
//! cannot drift apart.

use rtds::sim::json::Json;

/// The contract file's text.
pub const CONTRACT_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Whether the metric is a count or a simulated statistic, which repeats
    /// exactly for the same seed — as opposed to a host-time measurement.
    /// Comparisons require such metrics to be *equal*, not within a bound.
    pub fn repeats_exactly(&self) -> bool {
        matches!(self.unit.as_str(), "count" | "ratio" | "simtime" | "B")
    }
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

fn text(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::items)
        .ok_or_else(|| format!("missing array {key:?}"))?
        .iter()
        .map(|m| {
            let better = match text(m, "better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("better must be higher|lower, got {other:?}")),
            };
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Contract {
    /// Parses a contract document.
    pub fn parse(json: &str) -> Result<Contract, String> {
        let doc = Json::parse(json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::items)
            .ok_or("missing array \"workloads\"")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("missing run_seconds")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The embedded contract.
    pub fn embedded() -> Contract {
        Contract::parse(CONTRACT_JSON).expect("the embedded BENCHMARK.json is valid")
    }
}
