//! `--compare a.json b.json`: one row per workload × end-to-end metric with
//! both sides' values and a verdict from the bounds in `BENCHMARK.json`.
//!
//! A `results.json` holds, per workload, the samples of every metric (one
//! per suite round). Verdicts, `a` being the baseline:
//!
//! * metrics that repeat exactly (counts and simulated statistics, see
//!   [`MetricSpec::repeats_exactly`]) must be **equal**: any worsening is
//!   `regressed`, any gain `improved`;
//! * host-time metrics are `regressed` when `b`'s median is worse than
//!   `a`'s by more than the bound, `improved` when better by more than the
//!   bound, otherwise `unchanged` — unless the run-to-run spread exceeds
//!   the bound and the two sides' samples interleave, which is
//!   `unresolved`.

use crate::contract::{Better, Contract, MetricSpec};
use crate::report::format_value;
use crate::stats::Quartiles;
use rtds::sim::json::Json;

/// Outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` beyond the bound (or at all, for exact metrics).
    Improved,
    /// Within the bound (or equal).
    Unchanged,
    /// The spread is wider than the bound and the samples interleave.
    Unresolved,
    /// `b` is worse than `a` beyond the bound (or at all, for exact metrics).
    Regressed,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges one metric from both sides' samples.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    // Positive = b is worse, as a share of a's median.
    let worse_by = match spec.better {
        Better::Lower => qb.median - qa.median,
        Better::Higher => qa.median - qb.median,
    } / qa.median.abs().max(f64::MIN_POSITIVE);
    if spec.repeats_exactly() {
        return match worse_by {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    let bound = spec.bound.unwrap_or(0.0);
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let interleave = a_lo <= b_hi && b_lo <= a_hi;
    let noisy = qa.spread().max(qb.spread()) > bound;
    if worse_by.abs() > bound {
        if noisy && interleave {
            Verdict::Unresolved
        } else if worse_by > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        }
    } else if noisy && interleave && a.len() > 1 && b.len() > 1 {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `results.json` → workload → metric → samples (`trace 0` and `trace 1`
/// metrics side by side).
fn samples(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("samples"))
        .and_then(|s| s.get(metric))
        .and_then(Json::items)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn digest<'a>(doc: &'a Json, workload: &str) -> Option<&'a str> {
    doc.get("workloads")?
        .get(workload)?
        .get("sim_digest")?
        .as_str()
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Quartiles of side `a`.
    pub a: Quartiles,
    /// Quartiles of side `b`.
    pub b: Quartiles,
    /// The verdict.
    pub verdict: Verdict,
    /// Whether the metric is end-to-end (gated) or per-layer.
    pub end_to_end: bool,
}

/// Compares two `results.json` documents. Every end-to-end metric gets a
/// row; of the per-layer metrics only those that repeat exactly do (they
/// must be equal), the host-time ones carry no bound to judge by. A
/// differing `sim_digest` is reported as a regressed row of its own.
pub fn compare(contract: &Contract, a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, _) in &contract.workloads {
        let specs = contract
            .end_to_end
            .iter()
            .map(|s| (s, true))
            .chain(contract.per_layer.iter().map(|s| (s, false)));
        for (spec, end_to_end) in specs {
            if !end_to_end && !spec.repeats_exactly() {
                continue;
            }
            let (sa, sb) = (
                samples(a, workload, &spec.name),
                samples(b, workload, &spec.name),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                a: Quartiles::of(&sa),
                b: Quartiles::of(&sb),
                verdict: verdict(spec, &sa, &sb),
                end_to_end,
            });
        }
        if let (Some(da), Some(db)) = (digest(a, workload), digest(b, workload)) {
            // 0 = identical, 1 = differs.
            let differs = f64::from(u8::from(da != db));
            rows.push(Row {
                workload: workload.clone(),
                metric: "sim_digest differs".into(),
                a: Quartiles::of(&[0.0]),
                b: Quartiles::of(&[differs]),
                verdict: if da == db {
                    Verdict::Unchanged
                } else {
                    Verdict::Regressed
                },
                end_to_end: true,
            });
        }
    }
    rows
}

/// Renders the rows as a table; unchanged per-layer rows are summarised in
/// one line per workload to keep the table readable.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<34} {:>14} {:>14} {:>14} {:>14}  {}\n",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "verdict"
    );
    let span = |q: &Quartiles| format!("{}..{}", format_value(q.q1), format_value(q.q3));
    for row in rows {
        if !row.end_to_end && row.verdict == Verdict::Unchanged {
            continue;
        }
        out.push_str(&format!(
            "{:<16} {:<34} {:>14} {:>14} {:>14} {:>14}  {}\n",
            row.workload,
            row.metric,
            format_value(row.a.median),
            span(&row.a),
            format_value(row.b.median),
            span(&row.b),
            row.verdict.label()
        ));
    }
    let equal_layers = rows
        .iter()
        .filter(|r| !r.end_to_end && r.verdict == Verdict::Unchanged)
        .count();
    out.push_str(&format!(
        "{equal_layers} exact-repeat per-layer metrics are equal on both sides\n"
    ));
    out
}

/// Whether any row regressed.
pub fn any_regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(unit: &str, better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: unit.into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let count = spec("count", Better::Lower, 0.01);
        assert_eq!(verdict(&count, &[274.5], &[274.5]), Verdict::Unchanged);
        assert_eq!(verdict(&count, &[274.5], &[274.6]), Verdict::Regressed);
        assert_eq!(verdict(&count, &[274.5], &[200.0]), Verdict::Improved);
        let ratio = spec("ratio", Better::Higher, 0.01);
        assert_eq!(verdict(&ratio, &[0.87], &[0.869]), Verdict::Regressed);
    }

    #[test]
    fn host_time_metrics_use_the_bound_and_the_spread() {
        let rate = spec("jobs/s", Better::Higher, 0.10);
        // Tight samples, 20 % slower: regressed; 20 % faster: improved.
        assert_eq!(
            verdict(&rate, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&rate, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Improved
        );
        // Within the bound and tight: unchanged.
        assert_eq!(
            verdict(&rate, &[100.0, 101.0, 99.0], &[97.0, 98.0, 96.0]),
            Verdict::Unchanged
        );
        // Medians apart by more than the bound, but the spread is wider
        // than the bound and the samples interleave: unresolved.
        assert_eq!(
            verdict(&rate, &[100.0, 130.0, 70.0], &[85.0, 125.0, 60.0]),
            Verdict::Unresolved
        );
        // Wide spread but every b sample is worse than every a sample.
        assert_eq!(
            verdict(&rate, &[100.0, 130.0, 90.0], &[60.0, 80.0, 50.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn documents_compare_row_by_row() {
        let contract = Contract::embedded();
        let doc = |jobs_per_s: &str, allocs: &str, digest: &str| {
            Json::parse(&format!(
                r#"{{"workloads":{{"local-light":{{"sim_digest":"{digest}","samples":{{
                    "jobs_per_s":[{jobs_per_s}],"allocs_per_job":[{allocs}]}}}}}}}}"#
            ))
            .unwrap()
        };
        let a = doc("100, 101", "50, 50", "aa");
        let rows = compare(&contract, &a, &a);
        assert_eq!(rows.len(), 3);
        assert!(!any_regressed(&rows));
        let b = doc("50, 51", "50, 51", "bb");
        let rows = compare(&contract, &a, &b);
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Regressed),
            "{rows:?}"
        );
        assert!(render(&rows).contains("regressed"));
    }
}
