//! Rendering: the one-line JSON result the driver reads, the human-readable
//! metric table, and the `results.json` document of a suite run.

use crate::contract::MetricSpec;
use crate::e2e::Outcome;
use rtds::sim::json::Json;
use std::collections::BTreeMap;

/// The last line of a driver-mode run: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`, the latter holding
/// exactly the metrics of `specs`. Fails if the outcome lacks one of them,
/// carries one that is not in `specs`, or a value is not finite.
pub fn result_line(outcome: &Outcome, specs: &[MetricSpec]) -> Result<String, String> {
    if let Some(extra) = outcome
        .values
        .keys()
        .find(|name| !specs.iter().any(|s| &s.name == *name))
    {
        return Err(format!("metric {extra:?} is not in BENCHMARK.json"));
    }
    let mut metrics = Vec::new();
    for spec in specs {
        let value = *outcome
            .values
            .get(&spec.name)
            .ok_or_else(|| format!("metric {:?} was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric {:?} is not finite: {value}", spec.name));
        }
        metrics.push((
            spec.name.clone(),
            Json::object(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(&spec.unit)),
            ]),
        ));
    }
    Ok(Json::object(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::UInt(outcome.attempted.max(1))),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", Json::Object(metrics)),
    ])
    .render_compact())
}

/// Prints every metric of `specs` by name with its unit (to stderr in
/// driver mode, so stdout's last line stays the JSON result).
pub fn metric_table(
    workload: &str,
    values: &BTreeMap<String, f64>,
    specs: &[MetricSpec],
) -> String {
    let mut out = String::new();
    for spec in specs {
        if let Some(value) = values.get(&spec.name) {
            out.push_str(&format!(
                "{workload:<16} {:<40} {:>18} {}\n",
                spec.name,
                format_value(*value),
                spec.unit
            ));
        }
    }
    out
}

/// Six significant digits for reading; the JSON keeps every digit.
pub fn format_value(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1e6 || value.abs() < 1e-3 {
        format!("{value:.5e}")
    } else {
        let digits = (5 - value.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{value:.digits$}")
    }
}

/// An outcome as a `results.json` fragment.
pub fn outcome_json(outcome: &Outcome) -> Json {
    let numbers = |map: &BTreeMap<String, f64>| {
        Json::Object(
            map.iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        )
    };
    Json::object(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        (
            "sim_digest",
            Json::str(format!("{:016x}", outcome.sim_digest)),
        ),
        ("metrics", numbers(&outcome.values)),
        ("notes", numbers(&outcome.notes)),
        (
            "fences",
            Json::Array(outcome.fences.iter().map(Json::str).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Better;

    fn spec(name: &str, unit: &str) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: unit.into(),
            better: Better::Lower,
            bound: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::new();
        outcome.attempted = 10;
        outcome.set("setup_s", 0.25);
        let specs = [spec("setup_s", "s")];
        let line = result_line(&outcome, &specs).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        // A missing, an extra and a non-finite metric are all refused.
        assert!(result_line(&outcome, &[spec("setup_s", "s"), spec("x", "s")]).is_err());
        assert!(result_line(&outcome, &[]).is_err());
        outcome.set("setup_s", f64::NAN);
        assert!(result_line(&outcome, &specs).is_err());
    }

    #[test]
    fn values_format_to_six_significant_digits() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(36123.456), "36123.5");
        assert_eq!(format_value(0.4567891), "0.456789");
        assert_eq!(format_value(2.5), "2.50000");
        assert_eq!(format_value(1.5e-5), "1.50000e-5");
    }
}
