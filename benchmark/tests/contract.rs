//! The benchmark against its own contract: `BENCHMARK.json` is well formed,
//! every workload emits exactly the metrics it lists, and the build profile
//! is the one tier-1 builds with.

use rtds::sim::json::Json;
use rtds_benchmark::contract::{Contract, CONTRACT_JSON};
use rtds_benchmark::e2e::{run_end_to_end, Outcome};
use rtds_benchmark::layers::run_layers;
use rtds_benchmark::report::result_line;
use std::collections::BTreeSet;

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn contract_file_is_within_the_driver_limits() {
    assert!(CONTRACT_JSON.len() <= 64 * 1024);
    let doc = Json::parse(CONTRACT_JSON).unwrap();
    let Json::Object(fields) = &doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::items)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|word| word.len() <= 200));
    assert!(command
        .iter()
        .all(|word| !word.starts_with('/') && !word.contains("..")));
    assert_eq!(strings("paths"), ["benchmark"]);

    let contract = Contract::embedded();
    assert!((1..=60).contains(&contract.run_seconds));
    assert!((2..=8).contains(&contract.workloads.len()));
    assert!((1..=16).contains(&contract.end_to_end.len()));
    assert!((1..=128).contains(&contract.per_layer.len()));
    let mut names = BTreeSet::new();
    for (name, why) in &contract.workloads {
        assert!(is_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        assert!(names.insert(name.clone()), "{name} is used twice");
    }
    for metric in contract.end_to_end.iter().chain(&contract.per_layer) {
        assert!(is_name(&metric.name), "{}", metric.name);
        assert!(
            is_unit(&metric.unit),
            "{}: unit {}",
            metric.name,
            metric.unit
        );
        assert!(
            names.insert(metric.name.clone()),
            "{} is used twice",
            metric.name
        );
    }
    for metric in &contract.end_to_end {
        let bound = metric.bound.expect("every end-to-end metric has a bound");
        assert!((0.0..=0.25).contains(&bound), "{}: {bound}", metric.name);
    }
    assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = contract
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    let widest = contract
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the largest bound"
    );
}

fn names(outcome: &Outcome) -> BTreeSet<String> {
    outcome.values.keys().cloned().collect()
}

#[test]
fn every_workload_emits_exactly_the_contract_metrics_at_small_scale() {
    let contract = Contract::embedded();
    let end_to_end: BTreeSet<String> = contract.end_to_end.iter().map(|m| m.name.clone()).collect();
    let per_layer: BTreeSet<String> = contract.per_layer.iter().map(|m| m.name.clone()).collect();
    for (workload, _) in &contract.workloads {
        let plain = run_end_to_end(workload, 7, 0.0, 0.01);
        assert_eq!(names(&plain), end_to_end, "{}", workload);
        assert!(plain.attempted > 0 && plain.failed == 0, "{}", workload);
        assert!(plain.fences.is_empty(), "{}: {:?}", workload, plain.fences);
        // End-to-end metrics are never zero.
        for (name, value) in &plain.values {
            assert!(*value > 0.0, "{}: {name} = {value}", workload);
        }
        let line = result_line(&plain, &contract.end_to_end).unwrap();
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );

        let traced = run_layers(workload, 7, 0.01, None);
        assert_eq!(names(&traced), per_layer, "{}", workload);
        assert!(traced.values.values().all(|v| v.is_finite()));
        result_line(&traced, &contract.per_layer).unwrap();
        // Same seed, same simulated statistics in both modes.
        assert_eq!(plain.sim_digest, traced.sim_digest, "{}", workload);
        let flows = traced.values["flow.flows_per_job"];
        assert_eq!(
            flows > 0.0,
            workload == "multicore-flow" || workload == "sweep-registry"
        );
    }
}

#[test]
fn release_profile_equals_the_root_manifest() {
    // The benchmark must never measure different codegen from what tier-1
    // builds: compare the two `[profile.release]` tables line by line.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .map(str::trim)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| line.replace(' ', ""))
            .collect()
    }
    let dir = env!("CARGO_MANIFEST_DIR");
    let own = std::fs::read_to_string(format!("{dir}/Cargo.toml")).unwrap();
    let root = std::fs::read_to_string(format!("{dir}/../Cargo.toml")).unwrap();
    let (own, root) = (release_profile(&own), release_profile(&root));
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release]"
    );
    assert_eq!(own, root);
}
