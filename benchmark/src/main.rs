//! The benchmark's command line. Three modes:
//!
//! * **driver mode** — `--workload W --seed S --seconds N --trace 0|1`:
//!   one workload in this process; the last line of stdout is the JSON
//!   result (`--trace 0`: end-to-end metrics, `--trace 1`: per-layer
//!   metrics, plus `out/trace-W.json`),
//! * **suite mode** — no `--trace`: re-executes itself once per workload
//!   and mode (strictly one child at a time, so every workload has its own
//!   process and its own `VmHWM`), prints every metric by name with its
//!   unit and writes `out/results.json`,
//! * **compare mode** — `--compare a.json b.json`.

use rtds::sim::json::Json;
use rtds_benchmark::compare::{any_regressed, compare, render};
use rtds_benchmark::contract::{Contract, MetricSpec};
use rtds_benchmark::e2e::run_end_to_end;
use rtds_benchmark::layers::run_layers;
use rtds_benchmark::report::{format_value, metric_table, outcome_json, result_line};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  rtds-benchmark [--seed N] [--seconds N] [--workload NAME] [--out FILE] [--append]
      run the suite (or one workload of it): every metric by name with its unit,
      results in benchmark/out/results.json, one trace file per workload
  rtds-benchmark --workload NAME --seed N --seconds N --trace 0|1
      driver mode: one run, the JSON result on the last line of stdout
  rtds-benchmark --compare A.json B.json
      compare two results files against the bounds in BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    append: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(contract: &Contract) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: contract.run_seconds as f64,
        trace: None,
        out: None,
        append: false,
        compare: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = |what: &str| words.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !contract.workloads.iter().any(|(known, _)| *known == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let raw = value("a number")?;
                args.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed: not a u64: {raw:?}"))?;
            }
            "--seconds" => {
                let raw = value("a number")?;
                args.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {raw:?}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--append" => args.append = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two paths")?),
                    PathBuf::from(value("two paths")?),
                ));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// `benchmark/out` from the repo root (where the driver runs the command),
/// `out` from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn driver_mode(contract: &Contract, workload: &str, args: &Args, traced: bool) -> ExitCode {
    let (outcome, specs) = if traced {
        let path = out_dir().join(format!("trace-{workload}.json"));
        (
            run_layers(workload, args.seed, 1.0, Some(&path)),
            &contract.per_layer,
        )
    } else {
        (
            run_end_to_end(workload, args.seed, args.seconds, 1.0),
            &contract.end_to_end,
        )
    };
    eprint!("{}", metric_table(workload, &outcome.values, specs));
    eprintln!("{workload:<16} sim_digest {:016x}", outcome.sim_digest);
    // The suite reads this line back; the driver reads only the last one.
    println!("{}", outcome_json(&outcome).render_compact());
    match result_line(&outcome, specs) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one child in driver mode and returns its outcome document (the
/// second-to-last stdout line) and whether it exited successfully.
fn run_child(workload: &str, args: &Args, traced: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let document = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or_else(|| format!("child for {workload} printed no result"))?;
    let parsed =
        Json::parse(document).map_err(|e| format!("child result does not parse: {e:?}"))?;
    Ok((parsed, output.status.success()))
}

fn numbers(doc: &Json, key: &str) -> Vec<(String, f64)> {
    match doc.get(key) {
        Some(Json::Object(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Appends one child's metric values to the workload's sample lists.
fn push_samples(samples: &mut Vec<(String, Vec<f64>)>, doc: &Json) {
    for (name, value) in numbers(doc, "metrics") {
        match samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => samples.push((name, vec![value])),
        }
    }
}

fn existing_samples(previous: Option<&Json>, workload: &str) -> Vec<(String, Vec<f64>)> {
    let Some(Json::Object(fields)) = previous
        .and_then(|doc| doc.get("workloads"))
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("samples"))
    else {
        return Vec::new();
    };
    fields
        .iter()
        .map(|(name, values)| {
            let values = values.items().unwrap_or(&[]);
            (
                name.clone(),
                values.iter().filter_map(Json::as_f64).collect(),
            )
        })
        .collect()
}

fn print_child(workload: &str, doc: &Json, specs: &[MetricSpec]) {
    let values = numbers(doc, "metrics").into_iter().collect();
    print!("{}", metric_table(workload, &values, specs));
}

fn suite_mode(contract: &Contract, args: &Args) -> ExitCode {
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    let previous = if args.append {
        std::fs::read_to_string(&out_path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .filter(|doc| doc.get("seed").and_then(Json::as_u64) == Some(args.seed))
    } else {
        None
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => contract.workloads.iter().map(|(n, _)| n.as_str()).collect(),
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in names {
        let mut samples = existing_samples(previous.as_ref(), workload);
        let mut fields = Vec::new();
        for traced in [false, true] {
            let (doc, ok) = match run_child(workload, args, traced) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            all_correct &= ok;
            let specs = if traced {
                &contract.per_layer
            } else {
                &contract.end_to_end
            };
            print_child(workload, &doc, specs);
            push_samples(&mut samples, &doc);
            if !traced {
                let notes = numbers(&doc, "notes");
                let note = |key: &str| {
                    notes
                        .iter()
                        .find(|(k, _)| k == key)
                        .map_or(0.0, |(_, v)| *v)
                };
                println!(
                    "{workload:<16} timed region: median {} s, quartiles {}..{} s, n {}; set-up n {}; sim_digest {}; failed {}/{}",
                    format_value(note("wall_s.median")),
                    format_value(note("wall_s.q1")),
                    format_value(note("wall_s.q3")),
                    note("wall_s.n"),
                    note("setup_s.n"),
                    doc.get("sim_digest").and_then(Json::as_str).unwrap_or("?"),
                    doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
                    doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                );
                for key in ["sim_digest", "attempted", "failed", "notes"] {
                    if let Some(value) = doc.get(key) {
                        fields.push((key.to_string(), value.clone()));
                    }
                }
            }
            let correct = doc.get("correct") == Some(&Json::Bool(true));
            fields.push((
                if traced { "correct_traced" } else { "correct" }.to_string(),
                Json::Bool(correct),
            ));
            if let Some(Json::Array(fences)) = doc.get("fences") {
                for fence in fences {
                    println!("{workload:<16} FENCE: {}", fence.as_str().unwrap_or("?"));
                }
            }
        }
        fields.push((
            "samples".to_string(),
            Json::Object(
                samples
                    .into_iter()
                    .map(|(name, values)| {
                        (
                            name,
                            Json::Array(values.into_iter().map(Json::Num).collect()),
                        )
                    })
                    .collect(),
            ),
        ));
        workloads.push((workload.to_string(), Json::Object(fields)));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let document = Json::object(vec![
        ("schema", Json::str("rtds-benchmark/1")),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("cores", Json::UInt(cores as u64)),
        ("workloads", Json::Object(workloads)),
    ]);
    if let Some(dir) = out_path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out_path, document.render()) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("results: {}", out_path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: a correctness fence tripped (see FENCE lines)");
        ExitCode::FAILURE
    }
}

fn compare_mode(contract: &Contract, a: &Path, b: &Path) -> ExitCode {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{} does not parse: {e:?}", path.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let rows = compare(contract, &a, &b);
            print!("{}", render(&rows));
            if any_regressed(&rows) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let contract = Contract::embedded();
    let args = match parse_args(&contract) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_mode(&contract, a, b);
    }
    match (&args.workload, args.trace) {
        (Some(workload), Some(traced)) => driver_mode(&contract, workload, &args, traced),
        _ => suite_mode(&contract, &args),
    }
}
