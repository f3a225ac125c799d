//! `rtds-exp` — every paper exhibit and evaluation experiment behind one
//! binary:
//!
//! ```text
//! rtds-exp <experiment> [--seed <u64>] [--json <path>] [experiment flags]
//! ```
//!
//! [`EXPERIMENTS`] is the whole dispatch: one row per experiment with its
//! flags and entry point; the module of the same name documents what the
//! experiment shows and what its flags mean. E1–E8 print one table format
//! (each row's median [min-max] over the seeds) and write one `--json`
//! format, the sweep report (`rtds_bench::harness::run_table`). Exit
//! status: 0 on success, 1 when an experiment's own check fails, 2 on a
//! usage error.

use rtds_bench::ExpArgs;

mod ablation;
mod acceptance;
mod fig1;
mod flows;
mod laxity;
mod overhead;
mod radius;
mod scenarios;
mod sched;
mod table1;
mod workloads;

/// One row of the dispatch table: name, one-line summary, value-taking flags
/// besides `--seed`/`--json`, boolean flags, entry point.
type Experiment = (
    &'static str,
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    fn(ExpArgs),
);

#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 11] = [
    ("table1", "Figs. 2-4 and Table 1 of the paper, checked against the published values",
        &[], &[], table1::run),
    ("fig1", "Fig. 1: one distributed job traced through every protocol stage",
        &["trace-out", "trace-ring", "chrome-trace"], &[], fig1::run),
    ("acceptance", "E1: guarantee ratio vs. arrival rate, RTDS against the five baselines",
        &[], &[], acceptance::run),
    ("overhead", "E2: distribution messages per job vs. network size",
        &[], &[], overhead::run),
    ("radius", "E3: the sphere-radius h trade-off",
        &[], &[], radius::run),
    ("laxity", "E4: guarantee ratio vs. deadline tightness",
        &[], &[], laxity::run),
    ("ablation", "E5: the section-13 extension switches, one at a time",
        &[], &[], ablation::run),
    ("scenarios", "E6: every registry scenario swept over seeds on worker threads",
        &["scenario", "seeds", "threads", "trace-out", "trace-ring", "chrome-trace"],
        &["list"], scenarios::run),
    ("flows", "E7: the shared-bandwidth flow plane under contention",
        &["scenario", "seeds"], &["assert-contention"], flows::run),
    ("sched", "E8: local scheduler comparison (protocol vs. HEFT)",
        &["scenario", "seeds"], &[], sched::run),
    ("workloads", "streaming open-loop workload runs with trace record/replay",
        &["jobs", "rate", "process", "sites", "hotspots", "record", "replay",
          "trace-out", "trace-ring", "chrome-trace"],
        &[], workloads::run),
];

fn usage(message: &str) -> ! {
    eprintln!("rtds-exp: {message}");
    eprintln!("usage: rtds-exp <experiment> [--seed <u64>] [--json <path>] [experiment flags]");
    eprintln!("experiments:");
    for (name, summary, ..) in &EXPERIMENTS {
        eprintln!("  {name:<11} {summary}");
    }
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        usage("missing experiment name");
    };
    let Some(&(_, _, value_flags, bool_flags, run)) = EXPERIMENTS.iter().find(|e| e.0 == name)
    else {
        usage(&format!("unknown experiment {name:?}"));
    };
    let args = ExpArgs::from_vec(
        &format!("rtds-exp {name}"),
        argv.collect(),
        value_flags,
        bool_flags,
    );
    run(args);
}
