//! The shared argument parser of the `rtds-exp` subcommands (no external
//! dependencies — the build environment has no registry access).
//!
//! Every subcommand accepts at least:
//!
//! * `--seed <u64>` — the workload/system seed (each experiment documents
//!   its default);
//! * `--json <path>` — write the experiment's machine-readable report to
//!   `path` in addition to the human-readable stdout tables.
//!
//! Subcommands layer extra value-taking flags (`scenarios` adds
//! `--scenario`, `--seeds`, `--threads`; `workloads` adds
//! `--jobs`/`--rate`/`--record`/`--replay`) and boolean flags (`--list`,
//! `--assert-contention`) through [`ExpArgs::value_of`] /
//! [`ExpArgs::has`]. Both `--flag value` and `--flag=value` spellings are
//! accepted for value flags; boolean flags take no value, so a bare token
//! after one is a stray positional. Unknown flags and stray positional
//! arguments abort with a usage message rather than being silently
//! ignored; the fallible core (`ExpArgs::try_from_vec`) is separate so
//! that rejection behaviour is unit-testable instead of living behind
//! `process::exit`.

use rtds_scenarios::{Json, Scenario};

/// Parsed command-line arguments of one experiment: an ordered list of
/// `(flag, optional value)` pairs.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    binary: String,
    parsed: Vec<(String, Option<String>)>,
    known: Vec<&'static str>,
    booleans: Vec<&'static str>,
}

impl ExpArgs {
    /// Parses an explicit argument vector, accepting `--seed` and `--json`
    /// plus the given extra value-taking flags and boolean flags (names
    /// without `--`). Exits the process with status 2 and a usage message on
    /// unknown flags, stray positionals, or a value handed to a boolean
    /// flag. `binary` is the name the usage message prints.
    pub fn from_vec(
        binary: &str,
        args: Vec<String>,
        value_flags: &[&'static str],
        bool_flags: &[&'static str],
    ) -> ExpArgs {
        match Self::try_from_vec(binary, args, value_flags, bool_flags) {
            Ok(parsed) => parsed,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// Fallible core of the parser: rejects unknown flags (`--nope`),
    /// stray positional arguments (`foo` with no preceding flag — including
    /// a bare token after a boolean flag, which takes no value) and
    /// malformed `--=x` tokens, returning the full usage message.
    pub(crate) fn try_from_vec(
        binary: &str,
        args: Vec<String>,
        value_flags: &[&'static str],
        bool_flags: &[&'static str],
    ) -> Result<ExpArgs, String> {
        let mut known = vec!["seed", "json"];
        known.extend_from_slice(value_flags);
        known.extend_from_slice(bool_flags);
        let booleans = bool_flags.to_vec();
        let mut parsed: Vec<(String, Option<String>)> = Vec::new();
        for arg in &args {
            match arg.strip_prefix("--") {
                Some(body) => {
                    let (name, inline_value) = match body.split_once('=') {
                        Some((n, v)) => (n, Some(v.to_string())),
                        None => (body, None),
                    };
                    if name.is_empty() || !known.contains(&name) {
                        return Err(usage(
                            binary,
                            &known,
                            &booleans,
                            &format!("unknown flag --{name}"),
                        ));
                    }
                    if booleans.contains(&name) && inline_value.is_some() {
                        return Err(usage(
                            binary,
                            &known,
                            &booleans,
                            &format!("--{name} does not take a value"),
                        ));
                    }
                    parsed.push((name.to_string(), inline_value));
                }
                // A bare token is only legal as the value of the
                // value-taking flag right before it; a stray positional
                // argument (e.g. a scenario name without --scenario, or a
                // path after a boolean flag) must not be silently ignored.
                None => match parsed.last_mut() {
                    Some((name, value @ None)) if !booleans.contains(&name.as_str()) => {
                        *value = Some(arg.clone())
                    }
                    _ => {
                        return Err(usage(
                            binary,
                            &known,
                            &booleans,
                            &format!("unexpected argument {arg:?}"),
                        ))
                    }
                },
            }
        }
        Ok(ExpArgs {
            binary: binary.to_string(),
            parsed,
            known,
            booleans,
        })
    }

    /// Aborts with `message` and the usage line (exit status 2) — how an
    /// experiment rejects a flag value the parser itself cannot judge.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!(
            "{}",
            usage(&self.binary, &self.known, &self.booleans, message)
        );
        std::process::exit(2);
    }

    /// The last occurrence of a flag (later spellings override earlier
    /// ones, the conventional CLI behaviour).
    fn lookup(&self, flag: &str) -> Option<&Option<String>> {
        self.parsed
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value)
    }

    /// Returns `true` if the flag is present (with or without a value).
    pub fn has(&self, flag: &str) -> bool {
        self.lookup(flag).is_some()
    }

    /// The value following `--flag`, if the flag is present. A flag given
    /// without a value aborts with a usage message.
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        match self.lookup(flag) {
            None => None,
            Some(Some(value)) => Some(value),
            Some(None) => self.usage_error(&format!("--{flag} needs a value")),
        }
    }

    /// A flag parsed with `FromStr`, or `default` when absent; a value that
    /// does not parse (or fails `valid`) is a usage error naming `kind`.
    fn parsed_of<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        kind: &str,
        valid: fn(&T) -> bool,
    ) -> T {
        match self.value_of(flag) {
            None => default,
            Some(raw) => match raw.parse::<T>() {
                Ok(value) if valid(&value) => value,
                _ => self.usage_error(&format!("--{flag}: not a {kind}: {raw:?}")),
            },
        }
    }

    /// The `--seed` value, or `default` (the experiment's historical constant).
    pub fn seed(&self, default: u64) -> u64 {
        self.u64_of("seed", default)
    }

    /// A generic `usize` flag with a default.
    pub fn usize_of(&self, flag: &str, default: usize) -> usize {
        self.parsed_of(flag, default, "usize", |_| true)
    }

    /// A generic `u64` flag with a default.
    pub fn u64_of(&self, flag: &str, default: u64) -> u64 {
        self.parsed_of(flag, default, "u64", |_| true)
    }

    /// A generic finite `f64` flag with a default.
    pub fn f64_of(&self, flag: &str, default: f64) -> f64 {
        self.parsed_of(flag, default, "finite number", |x| x.is_finite())
    }

    /// The `--json` output path, if requested.
    pub fn json_path(&self) -> Option<&str> {
        self.value_of("json")
    }

    /// Writes the report to the `--json` path when one was given.
    pub fn write_json(&self, report: &Json) {
        if let Some(path) = self.json_path() {
            write_json_report(path, &report.render());
        }
    }

    /// The `--scenario <name|all>` × `--seed`/`--seeds` selection of the
    /// registry-driven experiments: the chosen scenarios out of `pool` (all
    /// of them by default, in registry order), the `--seed` value (1 by
    /// default) and the `--seeds` consecutive seeds starting there. A name
    /// outside the pool and a bad seed range (see [`ExpArgs::seed_range`])
    /// are usage errors.
    pub fn selection(
        &self,
        pool: Vec<Scenario>,
        default_seeds: u64,
    ) -> (Vec<Scenario>, u64, Vec<u64>) {
        let scenarios = match self.value_of("scenario") {
            None | Some("all") => pool,
            Some(name) => match pool.iter().find(|s| s.name == name) {
                Some(s) => vec![s.clone()],
                None => {
                    let names: Vec<&str> = pool.iter().map(|s| s.name.as_str()).collect();
                    self.usage_error(&format!(
                        "--scenario: unknown scenario {name:?} (one of: all, {})",
                        names.join(", ")
                    ))
                }
            },
        };
        let seeds = self.seed_range(self.u64_of("seeds", default_seeds));
        (scenarios, seeds[0], seeds)
    }

    /// `count` consecutive sweep seeds from `--seed` (1 by default). A zero
    /// count and a range that runs past `u64::MAX` are usage errors.
    pub fn seed_range(&self, count: u64) -> Vec<u64> {
        let base_seed = self.seed(1);
        if count == 0 {
            self.usage_error("--seeds: must be at least 1");
        }
        if base_seed.checked_add(count - 1).is_none() {
            self.usage_error(&format!(
                "--seeds: {count} seeds from --seed {base_seed} run past u64::MAX"
            ));
        }
        (0..count).map(|i| base_seed + i).collect()
    }
}

fn usage(binary: &str, known: &[&'static str], booleans: &[&'static str], message: &str) -> String {
    format!(
        "{binary}: {message}\nusage: {binary} {}",
        known
            .iter()
            .map(|f| {
                if booleans.contains(f) {
                    format!("[--{f}]")
                } else {
                    format!("[--{f} <value>]")
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// Writes an already-rendered JSON document to `path`, aborting the
/// experiment on I/O errors.
pub fn write_json_report(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write JSON report to {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote JSON report to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> ExpArgs {
        try_args(v).expect("valid arguments")
    }

    fn try_args(v: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::try_from_vec(
            "exp_test",
            v.iter().map(|s| s.to_string()).collect(),
            &["rate"],
            &["list"],
        )
    }

    #[test]
    fn defaults_and_values() {
        let a = args(&[]);
        assert_eq!(a.seed(42), 42);
        assert_eq!(a.json_path(), None);
        assert!(!a.has("list"));

        let a = args(&["--seed", "7", "--json", "/tmp/out.json", "--list"]);
        assert_eq!(a.seed(42), 7);
        assert_eq!(a.json_path(), Some("/tmp/out.json"));
        assert!(a.has("list"));
        assert_eq!(a.usize_of("seed", 0), 7);
        assert_eq!(a.usize_of("missing", 9), 9);
        assert_eq!(a.u64_of("seed", 0), 7);
        assert_eq!(a.f64_of("rate", 0.25), 0.25);
    }

    #[test]
    fn equals_syntax_and_repeats() {
        let a = args(&["--seed=9", "--rate=0.75"]);
        assert_eq!(a.seed(0), 9);
        assert_eq!(a.f64_of("rate", 0.0), 0.75);
        // The last spelling wins.
        let a = args(&["--seed", "1", "--seed=2"]);
        assert_eq!(a.seed(0), 2);
    }

    #[test]
    fn unknown_flags_are_rejected_with_usage() {
        let err = try_args(&["--nope"]).unwrap_err();
        assert!(err.contains("unknown flag --nope"), "{err}");
        assert!(err.contains("usage: exp_test"), "{err}");
        assert!(err.contains("--seed"), "{err}");
        // The `=` spelling reports the flag name, not the whole token.
        let err = try_args(&["--bogus=3"]).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        assert!(try_args(&["--="]).is_err());
    }

    #[test]
    fn stray_positionals_are_rejected() {
        let err = try_args(&["paper-baseline"]).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        // A token after a flag that already has a value is stray too.
        let err = try_args(&["--seed=1", "extra"]).unwrap_err();
        assert!(err.contains("unexpected argument \"extra\""), "{err}");
        // ...but a token right after a bare value flag is its value.
        assert!(try_args(&["--seed", "1"]).is_ok());
    }

    #[test]
    fn boolean_flags_never_absorb_values() {
        // A forgotten flag name must not vanish into a boolean flag
        // (e.g. `scenarios --list sweep.json` missing `--json`).
        let err = try_args(&["--list", "whoops.json"]).unwrap_err();
        assert!(err.contains("unexpected argument \"whoops.json\""), "{err}");
        let err = try_args(&["--list=yes"]).unwrap_err();
        assert!(err.contains("--list does not take a value"), "{err}");
        // Usage renders booleans without a value placeholder.
        assert!(err.contains("[--list]"), "{err}");
        assert!(err.contains("[--rate <value>]"), "{err}");
    }

    #[test]
    fn selection_filters_the_pool_and_lists_consecutive_seeds() {
        let parse = |v: &[&str]| {
            let v = v.iter().map(|s| s.to_string()).collect();
            ExpArgs::try_from_vec("exp_test", v, &["scenario", "seeds"], &[]).unwrap()
        };
        let pool = rtds_scenarios::builtin_scenarios();
        let (all, base, seeds) = parse(&["--scenario", "all"]).selection(pool.clone(), 3);
        assert_eq!((all.len(), base, seeds), (pool.len(), 1, vec![1, 2, 3]));
        let picked = parse(&["--scenario", &pool[1].name, "--seed=7", "--seeds=1"]);
        let (one, base, seeds) = picked.selection(pool.clone(), 3);
        assert_eq!((one.len(), base, seeds), (1, 7, vec![7]));
        assert_eq!(one[0].name, pool[1].name);
    }

    #[test]
    fn json_report_round_trips_to_disk() {
        let path = std::env::temp_dir().join("rtds_args_test.json");
        let path = path.to_str().unwrap();
        write_json_report(path, &Json::object(vec![("x", Json::Int(1))]).render());
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "{\n  \"x\": 1\n}\n");
        let _ = std::fs::remove_file(path);
    }
}
