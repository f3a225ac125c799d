//! The cost ledger: what a fixed suite of seed-7 runs computes and what it
//! costs, pinned in one fixture.
//!
//! The suite is thirteen registry scenario cells run one after another on
//! one thread through `run_cell`, exactly as a sweep runs them:
//!
//! * `paper-baseline` on its native 5×5 grid;
//! * `paper-baseline`, `wide-low-degree` (a random spanning tree: every
//!   link a bridge, sphere radius 3) and `hetero-speed-sites` (a connected
//!   Erdős–Rényi graph with a 6× speed spread) scaled to 16, 64 and 256
//!   sites — the paper's "width should not cost" claim, read as messages
//!   per job per tier;
//! * the three flow scenarios `incast-storm`, `bandwidth-starved-sphere`
//!   and `transfer-vs-compute` at their native sizes, which pin the
//!   shared-bandwidth flow plane.
//!
//! Each row carries the network size, the cell's outcome counts, message
//! and event totals, its full-detail metrics section, and two costs:
//! `allocations` and `alloc_bytes`, the heap allocations (and the bytes they
//! asked for; a `realloc` counts as one allocation of its new size) made on
//! the ledger's thread while the cell ran. Every field is an exact function
//! of the code, so the whole document is compared line by line with
//! `tests/fixtures/cost_ledger.json`; a mismatch names the row and the
//! field. The allocation counts are also a function of the standard
//! library (a new `sort_by` or collection growth policy moves them), so the
//! fixture names the toolchain it was recorded on (`rustc -vV` release and
//! host) and the two allocation fields are compared only on that toolchain;
//! every other field is compared on every toolchain. A change that is meant
//! to move a count re-records the fixture and states the delta:
//!
//! ```text
//! cargo test -q --test cost_ledger -- --ignored record
//! ```

use rtds::scenarios::{find_scenario, run_cell, Json, Scenario, TopologyRecipe};
use rtds::sim::metrics_to_json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations and the bytes they request, so
/// tests running in parallel do not see each other's.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const SEED: u64 = 7;

/// The site-count tiers of the scaled scenarios.
const TIERS: [usize; 3] = [16, 64, 256];

/// The registry flow scenarios, run at their native sizes.
const FLOW_SCENARIOS: [&str; 3] = [
    "incast-storm",
    "bandwidth-starved-sphere",
    "transfer-vs-compute",
];

const FIXTURE: &str = include_str!("fixtures/cost_ledger.json");

/// The document key naming the toolchain the allocation counts belong to.
const TOOLCHAIN_KEY: &str = "allocations_toolchain";

/// The row keys whose values depend on the toolchain as well as the code.
const ALLOCATION_KEYS: [&str; 2] = ["allocations", "alloc_bytes"];

/// The toolchain running this test, as `rustc -vV` reports it (`release
/// host`, e.g. `1.95.0 x86_64-unknown-linux-gnu`); `None` when no rustc
/// answers. Cargo runs tests with the toolchain that built them, so the
/// `rustc` it finds is that one.
fn toolchain() -> Option<String> {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let output = std::process::Command::new(rustc).arg("-vV").output().ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .map(str::trim)
    };
    Some(format!("{} {}", field("release:")?, field("host:")?))
}

/// Re-scales a registry scenario to a site-count tier; the row is named
/// `scenario/sites`.
fn scaled_scenario(name: &str, sites: usize) -> Scenario {
    let mut scenario = find_scenario(name).expect("registry scenario");
    scenario.topology.recipe = match scenario.topology.recipe {
        TopologyRecipe::Grid { wrap, .. } => {
            let side = (sites as f64).sqrt().round() as usize;
            assert_eq!(side * side, sites, "grid tier {sites} is not a square");
            TopologyRecipe::Grid {
                width: side,
                height: side,
                wrap,
            }
        }
        TopologyRecipe::RandomTree { .. } => TopologyRecipe::RandomTree { sites },
        TopologyRecipe::ErdosRenyi { .. } => TopologyRecipe::ErdosRenyi {
            sites,
            // Keep the average degree near 3 at every tier so the tiers
            // stress network size, not density.
            edge_prob: 3.0 / (sites as f64 - 1.0),
        },
        other => panic!("scenario {name:?} has an unscalable topology {other:?}"),
    };
    scenario.name = format!("{name}/{sites}");
    scenario
}

/// The suite in run order: each scenario with its size tier (0 = native).
fn suite() -> Vec<(Scenario, usize)> {
    let native = |name: &str| (find_scenario(name).expect("registry scenario"), 0);
    let mut suite = vec![native("paper-baseline")];
    for name in ["paper-baseline", "wide-low-degree", "hetero-speed-sites"] {
        suite.extend(TIERS.map(|sites| (scaled_scenario(name, sites), sites)));
    }
    suite.extend(FLOW_SCENARIOS.map(native));
    suite
}

/// Runs one row, checks the paper's promise on it, and renders it.
fn ledger_row(scenario: &Scenario, tier: usize) -> Json {
    let network = scenario.build_network(SEED);
    let before = ALLOCATIONS.with(Cell::get);
    let cell = run_cell(scenario, SEED);
    let after = ALLOCATIONS.with(Cell::get);
    let name = &cell.scenario;
    assert_eq!(cell.deadline_misses, 0, "{name}: an accepted job missed");
    if FLOW_SCENARIOS.contains(&name.as_str()) {
        assert!(cell.metrics.counter("sim_flow_started") > 0, "{name}");
        assert!(cell.metrics.counter("task_data_sent") > 0, "{name}");
    }
    Json::object(vec![
        ("name", Json::str(name)),
        ("tier", Json::UInt(tier as u64)),
        ("sites", Json::UInt(network.site_count() as u64)),
        ("links", Json::UInt(network.link_count() as u64)),
        ("submitted", Json::UInt(cell.submitted)),
        ("accepted_locally", Json::UInt(cell.accepted_locally)),
        (
            "accepted_distributed",
            Json::UInt(cell.accepted_distributed),
        ),
        ("rejected", Json::UInt(cell.rejected)),
        ("deadline_misses", Json::UInt(cell.deadline_misses)),
        ("guarantee_ratio", Json::Num(cell.guarantee_ratio)),
        ("messages_sent", Json::UInt(cell.messages_sent)),
        ("messages_delivered", Json::UInt(cell.messages_delivered)),
        ("messages_per_job", Json::Num(cell.messages_per_job)),
        ("events_processed", Json::UInt(cell.events_processed)),
        ("finished_at", Json::Num(cell.finished_at)),
        ("allocations", Json::UInt(after.0 - before.0)),
        ("alloc_bytes", Json::UInt(after.1 - before.1)),
        // Full scope detail: phase-labelled routing fan-out summaries
        // render individually.
        ("metrics", metrics_to_json(&cell.metrics, true)),
    ])
}

/// Runs the whole suite on a fresh thread — the kernels' thread-local
/// workspaces start empty, so every row's allocation count is the same
/// whichever test thread asks — and renders the ledger.
fn ledger() -> String {
    std::thread::spawn(|| {
        let rows = suite()
            .iter()
            .map(|(scenario, tier)| ledger_row(scenario, *tier))
            .collect();
        Json::object(vec![
            ("seed", Json::UInt(SEED)),
            (
                TOOLCHAIN_KEY,
                toolchain().map_or(Json::Null, |t| Json::str(&t)),
            ),
            ("rows", Json::Array(rows)),
        ])
        .render()
    })
    .join()
    .expect("the ledger runs")
}

/// Where line `index` of a rendered ledger sits: the name of the row it
/// belongs to and the dotted key path of its field within that row.
fn locate(lines: &[&str], index: usize) -> (String, String) {
    // Row fields sit at depth 3: document, "rows" array, row object.
    const ROW_DEPTH: usize = 3;
    let mut keys: Vec<String> = Vec::new();
    let mut row = String::from("-");
    for line in &lines[..=index] {
        let body = line.trim_start();
        let depth = (line.len() - body.len()) / 2;
        keys.truncate(depth);
        if let Some((key, value)) = body.strip_prefix('"').and_then(|b| b.split_once("\": ")) {
            keys.resize(depth, String::new());
            keys.push(key.to_string());
            if depth == ROW_DEPTH && key == "name" {
                row = value.trim_end_matches(',').trim_matches('"').to_string();
            }
        }
    }
    let field = keys.get(ROW_DEPTH..).unwrap_or_default().join(".");
    (row, field)
}

/// The value of the top-level [`TOOLCHAIN_KEY`] line, if `line` is it.
fn toolchain_in(line: &str) -> Option<&str> {
    line.strip_prefix("  \"")?
        .strip_prefix(TOOLCHAIN_KEY)?
        .strip_prefix("\": ")
        .map(|value| value.trim_end_matches(','))
}

/// The value of a rendered ledger's [`TOOLCHAIN_KEY`] line.
fn toolchain_of(ledger: &str) -> Option<&str> {
    ledger.lines().find_map(toolchain_in)
}

/// Compares a rendered ledger with the recorded one line by line: one
/// message per differing line (at most eight), each naming the row and the
/// field. Empty when they are byte-identical. When the two were rendered on
/// different toolchains, the toolchain line and the rows' allocation fields
/// are left out of the comparison.
fn compare(recorded: &str, current: &str) -> Vec<String> {
    let old: Vec<&str> = recorded.lines().collect();
    let new: Vec<&str> = current.lines().collect();
    let same_toolchain = toolchain_of(recorded) == toolchain_of(current);
    let mut mismatches = Vec::new();
    for i in 0..old.len().max(new.len()) {
        let (was, now) = (old.get(i), new.get(i));
        if was == now {
            continue;
        }
        let (row, field) = if i < new.len() {
            locate(&new, i)
        } else {
            locate(&old, i)
        };
        let toolchain_bound = ALLOCATION_KEYS.contains(&field.as_str())
            || [was, now]
                .into_iter()
                .flatten()
                .any(|l| toolchain_in(l).is_some());
        if !same_toolchain && toolchain_bound {
            continue;
        }
        mismatches.push(format!(
            "line {}: row {row}, field {field}: recorded `{}`, now `{}`",
            i + 1,
            was.map_or("<missing>", |l| l.trim()),
            now.map_or("<missing>", |l| l.trim()),
        ));
        if mismatches.len() == 8 {
            mismatches.push("...".to_string());
            break;
        }
    }
    mismatches
}

#[test]
fn the_ledger_matches_the_fixture() {
    let current = ledger();
    let mismatches = compare(FIXTURE, &current);
    assert!(
        mismatches.is_empty(),
        "the cost ledger moved; if the change means to move these counts, \
         re-record with `cargo test -q --test cost_ledger -- --ignored record` \
         and state the delta:\n{}",
        mismatches.join("\n")
    );
    let (recorded, running) = (toolchain_of(FIXTURE), toolchain_of(&current));
    if recorded != running {
        eprintln!(
            "cost ledger: allocation fields not compared (recorded on {}, running on {})",
            recorded.unwrap_or("null"),
            running.unwrap_or("null"),
        );
    }
}

/// A copy of a rendered ledger with `field` of its fourth row bumped by one.
fn bump(ledger: &str, field: &str) -> String {
    let prefix = format!("      \"{field}\": ");
    let mut lines: Vec<String> = ledger.lines().map(str::to_string).collect();
    let line = lines
        .iter_mut()
        .filter(|l| l.starts_with(&prefix))
        .nth(3)
        .unwrap_or_else(|| panic!("the ledger carries {field}"));
    let value: u64 = line[prefix.len()..].trim_end_matches(',').parse().unwrap();
    *line = format!("{prefix}{},", value + 1);
    lines.join("\n") + "\n"
}

#[test]
fn a_perturbed_row_fails_naming_the_row_and_the_field() {
    for field in ["messages_sent", "allocations"] {
        let mismatches = compare(FIXTURE, &bump(FIXTURE, field));
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        assert!(
            mismatches[0].contains(&format!("row paper-baseline/256, field {field}:")),
            "{mismatches:?}"
        );
    }
    // A field that appears inside the metrics section is named by its path.
    let perturbed = FIXTURE.replacen("\"enroll\": ", "\"enroll\": 1", 1);
    let mismatches = compare(FIXTURE, &perturbed);
    assert!(
        mismatches[0].contains("row paper-baseline, field metrics.counters.enroll:"),
        "{mismatches:?}"
    );
    assert!(compare(FIXTURE, FIXTURE).is_empty());
}

#[test]
fn another_toolchain_compares_every_field_but_the_allocations() {
    let key = format!("\"{TOOLCHAIN_KEY}\": \"");
    assert_eq!(
        FIXTURE.matches(&key).count(),
        1,
        "the fixture names its toolchain"
    );
    let elsewhere = FIXTURE.replacen(&key, &format!("{key}0.0.0 "), 1);
    assert!(compare(FIXTURE, &elsewhere).is_empty());
    for field in ALLOCATION_KEYS {
        assert!(compare(FIXTURE, &bump(&elsewhere, field)).is_empty());
    }
    let mismatches = compare(FIXTURE, &bump(&elsewhere, "messages_sent"));
    assert_eq!(mismatches.len(), 1, "{mismatches:?}");
    assert!(
        mismatches[0].contains("row paper-baseline/256, field messages_sent:"),
        "{mismatches:?}"
    );
}

/// Rewrites the fixture from the current code (only after a change that is
/// *meant* to move a count):
/// `cargo test -q --test cost_ledger -- --ignored record`.
#[test]
#[ignore = "rewrites tests/fixtures/cost_ledger.json"]
fn record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/cost_ledger.json"
    );
    assert!(
        toolchain().is_some(),
        "no rustc answers `rustc -vV`, so the allocation counts cannot name their toolchain"
    );
    std::fs::write(path, ledger()).unwrap();
}
