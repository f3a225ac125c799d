#!/usr/bin/env bash
# Experiment smoke checks: each drives `rtds-exp <experiment>` end to end and
# pins what its report promises (byte-identical re-runs, schema markers,
# rejection of bad input). Used by CI, one step per check, and runnable
# locally from anywhere:
#
#   scripts/smoke.sh <scenarios|workloads|trace|flow|sched|experiments|examples|all>
#
# Reports land in $SMOKE_OUT_DIR (default: the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${SMOKE_OUT_DIR:-.}"

# check name | what a pass proves
table='
scenarios|sweep report is thread-count invariant
workloads|record/replay round-trip is byte-identical
trace|same-seed traces are byte-identical and exports are well-formed
flow|report is byte-identical and incast transfers really contend
sched|report is byte-identical and no scheduler missed a deadline
experiments|E1-E5 sweep 16 seeds each with no deadline miss
examples|every example runs to completion and passes its own asserts
'

run() { # <experiment> <args...>
    cargo run --release --bin rtds-exp -- "$@"
}

has() { # <file> <fixed string>... — every string occurs in the file
    local file=$1 text
    shift
    for text in "$@"; do
        grep -q -F -- "$text" "$file"
    done
}

# Registry listing plus one seeded fault-injection sweep, re-run on two
# worker threads.
smoke_scenarios() {
    run scenarios --list
    run scenarios --scenario lossy-messages --seed 1 --seeds 2 \
        --json "$out/scenario-smoke.json"
    run scenarios --scenario lossy-messages --seed 1 --seeds 2 --threads 2 \
        --json "$out/scenario-smoke-t2.json"
    cmp "$out/scenario-smoke.json" "$out/scenario-smoke-t2.json"
}

smoke_workloads() {
    # A streaming run recorded to a JSONL trace replays to the same report
    # (including the metrics section); the diurnal process runs clean.
    run workloads --seed 3 --jobs 500 --rate 0.4 --sites 16 \
        --record "$out/workload-smoke.jsonl" --json "$out/workload-live.json"
    run workloads --replay "$out/workload-smoke.jsonl" --json "$out/workload-replay.json"
    cmp "$out/workload-live.json" "$out/workload-replay.json"
    run workloads --seed 3 --jobs 300 --rate 0.4 --sites 16 --process diurnal \
        --json "$out/workload-diurnal.json"
    # A trace whose header disagrees with the topology it claims must be
    # rejected with a clear message, not an engine assertion.
    sed 's/"sites":16/"sites":17/' "$out/workload-smoke.jsonl" > "$out/workload-bad-sites.jsonl"
    if run workloads --replay "$out/workload-bad-sites.jsonl" \
        2> "$out/workload-bad-sites.err"; then
        echo "expected the tampered trace to be rejected" >&2
        exit 1
    fi
    has "$out/workload-bad-sites.err" 'square grids'
}

smoke_trace() {
    # Recording the same scenario cell twice gives the same rtds-trace/1
    # JSONL (span ids are derived, not allocated); the Chrome export is
    # well-formed.
    run scenarios --scenario paper-baseline --seeds 1 \
        --trace-out "$out/trace-smoke-a.jsonl" --chrome-trace "$out/trace-smoke.chrome.json"
    run scenarios --scenario paper-baseline --seeds 1 --trace-out "$out/trace-smoke-b.jsonl"
    cmp "$out/trace-smoke-a.jsonl" "$out/trace-smoke-b.jsonl"
    head -1 "$out/trace-smoke-a.jsonl" | grep -q '"schema":"rtds-trace/1"'
    has "$out/trace-smoke.chrome.json" '"traceEvents"'
    # The bounded flight recorder must overflow on a real run and say so.
    run workloads --seed 3 --jobs 500 --rate 0.4 --sites 16 --trace-ring 128 \
        > "$out/trace-smoke-ring.txt"
    has "$out/trace-smoke-ring.txt" 'dropped'
    # Streaming and Chrome export compose with the Fig. 1 walkthrough too.
    run fig1 --trace-out "$out/trace-smoke-fig1.jsonl" \
        --chrome-trace "$out/trace-smoke-fig1.chrome.json" > /dev/null
    has "$out/trace-smoke-fig1.jsonl" '"kind":"acs-enroll"'
}

smoke_flow() {
    # The sweep report carries no timing fields at all, and the incast-storm
    # contention tripwire must hold: p99 transfer time strictly above the
    # uncontended bound max(volume)/min(bandwidth), proving transfers share
    # link bandwidth instead of each enjoying full capacity.
    run flows --seed 1 --seeds 2 --json "$out/flow-smoke.json" --assert-contention
    run flows --seed 1 --seeds 2 --json "$out/flow-smoke-b.json"
    cmp "$out/flow-smoke.json" "$out/flow-smoke-b.json"
    has "$out/flow-smoke.json" '"seeds": [' '"name": "incast-storm"'
    # A single-scenario run exercises the --scenario filter.
    run flows --scenario incast-storm --seed 1 --seeds 2 \
        --json "$out/flow-smoke-incast.json" --assert-contention
}

smoke_sched() {
    # The sweep report carries no timing fields; the experiment exits nonzero
    # if any scheduler variant misses a deadline, and hetero-multicore's HEFT
    # row must be present so the comparison covers the non-degenerate
    # resource model.
    run sched --seed 1 --seeds 2 --json "$out/sched-smoke.json"
    run sched --seed 1 --seeds 2 --json "$out/sched-smoke-b.json"
    cmp "$out/sched-smoke.json" "$out/sched-smoke-b.json"
    has "$out/sched-smoke.json" '"seeds": [' '"name": "paper-baseline/protocol"' \
        '"name": "hetero-multicore/heft"'
    # A single-scenario run exercises the --scenario filter on the one
    # scenario with a non-degenerate resource recipe.
    run sched --scenario hetero-multicore --seed 1 --seeds 2 \
        --json "$out/sched-smoke-hetero.json"
}

smoke_experiments() {
    # E1-E5 at their default flags: each sweeps its rows over 16 seeds,
    # writes the scenario sweep's report and exits nonzero on a deadline
    # miss, which fails the check.
    local experiment
    for experiment in acceptance overhead radius laxity ablation; do
        run "$experiment" --json "$out/experiment-smoke-$experiment.json"
        has "$out/experiment-smoke-$experiment.json" '"seeds": [' '"scenarios": ['
    done
}

smoke_examples() {
    # `cargo test` only builds the examples; this runs each one. Every
    # example asserts what it demonstrates (paper values, zero misses,
    # replay identity), so an assert that fires fails the check.
    local example
    for example in examples/*.rs; do
        example=$(basename "$example" .rs)
        cargo run --release --example "$example" > "$out/example-smoke-$example.txt"
    done
}

names=$(printf '%s' "$table" | cut -d'|' -f1 | grep .)
case "${1:-}" in
    all) selected=$names ;;
    *)
        selected=$(printf '%s\n' "$names" | grep -x -F -- "${1:-}") || {
            echo "usage: $0 <$(echo $names | tr ' ' '|')|all>" >&2
            exit 2
        }
        ;;
esac
for name in $selected; do
    "smoke_$name"
    echo "$name smoke OK: $(printf '%s' "$table" | grep "^$name|" | cut -d'|' -f2)"
done
