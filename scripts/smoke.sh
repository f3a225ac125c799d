#!/usr/bin/env bash
# Experiment smoke checks: each drives `rtds-exp <experiment>` end to end and
# pins what its report promises (byte-identical re-runs, schema markers,
# rejection of bad input). Used by CI, one step per check, and runnable
# locally from anywhere:
#
#   scripts/smoke.sh <scenarios|perf|workloads|trace|flow|sched|all>
#
# Reports land in $SMOKE_OUT_DIR (default: the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${SMOKE_OUT_DIR:-.}"

# check name | what a pass proves
table='
scenarios|sweep report is thread-count invariant
perf|reports (incl. metrics) are byte-identical; checkpoint -> resume reproduces the uninterrupted soak; torn and 1,000,000-deep snapshots are refused with exit 1
workloads|record/replay round-trip is byte-identical
trace|same-seed traces are byte-identical and exports are well-formed
flow|report is byte-identical and incast transfers really contend
sched|report is byte-identical and no scheduler missed a deadline
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

smoke_perf() {
    # Two runs of the smallest tier are byte-identical: the report has no
    # clock-dependent field (its timing keys always render null).
    local r
    for r in perf-smoke perf-smoke-b; do
        run perf --seed 7 --smoke --json "$out/$r.json"
    done
    cmp "$out/perf-smoke.json" "$out/perf-smoke-b.json"
    # The v4 schema must actually carry the histogram summaries and the
    # flows section, and without --soak the soak section renders as null.
    has "$out/perf-smoke.json" '"schema": "rtds-exp-perf/4"' '"accept_latency": {' \
        '"accept_laxity": {' '"flows": [' '"soak": null'

    # Streaming soak at a reduced budget: an uninterrupted run, a run
    # through a checkpoint -> write -> resume cycle, and a standalone
    # --resume from the written snapshot must all agree on every
    # soak field but the two that record the path taken.
    local soak_det='checkpointed|requested_events'
    run perf --seed 7 --smoke --soak 20000 --json "$out/perf-soak-plain.json"
    run perf --seed 7 --smoke --soak 20000 \
        --checkpoint "$out/perf-soak.snapshot.json" --json "$out/perf-soak-ckpt.json"
    run perf --seed 7 --smoke \
        --resume "$out/perf-soak.snapshot.json" --json "$out/perf-soak-resume.json"
    has "$out/perf-soak.snapshot.json" '"schema": "rtds-stream-snapshot/1"'
    for r in plain ckpt resume; do
        grep -v -E "$soak_det" "$out/perf-soak-$r.json" > "$out/perf-soak-$r.det"
    done
    cmp "$out/perf-soak-plain.det" "$out/perf-soak-ckpt.det"
    cmp "$out/perf-soak-plain.det" "$out/perf-soak-resume.det"

    # A snapshot file is untrusted input: a torn one and a pathologically
    # nested one must be refused with a diagnostic and exit status 1 — not a
    # panic (101) or a stack-overflow abort (134).
    head -c "$(($(wc -c < "$out/perf-soak.snapshot.json") / 2))" \
        "$out/perf-soak.snapshot.json" > "$out/perf-soak-torn.json"
    head -c 1000000 /dev/zero | tr '\0' '[' > "$out/perf-soak-nested.json"
    local bad status
    for bad in torn nested; do
        status=0
        run perf --seed 7 --smoke --resume "$out/perf-soak-$bad.json" \
            2> "$out/perf-soak-$bad.err" || status=$?
        test "$status" -eq 1
        grep -q -E 'snapshot|JSON parse error' "$out/perf-soak-$bad.err"
    done
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
    # rtds-exp-flows/1 carries no timing fields at all, and the incast-storm
    # contention tripwire must hold: p99 transfer time strictly above the
    # uncontended bound max(volume)/min(bandwidth), proving transfers share
    # link bandwidth instead of each enjoying full capacity.
    run flows --seed 1 --seeds 2 --json "$out/flow-smoke.json" --assert-contention
    run flows --seed 1 --seeds 2 --json "$out/flow-smoke-b.json"
    cmp "$out/flow-smoke.json" "$out/flow-smoke-b.json"
    has "$out/flow-smoke.json" '"schema": "rtds-exp-flows/1"' '"name": "incast-storm"' \
        '"contended": true'
    # A single-scenario run exercises the --scenario filter.
    run flows --scenario incast-storm --seed 1 --seeds 2 \
        --json "$out/flow-smoke-incast.json" --assert-contention
}

smoke_sched() {
    # rtds-exp-sched/1 carries no timing fields; the experiment exits nonzero if
    # any scheduler variant misses a deadline, and hetero-multicore must be
    # present so the comparison covers the non-degenerate resource model.
    run sched --seed 1 --seeds 2 --json "$out/sched-smoke.json"
    run sched --seed 1 --seeds 2 --json "$out/sched-smoke-b.json"
    cmp "$out/sched-smoke.json" "$out/sched-smoke-b.json"
    has "$out/sched-smoke.json" '"schema": "rtds-exp-sched/1"' '"scheduler": "protocol"' \
        '"scheduler": "heft"' '"scheduler": "lookahead"' '"name": "hetero-multicore"'
    # A single-scenario run exercises the --scenario filter on the one
    # scenario with a non-degenerate resource recipe.
    run sched --scenario hetero-multicore --seed 1 --seeds 2 \
        --json "$out/sched-smoke-hetero.json"
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
