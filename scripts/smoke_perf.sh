#!/usr/bin/env bash
# Perf smoke: two exp_perf runs of the smallest tier must agree on every
# deterministic field (everything except wall_ms / events_per_sec), now
# including the per-workload metrics sections (latency/laxity histogram
# summaries). Used by CI and runnable locally from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${SMOKE_OUT_DIR:-.}"
cargo run --release --bin exp_perf -- --seed 7 --smoke --json "$out/perf-smoke.json"
cargo run --release --bin exp_perf -- --seed 7 --smoke --json "$out/perf-smoke-b.json"
grep -v -E 'wall_ms|events_per_sec' "$out/perf-smoke.json" > "$out/perf-smoke.det"
grep -v -E 'wall_ms|events_per_sec' "$out/perf-smoke-b.json" > "$out/perf-smoke-b.det"
cmp "$out/perf-smoke.det" "$out/perf-smoke-b.det"
# The v4 schema must actually carry the histogram summaries and the flows
# section, and without --soak the soak section renders as null.
grep -q '"schema": "rtds-exp-perf/4"' "$out/perf-smoke.json"
grep -q '"accept_latency": {' "$out/perf-smoke.json"
grep -q '"accept_laxity": {' "$out/perf-smoke.json"
grep -q '"flows": \[' "$out/perf-smoke.json"
grep -q '"soak": null' "$out/perf-smoke.json"

# Streaming soak smoke at a reduced budget: an uninterrupted run, a run
# through a checkpoint → write → resume cycle, and a standalone --resume
# from the written snapshot must all agree on every deterministic soak
# field. (checkpointed / requested_events record the path taken and
# peak_rss_kb is machine state, so those are stripped along with timings.)
soak_det='wall_ms|events_per_sec|peak_rss_kb|checkpointed|requested_events'
cargo run --release --bin exp_perf -- --seed 7 --smoke --soak 20000 \
  --json "$out/perf-soak-plain.json"
cargo run --release --bin exp_perf -- --seed 7 --smoke --soak 20000 \
  --checkpoint "$out/perf-soak.snapshot.json" --json "$out/perf-soak-ckpt.json"
cargo run --release --bin exp_perf -- --seed 7 --smoke \
  --resume "$out/perf-soak.snapshot.json" --json "$out/perf-soak-resume.json"
grep -q '"schema": "rtds-stream-snapshot/1"' "$out/perf-soak.snapshot.json"
for r in plain ckpt resume; do
  grep -v -E "$soak_det" "$out/perf-soak-$r.json" > "$out/perf-soak-$r.det"
done
cmp "$out/perf-soak-plain.det" "$out/perf-soak-ckpt.det"
cmp "$out/perf-soak-plain.det" "$out/perf-soak-resume.det"

# A snapshot file is untrusted input: a torn one and a pathologically nested
# one must be refused with a diagnostic and exit status 1 — not a panic
# (101) or a stack-overflow abort (134).
head -c "$(($(wc -c < "$out/perf-soak.snapshot.json") / 2))" \
  "$out/perf-soak.snapshot.json" > "$out/perf-soak-torn.json"
head -c 1000000 /dev/zero | tr '\0' '[' > "$out/perf-soak-nested.json"
for bad in torn nested; do
  status=0
  cargo run --release --bin exp_perf -- --seed 7 --smoke \
    --resume "$out/perf-soak-$bad.json" 2> "$out/perf-soak-$bad.err" || status=$?
  test "$status" -eq 1
  grep -q -E 'snapshot|JSON parse error' "$out/perf-soak-$bad.err"
done
echo "perf smoke OK: deterministic fields (incl. metrics) are byte-identical"
echo "soak smoke OK: checkpoint -> resume reproduces the uninterrupted run;"
echo "               torn and 1,000,000-deep snapshots are refused with exit 1"
