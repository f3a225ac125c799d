#!/bin/sh
# Two sets of runs of the same code must agree within the benchmark's own
# bounds: runs the suite twice (seed $1, default 7) and compares the two
# results files in both directions. Exits non-zero on any `regressed` row:
# host-time metrics outside their bound, or any exact-repeat metric or
# sim_digest that differs.
set -eu
cd "$(dirname "$0")/.."
seed="${1:-7}"
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench --seed "$seed" --out benchmark/out/selfcheck-a.json >/dev/null
bench --seed "$seed" --out benchmark/out/selfcheck-b.json >/dev/null
bench --compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json
bench --compare benchmark/out/selfcheck-b.json benchmark/out/selfcheck-a.json >/dev/null
echo "selfcheck: seed $seed agrees with itself"
