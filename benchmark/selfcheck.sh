#!/usr/bin/env bash
# Two sets of N untraced runs of the same build, compared with the bounds of
# BENCHMARK.json. Exits non-zero when any metric reads *worse* or a gated
# metric is *unresolved*: the benchmark must agree with itself before it
# can judge a change.
#
#   benchmark/selfcheck.sh [N] [--smoke]
#
# N defaults to 5. --smoke runs a tenth of the op counts for one second per
# workload: a wiring check for CI, too short to judge timings.
set -euo pipefail
cd "$(dirname "$0")/.."

n=5
extra=()
for arg in "$@"; do
  case "$arg" in
    --smoke) extra=(--smoke --seconds 1) ;;
    *) n="$arg" ;;
  esac
done

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
"${bench[@]}" run --repeat "$n" --seed 1 --out benchmark/out/selfcheck_a.json "${extra[@]}"
"${bench[@]}" run --repeat "$n" --seed 1 --out benchmark/out/selfcheck_b.json "${extra[@]}"
if [ "${#extra[@]}" -gt 0 ]; then
  # Smoke timings are not judged; both sets ran and every output was right.
  "${bench[@]}" compare benchmark/out/selfcheck_a.json benchmark/out/selfcheck_b.json || true
else
  "${bench[@]}" compare benchmark/out/selfcheck_a.json benchmark/out/selfcheck_b.json --fail-on-unresolved
fi
