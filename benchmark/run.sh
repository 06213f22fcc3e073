#!/usr/bin/env bash
# Everything in one go: build, the measured suite (`run`: every workload
# x REPS child processes, one table, benchmark/results/latest.json), the
# traced suite (`trace`: per-layer table, benchmark/results/trace-*.json).
# Prints the total elapsed time and fails if it is over the share of the
# acceptance driver's cap these runs may use (3420 s for its 92 runs).
#
#   bash benchmark/run.sh            # seed 1, 3 repetitions
#   SEED=2 REPS=5 bash benchmark/run.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
seed="${SEED:-1}"
reps="${REPS:-3}"
workloads=4
cap=$(( 3420 * (reps * workloads + workloads) / 92 ))

started=$(date +%s)
cargo build --release --offline --manifest-path "$here/Cargo.toml"
status=0
"$target/release/stackbench" run --seed "$seed" --reps "$reps" || status=$?
"$target/release/stackbench-traced" trace --seed "$seed" || status=$?
elapsed=$(( $(date +%s) - started ))

echo "total elapsed: ${elapsed} s (cap ${cap} s for $(( reps * workloads + workloads )) runs)"
if [ "$elapsed" -gt "$cap" ]; then
    echo "over the time cap" >&2
    exit 1
fi
exit "$status"
