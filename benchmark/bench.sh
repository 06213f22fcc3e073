#!/usr/bin/env bash
# The command of /BENCHMARK.json: builds the benchmark (a no-op once
# built), then runs ONE workload ONCE and prints the result line last.
#
#   bash benchmark/bench.sh --workload calm --seed 1 --seconds 20 --trace 0
#
# --trace 0 runs `stackbench` (system allocator, tracing off);
# --trace 1 runs `stackbench-traced` (counting allocator, wrapped nodes).
# Start it from the repository root. Honors CARGO_TARGET_DIR.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

binary=stackbench
previous=""
for arg in "$@"; do
    if [ "$previous" = "--trace" ] && [ "$arg" = "1" ]; then
        binary=stackbench-traced
    fi
    previous="$arg"
done

exec "$target/release/$binary" "$@"
