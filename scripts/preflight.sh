#!/usr/bin/env bash
# Pre-submit gate for the benchmark of record (ROADMAP 9a): does what the
# driver does to a PR, before the driver does it.
#
#   bash scripts/preflight.sh [SECONDS]      # default 20, the contract's
#
# Clones HEAD into a fresh directory (no `target/` carried over, so what
# is tested is what is committed), then there:
#   1. refuses a `[profile.release]` section in the root Cargo.toml;
#   2. runs the benchmark's own harness tests;
#   3. runs the 16 contract commands (4 workloads x seeds 1,2 x trace 0,1)
#      and requires every last stdout line to say `"correct": true` and
#      every printed `outcome_digest` to equal scripts/stackbench_digests.txt
#      (`workload seed trace digest`; traced runs use smaller sizes, so
#      their digests differ from the measured runs');
#   4. requires `benchmark/` and BENCHMARK.json to be left untouched.
# Lists every failure, then exits non-zero if there was any.
# Uncommitted changes are NOT tested: commit first.
set -euo pipefail

seconds="${1:-20}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
head="$(git -C "$root" rev-parse HEAD)"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git clone --quiet "$root" "$work/repo"
cd "$work/repo"
git checkout --quiet --detach "$head"
unset CARGO_TARGET_DIR

failures=0
fail() {
    echo "preflight: FAIL $*" >&2
    failures=$((failures + 1))
}

if grep -q '^\[profile\.release' Cargo.toml; then
    fail "root Cargo.toml has a [profile.release] section (the benchmark's start-up guard rejects it)"
fi

echo "preflight: $head in $work/repo, --seconds $seconds"
cargo test --offline --locked -q --manifest-path benchmark/Cargo.toml || fail "benchmark harness tests"

while read -r workload seed trace expected; do
    out="$(bash benchmark/bench.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" 2>"$work/stderr" </dev/null)" || true
    run="$workload seed $seed trace $trace"
    if ! tail -n 1 <<<"$out" | grep -qF '"correct": true'; then
        fail "$run: last stdout line lacks \"correct\": true"
        tail -n 5 "$work/stderr" >&2
    fi
    digest="$(sed -n 's/.*outcome_digest \([0-9a-f]\{16\}\).*/\1/p' <<<"$out" | head -n 1)"
    if [ "$digest" = "$expected" ]; then
        echo "preflight: ok   $run $digest"
    else
        fail "$run: outcome_digest ${digest:-<none>} != committed $expected"
    fi
done <scripts/stackbench_digests.txt

if [ "$(wc -l <scripts/stackbench_digests.txt)" -ne 16 ]; then
    fail "scripts/stackbench_digests.txt must list the 16 contract runs"
fi
dirty="$(git status --porcelain benchmark/ BENCHMARK.json)"
if [ -n "$dirty" ]; then
    fail "the runs left benchmark/ or BENCHMARK.json modified:"
    echo "$dirty" >&2
fi

if [ "$failures" -ne 0 ]; then
    echo "preflight: $failures failure(s)" >&2
    exit 1
fi
echo "preflight: all 16 contract runs correct, digests unchanged, benchmark/ untouched"
