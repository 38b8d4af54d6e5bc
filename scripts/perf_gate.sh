#!/usr/bin/env bash
# The performance gate: the end-to-end benchmark on this checkout against
# its merge base with BASE_REF, on one host.
#
#   scripts/perf_gate.sh BASE_REF
#
# The merge base is checked out in a temporary git worktree.  Three pairs
# of all-workload `benchmarks/e2e/run.py` invocations follow, alternating
# which side goes first; each side runs its own checkout's run.py, which
# builds that checkout's compiled kernel.  This checkout's compare.py then
# judges the pairs under BENCHMARK.json's bounds, and its exit code is the
# gate's: 1 on any "regression" verdict or when this checkout failed more
# operations than the base, 2 when the reports are not comparable.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 BASE_REF" >&2; exit 64; }

head=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_rev=$(git -C "$head" merge-base HEAD "$1")
work=$(mktemp -d)
trap 'git -C "$head" worktree remove --force "$work/base" || true; rm -rf "$work"' EXIT
git -C "$head" worktree add --quiet --detach "$work/base" "$base_rev"
echo "perf gate: $head against merge base $base_rev"

for pair in 1 2 3; do
    sides="base head"; [ $((pair % 2)) -eq 0 ] && sides="head base"
    for side in $sides; do
        checkout=$head; [ "$side" = base ] && checkout=$work/base
        echo "== pair $pair: $side"
        # run.py exits 1 on a failed operation and still writes its report,
        # whose failures compare.py counts; no report means no verdict
        python3 "$checkout/benchmarks/e2e/run.py" --out "$work/$side-$pair.json" \
            || [ -f "$work/$side-$pair.json" ]
    done
done

python3 "$head/benchmarks/e2e/compare.py" \
    --parent "$work"/base-{1,2,3}.json --change "$work"/head-{1,2,3}.json
