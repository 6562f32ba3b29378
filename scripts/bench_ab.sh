#!/usr/bin/env bash
# Same-runner A/B perf gate, used by `make bench-ab` and the CI bench-ab
# job. It measures the benchmark's four workloads (benchmark/README.md) on
# a base commit and on the working tree, on this machine, and judges the
# change with the benchmark's own rule:
#
#   scripts/bench_ab.sh BASE      # BASE: any commit, e.g. HEAD or origin/main
#
#   1. check BASE out as a detached git worktree in a temporary directory
#      (removed on exit),
#   2. run PAIRS pairs of untraced passes of every workload, alternating
#      which side goes first; each side runs benchmark/run.sh from its own
#      tree, so each side's harness is built against its own code,
#   3. stop at the first pass that exits non-zero: the harness exits 1
#      when an output misses its oracle or a workload fails,
#   4. compare the two results files with `benchmark/run.sh -compare` from
#      the working tree and exit with its status: 1 on any REGRESSED cell.
#      A metric whose spread exceeds its bound on either side reads
#      "unresolved" and does not fail the gate.
#
# The seed, the pass length and the pair count are fixed here, so every
# run of the gate measures the same thing. Both results files and the
# comparison table are left in .bench_build/ab/.
set -euo pipefail

readonly SEED=1 PASS_SECONDS=2 PAIRS=3

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench_ab.sh BASE" >&2
    exit 2
fi
root="$(git rev-parse --show-toplevel)"
cd "$root"
out="$root/.bench_build/ab"
rm -rf "$out"
mkdir -p "$out"

base_tree="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$base_tree" 2>/dev/null ||
        { rm -rf "$base_tree"; git worktree prune; }
}
trap cleanup EXIT
git worktree add --quiet --detach "$base_tree" "$1"

# pass SIDE TREE runs one untraced pass of every workload from TREE and
# appends its records to $out/SIDE.jsonl.
pass() {
    echo "bench-ab: $1 pass (pair $pair of $PAIRS)"
    if ! (cd "$2" && bash benchmark/run.sh --seed "$SEED" --seconds "$PASS_SECONDS" \
        --trace 0 --results "$out/$1.jsonl"); then
        echo "bench-ab: the $1 pass failed (an output missed its oracle or a workload did not run)" >&2
        exit 1
    fi
}

for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then
        pass base "$base_tree"
        pass change "$root"
    else
        pass change "$root"
        pass base "$base_tree"
    fi
done

echo "bench-ab: base $(git -C "$base_tree" rev-parse --short HEAD) against the working tree"
bash benchmark/run.sh -compare "$out/base.jsonl" "$out/change.jsonl" | tee "$out/compare.txt"
