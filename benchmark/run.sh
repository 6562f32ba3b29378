#!/usr/bin/env bash
# Builds the parimg benchmark from source and runs it with the given flags,
# from the repository root:
#
#   bash benchmark/run.sh --workload resident --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go's build cache, the binary,
# generated inputs, results, trace.json) stays under .bench_build/ in the
# current directory. Outside a full checkout the build fails, so the script
# exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/parimg-bench" .)
exec "$out/parimg-bench" "$@"
