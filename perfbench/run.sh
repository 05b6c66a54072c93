#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Every build artefact, including the Go build cache, stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
