#!/usr/bin/env bash
# Builds seqavfd and the benchmark from this tree, then runs the
# benchmark. Run from the repository root:
#
#   bash seqavfbench/run.sh --workload sweep_summary --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache live under .bench_build in the
# repository root.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go build -o "$out/seqavfd" ./cmd/seqavfd
(cd "$bench" && go build -o "$out/seqavfbench" .)
exec "$out/seqavfbench" --root "$root" "$@"
