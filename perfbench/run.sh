#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh all --seed 1
#   bash perfbench/run.sh steady --runs 10
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -f "$root/request.go" ]]; then
	echo "perfbench: run from the repository root; the streach sources are not here" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
