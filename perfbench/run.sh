#!/usr/bin/env bash
# Builds reachsim and the benchmark binary inside the checkout, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload eval --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" ./cmd/perfbench
go -C perfbench build -o "$out/reachsim" repro/cmd/reachsim

# Go-style single-dash flags accept the double-dash spelling as well.
exec "$out/perfbench" "$@"
