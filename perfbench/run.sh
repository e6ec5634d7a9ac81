#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (see perfbench/doc.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-large --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, temporary files and every other file the
# toolchain writes stay under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off CGO_ENABLED=0
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec env PERFBENCH_COMMIT="$commit" "$out/perfbench" "$@"
