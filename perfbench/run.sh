#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The build cache, the binary, the
# stores and the span files all stay under .bench_build in the current
# directory; without the repository's go.mod beside perfbench the build
# fails and no result is printed.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
