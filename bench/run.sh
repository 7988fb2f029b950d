#!/bin/sh
# Build the benchmark from source and run it from the repository root.
#
#   bench/run.sh --workload cooled-sweep --seed 1 --seconds 28 --trace 0
#   bench/run.sh compare BASE_DIR CHANGE_DIR
#
# The binaries, the Go build cache, the toolchain's user configuration
# (and the telemetry counters it keeps there) and every temporary file
# stay under .bench_build/ in the repository root; a run removes its own
# scratch directory when it ends.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "$root"
if [ "${1:-}" = compare ]; then
	shift
	go -C "$here" build -o "$out/compare" ./compare
	exec "$out/compare" "$@"
fi
go -C "$here" build -o "$out/bench" .
exec "$out/bench" "$@"
