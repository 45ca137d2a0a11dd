#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything the go tool writes — build cache, temporary files, its
# configuration directory — is kept under .bench_build/, so a run reads and
# writes only inside the checkout. Without the repository around it (no
# go.mod) the script exits non-zero without a result and without starting
# anything.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the benchmark builds from the repository's source" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# The go command otherwise forks a detached telemetry child that outlives it
# (a fresh configuration directory has no daily upload token yet). Mode "off"
# stops the fork; GO_TELEMETRY_CHILD=2 is the toolchain's own "already under a
# telemetry child, start nothing" marker and covers a go that ignores the file.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= \
	GO_TELEMETRY_CHILD=2
go build -o "$build/fptree-benchmark" ./benchmark
exec "$build/fptree-benchmark" "$@"
