#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Run from the root of the repository; see README.md.
set -euo pipefail

root=$PWD
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/bench/e2e/go.mod" ]; then
	echo "run.sh: run from the root of the repository" >&2
	exit 2
fi

# Everything the build and the run leave behind stays under .bench_build.
build=$root/.bench_build/e2e
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C bench/e2e -o "$build/bin/e2e" .
exec "$build/bin/e2e" "$@"
