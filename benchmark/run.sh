#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, for
# example:
#
#   bash benchmark/run.sh --workload sweep-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write (binary, Go build cache, temporary trace stores) stays under
# .bench_build in that directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd benchmark && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" "$@"
