#!/usr/bin/env bash
# Builds and runs flowrel's end-to-end benchmark (perfbench/README.md).
# Run from the repository root:
#
#   bash perfbench/run.sh --workload oneshot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the benchmark
# binary and the relcalcd binary the service workload builds.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/flowrelbench" ./cmd/flowrelbench)
exec "$build/flowrelbench" -root "$root" -work .bench_build "$@"
