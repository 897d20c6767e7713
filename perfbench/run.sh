#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through:
#
#   bash perfbench/run.sh --workload mine --seed 1 --seconds 12 --trace 0
#
# The build cache, temporary files and the binary go to .bench_build/ in
# the current directory, so a run reads and writes nothing outside it
# apart from the Go toolchain itself.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
