#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash ebbench/run.sh --workload serve-steady --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, the toolchain's
# config and telemetry files, build outputs and the run's stores all
# stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off
bin="$out/ebbench"
(cd "$root/ebbench" && go build -o "$bin.tmp" .) >&2
mv -f "$bin.tmp" "$bin"
exec "$bin" "$@"
