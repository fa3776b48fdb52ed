#!/usr/bin/env bash
# Builds the benchmark and emserve from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash emviabench/run.sh --workload table2|grid_ir_mc|serve_mix --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Everything the build and the runs write
# stays under .bench_build/ there: the Go build cache, the Go tool's
# configuration and telemetry directory, and its temporary files.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/emviabench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
	cd "$root/emviabench"
	go build -o "$out/emviabench" .
	go build -o "$out/emserve" emvia/cmd/emserve
) >&2
exec "$out/emviabench" --emserve "$out/emserve" --out "$out" "$@"
