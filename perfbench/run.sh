#!/usr/bin/env bash
# Builds cmd/ccserved and the benchmark from the checkout's sources, then
# runs one benchmark invocation.  Run from the repository root:
#
#   bash perfbench/run.sh --workload large --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ccserved" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ccserved and perfbench/ are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# With telemetry on (the default, "local"), the go command starts a detached
# sidecar process that can outlive this script; turning it off keeps the go
# command to the build alone.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/ccserved" ./cmd/ccserved
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -ccserved "$out/bin/ccserved" -work "$out/work" "$@"
