#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fleet-scale --seed 11 --seconds 20 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, module cache, temporaries, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" "$@"
