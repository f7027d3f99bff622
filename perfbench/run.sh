#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload juliet --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
