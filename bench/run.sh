#!/usr/bin/env bash
# Builds bench/hhbench from this checkout and runs it with the given
# arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload msf-sram --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -runs 10 -o bench/results/set.json   # full set
#   bash bench/run.sh compare A.json B.json
#
# The Go build cache, the toolchain's own config (telemetry counters), the
# binary and every temporary file (journals, spools, trace files) stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
rm -rf "$build/tmp"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off XDG_CONFIG_HOME="$build/config"

(cd "$root/bench" && go build -o "$build/hhbench" ./hhbench)
exec "$build/hhbench" "$@"
