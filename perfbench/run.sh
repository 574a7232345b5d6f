#!/usr/bin/env bash
# Builds the sqod serving benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-large-read --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary stores
# all live under .bench_build/perfbench in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/config" "$out/tmp"

# Keep every file the go command writes, telemetry counters included,
# inside the checkout, and never reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
