#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it reads
# and writes (build cache, binary, work directories) under .bench_build in the
# checkout. Run from the root of the checkout:
#
#   bash bench/run.sh --workload kv-write --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/work"
# Go's own state stays in the checkout too: build cache, module path, telemetry.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/siasbench" .) >&2
cd "$root"
exec "$build/siasbench" -dir "$build/work" "$@"
