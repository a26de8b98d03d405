#!/usr/bin/env bash
# Builds the verify benchmark from the sources of the checkout it sits in
# and runs it. Run from the repository root, for example:
#
#   bash verifybench/run.sh --workload cold-verify --seed 1 --seconds 24 --trace 0
#
# Build outputs, the Go build cache, the Go toolchain's own config and
# telemetry files, and the artifact stores of a run all stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$out/verifybench" .)
exec "$out/verifybench" -dir "$out" "$@"
