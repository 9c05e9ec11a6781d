#!/usr/bin/env bash
# Builds pvserve and the perfbench load generator from this checkout, then
# runs one benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ (build
# cache, binaries, cache directories, span files).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
# The go command starts a detached telemetry process that outlives it
# unless telemetry is off in its config directory; switch it off so the
# benchmark leaves nothing running.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/pvserve" ./cmd/pvserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --pvserve "$out/bin/pvserve" --workdir "$out" "$@"
