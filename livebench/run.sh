#!/usr/bin/env bash
# Builds the live-engine benchmark from this checkout's sources and runs it.
# Usage: bash livebench/run.sh --workload maze|arena|fleet --seed N --seconds S --trace 0|1
# Every build artifact (binary, Go build cache and temp dirs, Go config)
# stays under the checkout's .bench_build directory (or $CARGO_TARGET_DIR
# when set), and no module download is ever attempted.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTELEMETRY=off
export GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

go -C "$root/livebench" build -o "$build/livebench" .
exec "$build/livebench" --spans "$build/spans" "$@"
