#!/usr/bin/env bash
# Builds the drbench binary from source and runs one workload.
# Run from the repository root: bash drbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache, Go's temporary and config files and the
# span dumps all stay under .bench_build/ (or $CARGO_TARGET_DIR).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTELEMETRY=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/drbench" && go build -o "$out/drbench" .) >&2
cd "$root"
exec "$out/drbench" --spans "$out" "$@"
