#!/usr/bin/env bash
# Builds perfbench and the cloudscoped daemon from this checkout's
# sources, then runs perfbench with the given arguments. Every build
# artifact, cache and temporary file stays under .bench_build/ at the
# checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$out/cloudscoped" ./cmd/cloudscoped
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/cloudscoped" "$@"
