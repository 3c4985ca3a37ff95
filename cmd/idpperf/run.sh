#!/usr/bin/env bash
# Builds idpperf from the source of the checkout this script lives in,
# then runs it with the given flags, e.g.
#
#   bash cmd/idpperf/run.sh --workload figs --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files all
# stay under .bench_build/ at the root of the checkout, and the module
# proxy is off: the build needs only the Go toolchain and the source.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOMODCACHE="$out/go-path/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

go -C "$root/cmd/idpperf" build -buildvcs=false -o "$out/idpperf" .
exec "$out/idpperf" --workdir "$out/idpperf-work" "$@"
