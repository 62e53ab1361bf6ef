#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources with the committed PGO
# profile and runs it. Everything the build writes stays in the checkout:
# the binary, the Go build cache and its temporary files go under
# .bench_build (or $CARGO_TARGET_DIR when set).
#
#   bash perfbench/run.sh --workload engine-heavy --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
pgo=off
if [ -f "$root/default.pgo" ]; then pgo="$root/default.pgo"; fi
(cd perfbench && go build -pgo="$pgo" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
