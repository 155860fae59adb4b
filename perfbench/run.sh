#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload warm-serve --seed 7 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and the bulk-job scratch files all stay under
# .bench_build at the root of the tree. Without the repository's
# sources next to perfbench/ the build fails and nothing is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out/work" "$@"
