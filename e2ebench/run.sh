#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload relay-1k --seed 1 --seconds 15 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files, Go telemetry
# and env state) stays under .bench_build at the root of the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$bench_dir/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$bench_dir" && go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"
