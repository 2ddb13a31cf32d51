#!/usr/bin/env bash
# Builds simqd and the benchmark from the checkout it is run in, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/simqd" ] || [ ! -d "$root/internal/query" ]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod, cmd/simqd or internal/query)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -o "$out/bin/simqd" ./cmd/simqd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
