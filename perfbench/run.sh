#!/usr/bin/env bash
# Builds the placement daemon and the benchmark program from the source
# checkout, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload paper-serve --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the span dumps stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/interfd" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/interfd in $root)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go build -o "$build/bin/interfd" ./cmd/interfd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
