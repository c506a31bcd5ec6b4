#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload sync-bfs-grid --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced run's spans stay under
# .bench_build (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/core here)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$HOME"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/perfbench-spans" "$@"
