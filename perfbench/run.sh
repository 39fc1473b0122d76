#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the repository
# root): the Go build cache, temp files, the store directories of the
# store-restart workload and the span dumps of traced runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off

# The benchmark is its own module; it needs the repository's module one
# directory up. Without it the build fails and no result is printed.
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

# One workload per process, pinned to one P: the closed loop has one
# client, and a single P removes scheduler and steal noise between P's.
GOMAXPROCS=1 exec "$build/perfbench" --out "$build" "$@"
