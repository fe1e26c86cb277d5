#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash simbench/run.sh --workload day-replay --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, profiles) stays in
# the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/simbench" .)

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit="$commit+dirty"
fi
export SIMBENCH_COMMIT=$commit CARGO_TARGET_DIR=$build PPROF_TMPDIR=$build
exec "$build/simbench" "$@"
