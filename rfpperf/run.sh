#!/usr/bin/env bash
# Builds the rfpperf benchmark from source and runs it:
#
#   bash rfpperf/run.sh --workload jakiro-fetch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traced
# spans and CPU profiles) stays under the build directory:
# $CARGO_TARGET_DIR if set, else .bench_build, relative to the repository
# root. The build needs the repository's own module one directory up; in a
# directory without it the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/rfpperf
mkdir -p "$out/home" "$out/trace"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
(cd "$root/rfpperf" && go build -trimpath -o "$out/rfpperf" .)
exec "$out/rfpperf" --out "$out/trace" "$@"
