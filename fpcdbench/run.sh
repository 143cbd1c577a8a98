#!/bin/sh
# Builds the fpcd loopback benchmark from the sources of the checkout it is
# run from and runs it with the given arguments. Run it from the root of
# the checkout:
#
#	sh fpcdbench/run.sh --workload corpus-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary, and the traced runs' spans.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOPROXY=off GOWORK=off GOENV=off GOTOOLCHAIN=local
(cd "$root/fpcdbench" && go build -o "$out/fpcdbench" .) >&2
exec "$out/fpcdbench" "$@"
