#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Run it from the repository root, for example:
#
#   bash qbench/run.sh --workload serve_mix --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the span trace all go under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail
root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOENV=off
go -C "$root/qbench" build -o "$build/qbench" .
exec "$build/qbench" --out-dir "$build" "$@"
