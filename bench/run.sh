#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root:
#
#   bash bench/run.sh --workload web-sweep --seed 1 --seconds 15 --trace 0
#
# Every build product and Go cache goes under $CARGO_TARGET_DIR when it
# is set, else .bench_build, so nothing is written outside the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/internal || ! -f $root/bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, internal/ and bench/)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/bench" build -o "$out/tracer-bench" .
exec "$out/tracer-bench" "$@"
