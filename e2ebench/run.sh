#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# one workload:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build cache and the binary live in .bench_build/ at the repository
# root, so the benchmark reads and writes nothing outside the checkout. A
# tree without the simulator's sources (../go.mod) fails the build, and
# the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-buildvcs=false
# Every workload is one process on two CPUs: load comes from at most two
# workers or connections inside it.
export GOMAXPROCS=2

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
