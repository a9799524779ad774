#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout (compiler cache included, so nothing outside it is written)
# and runs it with the arguments given.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
