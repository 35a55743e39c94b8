#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# arguments given. It is started from the root of the checkout; all it
# writes — Go's build cache included — stays under the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its own state
go build -C "$root/benchmark" -o "$build/pmlsh-benchmark" .
exec "$build/pmlsh-benchmark" "$@"
