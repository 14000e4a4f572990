#!/bin/sh
# Entry point of the benchmark (BENCHMARK.json "command"): builds the
# benchmark program from this checkout and runs it with the arguments
# given. Everything the build and the run write stays inside the
# checkout: the Go build cache under .bench_build/, logs, traces and
# data dirs under benchmark/out/.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config" "$here/out/bin"
# Hermetic: no user go env, no workspace above the checkout, no toolchain
# or module download, and the toolchain's own files (module cache,
# telemetry counters) inside the checkout too.
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -buildvcs=false -o out/bin/benchmark .)
exec "$here/out/bin/benchmark" -root "$root" "$@"
