#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build cache, module path, toolchain
# counters, the binary) stays under .bench_build/ of the current directory,
# and nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
# The build log goes to stderr: the last line of stdout is the result.
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -C "$here" -o "$out/pathbench" . >&2
exec "$out/pathbench" "$@"
