#!/usr/bin/env bash
# Builds the benchmark (package bat/benchmark of the repository's one module)
# from source and runs it from the repository root. Everything the Go
# toolchain writes (build cache, module cache, telemetry, temporary files) is
# pinned under .bench_build in the checkout, so a run touches nothing outside
# it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" ]]; then
	echo "benchmark/run.sh: $root/go.mod not found: the program under test is not in this checkout" >&2
	exit 1
fi
out="$root/.bench_build"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
# With telemetry on (the default in a fresh HOME) the go command forks a
# detached child of itself that outlives it; the benchmark may leave no
# process behind, so switch it off where the go command looks.
mkdir -p "$TMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$root"
go build -o "$out/batbench" ./benchmark
exec "$out/batbench" "$@"
