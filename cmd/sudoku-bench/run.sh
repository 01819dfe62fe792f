#!/usr/bin/env bash
# Builds cmd/sudoku-bench from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash cmd/sudoku-bench/run.sh --workload point-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, and span files.
# Outside a full checkout (no module at the repository root) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/cmd/sudoku-bench" && go build -o "$out/sudoku-bench" .) >&2
exec "$out/sudoku-bench" "$@"
