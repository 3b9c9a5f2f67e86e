#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#
#   bash perfbench/run.sh --workload file-uniform --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it writes (the Go build
# cache, the binary, the run's scratch files) lands under .bench_build/ in
# the current directory; the scratch root is removed when the run ends,
# also when it fails.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) >&2

scratch="$out/scratch-$$"
trap 'rm -rf "$scratch"' EXIT
"$out/perfbench" --scratch "$scratch" "$@"
