#!/usr/bin/env bash
# Builds hetsynthd, hetsynthrouter and the benchmark program from the
# checkout, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go"
export GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "$out/bin/" hetsynth/cmd/hetsynthd hetsynth/cmd/hetsynthrouter . ) >&2
exec "$out/bin/perfbench" --bin "$out/bin" "$@"
