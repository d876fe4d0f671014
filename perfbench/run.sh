#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload relocate_kv --seed 1 --seconds 50 --trace 0
# Run it from the repository root. Build outputs, the Go build cache, move
# journals and trace files all stay under .bench_build in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
