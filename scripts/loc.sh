#!/bin/sh
# loc.sh — repository line counts for EXPERIMENTS.md E13, plus the runtime
# core figure (non-test lines of internal/core + internal/wire) that
# simplification changes quote their delta against. The benchmark harness
# under perfbench/ is its own module and is not counted as runtime code.
set -eu
cd "$(dirname "$0")/.."
gofiles() {
    find . -name '*.go' -not -path './.git/*' -not -path './perfbench/*' \
        -not -path './.bench_build/*' "$@"
}
echo "Go source (non-test, excluding perfbench/):"
gofiles ! -name '*_test.go' | xargs cat | wc -l
echo "Go tests (excluding perfbench/):"
gofiles -name '*_test.go' | xargs cat | wc -l
echo "Total Go (excluding perfbench/):"
gofiles | xargs cat | wc -l
echo "Runtime core (non-test internal/core + internal/wire):"
find internal/core internal/wire -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
echo "fargo-core binary:"
tmp=$(mktemp -d)
go build -o "$tmp/fargo-core" ./cmd/fargo-core && ls -l "$tmp/fargo-core" | awk '{print $5 " bytes"}'
rm -rf "$tmp"
