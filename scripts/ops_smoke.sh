#!/usr/bin/env bash
# ops_smoke.sh — end-to-end smoke test of the ops plane: build fargo-core,
# start it with -http on an ephemeral loopback port, and probe /metrics,
# /healthz and /flight. Fails on any non-200 response or empty body.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
bin="$workdir/fargo-core"
log="$workdir/core.log"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/fargo-core

# -http 127.0.0.1:0 picks a free loopback port; the daemon logs the bound
# address ("ops plane on http://127.0.0.1:NNNNN"). -journal exercises the
# crash-safe movement protocol's journal plumbing end to end.
"$bin" -name smoke -listen 127.0.0.1:0 -http 127.0.0.1:0 \
    -journal "$workdir/smoke.journal" >"$log" 2>&1 &
pid=$!

base=""
for _ in $(seq 1 100); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "ops-smoke: fargo-core exited early:" >&2
        cat "$log" >&2
        exit 1
    fi
    base=$(sed -n 's/.*ops plane on \(http:\/\/[0-9.]*:[0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$base" ] && break
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "ops-smoke: ops plane never came up:" >&2
    cat "$log" >&2
    exit 1
fi
echo "ops-smoke: probing $base"

probe() {
    local path=$1 tmp status
    tmp="$workdir/body"
    # -f would hide the status; capture it explicitly so the failure mode
    # (non-200 vs empty body) is visible in CI logs.
    status=$(curl -sS -o "$tmp" -w '%{http_code}' "$base$path")
    if [ "$status" != "200" ]; then
        echo "ops-smoke: GET $path returned $status" >&2
        cat "$tmp" >&2
        exit 1
    fi
    if [ ! -s "$tmp" ]; then
        echo "ops-smoke: GET $path returned an empty body" >&2
        exit 1
    fi
    echo "ops-smoke: $path ok ($(wc -c <"$tmp") bytes)"
}

probe /metrics
probe /healthz
probe /flight

# Spot-check content, not just status: the scrape must be an exposition with
# at least one sample, health must carry the liveness verdict, flight must be
# a JSON object with an events array.
body=$(curl -sS "$base/metrics")
grep -q '^# TYPE ' <<<"$body" || { echo "ops-smoke: /metrics has no TYPE lines" >&2; exit 1; }
grep -Eq '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [0-9]' <<<"$body" || {
    echo "ops-smoke: /metrics has no samples" >&2; exit 1; }
grep -q '"live": true' <<<"$(curl -sS "$base/healthz")" || {
    echo "ops-smoke: /healthz does not report live" >&2; exit 1; }
grep -q '"events"' <<<"$(curl -sS "$base/flight")" || {
    echo "ops-smoke: /flight has no events field" >&2; exit 1; }

# The move journal must be attached (we started with -journal), with no moves
# stuck pending — a fresh core with unresolved journaled moves would not be
# safe to drive.
health=$(curl -sS "$base/healthz")
grep -q '"journal_enabled": true' <<<"$health" || {
    echo "ops-smoke: /healthz does not report the move journal enabled" >&2
    echo "$health" >&2; exit 1; }
grep -q '"pending_moves": 0' <<<"$health" || {
    echo "ops-smoke: /healthz reports journaled moves stuck pending" >&2
    echo "$health" >&2; exit 1; }
[ -f "$workdir/smoke.journal" ] || {
    echo "ops-smoke: journal file was never created" >&2; exit 1; }

echo "ops-smoke: all endpoints healthy"
