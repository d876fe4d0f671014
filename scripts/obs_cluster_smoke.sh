#!/usr/bin/env bash
# obs_cluster_smoke.sh — end-to-end smoke test of the deployment observatory:
# boot three real fargo-core daemons (plus one deliberately dead member), run
# a scripted workload through fargo-shell, and assert the cluster surfaces:
#
#   /cluster/metrics   valid Prometheus exposition with per-core labels and
#                      cluster_ merged families; the dead member scrapes as
#                      cluster_member_up{core="d"} 0
#   /cluster/status    partial view flagged (d unreachable), never an error
#   /cluster/traces    a stitched cross-core trace with spans from a, b AND c
#   /cluster/timeline  a planApplied event, delivered over live SSE
#
# RACE=1 builds the binaries under the race detector (the CI observatory job
# does); PORT_BASE moves the fixed transport ports.
#
# ALERTS=1 adds the cluster alert phase (the CI telemetry job runs it): core a
# also hosts the alert engine with a burn-rate SLO rule over the federated
# cluster_invoke_latency_ns histogram, the workload gains a slow-method burst,
# and the script asserts that the rule fires (alertFiring over the
# /cluster/alerts SSE stream) and resolves once the burst is over.
set -euo pipefail
cd "$(dirname "$0")/.."

PB=${PORT_BASE:-7641}
A=127.0.0.1:$PB
B=127.0.0.1:$((PB + 1))
C=127.0.0.1:$((PB + 2))
D=127.0.0.1:1 # nothing listens on port 1: the unreachable fourth member

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

build_flags=()
[ "${RACE:-0}" = "1" ] && build_flags+=(-race)
go build "${build_flags[@]}" -o "$workdir/fargo-core" ./cmd/fargo-core
go build "${build_flags[@]}" -o "$workdir/fargo-shell" ./cmd/fargo-shell

# Core a hosts the observatory (refresh-on-demand) and the layout planner;
# its peer list includes the dead member d, so the cluster view must degrade
# to a flagged partial view rather than fail. All cores sample every trace so
# cross-core invocation chains leave shards on every hop.
alert_flags=()
if [ "${ALERTS:-0}" = "1" ]; then
    # Burn-rate SLO over the federated latency histogram: fires when more
    # than a fifth of the cluster's invokes in the trailing 10s ran over
    # 50ms. The Slow burst blows it; the 10s window lets it resolve once
    # the burst ends (slow samples evict, the rate decays to 0).
    cat >"$workdir/alerts.rules" <<'EOF'
alert slow-invokes burnrate cluster_invoke_latency_ns above 50ms > 0.2 window 10s
EOF
    alert_flags=(-alerts "$workdir/alerts.rules")
fi
"$workdir/fargo-core" -name a -listen "$A" -peer "b=$B" -peer "c=$C" -peer "d=$D" \
    -http 127.0.0.1:0 -observatory-on -trace-sample 1 \
    -plan 500ms -plan-min-gain 0.05 "${alert_flags[@]}" >"$workdir/a.log" 2>&1 &
pids+=($!)
"$workdir/fargo-core" -name b -listen "$B" -peer "a=$A" -peer "c=$C" \
    -trace-sample 1 >"$workdir/b.log" 2>&1 &
pids+=($!)
"$workdir/fargo-core" -name c -listen "$C" -peer "a=$A" -peer "b=$B" \
    -trace-sample 1 >"$workdir/c.log" 2>&1 &
pids+=($!)

base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's/.*ops plane on \(http:\/\/[0-9.]*:[0-9]*\).*/\1/p' "$workdir/a.log" | head -1)
    [ -n "$base" ] && break
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "obs-cluster-smoke: core a's ops plane never came up:" >&2
    cat "$workdir/a.log" >&2
    exit 1
fi
echo "obs-cluster-smoke: cluster view at $base/cluster/"

# Open the SSE stream BEFORE the workload so the planApplied assertion proves
# live end-to-end delivery (replay included for robustness on slow machines).
curl -sS -N --max-time 60 "$base/cluster/timeline?follow=1&replay=512" \
    >"$workdir/sse.log" 2>/dev/null &
pids+=($!)
if [ "${ALERTS:-0}" = "1" ]; then
    # The dedicated alerts stream must carry BOTH transitions of the rule.
    curl -sS -N --max-time 300 "$base/cluster/alerts?follow=1&replay=512" \
        >"$workdir/alerts_sse.log" 2>/dev/null &
    pids+=($!)
fi

# Scripted workload. The Hub on b attaches the Message while it lives on a,
# then the Message moves to c: the hub's now-stale ref makes its first call
# chase the tracker chain b -> a -> c, leaving one trace with spans on all
# three cores. The remaining calls run b -> c steady-state, which is exactly
# the cross-core traffic the planner must erase (planApplied on the
# timeline). Complet IDs are deterministic: first complet born at b is b/#1.
{
    echo "new b Hub"
    echo "new a Message hello"
    echo "setref b/#1 a/#1 link"
    echo "move a/#1 c"
    for _ in $(seq 1 60); do echo "invoke b/#1 CallAll Print"; done
    if [ "${ALERTS:-0}" = "1" ]; then
        # The SLO fault: a burst of 200ms invokes (~6s of wall time, several
        # engine evaluations) that dominates the 10s burn-rate window.
        echo "new c Echo"
        for _ in $(seq 1 30); do echo "invoke c/#1 Slow 200"; done
    fi
    echo "cluster status"
    echo "quit"
} >"$workdir/shell.cmds"
"$workdir/fargo-shell" -name shell -listen 127.0.0.1:0 -trace-sample 1 \
    -peer "a=$A" -peer "b=$B" -peer "c=$C" \
    <"$workdir/shell.cmds" >"$workdir/shell.log" 2>&1 || {
    echo "obs-cluster-smoke: shell workload failed:" >&2
    cat "$workdir/shell.log" >&2
    exit 1
}
grep -q "observatory on" "$workdir/shell.log" || {
    echo "obs-cluster-smoke: shell 'cluster status' produced no observatory report:" >&2
    cat "$workdir/shell.log" >&2
    exit 1
}
echo "obs-cluster-smoke: workload done (shell cluster status ok)"

fetch() {
    local path=$1 tmp status
    tmp="$workdir/body"
    status=$(curl -sS -o "$tmp" -w '%{http_code}' "$base$path")
    if [ "$status" != "200" ]; then
        echo "obs-cluster-smoke: GET $path returned $status" >&2
        cat "$tmp" >&2
        exit 1
    fi
    cat "$tmp"
}

# --- federated metrics -------------------------------------------------------
# Let the model settle first: a member can miss one on-demand refresh window
# (connection still warming, staleness coalescing), so poll until every live
# core's series are present — then run the hard assertions once, for good
# error output.
metrics=""
for _ in $(seq 1 60); do
    metrics=$(fetch /cluster/metrics)
    if grep -q 'core="a"' <<<"$metrics" &&
        grep -q 'core="b"' <<<"$metrics" &&
        grep -q 'core="c"' <<<"$metrics" &&
        grep -q '^cluster_members_up 3$' <<<"$metrics"; then
        break
    fi
    sleep 0.5
done
grep -q '^# TYPE ' <<<"$metrics" || {
    echo "obs-cluster-smoke: /cluster/metrics has no TYPE lines" >&2; exit 1; }
grep -Eq '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (NaN|[-+]?Inf|[0-9])' <<<"$metrics" || {
    echo "obs-cluster-smoke: /cluster/metrics has no samples" >&2; exit 1; }
for core in a b c; do
    grep -q "core=\"$core\"" <<<"$metrics" || {
        echo "obs-cluster-smoke: no per-core series for $core in /cluster/metrics" >&2; exit 1; }
done
grep -q '^cluster_member_up{core="d"} 0$' <<<"$metrics" || {
    echo "obs-cluster-smoke: dead member d not scraped as cluster_member_up 0" >&2
    grep cluster_member_up <<<"$metrics" >&2 || true
    exit 1
}
# Dynamic membership counts every core ever seen: a, b, c, dead d, and the
# transient shell once it has connected. The live count must settle at 3.
grep -Eq '^cluster_members [45]$' <<<"$metrics" || {
    echo "obs-cluster-smoke: cluster_members gauge wrong:" >&2
    grep '^cluster_members' <<<"$metrics" >&2 || true
    exit 1
}
grep -q '^cluster_members_up 3$' <<<"$metrics" || {
    echo "obs-cluster-smoke: cluster_members_up gauge wrong:" >&2
    grep '^cluster_members' <<<"$metrics" >&2 || true
    exit 1
}
grep -q '^cluster_invoke_' <<<"$metrics" || {
    echo "obs-cluster-smoke: no merged cluster_ invocation family" >&2; exit 1; }
echo "obs-cluster-smoke: /cluster/metrics ok (exposition + per-core labels + dead member flagged)"

# --- partial-view status -----------------------------------------------------
status_body=$(fetch /cluster/status)
grep -q '"partial": true' <<<"$status_body" || {
    echo "obs-cluster-smoke: /cluster/status does not flag the partial view:" >&2
    echo "$status_body" >&2
    exit 1
}
grep -q '"d"' <<<"$status_body" || {
    echo "obs-cluster-smoke: /cluster/status does not list d unreachable" >&2; exit 1; }
echo "obs-cluster-smoke: /cluster/status ok (partial view, d unreachable)"

# --- stitched cross-core trace -----------------------------------------------
# Find a trace whose stitched tree carries spans from all three live cores
# (the a -> b -> c invocation chain). IDs come from the merged listing.
stitched=""
for _ in $(seq 1 30); do
    for id in $(fetch /cluster/traces | sed -n 's/.*"id": "\([0-9a-f]\{16\}\)".*/\1/p' | sort -u); do
        body=$(fetch "/cluster/trace/$id")
        if grep -q 'across a, b, c' <<<"$body" &&
            grep -q 'serve invoke Print' <<<"$body"; then
            stitched=$id
            break 2
        fi
    done
    sleep 0.5
done
if [ -z "$stitched" ]; then
    echo "obs-cluster-smoke: no stitched trace spans all of a, b, c" >&2
    fetch /cluster/traces >&2
    exit 1
fi
echo "obs-cluster-smoke: stitched trace $stitched spans a, b, c"

# --- planApplied over live SSE -----------------------------------------------
ok=""
for _ in $(seq 1 60); do
    if grep -q '"kind":"planApplied"' "$workdir/sse.log" 2>/dev/null; then
        ok=1
        break
    fi
    sleep 0.5
done
if [ -z "$ok" ]; then
    echo "obs-cluster-smoke: no planApplied event arrived on the SSE stream" >&2
    echo "--- sse.log tail:" >&2
    tail -20 "$workdir/sse.log" >&2 || true
    echo "--- timeline:" >&2
    fetch /cluster/timeline >&2 || true
    exit 1
fi
grep -q '^event: timeline$' "$workdir/sse.log" || {
    echo "obs-cluster-smoke: SSE stream is not event-framed" >&2; exit 1; }
echo "obs-cluster-smoke: planApplied delivered over SSE"

# --- the self-contained page -------------------------------------------------
grep -q 'EventSource' <<<"$(fetch /cluster/)" || {
    echo "obs-cluster-smoke: /cluster/ page is not the live HTML view" >&2; exit 1; }

# --- burn-rate alert fires and resolves (ALERTS=1) ---------------------------
if [ "${ALERTS:-0}" = "1" ]; then
    fired=""
    for _ in $(seq 1 60); do
        if grep -q '"kind":"alertFiring"' "$workdir/alerts_sse.log" 2>/dev/null &&
            grep -q 'slow-invokes' "$workdir/alerts_sse.log"; then
            fired=1
            break
        fi
        sleep 0.5
    done
    if [ -z "$fired" ]; then
        echo "obs-cluster-smoke: slow-invokes never fired on the /cluster/alerts stream" >&2
        echo "--- alerts_sse.log:" >&2
        cat "$workdir/alerts_sse.log" >&2 || true
        echo "--- core a log tail:" >&2
        tail -20 "$workdir/a.log" >&2 || true
        exit 1
    fi
    echo "obs-cluster-smoke: burn-rate alert slow-invokes fired over SSE"

    # The burst is over (the shell has quit); within roughly one window the
    # slow samples fall out of the burn-rate ring and the rule must resolve.
    resolved=""
    for _ in $(seq 1 80); do
        if grep -q '"kind":"alertResolved"' "$workdir/alerts_sse.log" 2>/dev/null; then
            resolved=1
            break
        fi
        sleep 0.5
    done
    if [ -z "$resolved" ]; then
        echo "obs-cluster-smoke: slow-invokes never resolved on the /cluster/alerts stream" >&2
        echo "--- alerts_sse.log:" >&2
        cat "$workdir/alerts_sse.log" >&2 || true
        fetch /cluster/alerts >&2 || true
        exit 1
    fi
    echo "obs-cluster-smoke: burn-rate alert resolved after recovery"

    grep -q 'slow-invokes' <<<"$(fetch /cluster/alerts)" || {
        echo "obs-cluster-smoke: /cluster/alerts summary does not record the rule" >&2; exit 1; }
    echo "obs-cluster-smoke: /cluster/alerts ok (fired + resolved + summary)"
fi

echo "obs-cluster-smoke: all cluster surfaces healthy"
