#!/usr/bin/env bash
# bench_regression.sh — allocation and overhead gates over the E-series
# benchmarks in bench_test.go.
#
# Gate 1 (exact bounds, deterministic): BenchmarkE1_InvocationRefRemoteTCP
# may allocate at most MAX_E1_TCP_ALLOCS per op, and
# BenchmarkE3_GroupMove/pulls=0 at most MAX_E3_ALLOCS per op and
# MAX_E3_BYTES bytes per move on the wire. The bounds sit ~5% above the
# measured figures (789, 1019 and 1125), so a trip means the path grew real
# work, not noise.
#
# Gate 2 (same-run ratio): the per-method SLO instruments (E16) may cost at
# most MAX_METHOD_OVERHEAD times the unmetered dispatch path, comparing the
# median ns/op of COUNT runs per arm. Each run is E16_BENCHTIME iterations:
# at 200 the ratio of unchanged code swung between 0.63 and 1.24, at 20 000
# five runs agreed to within 0.02.
#
# The raw `go test -bench` output is left in bench_gate.out and
# bench_e16.out.
set -euo pipefail
cd "$(dirname "$0")/.."

# The bounds are fixed here, not read from the environment: loosening one
# means editing this file.
readonly MAX_E1_TCP_ALLOCS=828
readonly MAX_E3_ALLOCS=1070
readonly MAX_E3_BYTES=1181
readonly MAX_METHOD_OVERHEAD=1.10
readonly COUNT=6
readonly E16_BENCHTIME=20000x

# field BENCH UNIT FILE prints the value preceding UNIT on BENCH's line.
field() {
    awk -v name="$1" -v unit="$2" '
    $1 ~ "^" name "(-[0-9]+)?$" { for (i = 2; i < NF; i++) if ($(i+1) == unit) print $i }
    ' "$3"
}

# atmost LABEL VALUE BOUND fails unless VALUE <= BOUND.
atmost() {
    if [ -z "$2" ]; then
        echo "bench_regression: FAIL — $1 produced no figure" >&2
        exit 1
    fi
    echo "== $1: $2 (max: $3)"
    if [ "$(awk -v v="$2" -v m="$3" 'BEGIN { print (v > m) }')" = "1" ]; then
        echo "bench_regression: FAIL — $1 $2 exceeds $3" >&2
        exit 1
    fi
}

echo "== bench: E1 TCP + E3 group move, pulls=0 (100x, -benchmem)"
go test -run=NONE -bench='^BenchmarkE1_InvocationRefRemoteTCP$|^BenchmarkE3_GroupMove$/^pulls=0$' \
    -benchtime=100x -benchmem . | tee bench_gate.out

atmost "E1 TCP allocs/op" "$(field BenchmarkE1_InvocationRefRemoteTCP allocs/op bench_gate.out)" "$MAX_E1_TCP_ALLOCS"
atmost "E3 pulls=0 allocs/op" "$(field BenchmarkE3_GroupMove/pulls=0 allocs/op bench_gate.out)" "$MAX_E3_ALLOCS"
atmost "E3 pulls=0 bytes/move" "$(field BenchmarkE3_GroupMove/pulls=0 bytes/move bench_gate.out)" "$MAX_E3_BYTES"

echo "== bench: per-method instrument overhead (${E16_BENCHTIME}, -count=$COUNT)"
go test -run=NONE -bench='^BenchmarkPerMethodInstrumentOverhead$' -benchtime="$E16_BENCHTIME" \
    -count="$COUNT" . | tee bench_e16.out

median() {
    sort -g | awk '{ v[NR] = $1 } END { if (NR) print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}
off=$(field BenchmarkPerMethodInstrumentOverhead/off ns/op bench_e16.out | median)
on=$(field BenchmarkPerMethodInstrumentOverhead/on ns/op bench_e16.out | median)
if [ -z "$off" ] || [ -z "$on" ]; then
    echo "bench_regression: FAIL — PerMethodInstrumentOverhead produced no on/off ns/op pair" >&2
    exit 1
fi
echo "== per-method instruments median ns/op: off $off, on $on"
atmost "per-method instruments on/off ratio" "$(awk -v a="$on" -v b="$off" 'BEGIN { printf "%.4f", a / b }')" "$MAX_METHOD_OVERHEAD"
echo "bench_regression: OK"
