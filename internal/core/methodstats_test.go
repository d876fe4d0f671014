package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/trace"
	"fargo/internal/wire"
)

func mustParseTraceID(t *testing.T, s string) trace.TraceID {
	t.Helper()
	id, err := trace.ParseTraceID(s)
	if err != nil {
		t.Fatalf("bad trace ID %q: %v", s, err)
	}
	return id
}

func methodRow(rows []wire.MethodStat, complet ids.CompletID, method string) (wire.MethodStat, bool) {
	for _, r := range rows {
		if r.Complet == complet && r.Method == method {
			return r, true
		}
	}
	return wire.MethodStat{}, false
}

// Per-method instruments: calls, errors, and latency accrue per (complet,
// method); the rows surface through ObsQuery and the labeled series through
// the registry snapshot.
func TestPerMethodTelemetry(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "hello")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		invoke1(t, r, "Print")
	}
	if _, err := r.Invoke("Fail"); err == nil {
		t.Fatal("Fail should fail")
	}

	rows, err := methodRows(a, a.ID())
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := methodRow(rows, r.Target(), "Print")
	if !ok {
		t.Fatalf("no Print row in %+v", rows)
	}
	if pr.Calls != 7 || pr.Errors != 0 || pr.TypeName != "Msg" {
		t.Fatalf("Print row = %+v, want 7 calls, 0 errors, type Msg", pr)
	}
	if pr.Latency.Count != 7 || pr.Latency.P95 <= 0 {
		t.Fatalf("Print latency = %+v, want count 7 and positive quantiles", pr.Latency)
	}
	if pr.InFlight != 0 {
		t.Fatalf("Print in-flight = %d at rest, want 0", pr.InFlight)
	}
	fr, ok := methodRow(rows, r.Target(), "Fail")
	if !ok {
		t.Fatalf("no Fail row in %+v", rows)
	}
	if fr.Calls != 1 || fr.Errors != 1 {
		t.Fatalf("Fail row = %+v, want 1 call, 1 error", fr)
	}
	// Rows are sorted hottest-first.
	if rows[0].Method != "Print" {
		t.Fatalf("rows not sorted by calls: first is %s", rows[0].Method)
	}

	// The same telemetry is labeled registry series (and thus on /metrics).
	labels := methodLabels(r.Target(), "Msg", "Print")
	snap := a.Metrics().Snapshot()
	if got := snap.Counters[metrics.JoinLabels("method_calls_total", labels)]; got != 7 {
		t.Fatalf("method_calls_total series = %d, want 7", got)
	}
	if h, ok := snap.Histograms[metrics.JoinLabels("method_latency_ns", labels)]; !ok || h.Count != 7 {
		t.Fatalf("method_latency_ns series missing or wrong: %+v", h)
	}
}

// Method meters travel with the complet: exported into the bundle, imported
// at the destination, removed (rows AND registry series) at the source.
func TestMethodTelemetrySurvivesMove(t *testing.T) {
	cl := newClusterOpts(t, Options{RequestTimeout: 10 * time.Second, TraceSampleRate: 1}, "a", "b", "c")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "hi")
	if err != nil {
		t.Fatal(err)
	}
	const n = 9
	for i := 0; i < n; i++ {
		invoke1(t, r, "Print")
	}
	srcRows, err := methodRows(a, "b")
	if err != nil {
		t.Fatal(err)
	}
	before, ok := methodRow(srcRows, r.Target(), "Print")
	if !ok || !before.Latency.HasExemplars() {
		t.Fatalf("sampled invocations left no exemplar at the source: %+v", before)
	}
	if err := a.Move(r, "c"); err != nil {
		t.Fatal(err)
	}

	// The new host serves the full history under the unchanged identity.
	rows, err := methodRows(a, "c")
	if err != nil {
		t.Fatal(err)
	}
	row, ok := methodRow(rows, r.Target(), "Print")
	if !ok {
		t.Fatalf("no Print row at new host: %+v", rows)
	}
	if row.Calls != n || row.Latency.Count != n {
		t.Fatalf("imported row = %+v, want %d calls with full latency history", row, n)
	}
	// The distribution arrives bucket for bucket, exemplars included, so the
	// new host's metric still links to the traces recorded before the move.
	if !reflect.DeepEqual(row.Latency.Buckets, before.Latency.Buckets) ||
		!reflect.DeepEqual(row.Latency.Exemplars, before.Latency.Exemplars) {
		t.Fatalf("imported latency = %+v, want the source's buckets and exemplars %+v", row.Latency, before.Latency)
	}

	// The old host dropped both the row and the labeled series.
	oldRows, err := methodRows(a, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, still := methodRow(oldRows, r.Target(), "Print"); still {
		t.Fatalf("old host still serves the departed row: %+v", oldRows)
	}
	for name := range cl.core("b").Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, "method_calls_total{") && strings.Contains(name, r.Target().String()) {
			t.Fatalf("old host still scrapes departed series %s", name)
		}
	}

	// Post-move invocations accrue on the same identity-keyed row.
	for i := 0; i < 4; i++ {
		invoke1(t, r, "Print")
	}
	rows, err = methodRows(a, "c")
	if err != nil {
		t.Fatal(err)
	}
	row, _ = methodRow(rows, r.Target(), "Print")
	if row.Calls != n+4 {
		t.Fatalf("post-move calls = %d, want %d", row.Calls, n+4)
	}
}

// Sampled invocations stamp the method's latency bucket with the trace ID, so
// /metrics exemplars point at resolvable traces.
func TestMethodExemplarCapturesTraceID(t *testing.T) {
	cl := newClusterOpts(t, Options{RequestTimeout: 10 * time.Second, TraceSampleRate: 1}, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "hello")
	if err != nil {
		t.Fatal(err)
	}
	invoke1(t, r, "Print")

	labels := methodLabels(r.Target(), "Msg", "Print")
	h := a.Metrics().Snapshot().Histograms[metrics.JoinLabels("method_latency_ns", labels)]
	var traceID string
	for _, e := range h.Exemplars {
		if e.TraceID != "" {
			traceID = e.TraceID
		}
	}
	if traceID == "" {
		t.Fatalf("sampled invocation left no exemplar: %+v", h)
	}
	// The exemplar resolves against the core's own span collector.
	if spans := a.Tracer().Collector().Trace(mustParseTraceID(t, traceID)); len(spans) == 0 {
		t.Fatalf("exemplar trace %s resolves to no spans", traceID)
	}
}

// DisablePerMethodStats turns the instruments off completely: no rows, no
// labeled series.
func TestPerMethodStatsDisabled(t *testing.T) {
	cl := newClusterOpts(t, Options{RequestTimeout: 10 * time.Second, DisablePerMethodStats: true}, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "hello")
	if err != nil {
		t.Fatal(err)
	}
	invoke1(t, r, "Print")
	rows, err := methodRows(a, a.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("instruments disabled but rows exist: %+v", rows)
	}
	for name := range a.Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, "method_") {
			t.Fatalf("instruments disabled but series %s registered", name)
		}
	}
}

// methodRows reads a core's per-method telemetry table through the
// introspection query.
func methodRows(c *Core, dest ids.CoreID) ([]wire.MethodStat, error) {
	reply, err := c.ObsAtCtx(context.Background(), dest, wire.ObsQuery{Methods: true})
	return reply.Methods, err
}
