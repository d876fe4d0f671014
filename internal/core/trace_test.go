package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"fargo/internal/trace"
	"fargo/internal/wire"
)

// traceCluster builds named cores with sampling fully on, so every pipeline
// entry point roots a trace.
func traceCluster(t *testing.T, names ...string) *cluster {
	t.Helper()
	return newClusterOpts(t, Options{
		RequestTimeout:  10 * time.Second,
		TraceSampleRate: 1,
	}, names...)
}

// mergedTrace gathers one trace's spans from every named core through the
// wire query path (the same path the shell's `trace <core> <id> ...` uses).
func mergedTrace(t *testing.T, cl *cluster, via *Core, id trace.TraceID, cores ...string) []trace.Span {
	t.Helper()
	var spans []trace.Span
	for _, name := range cores {
		reply, err := via.ObsAtCtx(context.Background(), cl.core(name).ID(), wire.ObsQuery{Trace: uint64(id)})
		if err != nil {
			t.Fatalf("trace at %s: %v", name, err)
		}
		spans = append(spans, reply.Spans...)
	}
	return spans
}

// rootOf finds the single parentless span of a merged trace.
func rootOf(t *testing.T, spans []trace.Span) trace.Span {
	t.Helper()
	var root trace.Span
	n := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			root = sp
			n++
		}
	}
	if n != 1 {
		t.Fatalf("trace has %d parentless spans, want exactly 1:\n%s", n, dumpSpans(spans))
	}
	return root
}

// findSpan returns the first span whose name has the given prefix.
func findSpan(t *testing.T, spans []trace.Span, prefix string) trace.Span {
	t.Helper()
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, prefix) {
			return sp
		}
	}
	t.Fatalf("no span named %q* in trace:\n%s", prefix, dumpSpans(spans))
	return trace.Span{}
}

func dumpSpans(spans []trace.Span) string {
	var b strings.Builder
	trace.FormatTree(&b, spans)
	return b.String()
}

// parentedUnder reports whether child's Parent links (directly or through
// intermediate spans) to ancestor's ID.
func parentedUnder(spans []trace.Span, child, ancestor trace.Span) bool {
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for cur := child; cur.Parent != 0; {
		if cur.Parent == ancestor.ID {
			return true
		}
		next, ok := byID[cur.Parent]
		if !ok {
			return false
		}
		cur = next
	}
	return false
}

// TestTraceInvokeAcrossChain asserts a single causally-linked trace for an
// invocation that traverses a two-hop tracker chain: a's stale tracker routes
// via b, which forwards to the owner c (and chain shortening then repoints a).
func TestTraceInvokeAcrossChain(t *testing.T) {
	cl := traceCluster(t, "a", "b", "c")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "chained")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	// b drives the second hop so a's tracker stays stale at b.
	if err := cl.core("b").MoveByID(r.Target(), "c"); err != nil {
		t.Fatal(err)
	}

	stale := a.NewRefTo(r.Target(), "Msg", "b")
	res, err := stale.InvokeCtx(context.Background(), "Print")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "chained" {
		t.Fatalf("result = %v", res[0])
	}

	// The invocation rooted exactly one trace at a; pick the invoke root.
	var id trace.TraceID
	for _, sp := range a.Tracer().Collector().Snapshot() {
		if sp.Name == "invoke Msg.Print" && sp.Parent == 0 {
			id = sp.Trace
		}
	}
	if id == 0 {
		t.Fatal("no invoke root span recorded at a")
	}

	spans := mergedTrace(t, cl, a, id, "a", "b", "c")
	root := rootOf(t, spans)
	if root.Core != "a" || root.Name != "invoke Msg.Print" {
		t.Fatalf("root = %q on %s, want invoke Msg.Print on a", root.Name, root.Core)
	}
	for _, sp := range spans {
		if sp.Trace != id {
			t.Fatalf("span %q carries trace %s, want %s", sp.Name, sp.Trace, id)
		}
	}

	// Every hop contributed: b served and forwarded, c served and executed.
	var serveB, serveC, execC trace.Span
	for _, sp := range spans {
		switch {
		case sp.Name == "serve invoke Print" && sp.Core == "b":
			serveB = sp
		case sp.Name == "serve invoke Print" && sp.Core == "c":
			serveC = sp
		case sp.Name == "exec Msg.Print" && sp.Core == "c":
			execC = sp
		}
	}
	if serveB.ID == 0 || serveC.ID == 0 || execC.ID == 0 {
		t.Fatalf("missing hop spans in trace:\n%s", dumpSpans(spans))
	}
	if serveB.Parent != root.ID {
		t.Fatalf("b's serve span parents %x, want root %x", serveB.Parent, root.ID)
	}
	if serveC.Parent != serveB.ID {
		t.Fatalf("c's serve span parents %x, want b's serve %x", serveC.Parent, serveB.ID)
	}
	if execC.Parent != serveC.ID {
		t.Fatalf("c's exec span parents %x, want c's serve %x", execC.Parent, serveC.ID)
	}

	// The merged spans must export as loadable Chrome trace_event JSON.
	data, err := trace.ExportChromeJSON(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exported JSON invalid: %v", err)
	}
	// One complete event per span plus one metadata event per core.
	if got, want := len(doc.TraceEvents), len(spans)+3; got != want {
		t.Fatalf("export has %d events, want %d", got, want)
	}
}

// TestTraceMoveSpans asserts a MoveCtx produces one trace whose bundle span
// (sender) parents the install span (receiver).
func TestTraceMoveSpans(t *testing.T) {
	cl := traceCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "mover")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MoveCtx(context.Background(), r, "b"); err != nil {
		t.Fatal(err)
	}

	var id trace.TraceID
	for _, sp := range a.Tracer().Collector().Snapshot() {
		if strings.HasPrefix(sp.Name, "move ") && sp.Parent == 0 {
			id = sp.Trace
		}
	}
	if id == 0 {
		t.Fatal("no move root span recorded at a")
	}

	spans := mergedTrace(t, cl, a, id, "a", "b")
	root := rootOf(t, spans)
	if !strings.HasPrefix(root.Name, "move ") || root.Core != "a" {
		t.Fatalf("root = %q on %s", root.Name, root.Core)
	}
	bundle := findSpan(t, spans, "move.bundle")
	if bundle.Core != "a" || bundle.Parent != root.ID {
		t.Fatalf("bundle span on %s parents %x, want a under root %x", bundle.Core, bundle.Parent, root.ID)
	}
	install := findSpan(t, spans, "move.install")
	if install.Core != "b" || install.Parent != bundle.ID {
		t.Fatalf("install span on %s parents %x, want b under bundle %x", install.Core, install.Parent, bundle.ID)
	}
}

// TestTraceRepairRetry asserts the self-healing path shows up in the trace: an
// invocation through a dead chain hop records the repair span and the retried
// serve/exec spans at the true owner, all under the original root.
func TestTraceRepairRetry(t *testing.T) {
	cl := traceCluster(t, "a", "b", "c")
	for _, c := range cl.cores {
		c.EnableHomeTracking()
	}
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "survivor")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.core("b").MoveByID(r.Target(), "c"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		loc, err := a.LocateViaHome(r.Target())
		return err == nil && loc == "c"
	})
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}

	stale := a.NewRefTo(r.Target(), "Msg", "b")
	res, err := stale.InvokeCtx(context.Background(), "Print")
	if err != nil {
		t.Fatalf("invoke through dead hop: %v", err)
	}
	if res[0] != "survivor" {
		t.Fatalf("result = %v", res[0])
	}

	// Collector at a holds the root and the repair span; c holds the
	// post-repair serve/exec spans. b is dead and cannot be queried.
	var id trace.TraceID
	for _, sp := range a.Tracer().Collector().Snapshot() {
		if sp.Name == "invoke Msg.Print" && sp.Parent == 0 && sp.Err == "" {
			id = sp.Trace
		}
	}
	if id == 0 {
		t.Fatal("no successful invoke root recorded at a")
	}
	spans := mergedTrace(t, cl, a, id, "a", "c")
	root := rootOf(t, spans)

	repair := findSpan(t, spans, "repair ")
	if repair.Core != "a" {
		t.Fatalf("repair span recorded on %s, want a", repair.Core)
	}
	if !parentedUnder(spans, repair, root) {
		t.Fatalf("repair span not causally under the invoke root:\n%s", dumpSpans(spans))
	}
	execC := findSpan(t, spans, "exec Msg.Print")
	if execC.Core != "c" {
		t.Fatalf("exec span on %s, want c", execC.Core)
	}
	if !parentedUnder(spans, execC, root) {
		t.Fatalf("retried exec not causally under the invoke root:\n%s", dumpSpans(spans))
	}

	// The repair also shows in the metrics: one chain repair, zero failures.
	snap := a.Metrics().Snapshot()
	if snap.Counters["chain_repairs_total"] != 1 {
		t.Fatalf("chain_repairs_total = %d, want 1", snap.Counters["chain_repairs_total"])
	}
}

// TestTraceSamplingOffRecordsNothing pins the zero-overhead contract: with
// the default sample rate (0) no spans are retained anywhere, while the
// metrics counters still tick.
func TestTraceSamplingOffRecordsNothing(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "dark")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	if got := invoke1(t, r, "Print"); got != "dark" {
		t.Fatalf("Print = %v", got)
	}
	for name, c := range cl.cores {
		if n := len(c.Tracer().Collector().Snapshot()); n != 0 {
			t.Fatalf("core %s retained %d spans with sampling off", name, n)
		}
	}
	snap := a.Metrics().Snapshot()
	if snap.Counters["moves_total"] != 1 {
		t.Fatalf("moves_total = %d, want 1", snap.Counters["moves_total"])
	}
	if snap.Counters["invoke_forwarded_total"] == 0 {
		t.Fatal("invoke_forwarded_total = 0, want > 0")
	}
}
