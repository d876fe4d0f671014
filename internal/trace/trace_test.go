package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilSpanAndNilTracer(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.SetError(context.Canceled)
	sp.Finish() // must not panic

	var tr *Tracer
	ctx, sp2 := tr.StartSpan(context.Background(), "op")
	if sp2 != nil {
		t.Fatalf("nil tracer produced a span")
	}
	if _, ok := FromContext(ctx); ok {
		t.Fatalf("nil tracer stamped a context")
	}
	if _, sp3 := tr.ChildSpan(context.Background(), "op"); sp3 != nil {
		t.Fatalf("nil tracer produced a child span")
	}
}

func TestSamplingOffProducesNothing(t *testing.T) {
	tr := New("a", Options{SampleRate: 0})
	for i := 0; i < 100; i++ {
		ctx, sp := tr.StartSpan(context.Background(), "op")
		if sp != nil {
			t.Fatalf("rate 0 sampled a span")
		}
		if _, inner := tr.ChildSpan(ctx, "inner"); inner != nil {
			t.Fatalf("rate 0 produced an interior span")
		}
	}
	if got := len(tr.Collector().Snapshot()); got != 0 {
		t.Fatalf("collector has %d spans, want 0", got)
	}
}

func TestSamplingAlwaysRootsAndLinks(t *testing.T) {
	tr := New("a", Options{SampleRate: 1})
	ctx, root := tr.StartSpan(context.Background(), "root")
	if root == nil {
		t.Fatalf("rate 1 did not sample")
	}
	if root.Trace == 0 || root.ID == 0 || root.Parent != 0 {
		t.Fatalf("bad root: %+v", root)
	}
	_, child := tr.ChildSpan(ctx, "child")
	if child == nil {
		t.Fatalf("no child under sampled root")
	}
	if child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatalf("child not linked: root=%+v child=%+v", root, child)
	}
	child.SetAttr("k", "v")
	child.SetError(context.DeadlineExceeded)
	child.Finish()
	root.Finish()

	spans := tr.Collector().Trace(root.Trace)
	if len(spans) != 2 {
		t.Fatalf("collector holds %d spans, want 2", len(spans))
	}
}

func TestSamplingRateApproximate(t *testing.T) {
	tr := New("a", Options{SampleRate: 0.2})
	hits := 0
	for i := 0; i < 5000; i++ {
		if _, sp := tr.StartSpan(context.Background(), "op"); sp != nil {
			hits++
			sp.Finish()
		}
	}
	if hits < 700 || hits > 1400 { // 0.2*5000 = 1000, generous bounds
		t.Fatalf("rate 0.2 sampled %d/5000", hits)
	}
}

func TestPeerSampledBitOverridesLocalRate(t *testing.T) {
	// A core with rate 0 must still record spans for traces a peer sampled.
	tr := New("b", Options{SampleRate: 0})
	inbound := NewContext(context.Background(), SpanContext{Trace: 7, Span: 9, Sampled: true})
	ctx, sp := tr.StartSpan(inbound, "serve")
	if sp == nil {
		t.Fatalf("inbound sampled trace ignored")
	}
	if sp.Trace != 7 || sp.Parent != 9 {
		t.Fatalf("span not parented to inbound context: %+v", sp)
	}
	if sc, ok := FromContext(ctx); !ok || sc.Span != sp.ID {
		t.Fatalf("ctx does not carry the new span")
	}
	sp.Finish()
	if got := len(tr.Collector().Trace(7)); got != 1 {
		t.Fatalf("collector holds %d spans, want 1", got)
	}
}

func TestCollectorRingEviction(t *testing.T) {
	tr := New("a", Options{SampleRate: 1, BufferSize: collectorShards * 2})
	for i := 0; i < 100; i++ {
		_, sp := tr.StartSpan(context.Background(), "op")
		sp.Finish()
	}
	got := len(tr.Collector().Snapshot())
	if got == 0 || got > collectorShards*2 {
		t.Fatalf("ring holds %d spans, want (0, %d]", got, collectorShards*2)
	}
}

func TestSummarize(t *testing.T) {
	base := time.Unix(1000, 0)
	spans := []Span{
		{Trace: 1, ID: 10, Name: "root", Core: "a", Start: base, Duration: 5 * time.Millisecond},
		{Trace: 1, ID: 11, Parent: 10, Name: "serve", Core: "b", Start: base.Add(time.Millisecond), Duration: 2 * time.Millisecond},
		{Trace: 2, ID: 20, Name: "other", Core: "a", Start: base.Add(time.Second), Duration: time.Millisecond},
	}
	sums := Summarize(spans, 0)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Trace != 2 { // newest first
		t.Fatalf("summaries not newest-first: %+v", sums)
	}
	s1 := sums[1]
	if s1.Root != "root" || s1.Spans != 2 || s1.Duration != 5*time.Millisecond {
		t.Fatalf("bad summary: %+v", s1)
	}
	if got := Summarize(spans, 1); len(got) != 1 {
		t.Fatalf("max not applied: %d", len(got))
	}
}

func TestBuildTreeOrphansBecomeRoots(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 2, Parent: 99, Name: "orphan", Start: time.Unix(2, 0)},
		{Trace: 1, ID: 1, Name: "root", Start: time.Unix(1, 0)},
		{Trace: 1, ID: 3, Parent: 1, Name: "child", Start: time.Unix(3, 0)},
	}
	roots := BuildTree(spans)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (root + orphan)", len(roots))
	}
	if roots[0].Span.Name != "root" || len(roots[0].Children) != 1 {
		t.Fatalf("tree misbuilt: %+v", roots[0])
	}
}

func TestExportChromeJSONValid(t *testing.T) {
	tr := New("a", Options{SampleRate: 1})
	ctx, root := tr.StartSpan(context.Background(), "invoke X.Do")
	_, child := tr.ChildSpan(ctx, "exec X.Do")
	child.SetAttr("hops", "2")
	child.Finish()
	root.Finish()

	data, err := ExportChromeJSON(tr.Collector().Snapshot())
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, data)
	}
	var meta, complete int
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
		}
	}
	if meta != 1 || complete != 2 {
		t.Fatalf("got %d metadata + %d complete events, want 1 + 2\n%s", meta, complete, data)
	}
}

func TestFormatTree(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: "invoke", Core: "a", Start: time.Unix(1, 0), Duration: time.Millisecond},
		{Trace: 1, ID: 2, Parent: 1, Name: "serve", Core: "b", Start: time.Unix(1, 1), Duration: time.Millisecond, Err: "boom"},
	}
	var b strings.Builder
	FormatTree(&b, spans)
	out := b.String()
	if !strings.Contains(out, "invoke @a") || !strings.Contains(out, "  serve @b") || !strings.Contains(out, "ERR=boom") {
		t.Fatalf("bad tree rendering:\n%s", out)
	}
}

func TestParseTraceIDRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef12345678)
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("round trip: got %v err %v", got, err)
	}
	if _, err := ParseTraceID("zzz"); err == nil {
		t.Fatalf("bad id parsed")
	}
}

func TestSetSampleRateClamps(t *testing.T) {
	tr := New("a", Options{})
	tr.SetSampleRate(7)
	if tr.SampleRate() != 1 {
		t.Fatalf("rate = %v, want 1", tr.SampleRate())
	}
	tr.SetSampleRate(-3)
	if tr.SampleRate() != 0 {
		t.Fatalf("rate = %v, want 0", tr.SampleRate())
	}
}
