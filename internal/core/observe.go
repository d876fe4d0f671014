package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/ref"
	"fargo/internal/stats"
	"fargo/internal/trace"
	"fargo/internal/wire"
)

// coreMetrics caches the registry instruments touched on request paths, so
// the pipeline bumps lock-free counters instead of taking the registry lock
// per operation. Names follow the _total/_ns conventions the text dump
// renders by.
type coreMetrics struct {
	invokeLocal   *stats.Counter
	invokeFwd     *stats.Counter
	invokeErrs    *stats.Counter
	invokeStale   *stats.Counter
	invokeLatency *stats.Histogram

	moves       *stats.Counter
	moveErrs    *stats.Counter
	moveLatency *stats.Histogram

	repairs     *stats.Counter
	repairFails *stats.Counter

	retries         *stats.Counter
	breakerOpened   *stats.Counter
	breakerClosed   *stats.Counter
	breakerRejected *stats.Counter

	hbProbes   *stats.Counter
	hbFailures *stats.Counter
	peersDown  *stats.Gauge
}

func newCoreMetrics(reg *metrics.Registry) *coreMetrics {
	return &coreMetrics{
		invokeLocal:   reg.Counter("invoke_local_total"),
		invokeFwd:     reg.Counter("invoke_forwarded_total"),
		invokeErrs:    reg.Counter("invoke_errors_total"),
		invokeStale:   reg.Counter("invoke_stale_local_retries_total"),
		invokeLatency: reg.Histogram("invoke_latency_ns"),

		moves:       reg.Counter("moves_total"),
		moveErrs:    reg.Counter("move_errors_total"),
		moveLatency: reg.Histogram("move_latency_ns"),

		repairs:     reg.Counter("chain_repairs_total"),
		repairFails: reg.Counter("chain_repair_failures_total"),

		retries:         reg.Counter("request_retries_total"),
		breakerOpened:   reg.Counter("breaker_opened_total"),
		breakerClosed:   reg.Counter("breaker_closed_total"),
		breakerRejected: reg.Counter("breaker_rejected_total"),

		hbProbes:   reg.Counter("heartbeat_probes_total"),
		hbFailures: reg.Counter("heartbeat_failures_total"),
		peersDown:  reg.Gauge("peers_down"),
	}
}

// --- stats section ----------------------------------------------------------

// HistStatFromSnapshot mirrors a stats snapshot into the wire form, exemplars
// included (wire stays free of stats types, so the mirror lives here).
func HistStatFromSnapshot(h stats.HistogramSnapshot) wire.HistogramStat {
	out := wire.HistogramStat{
		Count: h.Count, Sum: h.Sum, P50: h.P50, P95: h.P95, P99: h.P99,
		Bounds: h.Bounds, Buckets: h.Buckets,
	}
	if h.HasExemplars() {
		out.ExemplarValues = make([]float64, len(h.Exemplars))
		out.ExemplarTraces = make([]string, len(h.Exemplars))
		out.ExemplarNanos = make([]int64, len(h.Exemplars))
		for i, e := range h.Exemplars {
			out.ExemplarValues[i] = e.Value
			out.ExemplarTraces[i] = e.TraceID
			out.ExemplarNanos[i] = e.UnixNanos
		}
	}
	return out
}

// HistStatToSnapshot converts a wire histogram back to the stats form,
// restoring any shipped exemplars.
func HistStatToSnapshot(h wire.HistogramStat) stats.HistogramSnapshot {
	out := stats.HistogramSnapshot{
		Count: h.Count, Sum: h.Sum, P50: h.P50, P95: h.P95, P99: h.P99,
		Bounds: h.Bounds, Buckets: h.Buckets,
	}
	if len(h.ExemplarTraces) == len(h.Buckets) && len(h.Buckets) > 0 {
		out.Exemplars = make([]stats.Exemplar, len(h.ExemplarTraces))
		for i, id := range h.ExemplarTraces {
			if id == "" {
				continue
			}
			out.Exemplars[i] = stats.Exemplar{TraceID: id}
			if i < len(h.ExemplarValues) {
				out.Exemplars[i].Value = h.ExemplarValues[i]
			}
			if i < len(h.ExemplarNanos) {
				out.Exemplars[i].UnixNanos = h.ExemplarNanos[i]
			}
		}
	}
	return out
}

// statsReply snapshots this core's registry into the wire form.
func (c *Core) statsReply() wire.StatsQueryReply {
	snap := c.metrics.Snapshot()
	reply := wire.StatsQueryReply{
		Core:       c.id,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: make(map[string]wire.HistogramStat, len(snap.Histograms)),
	}
	for name, h := range snap.Histograms {
		reply.Histograms[name] = HistStatFromSnapshot(h)
	}
	return reply
}

// FormatStats renders a stats reply as the plain-text dump the shell and
// monitor print.
func FormatStats(w io.Writer, reply wire.StatsQueryReply) {
	snap := metrics.Snapshot{
		Counters:   reply.Counters,
		Gauges:     reply.Gauges,
		Histograms: make(map[string]stats.HistogramSnapshot, len(reply.Histograms)),
	}
	for name, h := range reply.Histograms {
		snap.Histograms[name] = HistStatToSnapshot(h)
	}
	snap.WriteText(w)
}

// --- traces section ---------------------------------------------------------

// maxTraceSummaries bounds a trace listing reply.
const maxTraceSummaries = 32

// traceSummaries lists the most recent traces retained by this core's
// collector (max 0 = maxTraceSummaries).
func (c *Core) traceSummaries(max int) []wire.TraceSummary {
	if max <= 0 {
		max = maxTraceSummaries
	}
	sums := trace.Summarize(c.tracer.Collector().Snapshot(), max)
	out := make([]wire.TraceSummary, 0, len(sums))
	for _, s := range sums {
		out = append(out, wire.TraceSummary{
			Trace:          uint64(s.Trace),
			Root:           s.Root,
			Spans:          s.Spans,
			StartUnixNanos: s.Start.UnixNano(),
			DurationNanos:  int64(s.Duration),
		})
	}
	return out
}

// traceSpans returns the spans of one trace retained by this core's
// collector.
func (c *Core) traceSpans(id uint64) []wire.TraceSpan {
	spans := c.tracer.Collector().TraceSpans(trace.TraceID(id))
	out := make([]wire.TraceSpan, 0, len(spans))
	for _, sp := range spans {
		out = append(out, spanToWire(sp))
	}
	return out
}

func spanToWire(sp trace.Span) wire.TraceSpan {
	out := wire.TraceSpan{
		Trace:          uint64(sp.Trace),
		Span:           uint64(sp.ID),
		Parent:         uint64(sp.Parent),
		Name:           sp.Name,
		Core:           ids.CoreID(sp.Core),
		StartUnixNanos: sp.Start.UnixNano(),
		DurationNanos:  int64(sp.Duration),
		Err:            sp.Err,
	}
	for _, a := range sp.Attrs {
		out.AttrKeys = append(out.AttrKeys, a.Key)
		out.AttrVals = append(out.AttrVals, a.Value)
	}
	return out
}

// SpansFromWire converts shipped spans back to trace.Span for tree building
// and export (merging replies from several cores is just appending slices).
func SpansFromWire(in []wire.TraceSpan) []trace.Span {
	out := make([]trace.Span, 0, len(in))
	for _, w := range in {
		sp := trace.Span{
			Trace:    trace.TraceID(w.Trace),
			ID:       trace.SpanID(w.Span),
			Parent:   trace.SpanID(w.Parent),
			Name:     w.Name,
			Core:     w.Core.String(),
			Start:    time.Unix(0, w.StartUnixNanos),
			Duration: time.Duration(w.DurationNanos),
			Err:      w.Err,
		}
		for i := range w.AttrKeys {
			v := ""
			if i < len(w.AttrVals) {
				v = w.AttrVals[i]
			}
			sp.Attrs = append(sp.Attrs, trace.Attr{Key: w.AttrKeys[i], Value: v})
		}
		out = append(out, sp)
	}
	return out
}

// --- the introspection query ------------------------------------------------

// serveObsQuery composes the selected sections of this core's state into one
// reply.
func (c *Core) serveObsQuery(_ context.Context, req wire.ObsQuery) (wire.ObsQueryReply, error) {
	reply := wire.ObsQueryReply{Core: c.id}
	if req.Stats {
		s := c.statsReply()
		reply.Stats = &s
	}
	if req.Health {
		h := c.healthReply()
		reply.Health = &h
	}
	if req.Info {
		reply.Info = &wire.CoreInfoReply{Core: c.id, Complets: c.Complets(), Peers: c.Peers()}
	}
	if req.Flight {
		f := c.flightReply(req.FlightMax, req.FlightAfterSeq)
		reply.Flight = &f
	}
	if req.Traces {
		reply.Traces = &wire.TraceQueryReply{Summaries: c.traceSummaries(req.TraceMax)}
	}
	if req.Trace != 0 {
		reply.Spans = c.traceSpans(req.Trace)
	}
	if req.Methods {
		reply.Methods = c.mon.MethodStats()
	}
	if req.Plan {
		p := c.PlanStats()
		reply.Plan = &p
	}
	return reply, nil
}

// ObsAtCtx fetches the selected sections of a core's state in a single
// round-trip (this core's own state when dest is nil or self). It is the one
// introspection accessor: shells, the planner and the observatory all read
// a core through it.
func (c *Core) ObsAtCtx(ctx context.Context, dest ids.CoreID, req wire.ObsQuery) (wire.ObsQueryReply, error) {
	return call(ctx, c, dest, wire.KindObsQuery, req, ref.CallOptions{},
		func() (wire.ObsQueryReply, error) { return c.serveObsQuery(ctx, req) })
}

// FormatMethodStats renders a per-method telemetry table for the shell's
// `top` command: hottest rows first.
func FormatMethodStats(w io.Writer, rows []wire.MethodStat, max int) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no per-method telemetry yet)")
		return
	}
	if max > 0 && max < len(rows) {
		rows = rows[:max]
	}
	fmt.Fprintf(w, "%-14s %-24s %8s %6s %5s %10s %10s %10s\n",
		"COMPLET", "METHOD", "CALLS", "ERRS", "INFL", "P50", "P95", "P99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-24s %8d %6d %5d %10v %10v %10v\n",
			r.Complet, r.TypeName+"."+r.Method, r.Calls, r.Errors, r.InFlight,
			time.Duration(r.Latency.P50).Round(time.Microsecond),
			time.Duration(r.Latency.P95).Round(time.Microsecond),
			time.Duration(r.Latency.P99).Round(time.Microsecond))
	}
}

// ExportChromeTrace renders this core's retained spans as Chrome trace_event
// JSON (cmd/fargo-core --trace-out writes this at shutdown).
func (c *Core) ExportChromeTrace() ([]byte, error) {
	return trace.ExportChromeJSON(c.tracer.Collector().Snapshot())
}

// FormatTraceSummaries renders a trace listing for the shell.
func FormatTraceSummaries(w io.Writer, sums []wire.TraceSummary) {
	sorted := append([]wire.TraceSummary(nil), sums...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].StartUnixNanos > sorted[j].StartUnixNanos
	})
	for _, s := range sorted {
		root := s.Root
		if root == "" {
			root = "(rooted elsewhere)"
		}
		fmt.Fprintf(w, "%s  %-40s %2d spans  %v  %s\n",
			trace.TraceID(s.Trace), root, s.Spans,
			time.Duration(s.DurationNanos).Round(time.Microsecond),
			time.Unix(0, s.StartUnixNanos).Format("15:04:05.000"))
	}
}
