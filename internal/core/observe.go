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

// --- traces section ---------------------------------------------------------

// maxTraceSummaries bounds a trace listing reply.
const maxTraceSummaries = 32

// traceSummaries lists the most recent traces retained by this core's
// collector (max 0 = maxTraceSummaries).
func (c *Core) traceSummaries(max int) []trace.Summary {
	if max <= 0 {
		max = maxTraceSummaries
	}
	return trace.Summarize(c.tracer.Collector().Snapshot(), max)
}

// --- the introspection query ------------------------------------------------

// serveObsQuery composes the selected sections of this core's state into one
// reply.
func (c *Core) serveObsQuery(_ context.Context, req wire.ObsQuery) (wire.ObsQueryReply, error) {
	reply := wire.ObsQueryReply{Core: c.id}
	if req.Stats {
		s := c.metrics.Snapshot()
		reply.Stats = &s
	}
	if req.Health {
		h := c.Health()
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
		reply.Traces = c.traceSummaries(req.TraceMax)
	}
	if req.Trace != 0 {
		reply.Spans = c.tracer.Collector().Trace(trace.TraceID(req.Trace))
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
func FormatTraceSummaries(w io.Writer, sums []trace.Summary) {
	sorted := append([]trace.Summary(nil), sums...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Start.After(sorted[j].Start)
	})
	for _, s := range sorted {
		root := s.Root
		if root == "" {
			root = "(rooted elsewhere)"
		}
		fmt.Fprintf(w, "%s  %-40s %2d spans  %v  %s\n",
			s.Trace, root, s.Spans, s.Duration.Round(time.Microsecond),
			s.Start.Format("15:04:05.000"))
	}
}
