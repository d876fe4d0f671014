package core

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/stats"
	"fargo/internal/wire"
)

// Invocation accounting (§4.1) and per-method SLO instruments (DESIGN.md
// §16). Every meter of a hosted complet lives on its repository entry: the
// windowed rate and lifetime count behind invocationRate/invocationCount, the
// per-reference pair meters the layout planner reads, and the per-method
// latency histogram, call and error counters and in-flight gauge. The
// method instruments are also labeled series in the core's metrics registry —
// method_latency_ns{complet=...,method=...,type=...} — so they appear on
// /metrics, federate into cluster_ families through the observatory, and can
// carry exemplars linking a slow bucket to the trace that filled it.
//
// The meters follow the complet: moveLocal snapshots them into the movement
// bundle (wire.MoveRequest.Meters/MethodMeters) while the complet is
// W-locked, install seeds the arriving entry from the bundle (live and
// journal re-installs alike), and remove — the one place a complet leaves a
// core — unregisters the method series with the entry. A complet's history
// is therefore counted at exactly one core, the one hosting it.

// Per-method series base names.
const (
	methodLatencyName  = "method_latency_ns"
	methodCallsName    = "method_calls_total"
	methodErrorsName   = "method_errors_total"
	methodInflightName = "method_inflight"
)

// meters is one hosted complet's accounting.
type meters struct {
	rate  *stats.RateMeter // windowed invocations (invocationRate)
	count stats.Counter    // lifetime invocations (invocationCount)
	// mu serializes the creation of missing pair and method meters; lookups
	// load the copy-on-write maps without it.
	mu      sync.Mutex
	pairs   cowMap[ids.CompletID, *pairMeter] // keyed by source complet
	methods cowMap[string, *methodMeter]      // keyed by method name
}

// pairMeter is the per-edge accounting: a windowed invocation-rate meter and
// the cumulative argument bytes carried on the edge (the planner's cost model
// weighs both).
type pairMeter struct {
	rate  *stats.RateMeter
	bytes stats.Counter
}

// methodMeter is the live instrument set of one (complet, method). The
// instruments are shared with the metrics registry (same pointers).
type methodMeter struct {
	lat      *stats.Histogram
	calls    *stats.Counter
	errs     *stats.Counter
	inflight *stats.Gauge
}

// cowMap is a copy-on-write map: get is a lock-free load; put copies the map
// and must be serialized by the owner's lock.
type cowMap[K comparable, V any] struct {
	p atomic.Pointer[map[K]V]
}

func (m *cowMap[K, V]) get(k K) (V, bool) {
	var v V
	mp := m.p.Load()
	if mp == nil {
		return v, false
	}
	v, ok := (*mp)[k]
	return v, ok
}

func (m *cowMap[K, V]) put(k K, v V) {
	next := make(map[K]V)
	if mp := m.p.Load(); mp != nil {
		maps.Copy(next, *mp)
	}
	next[k] = v
	m.p.Store(&next)
}

// all returns the current map; callers must not modify it.
func (m *cowMap[K, V]) all() map[K]V {
	if mp := m.p.Load(); mp != nil {
		return *mp
	}
	return nil
}

// pair returns the meter of the edge from src, creating it on first use.
func (m *meters) pair(src ids.CompletID) *pairMeter {
	if pm, ok := m.pairs.get(src); ok {
		return pm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	pm, ok := m.pairs.get(src)
	if !ok {
		pm = &pairMeter{rate: stats.MustRateMeter(rateWindow, 20)}
		m.pairs.put(src, pm)
	}
	return pm
}

// record counts one invocation arriving from source (nil for callers that
// are not complets) with argBytes of arguments.
func (m *meters) record(source ids.CompletID, argBytes int) {
	m.rate.Mark(1)
	m.count.Inc()
	if !source.Nil() {
		pm := m.pair(source)
		pm.rate.Mark(1)
		pm.bytes.Add(uint64(argBytes))
	}
}

// methodLabels builds the canonical label set of one instrument row.
func methodLabels(target ids.CompletID, typeName, method string) metrics.Labels {
	return metrics.Labels{"complet": target.String(), "method": method, "type": typeName}
}

// methodMeter returns the complet's instruments for method, registering their
// series on first use. Returns nil when per-method instruments are disabled.
func (c *Core) methodMeter(e *complet, method string) *methodMeter {
	if c.opts.DisablePerMethodStats {
		return nil
	}
	if mm, ok := e.meters.methods.get(method); ok {
		return mm
	}
	e.meters.mu.Lock()
	defer e.meters.mu.Unlock()
	if mm, ok := e.meters.methods.get(method); ok {
		return mm
	}
	labels := methodLabels(e.id, e.typeName, method)
	mm := &methodMeter{
		lat:      c.metrics.HistogramWith(methodLatencyName, labels),
		calls:    c.metrics.CounterWith(methodCallsName, labels),
		errs:     c.metrics.CounterWith(methodErrorsName, labels),
		inflight: c.metrics.GaugeWith(methodInflightName, labels),
	}
	e.meters.methods.put(method, mm)
	return mm
}

// begin marks an invocation entering the method.
func (mm *methodMeter) begin() {
	if mm == nil {
		return
	}
	mm.inflight.Add(1)
}

// end marks an invocation leaving the method: duration observed (with the
// trace exemplar when the call was sampled), call counted, error counted.
func (mm *methodMeter) end(d time.Duration, traceID string, errored bool) {
	if mm == nil {
		return
	}
	mm.inflight.Add(-1)
	mm.lat.ObserveExemplar(float64(d.Nanoseconds()), traceID)
	mm.calls.Inc()
	if errored {
		mm.errs.Inc()
	}
}

// meterStates snapshots a departing complet's accounting for its movement
// bundle; the caller holds the complet's W-lock, so no invocation is running
// on it and the in-flight gauge stays behind. st is nil when the complet
// recorded no invocation here.
func (e *complet) meterStates() (st *wire.MeterState, methods []wire.MethodMeterState) {
	st = &wire.MeterState{Target: e.id, Count: e.meters.count.Value(), Window: e.meters.rate.Count()}
	for src, pm := range e.meters.pairs.all() {
		st.Pairs = append(st.Pairs, wire.PairMeterState{Src: src, Window: pm.rate.Count(), Bytes: pm.bytes.Value()})
	}
	sort.Slice(st.Pairs, func(i, j int) bool { return st.Pairs[i].Src.String() < st.Pairs[j].Src.String() })
	if st.Count == 0 && st.Window == 0 && len(st.Pairs) == 0 {
		st = nil
	}
	for method, mm := range e.meters.methods.all() {
		methods = append(methods, wire.MethodMeterState{
			Target:   e.id,
			TypeName: e.typeName,
			Method:   method,
			Calls:    mm.calls.Value(),
			Errors:   mm.errs.Value(),
			Latency:  mm.lat.Snapshot(),
		})
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].Method < methods[j].Method })
	return st, methods
}

// seedMeters merges the accounting a movement bundle carried for an arriving
// complet into its entry. Windowed counts land in the current bucket — a
// coarse placement within the window, but the window total (what rates and
// the planner's edge weights read) is exact; method counts and latency
// buckets add, newer exemplars win.
func (c *Core) seedMeters(e *complet, bundle *wire.MoveRequest) {
	for _, st := range bundle.Meters {
		if st.Target != e.id {
			continue
		}
		if st.Window > 0 {
			e.meters.rate.Mark(st.Window)
		}
		e.meters.count.Add(st.Count)
		for _, p := range st.Pairs {
			pm := e.meters.pair(p.Src)
			if p.Window > 0 {
				pm.rate.Mark(p.Window)
			}
			pm.bytes.Add(p.Bytes)
		}
	}
	for _, st := range bundle.MethodMeters {
		if st.Target != e.id {
			continue
		}
		if mm := c.methodMeter(e, st.Method); mm != nil {
			mm.calls.Add(st.Calls)
			mm.errs.Add(st.Errors)
			mm.lat.AddSnapshot(st.Latency)
		}
	}
}

// releaseMeters unregisters a departed complet's method series, so its
// telemetry is scraped (and federated) only at its new host.
func (c *Core) releaseMeters(e *complet) {
	for method := range e.meters.methods.all() {
		labels := methodLabels(e.id, e.typeName, method)
		for _, name := range []string{methodLatencyName, methodCallsName, methodErrorsName, methodInflightName} {
			c.metrics.Remove(metrics.JoinLabels(name, labels))
		}
	}
}

// PairStats snapshots the per-reference meters of every hosted complet as
// directed communication-graph edges, sorted deterministically. The layout
// planner's collector aggregates these across member cores (DESIGN.md §14).
func (m *Monitor) PairStats() []wire.PairStat {
	var out []wire.PairStat
	for _, e := range m.c.hosted() {
		for src, pm := range e.meters.pairs.all() {
			out = append(out, wire.PairStat{
				Src:   src,
				Dst:   e.id,
				Rate:  pm.rate.Rate(),
				Count: pm.rate.Count(),
				Bytes: pm.bytes.Value(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src.String() < out[j].Src.String()
		}
		return out[i].Dst.String() < out[j].Dst.String()
	})
	return out
}

// MethodStats snapshots the per-method telemetry of every hosted complet,
// hottest rows first (descending call count, then deterministic key order).
func (m *Monitor) MethodStats() []wire.MethodStat {
	var out []wire.MethodStat
	for _, e := range m.c.hosted() {
		for method, mm := range e.meters.methods.all() {
			row := wire.MethodStat{
				Complet:  e.id,
				TypeName: e.typeName,
				Method:   method,
				Calls:    mm.calls.Value(),
				Errors:   mm.errs.Value(),
				Latency:  mm.lat.Snapshot(),
			}
			if v, _, ok := mm.inflight.Value(); ok {
				row.InFlight = int64(v)
			}
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		if out[i].Complet != out[j].Complet {
			return out[i].Complet.String() < out[j].Complet.String()
		}
		return out[i].Method < out[j].Method
	})
	return out
}
