package core

import (
	"sort"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/stats"
	"fargo/internal/wire"
)

// Per-method SLO instruments (DESIGN.md §16). The paper's monitoring unit
// profiles per-reference invocation rates (§4.1); this file extends that to
// complet-granular service-level telemetry: for every (hosted complet,
// method) the serving core keeps a latency histogram, call and error
// counters, and an in-flight gauge. The instruments are labeled series in the
// core's metrics registry — method_latency_ns{complet=...,method=...,type=...}
// — so they appear on /metrics, federate into cluster_ families through the
// observatory, and can carry exemplars linking a slow bucket to the trace
// that filled it.
//
// Like the pair meters, the instruments are keyed on complet identity, not on
// the hosting core: when a complet moves, its method meters are exported into
// the movement bundle (wire.MoveRequest.MethodMeters), imported into the
// destination's live instruments at install time, and removed from the source
// registry — the complet's latency history follows it around the deployment
// and is counted at exactly one core.

// Per-method series base names.
const (
	methodLatencyName  = "method_latency_ns"
	methodCallsName    = "method_calls_total"
	methodErrorsName   = "method_errors_total"
	methodInflightName = "method_inflight"
)

// methodKey identifies one (complet, method) instrument row.
type methodKey struct {
	target ids.CompletID
	method string
}

// methodMeter is the live instrument set of one (complet, method). The
// instruments are shared with the metrics registry (same pointers), so the
// hot path touches only lock-free kernels after the map lookup.
type methodMeter struct {
	typeName string
	lat      *stats.Histogram
	calls    *stats.Counter
	errs     *stats.Counter
	inflight *stats.Gauge
}

// methodLabels builds the canonical label set of one instrument row.
func methodLabels(target ids.CompletID, typeName, method string) metrics.Labels {
	return metrics.Labels{"complet": target.String(), "method": method, "type": typeName}
}

// methodMeterFor returns the meter for (target, method), creating its
// registry series on first use. Returns nil when per-method instruments are
// disabled.
func (m *Monitor) methodMeterFor(target ids.CompletID, typeName, method string) *methodMeter {
	if m.methodsOff {
		return nil
	}
	key := methodKey{target: target, method: method}
	m.methodsMu.RLock()
	mm, ok := m.methods[key]
	m.methodsMu.RUnlock()
	if ok {
		return mm
	}
	m.methodsMu.Lock()
	defer m.methodsMu.Unlock()
	if mm, ok := m.methods[key]; ok {
		return mm
	}
	labels := methodLabels(target, typeName, method)
	reg := m.c.metrics
	mm = &methodMeter{
		typeName: typeName,
		lat:      reg.HistogramWith(methodLatencyName, labels),
		calls:    reg.CounterWith(methodCallsName, labels),
		errs:     reg.CounterWith(methodErrorsName, labels),
		inflight: reg.GaugeWith(methodInflightName, labels),
	}
	m.methods[key] = mm
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

// MethodStats snapshots the per-method telemetry table, hottest rows first
// (descending call count, then deterministic key order).
func (m *Monitor) MethodStats() []wire.MethodStat {
	m.methodsMu.RLock()
	keys := make([]methodKey, 0, len(m.methods))
	meters := make([]*methodMeter, 0, len(m.methods))
	for k, mm := range m.methods {
		keys = append(keys, k)
		meters = append(meters, mm)
	}
	m.methodsMu.RUnlock()
	out := make([]wire.MethodStat, 0, len(keys))
	for i, k := range keys {
		mm := meters[i]
		row := wire.MethodStat{
			Complet:  k.target,
			TypeName: mm.typeName,
			Method:   k.method,
			Calls:    mm.calls.Value(),
			Errors:   mm.errs.Value(),
			Latency:  mm.lat.Snapshot(),
		}
		if v, _, ok := mm.inflight.Value(); ok {
			row.InFlight = int64(v)
		}
		out = append(out, row)
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

// exportMethodMeters snapshots the per-method telemetry of departing complets
// for shipment inside a movement bundle (the method-level counterpart of
// exportMeters). The in-flight gauge stays behind: the move lock guarantees
// no invocation is running on a departing complet.
func (m *Monitor) exportMethodMeters(targets []ids.CompletID) []wire.MethodMeterState {
	if len(targets) == 0 || m.methodsOff {
		return nil
	}
	moving := make(map[ids.CompletID]bool, len(targets))
	for _, t := range targets {
		moving[t] = true
	}
	m.methodsMu.RLock()
	keys := make([]methodKey, 0)
	meters := make([]*methodMeter, 0)
	for k, mm := range m.methods {
		if moving[k.target] {
			keys = append(keys, k)
			meters = append(meters, mm)
		}
	}
	m.methodsMu.RUnlock()
	out := make([]wire.MethodMeterState, 0, len(keys))
	for i, k := range keys {
		mm := meters[i]
		out = append(out, wire.MethodMeterState{
			Target:   k.target,
			TypeName: mm.typeName,
			Method:   k.method,
			Calls:    mm.calls.Value(),
			Errors:   mm.errs.Value(),
			Latency:  mm.lat.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Target != out[j].Target {
			return out[i].Target.String() < out[j].Target.String()
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// importMethodMeters merges method meter state shipped with a movement bundle
// into this core's live instruments, under the complets' unchanged
// identities: counts add, latency buckets add, newer exemplars win.
func (m *Monitor) importMethodMeters(states []wire.MethodMeterState) {
	if m.methodsOff {
		return
	}
	for _, st := range states {
		mm := m.methodMeterFor(st.Target, st.TypeName, st.Method)
		if mm == nil {
			continue
		}
		mm.calls.Add(st.Calls)
		mm.errs.Add(st.Errors)
		mm.lat.AddSnapshot(st.Latency)
	}
}

// dropMethodMeters discards the per-method instruments of complets that moved
// away — both the meter rows and their registry series, so the departed
// telemetry is scraped (and federated) at exactly one core.
func (m *Monitor) dropMethodMeters(targets []ids.CompletID) {
	if len(targets) == 0 || m.methodsOff {
		return
	}
	moving := make(map[ids.CompletID]bool, len(targets))
	for _, t := range targets {
		moving[t] = true
	}
	m.methodsMu.Lock()
	defer m.methodsMu.Unlock()
	for k, mm := range m.methods {
		if !moving[k.target] {
			continue
		}
		delete(m.methods, k)
		labels := methodLabels(k.target, mm.typeName, k.method)
		m.c.metrics.Remove(metrics.JoinLabels(methodLatencyName, labels))
		m.c.metrics.Remove(metrics.JoinLabels(methodCallsName, labels))
		m.c.metrics.Remove(metrics.JoinLabels(methodErrorsName, labels))
		m.c.metrics.Remove(metrics.JoinLabels(methodInflightName, labels))
	}
}
