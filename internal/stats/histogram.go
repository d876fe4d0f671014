package stats

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed log-bucket histogram for latency-like measurements:
// bucket upper bounds grow geometrically from Start by Factor, so a handful of
// buckets covers microseconds through minutes with bounded relative error.
// Observations land in lock-free atomic buckets; quantiles are estimated at
// snapshot time by linear interpolation inside the bucket holding the target
// rank. The zero value is NOT ready to use — construct with NewHistogram or
// NewLatencyHistogram. Safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending upper bounds; values above the last clamp into it
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits, updated by CAS
	// exemplars holds at most one recent traced sample per bucket
	// (last-writer-wins), linking the aggregate to a concrete trace.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one recorded observation to the trace that produced it, so a
// histogram bucket on /metrics can point at a concrete slow request instead of
// only an aggregate. UnixNanos orders exemplars when snapshots merge: the
// newest sample wins per bucket.
type Exemplar struct {
	Value     float64
	TraceID   string
	UnixNanos int64
}

// NewHistogram builds a histogram whose first bucket covers (0, start] and
// whose bounds grow by factor until n buckets exist. start must be positive,
// factor > 1, and n >= 2.
func NewHistogram(start, factor float64, n int) (*Histogram, error) {
	if start <= 0 || factor <= 1 || n < 2 {
		return nil, fmt.Errorf("stats: bad histogram shape (start=%v factor=%v n=%d)", start, factor, n)
	}
	h := &Histogram{
		bounds:    make([]float64, n),
		counts:    make([]atomic.Uint64, n),
		exemplars: make([]atomic.Pointer[Exemplar], n),
	}
	b := start
	for i := 0; i < n; i++ {
		h.bounds[i] = b
		b *= factor
	}
	return h, nil
}

// NewLatencyHistogram returns the standard latency histogram used by the
// metrics registry: values in nanoseconds, first bucket 1µs, doubling bounds,
// 36 buckets (top bound ≈ 9.5 hours — everything slower overflows).
func NewLatencyHistogram() *Histogram {
	h, err := NewHistogram(1e3, 2, 36)
	if err != nil {
		panic(err) // unreachable: constants satisfy NewHistogram
	}
	return h
}

// Observe records one measurement. Negative values clamp to zero (first
// bucket).
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration as nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d.Nanoseconds())) }

// ObserveExemplar records one measurement and, when traceID is non-empty,
// stamps the sample's bucket with an exemplar pointing at that trace. The slot
// is last-writer-wins: a bucket remembers its most recent traced sample, which
// is exactly what an operator chasing "what was slow just now?" wants.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.bucket(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, UnixNanos: time.Now().UnixNano()})
	}
}

// bucket returns the index of the bucket v falls in; values above the last
// bound clamp into the last bucket.
func (h *Histogram) bucket(v float64) int {
	// Binary search over ~36 bounds; cheaper than log() and allocation-free.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(h.bounds) {
		return len(h.bounds) - 1
	}
	return lo
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count uint64
	Sum   float64
	P50   float64
	P95   float64
	P99   float64
	// Bounds are the ascending bucket upper bounds and Buckets the
	// per-bucket (non-cumulative) counts, parallel slices. They feed
	// exporters that need the full distribution (Prometheus _bucket
	// series), bucket-wise merges and the import of a moved complet's
	// history; renderers that only want percentiles may ignore them.
	Bounds  []float64
	Buckets []uint64
	// Exemplars is parallel to Buckets when present: slot i is the most
	// recent traced sample that landed in bucket i (zero Exemplar — empty
	// TraceID — when the bucket has none). Nil when the histogram carries no
	// exemplars at all.
	Exemplars []Exemplar
}

// HasExemplars reports whether any bucket carries a traced sample.
func (s HistogramSnapshot) HasExemplars() bool {
	for _, e := range s.Exemplars {
		if e.TraceID != "" {
			return true
		}
	}
	return false
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot reads the histogram. Under concurrent writes the quantiles are
// approximate (buckets are read one by one), which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Count:   total,
		Sum:     math.Float64frombits(h.sum.Load()),
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: counts,
	}
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]Exemplar, len(h.counts))
			}
			s.Exemplars[i] = *e
		}
	}
	s.P50 = quantile(h.bounds, counts, total, 0.50)
	s.P95 = quantile(h.bounds, counts, total, 0.95)
	s.P99 = quantile(h.bounds, counts, total, 0.99)
	return s
}

// AddSnapshot folds a snapshot of another histogram with the same bucket
// layout into this one: bucket counts and the running sum add, and any newer
// exemplars replace the local ones. It is how per-method meters travel with a
// complet across a move — the destination imports the departed history into
// its live instruments. Returns false (and changes nothing) when the snapshot
// carries a different layout or no buckets at all.
func (h *Histogram) AddSnapshot(s HistogramSnapshot) bool {
	if len(s.Buckets) != len(h.counts) || !sameBounds(s.Bounds, h.bounds) {
		return false
	}
	var total uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		h.counts[i].Add(c)
		total += c
	}
	h.count.Add(total)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+s.Sum)) {
			break
		}
	}
	for i := range s.Exemplars {
		e := s.Exemplars[i]
		if e.TraceID == "" {
			continue
		}
		if cur := h.exemplars[i].Load(); cur == nil || cur.UnixNanos < e.UnixNanos {
			h.exemplars[i].Store(&e)
		}
	}
	return true
}

// Quantile estimates a single quantile q in [0,1].
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantile(h.bounds, counts, total, q)
}

// quantile walks the cumulative distribution to the bucket holding rank
// q*total and interpolates linearly between the bucket's bounds.
func quantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			frac := (rank - cum) / float64(c)
			return lower + frac*(bounds[i]-lower)
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}
