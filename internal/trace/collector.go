package trace

import (
	"sort"
	"sync"
	"time"
)

// collectorShards keeps Finish contention low without per-CPU machinery:
// spans hash to a shard by span ID, each shard is an independent ring.
const collectorShards = 8

// Collector retains the most recently completed spans of one core in a
// sharded ring buffer. Recording is a shard-local mutex push; full snapshots
// are for queries and export, not hot paths.
type Collector struct {
	shards [collectorShards]collectorShard
}

type collectorShard struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

// NewCollector builds a collector retaining about `capacity` spans
// (DefaultBufferSize when <= 0; rounded up to a multiple of the shard count).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultBufferSize
	}
	per := (capacity + collectorShards - 1) / collectorShards
	c := &Collector{}
	for i := range c.shards {
		c.shards[i].buf = make([]Span, per)
	}
	return c
}

// Record stores one completed span, evicting the oldest in its shard when
// full.
func (c *Collector) Record(sp Span) {
	sh := &c.shards[uint64(sp.ID)%collectorShards]
	sh.mu.Lock()
	sh.buf[sh.next] = sp
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next = 0
		sh.full = true
	}
	sh.mu.Unlock()
}

// Snapshot returns every retained span, oldest first.
func (c *Collector) Snapshot() []Span {
	var out []Span
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := sh.next
		if sh.full {
			n = len(sh.buf)
		}
		for j := 0; j < n; j++ {
			out = append(out, sh.buf[j])
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Trace returns the retained spans of one trace, oldest first.
func (c *Collector) Trace(id TraceID) []Span {
	var out []Span
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := sh.next
		if sh.full {
			n = len(sh.buf)
		}
		for j := 0; j < n; j++ {
			if sh.buf[j].Trace == id {
				out = append(out, sh.buf[j])
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Summary describes one trace as seen from a single core's collector.
type Summary struct {
	Trace TraceID
	// Root is the name of the trace's root span when this core holds it
	// ("" when the root ran elsewhere).
	Root     string
	Spans    int
	Start    time.Time
	Duration time.Duration
}

// Summarize groups spans by trace, newest trace first. Duration covers the
// earliest start to the latest end among the given spans (the full trace when
// spans from every core are merged, this core's share otherwise).
func Summarize(spans []Span, max int) []Summary {
	byTrace := make(map[TraceID]*Summary)
	latestEnd := make(map[TraceID]time.Time)
	var order []TraceID
	for _, sp := range spans {
		s, ok := byTrace[sp.Trace]
		if !ok {
			s = &Summary{Trace: sp.Trace, Start: sp.Start}
			byTrace[sp.Trace] = s
			order = append(order, sp.Trace)
		}
		s.Spans++
		if sp.Start.Before(s.Start) {
			s.Start = sp.Start
		}
		if end := sp.Start.Add(sp.Duration); end.After(latestEnd[sp.Trace]) {
			latestEnd[sp.Trace] = end
		}
		if sp.Parent == 0 {
			s.Root = sp.Name
		}
	}
	out := make([]Summary, 0, len(byTrace))
	for _, id := range order {
		s := *byTrace[id]
		s.Duration = latestEnd[id].Sub(s.Start)
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
