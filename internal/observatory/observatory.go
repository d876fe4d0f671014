// Package observatory implements the deployment observatory: the
// cluster-wide aggregation layer behind the paper's monitoring story (§4.1
// profiling, §4.3's graphical monitor of Figure 4), which is deployment-wide
// where the per-core ops plane (internal/obs) is strictly local. An
// observatory attached to any core — a working core, a dedicated monitor, or
// fargo-monitor's embedded core — periodically refreshes a global model of
// the running system with ONE batched wire query per member core
// (wire.ObsQuery), and derives three deployment-level views from it:
//
//   - federated metrics: every member's counters, gauges and histograms,
//     re-exposed under a core="<id>" label next to cluster_<name> families
//     merged across cores (histograms merge bucket-wise — quantiles do not
//     compose, log-bucket counts do) plus derived deployment gauges;
//   - stitched traces: span shards collected from every member and linked by
//     TraceID/parent-span into one causal tree, even when the trace crossed
//     moves and chain repairs, with orphaned spans reported instead of
//     silently dropped;
//   - a merged timeline: every member's flight recorder (planner decisions
//     included) woven into one globally-ordered feed — per-core Seq order is
//     never violated, and a Lamport-style merge clock stamps the total order
//     chosen at ingest.
//
// Unreachable members degrade the model to a flagged partial view, never an
// error: the operator sees which slice of the deployment is stale and since
// when (DESIGN.md §15).
package observatory

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fargo/internal/core"
	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/wire"
)

// Defaults for zero Options fields.
const (
	// DefaultRefreshTimeout bounds one refresh fan-out.
	DefaultRefreshTimeout = 5 * time.Second
	// DefaultFlightMax caps flight events fetched from one member per
	// refresh.
	DefaultFlightMax = 512
	// DefaultTimelineCap bounds the merged timeline ring.
	DefaultTimelineCap = 4096
	// DefaultStaleAfter is how old the model may grow before an HTTP read
	// triggers an inline refresh (when no background loop keeps it fresh).
	DefaultStaleAfter = time.Second
)

// Options configures an observatory.
type Options struct {
	// Cores lists the member cores to aggregate (the attached core usually
	// included). Empty means dynamic membership: the attached core plus
	// every peer it knows, re-resolved each refresh, so the observatory
	// grows with the deployment. Members that become unreachable stay in
	// the model, flagged, until the observatory stops.
	Cores []ids.CoreID
	// Interval is the background refresh period. Zero disables the loop;
	// the model then refreshes on demand (HTTP reads and SSE streams
	// trigger refreshes when the model is older than StaleAfter).
	Interval time.Duration
	// RefreshTimeout bounds one refresh fan-out (0 = DefaultRefreshTimeout).
	RefreshTimeout time.Duration
	// FlightMax caps flight events fetched from one member per refresh
	// (0 = DefaultFlightMax).
	FlightMax int
	// TimelineCap bounds the merged timeline ring (0 = DefaultTimelineCap).
	TimelineCap int
	// StaleAfter is the on-demand refresh threshold (0 = DefaultStaleAfter).
	StaleAfter time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// member is the retained per-member state.
type member struct {
	id        ids.CoreID
	reachable bool
	err       string
	lastOK    time.Time
	lastSeq   uint64 // high-water flight Seq already merged into the timeline
	stats     *metrics.Snapshot
	health    *wire.Health
	info      *wire.CoreInfoReply
}

// Observatory is one deployment-wide aggregation point.
type Observatory struct {
	c       *core.Core
	opts    Options
	dynamic bool

	refreshMu sync.Mutex // serializes refresh fan-outs

	mu          sync.Mutex
	members     map[ids.CoreID]*member
	clock       uint64 // Lamport-style merge clock (total order of ingested events)
	timeline    []Event
	subs        map[*subscriber]struct{}
	refreshes   uint64
	lastRefresh time.Time
	// cross-rate derivation state: forwarded-invocation total and stamp of
	// the previous refresh.
	prevFwd   float64
	prevFwdAt time.Time
	crossRate float64
	stopped   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// observatories maps cores to their observatories, so layers that hold only
// a core (obs, shell) reach the aggregation point without the core importing
// this package — the same pattern as plan.For.
var observatories = struct {
	sync.Mutex
	m map[*core.Core]*Observatory
}{m: make(map[*core.Core]*Observatory)}

// Start attaches an observatory to the core and, when opts.Interval > 0,
// starts its background refresh loop. The observatory stops with the core. A
// core has at most one observatory.
func Start(c *core.Core, opts Options) (*Observatory, error) {
	if c == nil {
		return nil, fmt.Errorf("observatory: nil core")
	}
	if opts.RefreshTimeout <= 0 {
		opts.RefreshTimeout = DefaultRefreshTimeout
	}
	if opts.FlightMax <= 0 {
		opts.FlightMax = DefaultFlightMax
	}
	if opts.TimelineCap <= 0 {
		opts.TimelineCap = DefaultTimelineCap
	}
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = DefaultStaleAfter
	}
	o := &Observatory{
		c:       c,
		opts:    opts,
		dynamic: len(opts.Cores) == 0,
		members: make(map[ids.CoreID]*member),
		subs:    make(map[*subscriber]struct{}),
		stop:    make(chan struct{}),
	}
	observatories.Lock()
	if _, dup := observatories.m[c]; dup {
		observatories.Unlock()
		return nil, fmt.Errorf("observatory: core %s already has an observatory", c.ID())
	}
	observatories.m[c] = o
	observatories.Unlock()
	c.OnShutdown(o.Stop)

	if opts.Interval > 0 {
		o.wg.Add(1)
		go o.loop()
	}
	return o, nil
}

// For returns the observatory attached to the core, if any.
func For(c *core.Core) (*Observatory, bool) {
	observatories.Lock()
	defer observatories.Unlock()
	o, ok := observatories.m[c]
	return o, ok
}

// Stop ends the refresh loop, closes every SSE subscription, and detaches
// the observatory from its core. Idempotent.
func (o *Observatory) Stop() {
	o.mu.Lock()
	if o.stopped {
		o.mu.Unlock()
		return
	}
	o.stopped = true
	subs := make([]*subscriber, 0, len(o.subs))
	for s := range o.subs {
		subs = append(subs, s)
	}
	o.subs = make(map[*subscriber]struct{})
	o.mu.Unlock()
	close(o.stop)
	o.wg.Wait()
	// An HTTP-driven Refresh may still hold a pre-Stop snapshot of these
	// subscribers; subscriber.close/send are mutually excluded per-sub, so
	// closing here can never race a send into a panic.
	for _, s := range subs {
		s.close()
	}
	observatories.Lock()
	if observatories.m[o.c] == o {
		delete(observatories.m, o.c)
	}
	observatories.Unlock()
}

// Core returns the attached core.
func (o *Observatory) Core() *core.Core { return o.c }

func (o *Observatory) logf(format string, args ...any) {
	if o.opts.Logf != nil {
		o.opts.Logf(format, args...)
	}
}

// loop is the background refresher.
func (o *Observatory) loop() {
	defer o.wg.Done()
	t := time.NewTicker(o.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), o.opts.RefreshTimeout)
			if err := o.Refresh(ctx); err != nil {
				o.logf("observatory %s: refresh: %v", o.c.ID(), err)
			}
			cancel()
		}
	}
}

// memberList resolves the current membership: the configured list, or — with
// dynamic membership — the attached core plus every peer it knows, unioned
// with every member ever seen (an unreachable core must stay in the model as
// a flagged gap, not vanish from it).
func (o *Observatory) memberList() []ids.CoreID {
	var base []ids.CoreID
	if o.dynamic {
		base = append([]ids.CoreID{o.c.ID()}, o.c.Peers()...)
	} else {
		base = o.opts.Cores
	}
	seen := make(map[ids.CoreID]bool, len(base))
	out := make([]ids.CoreID, 0, len(base))
	for _, m := range base {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	o.mu.Lock()
	for id := range o.members {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Refresh runs one fan-out: every member answers one batched ObsQuery
// (stats + health + info + fresh flight events), and the answers update the
// model. Unreachable members are flagged, not fatal; Refresh errors only
// when it cannot run at all (the attached core is closed).
func (o *Observatory) Refresh(ctx context.Context) error {
	o.refreshMu.Lock()
	defer o.refreshMu.Unlock()

	answers := o.obsFanOut(ctx, func(m ids.CoreID) wire.ObsQuery {
		o.mu.Lock()
		defer o.mu.Unlock()
		var after uint64
		if st, ok := o.members[m]; ok {
			after = st.lastSeq
		}
		return wire.ObsQuery{
			Stats:          true,
			Health:         true,
			Info:           true,
			Flight:         true,
			FlightMax:      o.opts.FlightMax,
			FlightAfterSeq: after,
		}
	})

	now := time.Now()
	var fresh [][]Event // per-member fresh flight events, Seq-ascending
	o.mu.Lock()
	for _, a := range answers {
		st, ok := o.members[a.id]
		if !ok {
			st = &member{id: a.id}
			o.members[a.id] = st
		}
		if a.err != nil {
			st.reachable = false
			st.err = a.err.Error()
			continue
		}
		st.reachable = true
		st.err = ""
		st.lastOK = now
		st.stats = a.reply.Stats
		st.health = a.reply.Health
		st.info = a.reply.Info
		if f := a.reply.Flight; f != nil && f.Total < st.lastSeq {
			// Seq regression: the member's recorder restarted (Total counts
			// every occurrence ever recorded there, so it can only shrink
			// across a core restart). The events it DID record were filtered
			// out on the wire by the stale FlightAfterSeq high-water; reset
			// it so the next refresh picks the restarted member's timeline
			// back up instead of dropping it forever.
			st.lastSeq = 0
		}
		if f := a.reply.Flight; f != nil && len(f.Events) > 0 {
			batch := make([]Event, 0, len(f.Events))
			for _, ev := range f.Events {
				if ev.Seq <= st.lastSeq {
					continue // paranoia: the wire filter already skipped these
				}
				st.lastSeq = ev.Seq
				batch = append(batch, Event{Core: a.id.String(), Event: ev})
			}
			if len(batch) > 0 {
				fresh = append(fresh, batch)
			}
		}
	}
	merged := mergeBatches(fresh)
	var delivered []Event
	for i := range merged {
		o.clock++
		merged[i].Merge = o.clock
		o.timeline = append(o.timeline, merged[i])
		delivered = append(delivered, merged[i])
	}
	if over := len(o.timeline) - o.opts.TimelineCap; over > 0 {
		o.timeline = append([]Event(nil), o.timeline[over:]...)
	}
	o.refreshes++
	o.lastRefresh = now
	o.deriveCrossRate(now)
	subs := make([]*subscriber, 0, len(o.subs))
	for s := range o.subs {
		subs = append(subs, s)
	}
	o.mu.Unlock()

	// Fan out to SSE subscribers outside the lock; a slow subscriber drops
	// events from its own channel, never stalls the refresh. The snapshot
	// may be stale — a subscriber canceled (or Stop ran) since o.mu was
	// released — but subscriber.send checks the closed flag under the
	// per-sub mutex, so it never sends on a closed channel.
	for _, ev := range delivered {
		for _, s := range subs {
			s.send(ev)
		}
	}
	return nil
}

// RefreshIfStale refreshes when the model is older than the configured
// staleness threshold — the on-demand path behind HTTP reads when no
// background loop runs.
func (o *Observatory) RefreshIfStale(ctx context.Context) error {
	o.mu.Lock()
	fresh := time.Since(o.lastRefresh) < o.opts.StaleAfter
	o.mu.Unlock()
	if fresh {
		return nil
	}
	return o.Refresh(ctx)
}

// deriveCrossRate updates the derived cross-core invocation rate from the
// deployment-wide forwarded-invocation total. Caller holds o.mu.
func (o *Observatory) deriveCrossRate(now time.Time) {
	var fwd float64
	for _, st := range o.members {
		if st.stats == nil {
			continue
		}
		for name, v := range st.stats.Counters {
			if name == "invoke_forwarded_total" {
				fwd += float64(v)
			}
		}
	}
	if !o.prevFwdAt.IsZero() {
		dt := now.Sub(o.prevFwdAt).Seconds()
		if dt > 0 && fwd >= o.prevFwd {
			o.crossRate = (fwd - o.prevFwd) / dt
		}
	}
	o.prevFwd = fwd
	o.prevFwdAt = now
}

// --- status ------------------------------------------------------------------

// MemberView is one member in a Status.
type MemberView struct {
	Core      string     `json:"core"`
	Reachable bool       `json:"reachable"`
	Err       string     `json:"err,omitempty"`
	LastOK    *time.Time `json:"lastOK,omitempty"`
	Live      bool       `json:"live"`
	Ready     bool       `json:"ready"`
	Complets  int        `json:"complets"`
	Moves     int        `json:"movesInFlight"`
	Suspects  int        `json:"suspects"`
}

// Status is the observatory's introspection snapshot. Partial is the flag
// the acceptance semantics hinge on: true whenever at least one member did
// not answer the latest refresh, so every consumer knows the model has a
// stale slice.
type Status struct {
	Core        string       `json:"core"`
	Members     []MemberView `json:"members"`
	Partial     bool         `json:"partial"`
	Unreachable []string     `json:"unreachable,omitempty"`
	Refreshes   uint64       `json:"refreshes"`
	LastRefresh *time.Time   `json:"lastRefresh,omitempty"`
	TimelineLen int          `json:"timelineLen"`
	MergeClock  uint64       `json:"mergeClock"`
	CrossRate   float64      `json:"crossCoreInvokeRate"`
}

// Status snapshots the observatory.
func (o *Observatory) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := Status{
		Core:        o.c.ID().String(),
		Refreshes:   o.refreshes,
		TimelineLen: len(o.timeline),
		MergeClock:  o.clock,
		CrossRate:   o.crossRate,
	}
	if !o.lastRefresh.IsZero() {
		t := o.lastRefresh
		st.LastRefresh = &t
	}
	keys := make([]ids.CoreID, 0, len(o.members))
	for id := range o.members {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, id := range keys {
		m := o.members[id]
		mv := MemberView{
			Core:      id.String(),
			Reachable: m.reachable,
			Err:       m.err,
		}
		if !m.lastOK.IsZero() {
			t := m.lastOK
			mv.LastOK = &t
		}
		if h := m.health; h != nil {
			mv.Live = h.Live
			mv.Ready = h.Ready
			mv.Complets = h.Complets
			mv.Moves = h.MovesInFlight
			for _, p := range h.Peers {
				if p.Suspect {
					mv.Suspects++
				}
			}
		}
		if !m.reachable {
			st.Partial = true
			st.Unreachable = append(st.Unreachable, id.String())
		}
		st.Members = append(st.Members, mv)
	}
	return st
}
