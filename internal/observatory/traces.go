package observatory

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fargo/internal/ids"
	"fargo/internal/trace"
	"fargo/internal/wire"
)

// Trace assembly. Each core's collector only retains the spans recorded
// THERE: a cross-core invocation leaves its root at the caller, serve/exec
// spans at every chain hop, and move/repair spans wherever those ran. The
// observatory stitches a deployment-wide view: fan out a single-trace fetch
// to every member, dedupe spans observed through more than one member,
// rebuild the causal tree by parent-span links, and report spans whose
// parent is missing (evicted ring, unreachable member) as orphans — they
// render as extra roots rather than vanishing. Stitching rules: a span
// belongs to the tree iff it carries the TraceID; parent links are trusted
// (IDs are random 64-bit, collisions negligible); missing parents promote,
// never drop.

// TraceEntry is one trace in the merged cluster listing.
type TraceEntry struct {
	Trace trace.TraceID `json:"-"`
	ID    string        `json:"id"`
	// Root is the root span's name, known when some member holds the root.
	Root string `json:"root,omitempty"`
	// Spans is the total span count across members; Cores lists the members
	// holding shards of this trace.
	Spans int       `json:"spans"`
	Cores []string  `json:"cores"`
	Start time.Time `json:"start"`
	// DurationNanos spans the earliest start to the latest known end.
	DurationNanos int64 `json:"duration_ns"`
}

// Stitched is one assembled cross-core trace.
type Stitched struct {
	Trace trace.TraceID
	// Spans is the deduped union of every member's shard.
	Spans []trace.Span
	// Cores lists the members contributing spans, sorted.
	Cores []string
	// Orphans are non-root spans whose parent is missing from Spans.
	Orphans []trace.Span
	// Unreachable lists members that did not answer the fan-out; a
	// non-empty list means the tree may be missing shards.
	Unreachable []ids.CoreID
}

// memberAnswer is one member's answer to a fan-out query.
type memberAnswer struct {
	id    ids.CoreID
	reply wire.ObsQueryReply
	err   error
}

// obsFanOut sends an ObsQuery, built per member by query, to every member
// concurrently and returns the answers in member order.
func (o *Observatory) obsFanOut(ctx context.Context, query func(ids.CoreID) wire.ObsQuery) []memberAnswer {
	members := o.memberList()
	answers := make([]memberAnswer, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		req := query(m)
		wg.Add(1)
		go func(i int, m ids.CoreID) {
			defer wg.Done()
			reply, err := o.c.ObsAtCtx(ctx, m, req)
			answers[i] = memberAnswer{id: m, reply: reply, err: err}
		}(i, m)
	}
	wg.Wait()
	return answers
}

// obsFanOutAll sends the same ObsQuery to every member and returns the
// answers of those that replied, in member order, plus the members that
// failed.
func (o *Observatory) obsFanOutAll(ctx context.Context, req wire.ObsQuery) ([]memberAnswer, []ids.CoreID) {
	var ok []memberAnswer
	var unreachable []ids.CoreID
	for _, a := range o.obsFanOut(ctx, func(ids.CoreID) wire.ObsQuery { return req }) {
		if a.err != nil {
			unreachable = append(unreachable, a.id)
			continue
		}
		ok = append(ok, a)
	}
	return ok, unreachable
}

// Traces lists the traces retained anywhere in the deployment, merged by
// TraceID (newest first), plus the members that did not answer. It errors
// only when no member answered at all.
func (o *Observatory) Traces(ctx context.Context, max int) ([]TraceEntry, []ids.CoreID, error) {
	replies, unreachable := o.obsFanOutAll(ctx, wire.ObsQuery{Traces: true, TraceMax: max})
	if len(replies) == 0 {
		return nil, unreachable, fmt.Errorf("observatory: no member answered the trace listing (%d unreachable)", len(unreachable))
	}
	byID := make(map[trace.TraceID]*TraceEntry)
	// The merged duration must not depend on the order members answer in:
	// track the max end per trace separately and derive DurationNanos only
	// once every shard has widened both bounds. Members arrive in sorted
	// order, so the whole merge is deterministic across identical inputs.
	maxEnd := make(map[trace.TraceID]time.Time)
	for _, a := range replies {
		for _, s := range a.reply.Traces {
			e, ok := byID[s.Trace]
			if !ok {
				e = &TraceEntry{Trace: s.Trace, ID: s.Trace.String(), Start: s.Start}
				byID[s.Trace] = e
			}
			e.Spans += s.Spans
			e.Cores = append(e.Cores, a.id.String())
			if s.Root != "" {
				e.Root = s.Root
			}
			end := s.Start.Add(s.Duration)
			if s.Start.Before(e.Start) {
				e.Start = s.Start
			}
			if end.After(maxEnd[s.Trace]) {
				maxEnd[s.Trace] = end
			}
		}
	}
	out := make([]TraceEntry, 0, len(byID))
	for id, e := range byID {
		if d := maxEnd[id].Sub(e.Start).Nanoseconds(); d > 0 {
			e.DurationNanos = d
		}
		sort.Strings(e.Cores)
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, unreachable, nil
}

// Stitch assembles one trace from every member's shard. It errors only when
// no member answered; an incomplete answer set comes back as a flagged
// partial tree (Unreachable non-empty).
func (o *Observatory) Stitch(ctx context.Context, id trace.TraceID) (Stitched, error) {
	replies, unreachable := o.obsFanOutAll(ctx, wire.ObsQuery{Trace: uint64(id)})
	if len(replies) == 0 {
		return Stitched{}, fmt.Errorf("observatory: no member answered the span fetch for %s (%d unreachable)", id, len(unreachable))
	}
	st := Stitched{Trace: id, Unreachable: unreachable}
	coreSet := make(map[string]bool)
	var all []trace.Span
	for _, a := range replies {
		for _, sp := range a.reply.Spans {
			coreSet[sp.Core] = true
		}
		all = append(all, a.reply.Spans...)
	}
	st.Spans = trace.Dedupe(all)
	sort.SliceStable(st.Spans, func(i, j int) bool { return st.Spans[i].Start.Before(st.Spans[j].Start) })
	st.Orphans = trace.Orphans(st.Spans)
	for c := range coreSet {
		st.Cores = append(st.Cores, c)
	}
	sort.Strings(st.Cores)
	sort.Slice(st.Unreachable, func(i, j int) bool { return st.Unreachable[i] < st.Unreachable[j] })
	return st, nil
}
