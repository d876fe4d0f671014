package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"fargo/internal/ids"
)

// maxHops bounds tracker-chain traversal.
const maxHops = 64

// tracker is the per-core tracking record for one complet (§3.1). At most one
// tracker per complet exists per core, no matter how many references point to
// it — the scalability property of the stub/tracker split. The tracker table
// is also the repository: a complet is hosted here exactly when its tracker's
// record holds its entry.
type tracker struct {
	rec atomic.Pointer[location]
}

// location is one immutable tracker record: the hosted entry (entry != nil)
// or the next core of the chain. install stores {entry}, remove stores
// {next}, both under c.mu; everything else goes through shorten.
type location struct {
	entry *complet
	next  ids.CoreID
}

// shorten points a forwarding tracker at loc (chain shortening, §3.1) and
// reports whether the tracker now routes to loc. It is one compare-and-swap
// that never replaces a record holding an entry: hosting is authoritative
// repository state, while loc may be stale (an invocation reply, a home
// answer), and letting it overwrite a local record can weave a cycle between
// two cores that are moving a complet back and forth. A record that already
// says loc is left as it is, so steady forwarding stores nothing.
func (t *tracker) shorten(loc, self ids.CoreID) bool {
	for {
		old := t.rec.Load()
		if old.entry != nil || loc == self || loc.Nil() {
			return old.entry != nil && loc == self
		}
		if old.next == loc || t.rec.CompareAndSwap(old, &location{next: loc}) {
			return true
		}
	}
}

// live reports whether the entry is still this core's copy of its complet:
// its tracker's record holds this very entry. remove ends that under the
// entry's W-lock, so a holder of moveMu sees a stable answer.
func (e *complet) live() bool { return e.t.rec.Load().entry == e }

// trackerFor returns the core's tracker for the complet, creating one that
// points at hint when absent. There is at most one tracker per complet per
// core (§3.1).
func (c *Core) trackerFor(id ids.CompletID, hint ids.CoreID) *tracker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trackerLocked(id, hint)
}

// trackerLocked is trackerFor for callers holding c.mu.
func (c *Core) trackerLocked(id ids.CompletID, hint ids.CoreID) *tracker {
	t, ok := c.trackers[id]
	if !ok {
		if hint == c.id || hint.Nil() {
			// No better information: fall back to the birth core,
			// which keeps a tracker for every complet born there.
			hint = id.Birth
		}
		t = &tracker{}
		t.rec.Store(&location{next: hint})
		c.trackers[id] = t
	}
	return t
}

// walk routes one operation on target along this core's tracker chain: local
// runs it on the hosted entry, forward sends it to the next core with the
// hop count the request carries and returns the location the answer names.
// walk owns what every routed operation shares: the context check, the hop
// budget, the retry when the entry moved between the tracker read and the
// action (errStaleLocal), the self-referential tracker, one repair through
// the home core when the next hop is unreachable, and shortening the tracker
// to the answer's location. It returns the result and the complet's
// location. op and method name the operation in errors and events; the name
// is only built on those paths.
func walk[R any](ctx context.Context, c *Core, target ids.CompletID, hint ids.CoreID, hops int, op, method string,
	local func(*complet) (R, error),
	forward func(next ids.CoreID, hops int) (R, ids.CoreID, error),
) (R, ids.CoreID, error) {
	var zero R
	repaired := false
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, "", fmt.Errorf("core: %s: %w", opName(op, target, method), err)
		}
		if hops+attempt > maxHops {
			return zero, "", c.tripHopBudget(opName(op, target, method), target)
		}
		t := c.trackerFor(target, hint)
		rec := t.rec.Load()
		if rec.entry != nil {
			res, err := local(rec.entry)
			if err == errStaleLocal {
				// remove has already pointed the tracker away.
				c.met.invokeStale.Inc()
				continue
			}
			return res, c.id, err
		}
		if rec.next == c.id {
			// A tracker must never point at its own core; treat as
			// unknown to avoid a self-loop.
			return zero, "", fmt.Errorf("%w: %s (self-referential tracker)", ErrUnknownComplet, target)
		}
		res, loc, err := forward(rec.next, hops+attempt+1)
		if err != nil {
			// Self-healing (repair.go): on repair failure the original
			// error stands.
			if !repaired && repairable(err) {
				if c.repairChain(ctx, target, rec.next, opName(op, target, method)) {
					repaired = true
					continue
				}
			}
			return zero, "", err
		}
		t.shorten(loc, c.id)
		return res, loc, nil
	}
}

// opName names a routed operation: "invoke <target>.<method>", or
// "<op> <target>" for operations without a method.
func opName(op string, target ids.CompletID, method string) string {
	if method != "" {
		return op + " " + target.String() + "." + method
	}
	return op + " " + target.String()
}

// TrackerCount returns the number of trackers in this core (test and
// experiment support: verifies tracker sharing per target).
func (c *Core) TrackerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.trackers)
}

// TrackerTarget reports where this core's tracker for the complet points:
// this core itself (local) or the next core in the chain.
func (c *Core) TrackerTarget(id ids.CompletID) (ids.CoreID, bool) {
	c.mu.Lock()
	t, ok := c.trackers[id]
	c.mu.Unlock()
	if !ok {
		return "", false
	}
	if rec := t.rec.Load(); rec.entry == nil {
		return rec.next, true
	}
	return c.id, true
}

// TrackerInfo describes one entry of the core's tracker table for layout
// introspection (the ops plane's /layout endpoint): where this core would
// route a request for the complet next.
type TrackerInfo struct {
	Complet ids.CompletID
	// Local is true when the complet is hosted here; Next is the chain's
	// next hop otherwise.
	Local bool
	Next  ids.CoreID
}

// Trackers lists the core's tracker table, sorted by complet ID.
func (c *Core) Trackers() []TrackerInfo {
	c.mu.Lock()
	out := make([]TrackerInfo, 0, len(c.trackers))
	for id, t := range c.trackers {
		rec := t.rec.Load()
		out = append(out, TrackerInfo{Complet: id, Local: rec.entry != nil, Next: rec.next})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Complet.String() < out[j].Complet.String() })
	return out
}
