package core

import (
	"context"
	"fmt"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// Self-healing references. A tracker chain (§3.1) is only as alive as its
// weakest hop: one crashed or partitioned core in the middle leaves every
// reference routed through it permanently dead, even though the home-based
// location service (homenaming.go) knows exactly where the target lives. When
// a routed operation (invoke, locate, move, clone) fails with an
// unreachability cause, the chain walk (tracker.go) falls back to a home-core
// location query, repoints the local tracker at the fresh answer, and retries
// once — bypassing the dead hop entirely. Surviving
// cores with stale trackers heal the same way on their own next forwarding
// failure, so the chain erodes into direct edges as it is exercised.
//
// Repair is attempted at most once per operation and the fallback query is
// not retried, so a failed repair adds one cheap round trip (or a fail-fast
// breaker rejection) to the original error, never a second full deadline.

// EventChainRepaired fires at a core that healed its tracker for a complet by
// re-resolving the location through the complet's home core after a chain hop
// became unreachable. Detail is "<dead core> -> <new location>".
const EventChainRepaired = "chainRepaired"

// repairable reports whether an error is the kind chain repair can route
// around: the next hop never answered. Remote verdicts, timeouts, and
// cancellations are not repairable — the budget is spent or the answer is
// final.
func repairable(err error) bool {
	return classifyCause(err) == CauseUnreachable
}

// repairChain attempts to heal this core's tracker for target after the hop
// via dead failed unreachably. It resolves the target through its home core
// (one round trip, no retries), repoints the tracker when the answer differs
// from the dead hop, and fires EventChainRepaired. It reports whether the
// caller should retry through the repointed tracker.
func (c *Core) repairChain(ctx context.Context, target ids.CompletID, dead ids.CoreID, op string) bool {
	if ctx.Err() != nil {
		return false
	}
	ctx, sp := c.tracer.ChildSpan(ctx, "repair "+target.String())
	if sp != nil {
		sp.SetAttr("dead", dead.String())
		sp.SetAttr("op", op)
	}
	defer sp.Finish()
	repairFailed := func(why string, err error) {
		c.met.repairFails.Inc()
		ev := flight.Event{Kind: flight.KindRepairFailed, Complet: target.String(), Peer: dead.String(), Detail: why}
		if err != nil {
			ev.Err = err.Error()
		}
		c.flight.Record(ev)
	}
	loc, err := c.locateViaHomeCtx(ctx, target, ref.CallOptions{NoRetry: true})
	if err != nil {
		c.opts.Logf("fargo core %s: chain repair for %s after %s failed: home query: %v", c.id, target, dead, err)
		sp.SetError(err)
		repairFailed("home query failed", err)
		return false
	}
	if loc == dead {
		// The home agrees with the tracker: the target really lives on the
		// unreachable core. Nothing to route around.
		sp.SetAttr("verdict", "home agrees with dead hop")
		repairFailed("home agrees with dead hop", nil)
		return false
	}
	if !c.trackerFor(target, loc).shorten(loc, c.id) {
		sp.SetAttr("verdict", "tracker kept authoritative state")
		repairFailed("tracker kept authoritative state", nil)
		return false
	}
	sp.SetAttr("repointed", loc.String())
	c.met.repairs.Inc()
	c.flight.Record(flight.Event{
		Kind:    flight.KindRepair,
		Complet: target.String(),
		Peer:    dead.String(),
		Detail:  fmt.Sprintf("%s -> %s", dead, loc),
	})
	c.opts.Logf("fargo core %s: chain repaired for %s: %s -> %s (%s)", c.id, target, dead, loc, op)
	c.mon.fireBuiltin(EventChainRepaired, target, fmt.Sprintf("%s -> %s", dead, loc))
	return true
}

// locateViaHomeCtx resolves a complet's location through its home core in a
// single round trip, under the caller's context and call options (the
// context-first core of LocateViaHome).
func (c *Core) locateViaHomeCtx(ctx context.Context, id ids.CompletID, opts ref.CallOptions) (ids.CoreID, error) {
	q := wire.HomeQuery{Target: id}
	reply, err := call(ctx, c, id.Birth, wire.KindHomeQuery, q, opts,
		func() (wire.HomeQueryReply, error) { return c.serveHomeQuery(ctx, q) })
	if err != nil {
		return "", fmt.Errorf("core: home query for %s: %w", id, err)
	}
	if !reply.Found {
		return "", fmt.Errorf("%w: %s (home has no record)", ErrUnknownComplet, id)
	}
	return reply.Location, nil
}
