package core

import (
	"context"
	"fmt"
	"sync"

	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// Home-based, location-independent naming — the alternative to tracker
// chains that the paper names as future work (§7). Every complet's birth
// core doubles as its "home": whenever the complet arrives somewhere, the
// destination reports the new location to the home; anyone can then resolve
// the complet in exactly two messages (home query + direct access),
// regardless of how many times it moved.
//
// The trade-off against chains (experiment E9): home tracking costs one
// extra message per MOVE and two messages per cold LOOKUP, while chains cost
// nothing extra per move but one message per chain hop on the first use of a
// stale reference (and the chain grows with moves). Chains win when moves
// vastly outnumber fresh lookups; home naming wins when stale references are
// exercised often.

// homeTable is the per-core record of last-reported locations for complets
// born here. It is updated by HomeUpdate messages and by local
// installs/removes.
type homeTable struct {
	mu  sync.Mutex
	loc map[ids.CompletID]ids.CoreID
}

func (h *homeTable) set(id ids.CompletID, loc ids.CoreID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.loc == nil {
		h.loc = make(map[ids.CompletID]ids.CoreID)
	}
	h.loc[id] = loc
}

func (h *homeTable) get(id ids.CompletID) (ids.CoreID, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	loc, ok := h.loc[id]
	return loc, ok
}

// EnableHomeTracking turns on the home-based location service on this core:
// complets arriving here will report their location to their birth cores,
// and this core will answer location queries for complets born here. All
// cores participating in an application should enable it together.
func (c *Core) EnableHomeTracking() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.homeTracking = true
}

// homeTrackingEnabled reports whether home tracking is on.
func (c *Core) homeTrackingEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.homeTracking
}

// reportHome tells a complet's home core where it now lives. Failures are
// logged, not fatal: the tracker chain remains a correct fallback.
func (c *Core) reportHome(id ids.CompletID) {
	if id.Birth == c.id {
		c.homes.set(id, c.id)
		return
	}
	payload, err := wire.EncodePayload(wire.HomeUpdate{Target: id, Location: c.id})
	if err != nil {
		return
	}
	if err := c.tr.Notify(id.Birth, wire.KindHomeUpdate, payload); err != nil {
		c.opts.Logf("fargo core %s: home update for %s: %v", c.id, id, err)
	}
}

// LocateViaHome resolves a complet's location through its home core in a
// single round trip, bypassing tracker chains. It is a thin
// context.Background wrapper over LocateViaHomeCtx; prefer the ctx form.
func (c *Core) LocateViaHome(id ids.CompletID) (ids.CoreID, error) {
	return c.LocateViaHomeCtx(context.Background(), id)
}

// LocateViaHomeCtx resolves a complet's location through its home core under
// the caller's context. See locateViaHomeCtx (repair.go) for the internal
// core, which chain repair also uses.
func (c *Core) LocateViaHomeCtx(ctx context.Context, id ids.CompletID) (ids.CoreID, error) {
	ctx, cancel := c.withBudget(ctx, 0)
	defer cancel()
	return c.locateViaHomeCtx(ctx, id, ref.CallOptions{})
}

// InvokeViaHome invokes a method resolving the target through its home core
// instead of tracker chains (E9's alternative invocation path for stale
// references). It is a thin context.Background wrapper over
// InvokeViaHomeCtx; prefer the ctx form.
func (c *Core) InvokeViaHome(target ids.CompletID, method string, args ...any) ([]any, error) {
	return c.InvokeViaHomeCtx(context.Background(), target, method, args...)
}

// InvokeViaHomeCtx invokes a method resolving the target through its home
// core under the caller's context: the home lookup and the invocation share
// one end-to-end budget.
func (c *Core) InvokeViaHomeCtx(ctx context.Context, target ids.CompletID, method string, args ...any) ([]any, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	ctx, cancel := c.withBudget(ctx, 0)
	defer cancel()
	loc, err := c.locateViaHomeCtx(ctx, target, ref.CallOptions{})
	if err != nil {
		return nil, err
	}
	argBytes, _, err := wire.EncodeArgs(c.anchorsToRefs(args))
	if err != nil {
		return nil, err
	}
	var resBytes []byte
	if loc == c.id {
		entry, hosted := c.lookup(target)
		if !hosted {
			return nil, errStaleLocal
		}
		resBytes, err = c.invokeLocalFrom(ctx, entry, ids.CompletID{}, method, argBytes)
	} else {
		resBytes, _, err = c.forwardInvoke(ctx, loc, target, ids.CompletID{}, method, argBytes, 0, ref.CallOptions{})
	}
	if err != nil {
		return nil, err
	}
	results, decoded, err := wire.DecodeArgs(resBytes)
	if err != nil {
		return nil, err
	}
	c.bindDecoded(decoded)
	return results, nil
}

// handleHomeUpdate records a reported location for a complet born here.
func (c *Core) handleHomeUpdate(env wire.Envelope) (wire.Kind, []byte, error) {
	var req wire.HomeUpdate
	if err := wire.DecodePayload(env.Payload, &req); err != nil {
		return 0, nil, err
	}
	if req.Target.Birth != c.id {
		return 0, nil, fmt.Errorf("core %s: home update for %s, which was not born here", c.id, req.Target)
	}
	c.homes.set(req.Target, req.Location)
	return wire.KindHomeUpdate, nil, nil
}

// serveHomeQuery answers a location query for a complet born here.
func (c *Core) serveHomeQuery(_ context.Context, req wire.HomeQuery) (wire.HomeQueryReply, error) {
	reply := wire.HomeQueryReply{}
	if loc, ok := c.homes.get(req.Target); ok {
		reply.Location, reply.Found = loc, true
	} else if _, ok := c.lookup(req.Target); ok {
		reply.Location, reply.Found = c.id, true
	}
	return reply, nil
}
