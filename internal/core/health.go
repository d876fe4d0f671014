package core

import (
	"sort"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/wire"
)

// Health and the flight recorder: the core-side state behind the ops plane's
// /healthz, /readyz and /flight endpoints (internal/obs) and the shell's
// `health`/`flight` commands (served over the wire protocol like stats).
//
// Liveness and readiness are distinct verdicts. A core is LIVE unless it has
// shut down or the heartbeat prober currently declares every monitored peer
// suspect — total isolation, the one failure a single core can self-diagnose.
// A core is READY to take new work only when nothing is degraded: no suspect
// peer, no open circuit, and no movement bundle in flight (an installing or
// shipping bundle holds complet write locks, so invocations queue behind it).

// Flight returns the core's layout flight recorder. Callers may Record
// application-level occurrences of their own; the runtime records movements,
// chain repairs, breaker transitions, retries, hop-budget trips and
// subscription deliveries.
func (c *Core) Flight() *flight.Recorder { return c.flight }

// OnShutdown registers fn to run exactly once when the core stops (both
// graceful Shutdown and ShutdownAbrupt), after the transport closes. The
// embedding layer uses it to tear down the ops HTTP server with the core.
func (c *Core) OnShutdown(fn func()) {
	if fn == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shutdownHooks = append(c.shutdownHooks, fn)
}

// runShutdownHooks runs and clears the registered hooks.
func (c *Core) runShutdownHooks() {
	c.mu.Lock()
	hooks := c.shutdownHooks
	c.shutdownHooks = nil
	c.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// setSuspect records the heartbeat prober's verdict about a peer.
func (c *Core) setSuspect(peer ids.CoreID, suspect bool) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	if suspect {
		c.suspects[peer] = true
		return
	}
	delete(c.suspects, peer)
}

// moveStarted/moveFinished bracket one owner-side bundle shipment for the
// readiness verdict.
func (c *Core) moveStarted() {
	c.healthMu.Lock()
	c.movesInFlight++
	c.healthMu.Unlock()
}

func (c *Core) moveFinished() {
	c.healthMu.Lock()
	c.movesInFlight--
	c.healthMu.Unlock()
}

// Health computes the core's current health verdict. Pending journaled moves
// block readiness because the stranded complets refuse further moves until
// recovery resolves them.
func (c *Core) Health() wire.Health {
	closed := c.isClosed()
	peers := c.Peers()

	c.healthMu.Lock()
	moves := c.movesInFlight
	suspects := make(map[ids.CoreID]bool, len(c.suspects))
	for p := range c.suspects {
		suspects[p] = true
	}
	c.healthMu.Unlock()

	// Include monitored-but-never-messaged peers so an isolated core that
	// only ever probed its peers still reports them.
	known := make(map[ids.CoreID]struct{}, len(peers))
	for _, p := range peers {
		known[p] = struct{}{}
	}
	for p := range suspects {
		if _, ok := known[p]; !ok {
			peers = append(peers, p)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })

	h := wire.Health{
		Core:          c.id,
		Closed:        closed,
		MovesInFlight: moves,
		Complets:      c.CompletCount(),
		Peers:         make([]wire.PeerHealth, 0, len(peers)),
	}
	anySuspect, anyOpen := false, false
	for _, p := range peers {
		ph := wire.PeerHealth{
			Core:    p,
			Breaker: c.BreakerState(p),
			Suspect: suspects[p],
		}
		if ph.Suspect {
			anySuspect = true
		}
		if ph.Breaker == "open" {
			anyOpen = true
		}
		h.Peers = append(h.Peers, ph)
	}
	h.JournalEnabled, h.JournalRecords, h.PendingMoves, h.MovesRecovered, h.MovesRolledBack = c.recoverySnapshot()
	monitored := len(suspects) > 0 // at least one peer currently suspect
	allSuspect := monitored && len(suspects) >= len(peers) && len(peers) > 0
	h.Live = !closed && !allSuspect
	h.Ready = !closed && !anySuspect && !anyOpen && moves == 0 && h.PendingMoves == 0
	return h
}

// flightReply snapshots the recorder for the flight section. afterSeq, when
// nonzero, drops events with Seq <= afterSeq so incremental collectors (the
// observatory's timeline loop) ship only unseen events.
func (c *Core) flightReply(max int, afterSeq uint64) wire.FlightQueryReply {
	events := c.flight.Snapshot(max)
	skip := sort.Search(len(events), func(i int) bool { return events[i].Seq > afterSeq })
	return wire.FlightQueryReply{Core: c.id, Total: c.flight.Total(), Events: events[skip:]}
}
