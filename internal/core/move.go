package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/journal"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// Movement callbacks (§3.3): anchors may implement any subset of these
// optional interfaces; the movement protocol invokes them at the
// corresponding phase.

// PreDeparture is invoked before the movement at the sending core.
type PreDeparture interface {
	PreDeparture(dest ids.CoreID)
}

// PreArrival is invoked at the receiving core after the closure is decoded
// but before its references are re-linked (i.e. "before finishing
// unmarshaling").
type PreArrival interface {
	PreArrival(from ids.CoreID)
}

// PostArrival is invoked at the receiving core after the complet is fully
// installed.
type PostArrival interface {
	PostArrival(from ids.CoreID)
}

// PostDeparture is invoked at the sending core right before the old copy of
// the complet is released for garbage collection.
type PostDeparture interface {
	PostDeparture(dest ids.CoreID)
}

// Move relocates the referenced complet (and, per its outgoing references'
// relocators, related complets) to the destination core. The reference may
// point anywhere: if the complet is hosted elsewhere, the command is routed
// to its owner (Figure 3: Carrier.move semantics without continuation). The
// operation is bounded by the core's default request budget; use MoveCtx to
// supply a deadline or cancellation of your own.
func (c *Core) Move(r *ref.Ref, dest ids.CoreID) error {
	return c.MoveWithContinuationCtx(context.Background(), r, dest, "", nil)
}

// MoveCtx is Move bounded by the caller's context. The deadline covers the
// whole operation — routing the command along the tracker chain, marshaling,
// shipping the bundle, and the receiver's installation all deduct from one
// budget that travels on the wire. Cancelling the context abandons the wait;
// note that a bundle already in flight may still install at the destination
// (the moved complet remains reachable through its trackers either way — see
// DESIGN.md on movement atomicity).
func (c *Core) MoveCtx(ctx context.Context, r *ref.Ref, dest ids.CoreID, opts ...ref.InvokeOption) error {
	return c.MoveWithContinuationCtx(ctx, r, dest, "", nil, opts...)
}

// MoveWithContinuation relocates the complet and, after arrival, invokes the
// named continuation method on it with the given arguments (§3.3: weak
// mobility's "call with continuation" style). An empty method means no
// continuation.
func (c *Core) MoveWithContinuation(r *ref.Ref, dest ids.CoreID, method string, args []any) error {
	return c.MoveWithContinuationCtx(context.Background(), r, dest, method, args)
}

// MoveWithContinuationCtx is MoveWithContinuation bounded by the caller's
// context. Movement is not idempotent and is never retried by the runtime;
// on failure the *InvokeError cause distinguishes a destination that
// answered with an error from one that never answered.
func (c *Core) MoveWithContinuationCtx(ctx context.Context, r *ref.Ref, dest ids.CoreID, method string, args []any, opts ...ref.InvokeOption) error {
	if c.isClosed() {
		return ErrClosed
	}
	o := ref.BuildCallOptions(opts)
	op := fmt.Sprintf("move %s to %s", r.Target(), dest)
	ctx, cancel := c.withBudget(ctx, o.Timeout)
	defer cancel()
	ctx, sp := c.tracer.StartSpan(ctx, op)
	defer sp.Finish()
	start := time.Now()
	var contArgs []byte
	if method != "" {
		var err error
		contArgs, _, err = wire.EncodeArgs(c.anchorsToRefs(args))
		if err != nil {
			err = fmt.Errorf("core: encode continuation args of %s: %w", op, err)
			sp.SetError(err)
			c.met.moveErrs.Inc()
			return err
		}
	}
	if err := c.moveCommand(ctx, r.Target(), r.Hint(), dest, method, contArgs, 0, o); err != nil {
		sp.SetError(err)
		c.met.moveErrs.Inc()
		return invokeErr(op, r.Target(), "", err)
	}
	c.met.moves.Inc()
	c.met.moveLatency.Observe(float64(time.Since(start).Nanoseconds()))
	r.SetHint(dest)
	return nil
}

// MoveSelf schedules a complet's own relocation: called from WITHIN one of
// the complet's methods (weak mobility, §3.3), it returns immediately and
// performs the move once the current invocation — which holds the complet's
// invocation lock — has returned. The continuation method (if any) then runs
// at the destination. Errors are reported to the core's logger (the initiating
// stack frame is gone by the time they can occur).
func (c *Core) MoveSelf(anchor any, dest ids.CoreID, contMethod string, args []any) error {
	if c.isClosed() {
		return ErrClosed
	}
	self, err := c.RefOf(anchor)
	if err != nil {
		return err
	}
	var contArgs []byte
	if contMethod != "" {
		contArgs, _, err = wire.EncodeArgs(c.anchorsToRefs(args))
		if err != nil {
			return err
		}
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ctx, cancel := c.withBudget(context.Background(), 0)
		defer cancel()
		ctx, sp := c.tracer.StartSpan(ctx, fmt.Sprintf("move-self %s to %s", self.Target(), dest))
		defer sp.Finish()
		start := time.Now()
		if err := c.moveCommand(ctx, self.Target(), self.Hint(), dest, contMethod, contArgs, 0, ref.CallOptions{}); err != nil {
			sp.SetError(err)
			c.met.moveErrs.Inc()
			c.opts.Logf("fargo core %s: self-move of %s to %s: %v", c.id, self.Target(), dest, err)
			return
		}
		c.met.moves.Inc()
		c.met.moveLatency.Observe(float64(time.Since(start).Nanoseconds()))
	}()
	return nil
}

// MoveByID relocates a complet identified by ID (used by the shell, scripts
// and event-driven policies, which hold IDs rather than stubs).
func (c *Core) MoveByID(target ids.CompletID, dest ids.CoreID) error {
	return c.MoveByIDCtx(context.Background(), target, dest)
}

// MoveByIDCtx is MoveByID bounded by the caller's context.
func (c *Core) MoveByIDCtx(ctx context.Context, target ids.CompletID, dest ids.CoreID, opts ...ref.InvokeOption) error {
	if c.isClosed() {
		return ErrClosed
	}
	o := ref.BuildCallOptions(opts)
	ctx, cancel := c.withBudget(ctx, o.Timeout)
	defer cancel()
	ctx, sp := c.tracer.StartSpan(ctx, fmt.Sprintf("move %s to %s", target, dest))
	defer sp.Finish()
	start := time.Now()
	if err := c.moveCommand(ctx, target, "", dest, "", nil, 0, o); err != nil {
		sp.SetError(err)
		c.met.moveErrs.Inc()
		return invokeErr(fmt.Sprintf("move %s to %s", target, dest), target, "", err)
	}
	c.met.moves.Inc()
	c.met.moveLatency.Observe(float64(time.Since(start).Nanoseconds()))
	return nil
}

// moveCommand executes the move if the complet is local, or routes the
// command along the tracker chain to its owner. The context's remaining
// deadline travels with the routed command, so every chain hop and the final
// owner-side bundle shipment deduct from the caller's single budget.
func (c *Core) moveCommand(ctx context.Context, target ids.CompletID, hint ids.CoreID, dest ids.CoreID, contMethod string, contArgs []byte, hops int, opts ref.CallOptions) error {
	repaired := false
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: moving %s: %w", target, err)
		}
		if hops+attempt > maxHops {
			return c.tripHopBudget(fmt.Sprintf("move %s", target), target)
		}
		t := c.trackerFor(target, hint)
		local, next := t.point()
		if local {
			err := c.moveLocal(ctx, target, dest, contMethod, contArgs, opts)
			if err == errStaleLocal {
				continue
			}
			return err
		}
		if next == c.id {
			return fmt.Errorf("%w: %s (self-referential tracker)", ErrUnknownComplet, target)
		}
		reply, err := call[wire.MoveCommand, wire.MoveCommandReply](ctx, c, next, wire.KindMoveCmd, wire.MoveCommand{
			Target:             target,
			Dest:               dest,
			ContinuationMethod: contMethod,
			ContinuationArgs:   contArgs,
			Hops:               hops + attempt + 1,
		}, opts, nil)
		if err != nil {
			// Self-healing (repair.go): route around a dead chain hop by
			// re-resolving through the target's home core, once.
			if !repaired && repairable(err) {
				if _, ok := c.repairChain(ctx, target, next, fmt.Sprintf("move %s", target)); ok {
					repaired = true
					continue
				}
			}
			return fmt.Errorf("core: route move of %s: %w", target, err)
		}
		if reply.Err != "" {
			if strings.Contains(reply.Err, ErrMoveInFlight.Error()) {
				// Resurface the owner's sentinel across the wire so
				// errors.Is(err, ErrMoveInFlight) holds for routed moves too.
				return fmt.Errorf("core: move %s: %w", target, ErrMoveInFlight)
			}
			return &peerError{msg: fmt.Sprintf("core: move %s: %s", target, reply.Err)}
		}
		// Refresh our tracker toward the destination (shorten refuses
		// conflicting updates: if the complet has already bounced back
		// here, the local repository state wins).
		t.shorten(dest, c.id)
		return nil
	}
}

// serveMoveCmd serves a routed movement command under the remaining budget
// the envelope carried.
func (c *Core) serveMoveCmd(ctx context.Context, req wire.MoveCommand) (wire.MoveCommandReply, error) {
	ctx, sp := c.tracer.ChildSpan(ctx, "serve move-cmd")
	if sp != nil {
		sp.SetAttr("target", req.Target.String())
		sp.SetAttr("dest", req.Dest.String())
		sp.SetAttr("hops", strconv.Itoa(req.Hops))
	}
	defer sp.Finish()
	reply := wire.MoveCommandReply{}
	if err := c.moveCommand(ctx, req.Target, "", req.Dest, req.ContinuationMethod, req.ContinuationArgs, req.Hops, ref.CallOptions{}); err != nil {
		sp.SetError(err)
		reply.Err = err.Error()
	}
	return reply, nil
}

// moveLocal performs the owner-side movement protocol (§3.3):
//
//  1. Serialize against other outgoing moves, then W-lock every complet that
//     will travel, blocking invocations for the duration.
//  2. Marshal each closure under a ModeMove collector; relocators schedule
//     pull targets (which join the bundle) and duplicate targets (copies join
//     the bundle; remote ones are cloned ahead via their owners).
//  3. Ship the whole bundle in ONE inter-core message.
//  4. On acknowledgement, flip local trackers to forwarders, fire callbacks
//     and events, and release the old copies.
//
// Remote pull targets (not hosted here) cannot join this bundle; they are
// moved to the same destination with follow-up commands (documented deviation
// — the single-message property holds for co-located closures, the common
// case the paper describes).
func (c *Core) moveLocal(ctx context.Context, rootID ids.CompletID, dest ids.CoreID, contMethod string, contArgs []byte, opts ref.CallOptions) error {
	if dest == c.id {
		// Already here; run the continuation (if any) for uniformity.
		entry, ok := c.lookup(rootID)
		if !ok {
			return errStaleLocal
		}
		if contMethod != "" {
			c.runContinuation(entry, contMethod, contArgs)
		}
		return nil
	}
	if dest.Nil() {
		return fmt.Errorf("core: move %s: empty destination", rootID)
	}

	c.moveOpMu.Lock()
	defer c.moveOpMu.Unlock()
	if err := ctx.Err(); err != nil {
		// The budget ran out while waiting for a concurrent move to
		// finish; give up before locking anything.
		return fmt.Errorf("core: moving %s: %w", rootID, err)
	}
	// The readiness verdict (health.go) reports a move in flight from here
	// until the protocol finishes either way.
	c.moveStarted()
	defer c.moveFinished()
	protoStart := time.Now()

	// The bundle span covers marshaling, pre-cloning of remote duplicate
	// targets, and the single-message shipment; the receiver's installation
	// span parents under it via the envelope's trace context.
	ctx, bsp := c.tracer.ChildSpan(ctx, "move.bundle")
	defer bsp.Finish()

	var (
		locked      []*complet
		entries     []wire.BundleEntry
		remotePulls []ids.CompletID
		remoteDups  []ids.CompletID
		preDup      = map[ids.CompletID]ids.CompletID{}
		visited     = map[ids.CompletID]bool{rootID: true}
		dupDone     = map[ids.CompletID]bool{}
		queue       = []ids.CompletID{rootID}
	)
	unlock := func() {
		for _, e := range locked {
			e.moveMu.Unlock()
		}
	}
	fail := func(err error) error {
		unlock()
		bsp.SetError(err)
		c.flight.Record(flight.Event{
			Kind:          flight.KindMoveFailed,
			Complet:       rootID.String(),
			Peer:          dest.String(),
			DurationNanos: time.Since(protoStart).Nanoseconds(),
			Err:           err.Error(),
		})
		return err
	}

	targetLocal := func(id ids.CompletID) bool {
		_, ok := c.lookup(id)
		return ok
	}

	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		entry, ok := c.lookup(id)
		if !ok {
			if id == rootID {
				unlock()
				return errStaleLocal
			}
			// A pull target raced away; it will be chased with a
			// follow-up command.
			remotePulls = append(remotePulls, id)
			continue
		}
		entry.moveMu.Lock()
		if entry.gone {
			entry.moveMu.Unlock()
			if id == rootID {
				unlock()
				return errStaleLocal
			}
			remotePulls = append(remotePulls, id)
			continue
		}
		locked = append(locked, entry)

		if cb, ok := entry.anchor.(PreDeparture); ok {
			cb.PreDeparture(dest)
		}

		payload, coll, err := wire.EncodeClosure(entry.anchor, ref.MoveContext{
			Source: id,
			From:   c.id,
			To:     dest,
		}, targetLocal)
		if err != nil {
			return fail(fmt.Errorf("core: marshal %s for move: %w", id, err))
		}
		entries = append(entries, wire.BundleEntry{
			ID:       id,
			TypeName: entry.typeName,
			Payload:  payload,
		})

		for _, p := range coll.Pulls {
			if visited[p] {
				continue
			}
			visited[p] = true
			if targetLocal(p) {
				queue = append(queue, p)
			} else {
				remotePulls = append(remotePulls, p)
			}
		}
		for _, d := range coll.Duplicates {
			if dupDone[d] {
				continue
			}
			dupDone[d] = true
			if dupEntry, ok := c.lookup(d); ok {
				dupPayload, err := c.encodeDuplicate(dupEntry)
				if err != nil {
					return fail(fmt.Errorf("core: marshal duplicate %s: %w", d, err))
				}
				entries = append(entries, wire.BundleEntry{
					ID:       d,
					TypeName: dupEntry.typeName,
					Payload:  dupPayload,
					Dup:      true,
				})
			} else {
				remoteDups = append(remoteDups, d)
			}
		}
	}

	// Clone remote duplicate targets ahead of the bundle so the receiver
	// can bind Dup-flagged references to the copies.
	for _, d := range remoteDups {
		newID, err := c.cloneCommand(ctx, d, dest, 0, opts)
		if err != nil {
			c.opts.Logf("fargo core %s: duplicate of remote %s at %s failed (reference degrades to link): %v", c.id, d, dest, err)
			continue
		}
		preDup[d] = newID
	}

	// Carry naming entries for the moved complets.
	names := map[string]int{}
	c.mu.Lock()
	for name, r := range c.names {
		for i, e := range entries {
			if !e.Dup && e.ID == r.Target() {
				names[name] = i
			}
		}
	}
	c.mu.Unlock()

	// One inter-core message for the whole bundle (§3.3). The remaining
	// budget rides the envelope, so the receiver can refuse to start an
	// installation it cannot finish in time. The bundle carries a move
	// epoch: the destination journals and installs at most once per epoch,
	// and the two-phase records below (PREPARE before shipping, COMMIT after
	// acknowledgement — DESIGN.md §13) let a crashed source converge to
	// exactly one live copy on recovery.
	pm := &pendingMove{epoch: c.moveEpochs.Next(), dest: dest, root: rootID}
	closureBytes := 0
	for _, e := range entries {
		if !e.Dup {
			pm.complets = append(pm.complets, e.ID)
		}
		closureBytes += len(e.Payload)
	}
	bundle := wire.MoveRequest{
		Entries:            entries,
		ContinuationMethod: contMethod,
		ContinuationArgs:   contArgs,
		Names:              names,
		PreDup:             preDup,
		Epoch:              pm.epoch,
		// Invocation accounting travels with the complets (meters key on
		// complet identity, so rates survive relocation); the departing
		// copies are captured while their W-locks block new invocations.
		Meters: c.mon.exportMeters(pm.complets),
		// Per-method SLO telemetry travels the same way (DESIGN.md §16).
		MethodMeters: c.mon.exportMethodMeters(pm.complets),
	}
	if c.stepCrash(StepBeforePrepare, rootID) {
		return fail(errSimulatedCrash)
	}
	if err := c.prepareMove(pm); err != nil {
		return fail(fmt.Errorf("core: move %s to %s: %w", rootID, dest, err))
	}
	if c.stepCrash(StepAfterPrepare, rootID) {
		// A crash between PREPARE and the shipment leaves the move pending;
		// recovery probes the destination and rolls it back.
		return fail(errSimulatedCrash)
	}
	if bsp != nil {
		bsp.SetAttr("dest", dest.String())
		bsp.SetAttr("complets", strconv.Itoa(len(entries)))
		bsp.SetAttr("bytes", strconv.Itoa(closureBytes))
	}
	reply, err := call[wire.MoveRequest, wire.MoveReply](ctx, c, dest, wire.KindMove, bundle, opts, nil)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's budget died mid-shipment; it cannot wait for an
			// outcome probe. Resolve in the background: the move stays
			// pending (re-moves fail with ErrMoveInFlight) until the probe
			// settles it — commit-and-release if the bundle installed,
			// rollback if the destination durably refuses.
			c.resolveAsync(pm)
			return fail(err)
		}
		// The outcome is unknown — the bundle (or its acknowledgement) was
		// lost. Ask the destination directly before giving up.
		committed, stillPending := c.resolveUnknownOutcome(dest, pm.epoch, rootID)
		switch {
		case committed:
			// It installed; proceed exactly as if the ack had arrived.
			if _, serr := c.settleMove(pm.epoch, journal.OpCommit); serr != nil {
				return fail(fmt.Errorf("core: move %s to %s: commit: %w", rootID, dest, serr))
			}
		case stillPending:
			// Unresolvable right now: the move stays pending (further moves
			// of these complets fail with ErrMoveInFlight) until Recover
			// reaches the destination.
			return fail(fmt.Errorf("%w (outcome unknown; move left pending for recovery)", err))
		default:
			// The destination durably refused the epoch: safe rollback.
			if _, serr := c.settleMove(pm.epoch, journal.OpAbort); serr != nil {
				return fail(fmt.Errorf("core: move %s to %s: abort: %w", rootID, dest, serr))
			}
			return fail(err)
		}
	} else if reply.Err != "" {
		// The destination answered with a verdict: it did not install.
		if _, serr := c.settleMove(pm.epoch, journal.OpAbort); serr != nil {
			return fail(fmt.Errorf("core: move %s to %s: abort: %w", rootID, dest, serr))
		}
		return fail(&peerError{msg: fmt.Sprintf("core: move bundle to %s: %s", dest, reply.Err)})
	} else {
		if c.stepCrash(StepAfterSend, rootID) {
			// Crash between the ack and COMMIT: both sides hold a copy until
			// recovery probes the destination and completes the move.
			return fail(errSimulatedCrash)
		}
		if _, serr := c.settleMove(pm.epoch, journal.OpCommit); serr != nil {
			return fail(fmt.Errorf("core: move %s to %s: commit: %w", rootID, dest, serr))
		}
	}
	if c.stepCrash(StepAfterCommit, rootID) {
		// Crash after COMMIT but before release: replaying the journal makes
		// recovery release the stale local copies.
		return fail(errSimulatedCrash)
	}

	// Success: flip trackers, mark entries gone, fire callbacks/events.
	c.flight.Record(flight.Event{
		Kind:          flight.KindMove,
		Complet:       rootID.String(),
		Peer:          dest.String(),
		Bytes:         closureBytes,
		DurationNanos: time.Since(protoStart).Nanoseconds(),
		Detail:        fmt.Sprintf("%d complet(s)", len(entries)),
	})
	// "Gone" and "tracker forwards to dest" are one transition under the
	// W-lock: an invocation that blocked on moveMu wakes to a tracker that
	// already points away, so it retries once instead of spinning on a
	// stale "local" until the hop budget runs out.
	for _, e := range locked {
		e.gone = true
		c.remove(e.id, dest)
	}
	unlock()
	// The departed complets' accounting now lives at the destination
	// (shipped with the bundle); dropping it here keeps every meter counted
	// at exactly one core.
	c.mon.dropMeters(pm.complets)
	c.mon.dropMethodMeters(pm.complets)
	for _, e := range locked {
		if cb, ok := e.anchor.(PostDeparture); ok {
			cb.PostDeparture(dest)
		}
		c.mon.fireBuiltin(EventCompletDeparted, e.id, dest.String())
	}

	// Chase pull targets that were not co-located.
	for _, p := range remotePulls {
		if err := c.moveCommand(ctx, p, "", dest, "", nil, 0, opts); err != nil {
			c.opts.Logf("fargo core %s: pull of remote %s to %s failed: %v", c.id, p, dest, err)
		}
	}
	return nil
}

// encodeDuplicate marshals a copy of a complet's closure for a duplicate
// reference. The copy's own outgoing references are degraded to link
// (ModeParam): a replica does not drag further complets around.
func (c *Core) encodeDuplicate(entry *complet) ([]byte, error) {
	entry.moveMu.RLock()
	defer entry.moveMu.RUnlock()
	if entry.gone {
		return nil, errStaleLocal
	}
	data, _, err := wire.EncodeArgs([]any{entry.anchor})
	return data, err
}

// cloneCommand asks the owner of target to install a copy at dest.
func (c *Core) cloneCommand(ctx context.Context, target ids.CompletID, dest ids.CoreID, hops int, opts ref.CallOptions) (ids.CompletID, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return ids.CompletID{}, fmt.Errorf("core: cloning %s: %w", target, err)
		}
		if hops+attempt > maxHops {
			return ids.CompletID{}, c.tripHopBudget(fmt.Sprintf("clone %s", target), target)
		}
		t := c.trackerFor(target, "")
		local, next := t.point()
		if local {
			newID, err := c.cloneLocal(ctx, target, dest, opts)
			if err == errStaleLocal {
				continue
			}
			return newID, err
		}
		if next == c.id {
			return ids.CompletID{}, fmt.Errorf("%w: %s (self-referential tracker)", ErrUnknownComplet, target)
		}
		reply, err := call[wire.CloneCommand, wire.CloneCommandReply](ctx, c, next, wire.KindClone,
			wire.CloneCommand{Target: target, Dest: dest, Hops: hops + attempt + 1}, opts, nil)
		if err != nil {
			return ids.CompletID{}, fmt.Errorf("core: route clone of %s: %w", target, err)
		}
		if reply.Err != "" {
			return ids.CompletID{}, &peerError{msg: fmt.Sprintf("core: clone %s: %s", target, reply.Err)}
		}
		return reply.NewID, nil
	}
}

// cloneLocal ships a copy of a locally hosted complet to dest as a
// single-entry Dup bundle and returns the copy's identity.
func (c *Core) cloneLocal(ctx context.Context, target ids.CompletID, dest ids.CoreID, opts ref.CallOptions) (ids.CompletID, error) {
	entry, ok := c.lookup(target)
	if !ok {
		return ids.CompletID{}, errStaleLocal
	}
	data, err := c.encodeDuplicate(entry)
	if err != nil {
		return ids.CompletID{}, err
	}
	if dest == c.id {
		// Local clone: install directly.
		return c.installDuplicate(entry.typeName, data)
	}
	reply, err := call[wire.MoveRequest, wire.MoveReply](ctx, c, dest, wire.KindMove, wire.MoveRequest{
		Entries: []wire.BundleEntry{{
			ID:       target,
			TypeName: entry.typeName,
			Payload:  data,
			Dup:      true,
		}},
	}, opts, nil)
	if err != nil {
		return ids.CompletID{}, err
	}
	if reply.Err != "" {
		return ids.CompletID{}, &peerError{msg: fmt.Sprintf("core: clone to %s: %s", dest, reply.Err)}
	}
	newID, ok := reply.DupMap[target]
	if !ok {
		return ids.CompletID{}, fmt.Errorf("core: clone to %s: no copy identity returned", dest)
	}
	return newID, nil
}

// serveClone serves a routed clone command.
func (c *Core) serveClone(ctx context.Context, req wire.CloneCommand) (wire.CloneCommandReply, error) {
	newID, err := c.cloneCommand(ctx, req.Target, req.Dest, req.Hops, ref.CallOptions{})
	if err != nil {
		return wire.CloneCommandReply{Err: err.Error()}, nil
	}
	return wire.CloneCommandReply{NewID: newID}, nil
}

// installDuplicate decodes a duplicate payload (encoded by encodeDuplicate)
// and installs it under a fresh identity.
func (c *Core) installDuplicate(typeName string, data []byte) (ids.CompletID, error) {
	vals, decoded, err := wire.DecodeArgs(data)
	if err != nil {
		return ids.CompletID{}, err
	}
	if len(vals) != 1 {
		return ids.CompletID{}, fmt.Errorf("core: duplicate payload holds %d values", len(vals))
	}
	c.bindDecoded(decoded)
	newID := c.mint.Next()
	c.install(newID, typeName, vals[0])
	c.mon.fireBuiltin(EventCompletArrived, newID, "duplicate")
	return newID, nil
}

// arrivedComplet is the receiver-side record of one bundle entry during
// installation.
type arrivedComplet struct {
	id       ids.CompletID
	typeName string
	anchor   any
	refs     []*ref.Ref
	dup      bool
}

// handleMove installs an arriving movement bundle (§3.3, receiver side):
// decode every closure, assign fresh identities to duplicates, re-bind
// references (dup → copies, stamp → equivalent local complets), install
// complets and trackers, fire callbacks/events, then run the continuation.
// The context carries the sender's remaining budget: an installation that
// cannot start before the deadline is refused outright, so the sender keeps
// the complets instead of racing a timed-out reply.
func (c *Core) handleMove(ctx context.Context, env wire.Envelope) (wire.Kind, []byte, error) {
	return serve(ctx, env, wire.KindMoveReply, func(ctx context.Context, req wire.MoveRequest) (wire.MoveReply, error) {
		_, sp := c.tracer.ChildSpan(ctx, "move.install")
		if sp != nil {
			sp.SetAttr("from", env.From.String())
			sp.SetAttr("complets", strconv.Itoa(len(req.Entries)))
		}
		defer sp.Finish()
		if err := ctx.Err(); err != nil {
			sp.SetError(err)
			return wire.MoveReply{Err: fmt.Sprintf("bundle refused: %v", err)}, nil
		}
		reply := c.installBundle(env.From, req, env.Payload)
		if reply.Err != "" {
			sp.SetAttr("error", reply.Err)
		}
		return reply, nil
	})
}

// installBundle installs an arriving bundle. raw is the encoded MoveRequest
// exactly as it travelled (journaled with the INSTALL record so recovery can
// re-install after a crash). Epoch-stamped bundles install at most once: a
// duplicate delivery gets the original reply, a delivery racing a recovery
// probe's durable refusal is rejected.
func (c *Core) installBundle(from ids.CoreID, req wire.MoveRequest, raw []byte) wire.MoveReply {
	if req.Epoch != 0 {
		key := moveKey{source: from, epoch: req.Epoch}
		cached, claim := c.beginInstall(key)
		if claim != claimRun {
			return cached
		}
		reply := c.installBundleLocked(from, req, raw)
		c.finishInstall(key, reply)
		return reply
	}
	return c.installBundleLocked(from, req, raw)
}

func (c *Core) installBundleLocked(from ids.CoreID, req wire.MoveRequest, raw []byte) wire.MoveReply {
	// Admission control (resource allocation, §7 future work): refuse the
	// whole bundle when it does not fit; the sender keeps the complets.
	if err := c.admit(len(req.Entries)); err != nil {
		return wire.MoveReply{Err: err.Error()}
	}
	dupMap := make(map[ids.CompletID]ids.CompletID, len(req.PreDup))
	for old, copyID := range req.PreDup {
		dupMap[old] = copyID
	}

	arrived := make([]arrivedComplet, 0, len(req.Entries))
	for _, e := range req.Entries {
		var (
			a    arrivedComplet
			err  error
			vals []any
		)
		a.id, a.typeName, a.dup = e.ID, e.TypeName, e.Dup
		if e.Dup {
			vals, a.refs, err = wire.DecodeArgs(e.Payload)
			if err == nil && len(vals) == 1 {
				a.anchor = vals[0]
			} else if err == nil {
				err = fmt.Errorf("duplicate payload holds %d values", len(vals))
			}
			if err == nil {
				a.id = c.mint.Next()
				dupMap[e.ID] = a.id
			}
		} else {
			a.anchor, a.refs, err = wire.DecodeClosure(e.Payload)
		}
		if err != nil {
			return wire.MoveReply{Err: fmt.Sprintf("decode %s (%s): %v", e.ID, e.TypeName, err)}
		}
		// preArrival runs after decoding but before reference linking
		// ("before finishing unmarshaling").
		if cb, ok := a.anchor.(PreArrival); ok {
			cb.PreArrival(from)
		}
		arrived = append(arrived, a)
	}

	// Re-bind references: duplicates to their copies, stamps to local
	// equivalents; everything gets attached to this core. References in a
	// complet's closure are owned by that complet (per-reference
	// invocation profiling keys on this).
	for i := range arrived {
		for _, r := range arrived[i].refs {
			r.SetOwner(arrived[i].id)
			switch {
			case r.DecodedDup():
				if copyID, ok := dupMap[r.Target()]; ok {
					r.Retarget(copyID, r.AnchorType(), c.id)
				}
				// No copy (clone failed): the reference keeps
				// tracking the original, degraded to a plain
				// link in behaviour.
			case r.DecodedStamp():
				if localID, ok := c.findLocalByType(r.AnchorType()); ok {
					r.Retarget(localID, r.AnchorType(), c.id)
				} else {
					c.opts.Logf("fargo core %s: stamp re-binding: no local complet of type %q; reference keeps tracking the original", c.id, r.AnchorType())
				}
			}
		}
		c.bindDecoded(arrived[i].refs)
	}

	// Durability point (DESIGN.md §13): journal the INSTALL record — raw
	// bundle included — before any complet activates, so a crash from here
	// on can re-install the arrivals even from a checkpoint that predates
	// them. A journal failure refuses the whole bundle; the sender keeps
	// the complets.
	if req.Epoch != 0 {
		moved := make([]ids.CompletID, 0, len(arrived))
		for _, a := range arrived {
			if !a.dup {
				moved = append(moved, a.id)
			}
		}
		if err := c.journalInstall(from, req.Epoch, moved, raw); err != nil {
			return wire.MoveReply{Err: fmt.Sprintf("journal install: %v", err)}
		}
		if len(moved) > 0 {
			// Chaos crash point: INSTALL is durable, activation and the
			// acknowledgement are not. The harness cuts the network here;
			// installation proceeds (the reply dies in flight) and the
			// restarted core re-installs from the journal.
			c.stepCrash(StepAfterInstall, moved[0])
		}
	}

	// Install complets and trackers.
	installed := make([]ids.CompletID, 0, len(arrived))
	homeTracking := c.homeTrackingEnabled()
	for _, a := range arrived {
		c.install(a.id, a.typeName, a.anchor)
		installed = append(installed, a.id)
		if homeTracking {
			c.reportHome(a.id)
		}
	}

	// Merge the shipped invocation accounting under the complets' unchanged
	// identities, so rates observed before the move keep informing the
	// layout planner here.
	c.mon.importMeters(req.Meters)
	c.mon.importMethodMeters(req.MethodMeters)

	// Register carried names against the (tracking) references.
	for name, idx := range req.Names {
		if idx >= 0 && idx < len(arrived) {
			a := arrived[idx]
			c.setLocalName(name, ref.New(a.id, a.typeName, c.id, c.binder()))
		}
	}

	// postArrival + events once everything is linked.
	for _, a := range arrived {
		if cb, ok := a.anchor.(PostArrival); ok {
			cb.PostArrival(from)
		}
		c.mon.fireBuiltin(EventCompletArrived, a.id, from.String())
	}

	// Continuation: resume the computation on the first entry's anchor.
	if req.ContinuationMethod != "" && len(arrived) > 0 {
		root, ok := c.lookup(arrived[0].id)
		if ok {
			c.runContinuation(root, req.ContinuationMethod, req.ContinuationArgs)
		}
	}
	c.notePeer(from)
	return wire.MoveReply{Installed: installed, DupMap: dupMap}
}

// findLocalByType returns some locally hosted complet of the given type
// (stamp re-binding, §3.3).
func (c *Core) findLocalByType(typeName string) (ids.CompletID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		best  ids.CompletID
		found bool
	)
	for id, entry := range c.complets {
		if entry.typeName != typeName {
			continue
		}
		// Deterministic choice: smallest ID string.
		if !found || id.String() < best.String() {
			best, found = id, true
		}
	}
	return best, found
}

// runContinuation invokes the continuation method on a freshly arrived
// complet on its own goroutine (the movement reply must not wait for it).
func (c *Core) runContinuation(entry *complet, method string, argBytes []byte) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		resBytes := argBytes
		if resBytes == nil {
			var err error
			resBytes, _, err = wire.EncodeArgs(nil)
			if err != nil {
				c.opts.Logf("fargo core %s: continuation %s.%s: encode empty args: %v", c.id, entry.typeName, method, err)
				return
			}
		}
		ctx, cancel := c.withBudget(context.Background(), 0)
		defer cancel()
		if _, err := c.invokeLocal(ctx, entry.id, method, resBytes); err != nil {
			c.opts.Logf("fargo core %s: continuation %s.%s: %v", c.id, entry.typeName, method, err)
		}
	}()
}
