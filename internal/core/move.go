package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
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
	return c.MoveWithContinuationCtx(ctx, ref.New(target, "", "", c.binder()), dest, "", nil, opts...)
}

// moveCommand executes the move if the complet is local, or routes the
// command along the tracker chain to its owner (walk). The context's
// remaining deadline travels with the routed command, so every chain hop and
// the final owner-side bundle shipment deduct from the caller's single
// budget. A routed move shortens our tracker to dest; shorten refuses it if
// the complet has already bounced back here.
func (c *Core) moveCommand(ctx context.Context, target ids.CompletID, hint ids.CoreID, dest ids.CoreID, contMethod string, contArgs []byte, hops int, opts ref.CallOptions) error {
	_, _, err := walk(ctx, c, target, hint, hops, "move", "",
		func(entry *complet) (struct{}, error) {
			return struct{}{}, c.moveLocal(ctx, entry, dest, contMethod, contArgs, opts)
		},
		func(next ids.CoreID, hops int) (struct{}, ids.CoreID, error) {
			reply, err := call[wire.MoveCommand, wire.MoveCommandReply](ctx, c, next, wire.KindMoveCmd, wire.MoveCommand{
				Target:             target,
				Dest:               dest,
				ContinuationMethod: contMethod,
				ContinuationArgs:   contArgs,
				Hops:               hops,
			}, opts, nil)
			if err != nil {
				return struct{}{}, "", fmt.Errorf("core: route move of %s: %w", target, err)
			}
			if reply.Err != "" {
				// The verdict already names the operation; wrapping it
				// again at every hop would nest the text per hop.
				return struct{}{}, "", &peerError{msg: reply.Err}
			}
			return struct{}{}, dest, nil
		})
	return err
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
func (c *Core) moveLocal(ctx context.Context, root *complet, dest ids.CoreID, contMethod string, contArgs []byte, opts ref.CallOptions) error {
	rootID := root.id
	if dest == c.id {
		// Already here; run the continuation (if any) for uniformity.
		if contMethod != "" {
			c.runContinuation(root, contMethod, contArgs)
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
		if !entry.live() {
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
				// A copy of a complet this move already W-locked (a
				// travelling complet, or the one being marshaled) is
				// encoded under that lock.
				copied, err := c.encodeEntry(dupEntry, ref.ModeParam, slices.Contains(locked, dupEntry))
				if err != nil {
					return fail(fmt.Errorf("core: marshal duplicate %s: %w", d, err))
				}
				entries = append(entries, copied)
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
	}
	// Invocation accounting and per-method telemetry travel with the
	// complets (meters key on complet identity, so rates survive
	// relocation); the W-locks keep the snapshots still.
	for _, e := range locked {
		st, methods := e.meterStates()
		if st != nil {
			bundle.Meters = append(bundle.Meters, *st)
		}
		bundle.MethodMeters = append(bundle.MethodMeters, methods...)
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

	// Success: flip trackers, fire callbacks/events.
	c.flight.Record(flight.Event{
		Kind:          flight.KindMove,
		Complet:       rootID.String(),
		Peer:          dest.String(),
		Bytes:         closureBytes,
		DurationNanos: time.Since(protoStart).Nanoseconds(),
		Detail:        fmt.Sprintf("%d complet(s)", len(entries)),
	})
	c.depart(locked, dest)

	// Chase pull targets that were not co-located.
	for _, p := range remotePulls {
		if err := c.moveCommand(ctx, p, "", dest, "", nil, 0, opts); err != nil {
			c.opts.Logf("fargo core %s: pull of remote %s to %s failed: %v", c.id, p, dest, err)
		}
	}
	return nil
}

// depart is the one departure step of complets that left this core, by a
// committed move or by recovery's release. The caller holds each entry's
// W-lock. The tracker flips to dest under that lock, and that flip is what
// ends the entry's liveness: an invocation that blocked on moveMu wakes to a
// tracker that already points away, so it retries once instead of spinning
// on a stale "local" until the hop budget runs out. remove also releases the
// departed meters, which now live at the destination. PostDeparture and the
// departure event follow the unlock.
func (c *Core) depart(locked []*complet, dest ids.CoreID) {
	for _, e := range locked {
		c.remove(e, dest)
	}
	for _, e := range locked {
		e.moveMu.Unlock()
	}
	for _, e := range locked {
		if cb, ok := e.anchor.(PostDeparture); ok {
			cb.PostDeparture(dest)
		}
		c.mon.fireBuiltin(EventCompletDeparted, e.id, dest.String())
	}
}

// encodeEntry encodes a hosted complet's closure in place, as a bundle entry:
// under ModeParam a copy for a duplicate reference or a clone, whose own
// references degrade to links (a replica does not drag further complets
// around), under ModeSnapshot a checkpoint entry. held says the caller
// already holds the entry's W-lock; otherwise the entry is read-locked for
// the encoding, and errStaleLocal reports that it has moved away.
func (c *Core) encodeEntry(entry *complet, mode ref.Mode, held bool) (wire.BundleEntry, error) {
	if !held {
		entry.moveMu.RLock()
		defer entry.moveMu.RUnlock()
		if !entry.live() {
			return wire.BundleEntry{}, errStaleLocal
		}
	}
	payload, err := wire.EncodeClosureWith(&ref.Collector{Mode: mode}, entry.anchor)
	return wire.BundleEntry{ID: entry.id, TypeName: entry.typeName, Payload: payload, Dup: mode == ref.ModeParam}, err
}

// cloneCommand asks the owner of target to install a copy at dest, routing
// the command along the tracker chain (walk).
func (c *Core) cloneCommand(ctx context.Context, target ids.CompletID, dest ids.CoreID, hops int, opts ref.CallOptions) (ids.CompletID, error) {
	newID, _, err := walk(ctx, c, target, "", hops, "clone", "",
		func(entry *complet) (ids.CompletID, error) {
			return c.cloneLocal(ctx, entry, dest, opts)
		},
		func(next ids.CoreID, hops int) (ids.CompletID, ids.CoreID, error) {
			reply, err := call[wire.CloneCommand, wire.CloneCommandReply](ctx, c, next, wire.KindClone,
				wire.CloneCommand{Target: target, Dest: dest, Hops: hops}, opts, nil)
			if err != nil {
				return ids.CompletID{}, "", fmt.Errorf("core: route clone of %s: %w", target, err)
			}
			if reply.Err != "" {
				return ids.CompletID{}, "", &peerError{msg: reply.Err}
			}
			// The reply names no location; shorten leaves the tracker as is.
			return reply.NewID, "", nil
		})
	return newID, err
}

// cloneLocal ships a copy of a locally hosted complet to dest as a
// single-entry Dup bundle and returns the copy's identity. A copy for this
// core arrives through the same installation as one shipped to a peer.
func (c *Core) cloneLocal(ctx context.Context, entry *complet, dest ids.CoreID, opts ref.CallOptions) (ids.CompletID, error) {
	copied, err := c.encodeEntry(entry, ref.ModeParam, false)
	if err != nil {
		return ids.CompletID{}, err
	}
	req := wire.MoveRequest{Entries: []wire.BundleEntry{copied}}
	reply, err := call(ctx, c, dest, wire.KindMove, req, opts, func() (wire.MoveReply, error) {
		return c.installBundle(c.id, req, nil), nil
	})
	if err != nil {
		return ids.CompletID{}, err
	}
	if reply.Err != "" {
		return ids.CompletID{}, &peerError{msg: fmt.Sprintf("core: clone to %s: %s", dest, reply.Err)}
	}
	newID, ok := reply.DupMap[entry.id]
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

// arrivedComplet is the receiver-side record of one complet coming in from
// outside this core, between decoding and installation.
type arrivedComplet struct {
	id       ids.CompletID
	typeName string
	anchor   any
	refs     []*ref.Ref
}

// decodeArrivals decodes the closures of entries — one DecodeClosure each,
// whatever mode encoded them — before any of them is installed, so one bad
// entry refuses the whole batch and leaves the core as it was.
func decodeArrivals(entries []wire.BundleEntry) ([]arrivedComplet, error) {
	arrived := make([]arrivedComplet, 0, len(entries))
	for _, e := range entries {
		anchor, refs, err := wire.DecodeClosure(e.Payload)
		if err != nil {
			return nil, fmt.Errorf("decode %s (%s): %w", e.ID, e.TypeName, err)
		}
		arrived = append(arrived, arrivedComplet{id: e.ID, typeName: e.TypeName, anchor: anchor, refs: refs})
	}
	return arrived, nil
}

// arrive is the one arrival step of complets that come in from outside this
// core: a movement bundle or a clone, a journal re-install and a checkpoint
// restore. Each arrival's references are owned by it (per-reference
// invocation profiling keys on the owner) and bound here; then the complet is
// installed, its meters seeded from the bundle's accounting when it
// travelled in one, and reported to its home core. A restore passes no bundle
// and reports nothing home: a checkpoint can be older than the journal, and
// Recover settles the locations.
func (c *Core) arrive(arrived []arrivedComplet, bundle *wire.MoveRequest) {
	homeTracking := bundle != nil && c.homeTrackingEnabled()
	for _, a := range arrived {
		for _, r := range a.refs {
			r.SetOwner(a.id)
		}
		c.bindDecoded(a.refs)
		c.install(a.id, a.typeName, a.anchor, bundle)
		if homeTracking {
			c.reportHome(a.id)
		}
	}
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
func (c *Core) installBundle(from ids.CoreID, req wire.MoveRequest, raw []byte) (reply wire.MoveReply) {
	if req.Epoch != 0 {
		key := moveKey{source: from, epoch: req.Epoch}
		cached, claim := c.beginInstall(key)
		if claim != claimRun {
			return cached
		}
		defer func() { c.finishInstall(key, reply) }()
	}
	// Admission control (resource allocation, §7 future work): refuse the
	// whole bundle when it does not fit; the sender keeps the complets.
	if err := c.admit(len(req.Entries)); err != nil {
		return wire.MoveReply{Err: err.Error()}
	}
	arrived, err := decodeArrivals(req.Entries)
	if err != nil {
		return wire.MoveReply{Err: err.Error()}
	}
	dupMap := make(map[ids.CompletID]ids.CompletID, len(req.PreDup))
	for old, copyID := range req.PreDup {
		dupMap[old] = copyID
	}
	for i := range arrived {
		a := &arrived[i]
		if req.Entries[i].Dup {
			// A copy lives under a fresh identity.
			a.id = c.mint.Next()
			dupMap[req.Entries[i].ID] = a.id
		}
		// preArrival runs after decoding but before reference linking
		// ("before finishing unmarshaling").
		if cb, ok := a.anchor.(PreArrival); ok {
			cb.PreArrival(from)
		}
	}

	// Re-bind references: duplicates to their copies, stamps to local
	// equivalents.
	for _, a := range arrived {
		for _, r := range a.refs {
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
	}

	// Durability point (DESIGN.md §13): journal the INSTALL record — raw
	// bundle included — before any complet activates, so a crash from here
	// on can re-install the arrivals even from a checkpoint that predates
	// them. A journal failure refuses the whole bundle; the sender keeps
	// the complets.
	if req.Epoch != 0 {
		moved := make([]ids.CompletID, 0, len(arrived))
		for _, e := range req.Entries {
			if !e.Dup {
				moved = append(moved, e.ID)
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

	c.arrive(arrived, &req)

	// Register carried names against the (tracking) references.
	for name, idx := range req.Names {
		if idx >= 0 && idx < len(arrived) {
			a := arrived[idx]
			c.setLocalName(name, ref.New(a.id, a.typeName, c.id, c.binder()))
		}
	}

	// postArrival + events once everything is linked.
	installed := make([]ids.CompletID, 0, len(arrived))
	for _, a := range arrived {
		if cb, ok := a.anchor.(PostArrival); ok {
			cb.PostArrival(from)
		}
		c.mon.fireBuiltin(EventCompletArrived, a.id, from.String())
		installed = append(installed, a.id)
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
	var (
		best  ids.CompletID
		found bool
	)
	for _, entry := range c.hosted() {
		if entry.typeName != typeName {
			continue
		}
		// Deterministic choice: smallest ID string.
		if !found || entry.id.String() < best.String() {
			best, found = entry.id, true
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
		if _, err := c.invokeLocalFrom(ctx, entry, ids.CompletID{}, method, resBytes); err != nil {
			c.opts.Logf("fargo core %s: continuation %s.%s: %v", c.id, entry.typeName, method, err)
		}
	}()
}
