package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/journal"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// The recovery manager: crash-safety for the movement protocol (DESIGN.md
// §13). With a journal attached (Options.JournalPath), every move is
// two-phase — the source journals PREPARE before shipping and COMMIT/ABORT
// after the outcome is known; the destination journals INSTALL (with the
// full bundle payload) before activating. Construction replays the journal
// into the protocol tables; Recover then reconciles the repository with the
// journal's final word and resolves still-pending moves by probing their
// destinations, so that after any crash exactly one live copy of each
// complet survives, reachable through repaired trackers and home entries.

// errSimulatedCrash is returned up the move path when a chaos hook
// (SetMoveStepHook) simulates a crash at a protocol step.
var errSimulatedCrash = errors.New("core: simulated crash (chaos hook)")

// probeRecoveryBudget bounds the inline destination probe the source runs
// when a bundle shipment fails with an unknown outcome (the caller's context
// is usually already spent by then).
const probeRecoveryBudget = 2 * time.Second

// maxInstallMemory bounds the idempotence table of installed move epochs
// (FIFO). A duplicate delivery older than the window re-installs — epochs
// that old can only come from a partition longer than any sane retry policy.
const maxInstallMemory = 4096

// MoveStep identifies a movement-protocol step for the chaos crash hook.
type MoveStep string

const (
	// StepBeforePrepare: source side, before the PREPARE record is
	// journaled. A crash here loses nothing — the move never started.
	StepBeforePrepare MoveStep = "beforePrepare"
	// StepAfterPrepare: source side, PREPARE journaled, bundle not yet
	// shipped. Recovery probes the destination and rolls back.
	StepAfterPrepare MoveStep = "afterPrepare"
	// StepAfterSend: source side, destination acknowledged installation,
	// COMMIT not yet journaled. Recovery probes and completes.
	StepAfterSend MoveStep = "afterSend"
	// StepAfterInstall: destination side, bundle journaled and activated,
	// acknowledgement not yet delivered. The source's recovery probes the
	// restarted destination and completes.
	StepAfterInstall MoveStep = "afterInstall"
	// StepAfterCommit: source side, COMMIT journaled, local copies not yet
	// released. Recovery releases them from the journal's final word.
	StepAfterCommit MoveStep = "afterCommit"
)

// SetMoveStepHook installs a test hook invoked at each movement-protocol
// step with the step and the moved root. Returning true simulates a crash at
// that point: the core stops journaling (as a dead process would) and the
// protocol path aborts with an error. Chaos-harness support (internal/chaos);
// nil removes the hook.
func (c *Core) SetMoveStepHook(fn func(step MoveStep, root ids.CompletID) bool) {
	c.recMu.Lock()
	c.moveHook = fn
	c.recMu.Unlock()
}

// stepCrash runs the chaos hook for one protocol step, marking the core
// crashed when the hook says so.
func (c *Core) stepCrash(step MoveStep, root ids.CompletID) bool {
	c.recMu.Lock()
	fn := c.moveHook
	c.recMu.Unlock()
	if fn == nil || !fn(step, root) {
		return false
	}
	c.recMu.Lock()
	c.crashed = true
	c.recMu.Unlock()
	return true
}

// journalAppendLocked appends a record under recMu. A nil journal (journaling
// disabled) and a chaos-crashed core both accept silently — the former has
// nothing to persist to, the latter must behave like a dead process.
func (c *Core) journalAppendLocked(rec journal.Record) error {
	if c.jn == nil || c.crashed {
		return nil
	}
	return c.jn.Append(rec)
}

// closeJournal closes the journal file on shutdown.
func (c *Core) closeJournal() {
	c.recMu.Lock()
	jn := c.jn
	c.recMu.Unlock()
	if jn != nil {
		if err := jn.Close(); err != nil {
			c.opts.Logf("fargo core %s: close move journal: %v", c.id, err)
		}
	}
}

// replayJournal rebuilds the protocol tables from the journal's records at
// construction time (before the transport handler is attached, so no
// concurrency). The tables answer three questions: which source-side moves
// are still pending (pendingOut), which epochs installed or were refused
// here (installedIn/refusedIn), and what the journal's final word on each
// complet's disposition is (installRecs: it lives here, payload available;
// departedTo: it committed away).
func (c *Core) replayJournal(records []journal.Record) {
	var maxEpoch uint64
	for i := range records {
		rec := &records[i]
		switch rec.Op {
		case journal.OpPrepare:
			if rec.Epoch > maxEpoch {
				maxEpoch = rec.Epoch
			}
			c.pendingOut[rec.Epoch] = &pendingMove{
				epoch:    rec.Epoch,
				dest:     rec.Dest,
				root:     rec.Root,
				complets: rec.Complets,
			}
		case journal.OpCommit:
			pm, ok := c.pendingOut[rec.Epoch]
			if !ok {
				// COMMIT without a live PREPARE (already settled in a
				// previous incarnation's tables): apply the disposition
				// from the record itself.
				pm = &pendingMove{dest: rec.Dest, complets: rec.Complets}
			}
			for _, id := range pm.complets {
				c.departedTo[id] = pm.dest
				delete(c.installRecs, id)
			}
			delete(c.pendingOut, rec.Epoch)
		case journal.OpAbort:
			delete(c.pendingOut, rec.Epoch)
		case journal.OpInstall:
			key := moveKey{source: rec.Source, epoch: rec.Epoch}
			c.installedIn[key] = wire.MoveReply{Installed: rec.Complets}
			c.installOrder = append(c.installOrder, key)
			for _, id := range rec.Complets {
				c.installRecs[id] = installRec{rec: rec, at: uint64(i)}
				delete(c.departedTo, id)
			}
		case journal.OpRefuse:
			c.refusedIn[moveKey{source: rec.Source, epoch: rec.Epoch}] = struct{}{}
		}
	}
	for epoch, pm := range c.pendingOut {
		for _, id := range pm.complets {
			c.pendingByComplet[id] = epoch
		}
	}
	for len(c.installOrder) > maxInstallMemory {
		delete(c.installedIn, c.installOrder[0])
		c.installOrder = c.installOrder[1:]
	}
	// Never reuse an epoch a previous incarnation may have put on the wire.
	c.moveEpochs.Advance(maxEpoch)
}

// --- source side ------------------------------------------------------------

// prepareMove registers a move as in flight: it refuses when any travelling
// complet already has an unresolved move (ErrMoveInFlight), journals PREPARE,
// and indexes the pending move. Called with the bundle's complets W-locked.
func (c *Core) prepareMove(pm *pendingMove) error {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	for _, id := range pm.complets {
		if other, busy := c.pendingByComplet[id]; busy {
			prev := c.pendingOut[other]
			return fmt.Errorf("%w: %s (epoch %d to %s unresolved)", ErrMoveInFlight, id, other, prev.dest)
		}
	}
	if err := c.journalAppendLocked(journal.Record{
		Op:       journal.OpPrepare,
		Epoch:    pm.epoch,
		Source:   c.id,
		Dest:     pm.dest,
		Root:     pm.root,
		Complets: pm.complets,
	}); err != nil {
		return err
	}
	c.pendingOut[pm.epoch] = pm
	for _, id := range pm.complets {
		c.pendingByComplet[id] = pm.epoch
	}
	return nil
}

// settleMove resolves a pending move with OpCommit or OpAbort: the verdict is
// journaled, then the pending indexes clear. A missing epoch (already
// settled, e.g. by a concurrent resolver) reports settled=false with no
// error, so racing resolvers apply the verdict's side effects exactly once.
func (c *Core) settleMove(epoch uint64, op journal.Op) (bool, error) {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	pm, ok := c.pendingOut[epoch]
	if !ok {
		return false, nil
	}
	if err := c.journalAppendLocked(journal.Record{
		Op:       op,
		Epoch:    epoch,
		Source:   c.id,
		Dest:     pm.dest,
		Root:     pm.root,
		Complets: pm.complets,
	}); err != nil {
		return false, err
	}
	delete(c.pendingOut, epoch)
	for _, id := range pm.complets {
		if c.pendingByComplet[id] == epoch {
			delete(c.pendingByComplet, id)
		}
		if op == journal.OpCommit {
			// The journal's final word on these complets is now "committed
			// away": drop any INSTALL disposition so a later Recover can
			// never resurrect the local copy, and record the departure so a
			// stale pre-move checkpoint restored afterwards gets released.
			delete(c.installRecs, id)
			c.departedTo[id] = pm.dest
		}
	}
	return true, nil
}

// probeMoveOutcome asks dest whether the (source, epoch) move installed.
// known is false when the destination could not be reached, answered with an
// error, or is still installing — the move stays pending then.
func (c *Core) probeMoveOutcome(ctx context.Context, dest ids.CoreID, source ids.CoreID, epoch uint64, root ids.CompletID, opts ref.CallOptions) (installed, known bool) {
	reply, err := call[wire.MoveProbe, wire.MoveProbeReply](ctx, c, dest, wire.KindMoveProbe,
		wire.MoveProbe{Source: source, Epoch: epoch, Root: root}, opts, nil)
	if err != nil || reply.Err != "" || reply.InProgress {
		return false, false
	}
	return reply.Installed, true
}

// resolveUnknownOutcome handles a bundle shipment whose acknowledgement was
// lost: it probes the destination once on a fresh short budget (the caller's
// context is typically spent). The returned disposition is one of: committed
// (the bundle installed — proceed as acknowledged), aborted (the destination
// durably refused — the copies stay), or pending (unreachable — the move
// stays in flight until Recover resolves it; further moves of these complets
// fail with ErrMoveInFlight).
func (c *Core) resolveUnknownOutcome(dest ids.CoreID, epoch uint64, root ids.CompletID) (committed bool, pending bool) {
	ctx, cancel := context.WithTimeout(context.Background(), probeRecoveryBudget)
	defer cancel()
	installed, known := c.probeMoveOutcome(ctx, dest, c.id, epoch, root, ref.CallOptions{NoRetry: true})
	if !known {
		return false, true
	}
	return installed, false
}

// finishResolvedMove enforces a pending move's now-known outcome: installed
// means COMMIT — release the local copies, repoint trackers and home entries
// at the destination; not installed means ABORT — the local copies stay
// authoritative and re-assert their location.
func (c *Core) finishResolvedMove(pm *pendingMove, installed bool) error {
	pm.resolving.Lock()
	defer pm.resolving.Unlock()
	homeTracking := c.homeTrackingEnabled()
	if installed {
		settled, err := c.settleMove(pm.epoch, journal.OpCommit)
		if err != nil || !settled {
			return err
		}
		for _, id := range pm.complets {
			c.releaseRecovered(id, pm.dest)
			if homeTracking && id.Birth == c.id {
				c.homes.set(id, pm.dest)
			}
		}
		c.flight.Record(flight.Event{
			Kind:    flight.KindMoveRecovered,
			Complet: pm.root.String(),
			Peer:    pm.dest.String(),
			Detail:  fmt.Sprintf("epoch %d completed after lost acknowledgement", pm.epoch),
		})
		c.bumpRecovered(1, 0)
		return nil
	}
	settled, err := c.settleMove(pm.epoch, journal.OpAbort)
	if err != nil || !settled {
		return err
	}
	if homeTracking {
		for _, id := range pm.complets {
			if _, hosted := c.lookup(id); hosted {
				c.reportHome(id)
			}
		}
	}
	c.flight.Record(flight.Event{
		Kind:    flight.KindMoveRolledBack,
		Complet: pm.root.String(),
		Peer:    pm.dest.String(),
		Detail:  fmt.Sprintf("epoch %d never installed; rolled back", pm.epoch),
	})
	c.bumpRecovered(0, 1)
	return nil
}

// resolveAsync resolves a pending move's outcome off the caller's goroutine —
// the path taken when the caller's context died mid-shipment and cannot wait
// for a probe. The destination is probed a few times (an installation still
// in progress answers InProgress); a move still unknown after that stays
// pending for an explicit Recover.
func (c *Core) resolveAsync(pm *pendingMove) {
	const (
		attempts = 8
		pause    = 120 * time.Millisecond
	)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for attempt := 0; attempt < attempts && !c.isClosed(); attempt++ {
			if attempt > 0 {
				time.Sleep(pause)
			}
			ctx, cancel := context.WithTimeout(context.Background(), probeRecoveryBudget)
			installed, known := c.probeMoveOutcome(ctx, pm.dest, c.id, pm.epoch, pm.root, ref.CallOptions{NoRetry: true})
			cancel()
			if !known {
				continue
			}
			if err := c.finishResolvedMove(pm, installed); err != nil {
				c.opts.Logf("fargo core %s: resolving move epoch %d of %s: %v", c.id, pm.epoch, pm.root, err)
			}
			return
		}
	}()
}

// --- destination side -------------------------------------------------------

// installClaim is beginInstall's verdict on an epoch-stamped bundle.
type installClaim int

const (
	claimRun     installClaim = iota // install it; call finishInstall after
	claimDone                        // already installed; reply returned
	claimRefused                     // epoch durably refused; never install
)

// beginInstall claims the installation of one epoch-stamped bundle. A
// duplicate delivery of an epoch that already installed gets the original
// reply (idempotence); one racing a live installation waits for its verdict;
// one whose epoch was refused to a recovery probe is rejected for good.
func (c *Core) beginInstall(key moveKey) (wire.MoveReply, installClaim) {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	for {
		if reply, ok := c.installedIn[key]; ok {
			return reply, claimDone
		}
		if _, ok := c.refusedIn[key]; ok {
			return wire.MoveReply{Err: fmt.Sprintf("move epoch %d from %s was refused during recovery", key.epoch, key.source)}, claimRefused
		}
		if !c.installing[key] {
			c.installing[key] = true
			return wire.MoveReply{}, claimRun
		}
		c.installCond.Wait()
	}
}

// finishInstall releases an installation claim: a successful reply is cached
// for duplicate deliveries, a failed one is not (a retry may succeed).
func (c *Core) finishInstall(key moveKey, reply wire.MoveReply) {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	delete(c.installing, key)
	if reply.Err == "" {
		c.installedIn[key] = reply
		c.installOrder = append(c.installOrder, key)
		for len(c.installOrder) > maxInstallMemory {
			delete(c.installedIn, c.installOrder[0])
			c.installOrder = c.installOrder[1:]
		}
	}
	c.installCond.Broadcast()
}

// journalInstall durably records an arriving bundle — raw payload included —
// before it activates, so a crash after this point can re-install the
// complets even when the last checkpoint predates the arrival. Epoch-less
// bundles (clones, pre-journal senders) are not journaled: copies get fresh
// identities and are never the last live copy.
func (c *Core) journalInstall(from ids.CoreID, epoch uint64, moved []ids.CompletID, raw []byte) error {
	if epoch == 0 || len(moved) == 0 {
		return nil
	}
	rec := journal.Record{
		Op:       journal.OpInstall,
		Epoch:    epoch,
		Source:   from,
		Dest:     c.id,
		Root:     moved[0],
		Complets: moved,
		Payload:  raw,
	}
	c.recMu.Lock()
	defer c.recMu.Unlock()
	if err := c.journalAppendLocked(rec); err != nil {
		return err
	}
	if c.jn != nil && !c.crashed {
		// Keep the runtime disposition maps consistent with what a replay
		// of the journal would now produce: these complets live here.
		ir := installRec{rec: &rec, at: c.jn.Records() - 1}
		for _, id := range moved {
			c.installRecs[id] = ir
			delete(c.departedTo, id)
		}
	}
	return nil
}

// serveMoveProbe serves a recovery probe: has the (Source, Epoch) move
// installed here? Answering "no" appends a durable REFUSE record first, so
// the answer is a promise — a late bundle for that epoch can never install
// after the source rolled back on our word.
func (c *Core) serveMoveProbe(_ context.Context, req wire.MoveProbe) (wire.MoveProbeReply, error) {
	key := moveKey{source: req.Source, epoch: req.Epoch}
	var reply wire.MoveProbeReply

	c.recMu.Lock()
	_, installedHere := c.installedIn[key]
	switch {
	case c.installing[key]:
		reply.InProgress = true
	case installedHere:
		// Affirming "installed" makes the source release its copy — make
		// sure the journal-final arrivals are actually live first (the
		// probe may arrive before Recover has re-installed them).
		if _, err := c.reinstallMissingLocked(); err != nil {
			reply.Err = err.Error()
		} else {
			reply.Installed = true
		}
	default:
		// Durably promise the epoch will never install here. If the
		// promise cannot be made durable, answer unknown — the source
		// keeps the move pending rather than acting on a weak word.
		if err := c.journalAppendLocked(journal.Record{
			Op:     journal.OpRefuse,
			Epoch:  req.Epoch,
			Source: req.Source,
			Root:   req.Root,
		}); err != nil {
			reply.Err = fmt.Sprintf("refuse not durable: %v", err)
		} else {
			c.refusedIn[key] = struct{}{}
		}
	}
	c.recMu.Unlock()

	_, reply.Hosted = c.lookup(req.Root)
	return reply, nil
}

// reinstallMissingLocked re-installs, from their INSTALL records' payloads,
// every complet whose journal-final disposition is "lives here" but which is
// absent from the repository — the state after a destination-side crash
// whose checkpoint predates the arrival. Called under recMu.
func (c *Core) reinstallMissingLocked() ([]ids.CompletID, error) {
	var (
		done        = make(map[*journal.Record]bool)
		reinstalled []ids.CompletID
		firstErr    error
	)
	// Deterministic order for tests and logs.
	idsHere := make([]ids.CompletID, 0, len(c.installRecs))
	for id := range c.installRecs {
		idsHere = append(idsHere, id)
	}
	sort.Slice(idsHere, func(i, j int) bool { return idsHere[i].String() < idsHere[j].String() })
	for _, id := range idsHere {
		rec := c.installRecs[id].rec
		if done[rec] {
			continue
		}
		// A bundle mid-installation is the installer's to finish — the
		// journal record exists but the repository entries are seconds away.
		if c.installing[moveKey{source: rec.Source, epoch: rec.Epoch}] {
			continue
		}
		if _, hosted := c.lookup(id); hosted {
			continue
		}
		done[rec] = true
		got, err := c.reinstallFromRecord(rec)
		if err != nil {
			c.opts.Logf("fargo core %s: recovery re-install of %s (epoch %d from %s): %v", c.id, rec.Root, rec.Epoch, rec.Source, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		reinstalled = append(reinstalled, got...)
	}
	return reinstalled, firstErr
}

// reinstallFromRecord re-activates the non-duplicate complets of one INSTALL
// record from its journaled bundle payload. Complets already hosted (e.g.
// restored from a newer checkpoint) are left untouched — their state is
// fresher than the bundle's. References decoded as duplicate or stamp
// degrade to plain links (the original install's fresh copy identities are
// gone); continuations do not re-run.
func (c *Core) reinstallFromRecord(rec *journal.Record) ([]ids.CompletID, error) {
	var req wire.MoveRequest
	if err := wire.DecodePayload(rec.Payload, &req); err != nil {
		return nil, fmt.Errorf("decode journaled bundle: %w", err)
	}
	moved := make(map[ids.CompletID]bool, len(rec.Complets))
	for _, id := range rec.Complets {
		moved[id] = true
	}
	homeTracking := c.homeTrackingEnabled()
	var installed []ids.CompletID
	byIndex := make(map[int]ids.CompletID, len(req.Entries))
	for i, e := range req.Entries {
		if e.Dup || !moved[e.ID] {
			continue
		}
		byIndex[i] = e.ID
		if _, hosted := c.lookup(e.ID); hosted {
			continue
		}
		anchor, refs, err := wire.DecodeClosure(e.Payload)
		if err != nil {
			return installed, fmt.Errorf("decode %s (%s): %w", e.ID, e.TypeName, err)
		}
		for _, r := range refs {
			r.SetOwner(e.ID)
		}
		c.bindDecoded(refs)
		c.install(e.ID, e.TypeName, anchor)
		installed = append(installed, e.ID)
		if homeTracking {
			c.reportHome(e.ID)
		}
		c.flight.Record(flight.Event{
			Kind:    flight.KindMoveRecovered,
			Complet: e.ID.String(),
			Peer:    rec.Source.String(),
			Detail:  fmt.Sprintf("re-installed from journal (epoch %d)", rec.Epoch),
		})
		c.mon.fireBuiltin(EventCompletArrived, e.ID, "recovery")
	}
	// Re-register the bundle's carried names for entries that live here.
	for name, idx := range req.Names {
		id, ok := byIndex[idx]
		if !ok {
			continue
		}
		if _, hosted := c.lookup(id); !hosted {
			continue
		}
		typeName := req.Entries[idx].TypeName
		c.setLocalName(name, ref.New(id, typeName, c.id, c.binder()))
	}
	return installed, nil
}

// --- recovery ---------------------------------------------------------------

// RecoveryReport summarizes one Recover run.
type RecoveryReport struct {
	// Completed lists the roots of pending moves whose destination
	// confirmed installation: the move was committed after the fact and the
	// local copies released.
	Completed []ids.CompletID
	// RolledBack lists the roots of pending moves whose destination durably
	// refused: the local copies remain authoritative.
	RolledBack []ids.CompletID
	// Released lists complets removed locally because the journal already
	// held their COMMIT — the copy restored from a pre-move checkpoint was
	// stale.
	Released []ids.CompletID
	// Reinstalled lists complets re-activated from journaled INSTALL
	// payloads (destination-side crash after INSTALL, checkpoint older than
	// the arrival).
	Reinstalled []ids.CompletID
	// Unresolved lists the roots of pending moves whose destination could
	// not be reached; they stay pending (and block further moves of their
	// complets) until a later Recover resolves them.
	Unresolved []ids.CompletID
}

// Empty reports whether recovery had nothing to do.
func (r RecoveryReport) Empty() bool {
	return len(r.Completed) == 0 && len(r.RolledBack) == 0 &&
		len(r.Released) == 0 && len(r.Reinstalled) == 0 && len(r.Unresolved) == 0
}

// String renders a one-line summary.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("completed=%d rolledBack=%d released=%d reinstalled=%d unresolved=%d",
		len(r.Completed), len(r.RolledBack), len(r.Released), len(r.Reinstalled), len(r.Unresolved))
}

// Recover reconciles the repository with the move journal and resolves
// in-flight moves. It is safe to call repeatedly (each run only acts on what
// is still unresolved) and on cores without a journal (it then resolves
// in-memory pending moves, e.g. after a destination came back). Restore runs
// it automatically when a journal is attached; call it directly after
// starting a journal-enabled core without a checkpoint, or to retry
// unresolved moves once a destination returns.
func (c *Core) Recover(ctx context.Context) (RecoveryReport, error) {
	var rep RecoveryReport
	if c.isClosed() {
		return rep, ErrClosed
	}
	ctx, cancel := c.withBudget(ctx, 0)
	defer cancel()

	// Phase A: enforce the journal's final word locally — no network needed.
	// Re-install arrivals the checkpoint missed, release copies whose move
	// already committed.
	c.recMu.Lock()
	reinstalled, _ := c.reinstallMissingLocked()
	rep.Reinstalled = reinstalled
	departed := make(map[ids.CompletID]ids.CoreID, len(c.departedTo))
	for id, dest := range c.departedTo {
		departed[id] = dest
	}
	pending := make([]*pendingMove, 0, len(c.pendingOut))
	for _, pm := range c.pendingOut {
		pending = append(pending, pm)
	}
	c.recMu.Unlock()

	homeTracking := c.homeTrackingEnabled()
	departedIDs := make([]ids.CompletID, 0, len(departed))
	for id := range departed {
		departedIDs = append(departedIDs, id)
	}
	sort.Slice(departedIDs, func(i, j int) bool { return departedIDs[i].String() < departedIDs[j].String() })
	for _, id := range departedIDs {
		dest := departed[id]
		if released := c.releaseRecovered(id, dest); released {
			rep.Released = append(rep.Released, id)
			c.flight.Record(flight.Event{
				Kind:    flight.KindMoveRecovered,
				Complet: id.String(),
				Peer:    dest.String(),
				Detail:  "journal committed; stale local copy released",
			})
			c.bumpRecovered(1, 0)
		}
		if homeTracking && id.Birth == c.id {
			c.homes.set(id, dest)
		}
	}

	// Phase B: resolve pending source-side moves by probing destinations.
	sort.Slice(pending, func(i, j int) bool { return pending[i].epoch < pending[j].epoch })
	for _, pm := range pending {
		installed, known := c.probeMoveOutcome(ctx, pm.dest, c.id, pm.epoch, pm.root, ref.CallOptions{})
		if !known {
			rep.Unresolved = append(rep.Unresolved, pm.root)
			continue
		}
		if err := c.finishResolvedMove(pm, installed); err != nil {
			c.opts.Logf("fargo core %s: recovery settling epoch %d: %v", c.id, pm.epoch, err)
			rep.Unresolved = append(rep.Unresolved, pm.root)
			continue
		}
		if installed {
			rep.Completed = append(rep.Completed, pm.root)
		} else {
			rep.RolledBack = append(rep.RolledBack, pm.root)
		}
	}
	return rep, nil
}

// releaseRecovered removes a complet whose move the journal (or a probe)
// proved committed: the local copy — if any — is released and the tracker
// repointed at the destination. Reports whether a live local copy was
// actually released.
func (c *Core) releaseRecovered(id ids.CompletID, dest ids.CoreID) bool {
	entry, ok := c.lookup(id)
	if !ok {
		// No local copy; still repair the chain to point at the survivor.
		t := c.trackerFor(id, dest)
		if local, _ := t.point(); !local {
			t.setForward(dest)
		}
		return false
	}
	entry.moveMu.Lock()
	if entry.gone {
		entry.moveMu.Unlock()
		return false
	}
	entry.gone = true
	c.remove(id, dest) // one transition with gone, as in moveLocal
	entry.moveMu.Unlock()
	if cb, ok := entry.anchor.(PostDeparture); ok {
		cb.PostDeparture(dest)
	}
	c.mon.fireBuiltin(EventCompletDeparted, id, dest.String())
	return true
}

// bumpRecovered adjusts the recovery counters surfaced in Health.
func (c *Core) bumpRecovered(completed, rolledBack uint64) {
	c.recMu.Lock()
	c.recovered += completed
	c.rolledBack += rolledBack
	c.recMu.Unlock()
}

// recoverySnapshot reports the journal/recovery state for the health verdict.
func (c *Core) recoverySnapshot() (enabled bool, records uint64, pending int, recovered, rolledBack uint64) {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	if c.jn != nil {
		enabled, records = true, c.jn.Records()
	}
	return enabled, records, len(c.pendingOut), c.recovered, c.rolledBack
}

// PendingMoves reports how many journaled moves are awaiting resolution
// (PREPARE without COMMIT/ABORT).
func (c *Core) PendingMoves() int {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	return len(c.pendingOut)
}

// hasInstallRec reports whether the journal's final word is that the complet
// arrived here (Restore uses it to reconcile with recovery re-installs).
func (c *Core) hasInstallRec(id ids.CompletID) bool {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	_, ok := c.installRecs[id]
	return ok
}

// installRecSupersedes reports whether the journal holds an INSTALL
// disposition for the complet that was appended at or after a checkpoint's
// JournalSeq — i.e. the complet arrived here AFTER the checkpoint was taken,
// so the journaled bundle payload, not the (older) checkpoint entry, carries
// its freshest state. Restore skips such entries and lets Recover re-install
// them from the journal.
func (c *Core) installRecSupersedes(id ids.CompletID, ckptSeq uint64) bool {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	ir, ok := c.installRecs[id]
	return ok && ir.at >= ckptSeq
}
