package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/registry"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

// journalCluster builds cores with durable move journals in a test temp dir.
type journalCluster struct {
	net   *netsim.Network
	dir   string
	cores map[ids.CoreID]*Core
}

func newJournalCluster(t *testing.T, names ...string) *journalCluster {
	t.Helper()
	cl := &journalCluster{
		net:   netsim.NewNetwork(3),
		dir:   t.TempDir(),
		cores: make(map[ids.CoreID]*Core),
	}
	for _, name := range names {
		tr, err := transport.NewSim(cl.net, ids.CoreID(name))
		if err != nil {
			t.Fatal(err)
		}
		reg := registry.New()
		registerTestTypes(t, reg)
		c, err := New(tr, reg, Options{
			RequestTimeout: 2 * time.Second,
			Breaker:        BreakerPolicy{Disable: true},
			JournalPath:    filepath.Join(cl.dir, name+".journal"),
			Logf:           func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.cores[ids.CoreID(name)] = c
	}
	t.Cleanup(func() {
		for _, c := range cl.cores {
			_ = c.Shutdown(0)
		}
		cl.net.Close()
	})
	return cl
}

// TestInstallIdempotence redelivers an already-installed bundle: the
// destination must answer with the cached reply and keep exactly one copy.
func TestInstallIdempotence(t *testing.T) {
	cl := newJournalCluster(t, "a", "b")
	a, b := cl.cores["a"], cl.cores["b"]

	r, err := a.NewComplet("Msg", "hi")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatalf("move: %v", err)
	}
	if got := b.CompletCount(); got != 1 {
		t.Fatalf("b hosts %d complets, want 1", got)
	}

	// Fish the installed bundle (raw payload and epoch) out of b's journal
	// bookkeeping and deliver it again, as a duplicated message would.
	b.recMu.Lock()
	ir, ok := b.installRecs[r.Target()]
	b.recMu.Unlock()
	if !ok {
		t.Fatal("no INSTALL record for the moved complet")
	}
	var req wire.MoveRequest
	if err := wire.DecodePayload(ir.rec.Payload, &req); err != nil {
		t.Fatalf("decode journaled bundle: %v", err)
	}
	reply := b.installBundle(ir.rec.Source, req, ir.rec.Payload)
	if reply.Err != "" {
		t.Fatalf("duplicate install answered error: %s", reply.Err)
	}
	if len(reply.Installed) == 0 {
		t.Fatal("duplicate install answered no installed complets")
	}
	if got := b.CompletCount(); got != 1 {
		t.Fatalf("after duplicate delivery b hosts %d complets, want 1", got)
	}
	// And it must still be invocable — not clobbered by the redelivery.
	out, err := b.NewRefTo(r.Target(), "Msg", "b").Invoke("Print")
	if err != nil {
		t.Fatalf("invoke after duplicate install: %v", err)
	}
	if out[0].(string) != "hi" {
		t.Fatalf("state = %q, want %q", out[0], "hi")
	}
}

// TestMoveInFlightSentinel checks that a complet with an unresolved journaled
// move refuses further moves with ErrMoveInFlight — matchable via errors.Is
// both locally and through a routed move command — until recovery resolves
// the move.
func TestMoveInFlightSentinel(t *testing.T) {
	cl := newJournalCluster(t, "a", "b", "c")
	a := cl.cores["a"]

	r, err := a.NewComplet("Msg", "stuck")
	if err != nil {
		t.Fatal(err)
	}

	// Cut b off and attempt the move: the bundle cannot be delivered and the
	// outcome cannot be probed, so the move stays pending.
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err == nil {
		t.Fatal("move to a dead destination succeeded")
	}
	if got := a.PendingMoves(); got != 1 {
		t.Fatalf("pending moves = %d, want 1", got)
	}

	// Local second attempt: sentinel must surface.
	err = a.Move(a.NewRefTo(r.Target(), "Msg", "a"), "c")
	if !errors.Is(err, ErrMoveInFlight) {
		t.Fatalf("second move error = %v, want errors.Is ErrMoveInFlight", err)
	}

	// Routed attempt (c commands the move at owner a): the sentinel must
	// survive the wire crossing.
	err = cl.cores["c"].Move(cl.cores["c"].NewRefTo(r.Target(), "Msg", "a"), "c")
	if !errors.Is(err, ErrMoveInFlight) {
		t.Fatalf("routed move error = %v, want errors.Is ErrMoveInFlight", err)
	}

	// Health reflects the stuck move.
	if h := a.Health(); h.PendingMoves != 1 || h.Ready {
		t.Fatalf("health = pending %d ready %v, want 1/false", h.PendingMoves, h.Ready)
	}

	// Destination returns; recovery resolves (b never saw the bundle, so it
	// durably refuses and the move rolls back), and moving works again.
	if err := cl.net.StartHost("b"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rep, err := a.Recover(ctx)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.RolledBack) != 1 {
		t.Fatalf("recovery = %s, want one rolled-back move", rep)
	}
	if got := a.PendingMoves(); got != 0 {
		t.Fatalf("pending moves after recovery = %d, want 0", got)
	}
	if err := a.Move(a.NewRefTo(r.Target(), "Msg", "a"), "b"); err != nil {
		t.Fatalf("move after recovery: %v", err)
	}
	if got := cl.cores["b"].CompletCount(); got != 1 {
		t.Fatalf("b hosts %d complets after recovered move, want 1", got)
	}
}

// TestResolvedMoveReleasedBeforeLoserReturns races the two resolvers of one
// pending move, as Recover and the background resolver do after a lost
// acknowledgement. The one that loses the settle must not return before the
// winner has released the local copy: a caller of Recover relies on the copy
// being gone when it returns.
func TestResolvedMoveReleasedBeforeLoserReturns(t *testing.T) {
	cl := newJournalCluster(t, "a", "b")
	a := cl.cores["a"]
	r, err := a.NewComplet("Msg", "twice")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err == nil {
		t.Fatal("move to a dead destination succeeded")
	}
	a.recMu.Lock()
	var pm *pendingMove
	for _, p := range a.pendingOut {
		pm = p
	}
	a.recMu.Unlock()
	if pm == nil {
		t.Fatal("no pending move")
	}
	entry, ok := a.lookup(r.Target())
	if !ok {
		t.Fatal("source copy missing before resolution")
	}

	// Holding the complet's read lock parks the first resolver after it
	// settled the move, before it releases the copy.
	entry.moveMu.RLock()
	first := make(chan error, 1)
	go func() { first <- a.finishResolvedMove(pm, true) }()
	for a.PendingMoves() != 0 {
		time.Sleep(time.Millisecond)
	}
	second := make(chan bool, 1)
	go func() {
		_ = a.finishResolvedMove(pm, true)
		_, hosted := a.lookup(r.Target())
		second <- hosted
	}()
	select {
	case hosted := <-second:
		if hosted {
			t.Fatal("second resolver returned while the first had not released the local copy")
		}
	case <-time.After(50 * time.Millisecond): // waiting behind the first, as it should
	}
	entry.moveMu.RUnlock()
	if err := <-first; err != nil {
		t.Fatalf("first resolver: %v", err)
	}
	if _, hosted := a.lookup(r.Target()); hosted {
		t.Fatal("local copy still hosted after the move was resolved as installed")
	}
}

// TestRefusedEpochNeverInstalls checks the REFUSE promise: once a destination
// has told a probing source "not installed", a late delivery of that epoch's
// bundle must be rejected — otherwise the complet would exist both at the
// rolled-back source and at the destination.
func TestRefusedEpochNeverInstalls(t *testing.T) {
	cl := newJournalCluster(t, "a", "b")
	a, b := cl.cores["a"], cl.cores["b"]

	r, err := a.NewComplet("Msg", "late")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err == nil {
		t.Fatal("move to a dead destination succeeded")
	}
	a.recMu.Lock()
	if len(a.pendingOut) != 1 {
		a.recMu.Unlock()
		t.Fatal("no pending move")
	}
	var pm *pendingMove
	for _, p := range a.pendingOut {
		pm = p
	}
	a.recMu.Unlock()

	// Destination returns; the source's probe makes b durably refuse.
	if err := cl.net.StartHost("b"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rep, err := a.Recover(ctx)
	if err != nil || len(rep.RolledBack) != 1 {
		t.Fatalf("recover = %s, %v; want one rollback", rep, err)
	}

	// The "late" bundle for the refused epoch finally arrives.
	reply := b.installBundle("a", wire.MoveRequest{Epoch: pm.epoch}, nil)
	if reply.Err == "" || !strings.Contains(reply.Err, "refused") {
		t.Fatalf("late bundle for refused epoch answered %+v, want refusal", reply)
	}
	if got := b.CompletCount(); got != 0 {
		t.Fatalf("b hosts %d complets, want 0", got)
	}
}

// TestCheckpointFileAtomic checks that a failing CheckpointFile leaves the
// previous checkpoint intact and no temp litter behind.
func TestCheckpointFileAtomic(t *testing.T) {
	net := netsim.NewNetwork(5)
	defer net.Close()
	tr, err := transport.NewSim(net, "solo")
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	registerTestTypes(t, reg)
	c, err := New(tr, reg, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewComplet("Msg", "keep me"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "core.ckpt")
	if err := c.CheckpointFile(path); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Shut the core down: the next CheckpointFile must fail — and must not
	// touch the published checkpoint.
	if err := c.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointFile(path); err == nil {
		t.Fatal("checkpoint on a closed core succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed checkpoint corrupted the published file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestRecoverWithoutJournal checks Recover degrades to a clean no-op on a
// journal-less core.
func TestRecoverWithoutJournal(t *testing.T) {
	cl := newCluster(t, "a", "b")
	rep, err := cl.cores["a"].Recover(context.Background())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !rep.Empty() {
		t.Fatalf("recovery on a journal-less core reported %s, want empty", rep)
	}
	if h := cl.cores["a"].Health(); h.JournalEnabled {
		t.Fatal("journal-less core reports JournalEnabled")
	}
}
