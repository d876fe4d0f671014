package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/ref"
)

func TestBasicMove(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "mover")
	if err != nil {
		t.Fatal(err)
	}
	invoke1(t, r, "Print")
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	if a.CompletCount() != 0 || cl.core("b").CompletCount() != 1 {
		t.Fatalf("counts a=%d b=%d", a.CompletCount(), cl.core("b").CompletCount())
	}
	// State survived the move; invocation still works through the ref.
	if got := invoke1(t, r, "Calls"); got != 1 {
		t.Fatalf("Calls after move = %v, want 1", got)
	}
	if got := invoke1(t, r, "Print"); got != "mover" {
		t.Fatalf("Print after move = %v", got)
	}
	if loc, err := r.Meta().Location(); err != nil || loc != "b" {
		t.Fatalf("Location = %v, %v", loc, err)
	}
}

func TestMoveToSelfIsNoop(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "stay")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "a"); err != nil {
		t.Fatal(err)
	}
	if a.CompletCount() != 1 {
		t.Fatal("complet vanished on self-move")
	}
}

func TestMoveRoutedToOwner(t *testing.T) {
	// Moving through a ref whose target lives elsewhere: the command is
	// routed to the owner.
	cl := newCluster(t, "a", "b", "c")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "routed")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "c"); err != nil {
		t.Fatal(err)
	}
	if cl.core("c").CompletCount() != 1 {
		t.Fatal("complet did not arrive at c")
	}
	if got := invoke1(t, r, "Print"); got != "routed" {
		t.Fatalf("Print = %v", got)
	}
}

func TestTrackerChainAndInvocation(t *testing.T) {
	// Move a complet along a chain of cores; a referrer holding a stale
	// ref still reaches it, and chain shortening repoints trackers.
	names := []string{"c0", "c1", "c2", "c3", "c4"}
	cl := newCluster(t, names...)
	origin := cl.core("c0")
	r, err := origin.NewComplet("Msg", "nomad")
	if err != nil {
		t.Fatal(err)
	}
	// A stale referrer on c0 that knows only the birth location.
	stale := ref.New(r.Target(), "Msg", "c0", nil)
	stale.Bind(origin.binder())

	// Walk the complet down the chain; each hop leaves a forwarding
	// tracker behind.
	mover := r
	for i := 1; i < len(names); i++ {
		if err := cl.core(names[i-1]).Move(mover, ids.CoreID(names[i])); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
	}
	last := ids.CoreID(names[len(names)-1])

	// Before the stale ref is used, c0's tracker points at c1 (one hop).
	if tgt, ok := origin.TrackerTarget(r.Target()); !ok || tgt != "c1" {
		t.Fatalf("c0 tracker points at %v, want c1 (chain intact)", tgt)
	}
	// Invocation follows the chain...
	if got := invoke1(t, stale, "Print"); got != "nomad" {
		t.Fatalf("Print via chain = %v", got)
	}
	// ...and shortens it: c0's tracker now points directly at the end.
	if tgt, ok := origin.TrackerTarget(r.Target()); !ok || tgt != last {
		t.Fatalf("after shortening, c0 tracker points at %v, want %v", tgt, last)
	}
	// Intermediate cores shortened too (§3.1: all trackers in the chain).
	for _, mid := range names[1 : len(names)-1] {
		if tgt, ok := cl.core(mid).TrackerTarget(r.Target()); ok && tgt != last {
			t.Fatalf("tracker at %s points at %v, want %v", mid, tgt, last)
		}
	}
	// The stale stub's hint was refreshed.
	if stale.Hint() != last {
		t.Fatalf("stale hint = %v, want %v", stale.Hint(), last)
	}
}

func TestPullReference(t *testing.T) {
	// α --pull--> β: moving α moves β along in the same bundle (§2).
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := a.NewComplet("Msg", "beta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", beta); err != nil {
		t.Fatal(err)
	}
	// Reaching into the anchor to set the relocator on ITS reference (the
	// copy stored inside the complet, not our stub).
	entry, _ := a.lookup(alpha.Target())
	inner := entry.anchor.(*holder).Out
	if err := inner.Meta().SetRelocator(ref.Pull{}); err != nil {
		t.Fatal(err)
	}

	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	// Both complets moved.
	if a.CompletCount() != 0 {
		t.Fatalf("a still hosts %d complets", a.CompletCount())
	}
	if cl.core("b").CompletCount() != 2 {
		t.Fatalf("b hosts %d complets, want 2", cl.core("b").CompletCount())
	}
	// And the pulled complet is the same instance (identity preserved).
	if got := invoke1(t, alpha, "CallOut"); got != "beta" {
		t.Fatalf("CallOut = %v", got)
	}
	if loc, err := beta.Meta().Location(); err != nil || loc != "b" {
		t.Fatalf("beta location = %v, %v", loc, err)
	}
}

func TestPullChainSingleMessage(t *testing.T) {
	// α pulls β pulls γ: one movement request moves all three.
	cl := newCluster(t, "a", "b")
	a := cl.core("a")

	gamma, err := a.NewComplet("Msg", "gamma")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := a.NewComplet("Holder", "beta")
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := beta.Invoke("SetOut", gamma); err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", beta); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*ref.Ref{alpha, beta} {
		entry, _ := a.lookup(h.Target())
		if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Pull{}); err != nil {
			t.Fatal(err)
		}
	}

	cl.net.ResetStats()
	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	if cl.core("b").CompletCount() != 3 {
		t.Fatalf("b hosts %d complets, want 3", cl.core("b").CompletCount())
	}
	// §3.3: a single inter-core message carries the whole group.
	if s := cl.net.Stats("a", "b"); s.Messages != 1 {
		t.Fatalf("a->b messages = %d, want 1 (single-stream group move)", s.Messages)
	}
}

func TestPullCycleTerminates(t *testing.T) {
	// α pulls β and β pulls α: the closure walk must terminate and move
	// both exactly once.
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := a.NewComplet("Holder", "beta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", beta); err != nil {
		t.Fatal(err)
	}
	if _, err := beta.Invoke("SetOut", alpha); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*ref.Ref{alpha, beta} {
		entry, _ := a.lookup(h.Target())
		if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Pull{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	if got := cl.core("b").CompletCount(); got != 2 {
		t.Fatalf("b hosts %d, want 2", got)
	}
	// The cycle stays intact: α's outgoing ref still reaches β.
	res, err := alpha.Invoke("GetOut")
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res[0].(*ref.Ref)
	if !ok || out.Target() != beta.Target() {
		t.Fatalf("cycle broken: GetOut = %v", res[0])
	}
}

func TestDuplicateReference(t *testing.T) {
	// α --duplicate--> β: moving α ships a COPY of β; the original stays.
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := a.NewComplet("Msg", "replica-source")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", beta); err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(alpha.Target())
	if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Duplicate{}); err != nil {
		t.Fatal(err)
	}

	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	// Original β still on a; α and β' on b.
	if a.CompletCount() != 1 {
		t.Fatalf("a hosts %d, want 1 (original β)", a.CompletCount())
	}
	if cl.core("b").CompletCount() != 2 {
		t.Fatalf("b hosts %d, want 2 (α + copy)", cl.core("b").CompletCount())
	}
	// α's reference reaches the copy: bump the copy, original untouched.
	if got := invoke1(t, alpha, "CallOut"); got != "replica-source" {
		t.Fatalf("CallOut = %v", got)
	}
	if got := invoke1(t, beta, "Calls"); got != 0 {
		t.Fatalf("original Calls = %v, want 0 (copy served the call)", got)
	}
}

func TestStampReference(t *testing.T) {
	// α --stamp--> printer: after moving, α is re-bound to a local printer
	// at the destination (§2's printer example).
	cl := newCluster(t, "a", "b")
	a, b := cl.core("a"), cl.core("b")
	printerA, err := a.NewComplet("Printer", "site-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.NewComplet("Printer", "site-b"); err != nil {
		t.Fatal(err)
	}
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", printerA); err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(alpha.Target())
	if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Stamp{}); err != nil {
		t.Fatal(err)
	}

	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	// α's outgoing ref must now point at b's printer.
	res, err := alpha.Invoke("GetOut")
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res[0].(*ref.Ref)
	if !ok || out == nil {
		t.Fatalf("GetOut = %v", res)
	}
	where, err := out.Invoke("Where")
	if err != nil {
		t.Fatal(err)
	}
	if where[0] != "site-b" {
		t.Fatalf("stamp re-bound to %v, want site-b", where[0])
	}
}

func TestStampWithoutLocalInstanceKeepsTracking(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	printerA, err := a.NewComplet("Printer", "site-a")
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", printerA); err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(alpha.Target())
	if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Stamp{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	// No printer on b: the reference falls back to tracking the original.
	res, err := alpha.Invoke("GetOut")
	if err != nil {
		t.Fatal(err)
	}
	out := res[0].(*ref.Ref)
	where, err := out.Invoke("Where")
	if err != nil {
		t.Fatal(err)
	}
	if where[0] != "site-a" {
		t.Fatalf("fallback binding reached %v, want site-a", where[0])
	}
}

func TestRemoteDuplicateCloned(t *testing.T) {
	// α on a, β on c, α --duplicate--> β; moving α to b installs a copy
	// of β at b (cloned via its owner).
	cl := newCluster(t, "a", "b", "c")
	a := cl.core("a")
	beta, err := a.NewCompletAt("c", "Msg", "remote-replica")
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", beta); err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(alpha.Target())
	if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Duplicate{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	if got := cl.core("b").CompletCount(); got != 2 {
		t.Fatalf("b hosts %d, want 2 (α + clone of β)", got)
	}
	if got := cl.core("c").CompletCount(); got != 1 {
		t.Fatalf("c hosts %d, want 1 (original β stays)", got)
	}
	if got := invoke1(t, alpha, "CallOut"); got != "remote-replica" {
		t.Fatalf("CallOut = %v", got)
	}
	if got := invoke1(t, beta, "Calls"); got != 0 {
		t.Fatalf("original touched: Calls = %v", got)
	}
}

// setRelocator sets the relocator of a hosted holder's outgoing reference.
func setRelocator(t *testing.T, c *Core, r *ref.Ref, rel ref.Relocator) {
	t.Helper()
	entry, ok := c.lookup(r.Target())
	if !ok {
		t.Fatalf("%v not hosted at %s", r.Target(), c.ID())
	}
	if err := entry.anchor.(*holder).Out.Meta().SetRelocator(rel); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateOfTravellingComplet moves a closure in which a complet that
// travels is also the target of a duplicate reference: the copy is encoded
// under the lock the move already holds, and the move returns.
func TestDuplicateOfTravellingComplet(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build returns α, the root of the move, and the number of
		// complets b must host afterwards.
		build func(t *testing.T, a *Core) (*ref.Ref, int)
	}{
		{"pulled target duplicates the root", func(t *testing.T, a *Core) (*ref.Ref, int) {
			// α --pull--> γ --duplicate--> α
			alpha, err := a.NewComplet("Holder", "alpha")
			if err != nil {
				t.Fatal(err)
			}
			gamma, err := a.NewComplet("Holder", "gamma")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := alpha.Invoke("SetOut", gamma); err != nil {
				t.Fatal(err)
			}
			if _, err := gamma.Invoke("SetOut", alpha); err != nil {
				t.Fatal(err)
			}
			setRelocator(t, a, alpha, ref.Pull{})
			setRelocator(t, a, gamma, ref.Duplicate{})
			return alpha, 3 // α, γ and the copy of α
		}},
		{"root duplicates itself", func(t *testing.T, a *Core) (*ref.Ref, int) {
			alpha, err := a.NewComplet("Holder", "alpha")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := alpha.Invoke("SetOut", alpha); err != nil {
				t.Fatal(err)
			}
			setRelocator(t, a, alpha, ref.Duplicate{})
			return alpha, 2 // α and its copy
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newCluster(t, "a", "b")
			a, b := cl.core("a"), cl.core("b")
			alpha, want := tc.build(t, a)
			done := make(chan error, 1)
			go func() { done <- a.Move(alpha, "b") }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("move did not return within 5s")
			}
			if a.CompletCount() != 0 || b.CompletCount() != want {
				t.Fatalf("a hosts %d, b hosts %d; want 0 and %d", a.CompletCount(), b.CompletCount(), want)
			}
		})
	}
}

// TestDuplicateAtDestinationArrivesLikeRemoteClone moves α to b while α
// holds a duplicate reference to β, which already lives at b. b's owner-side
// clone of β must arrive like a clone shipped from any other core: the copy
// owns its references, sees its arrival callbacks and counts against b's
// capacity.
func TestDuplicateAtDestinationArrivesLikeRemoteClone(t *testing.T) {
	t.Run("arrival", func(t *testing.T) {
		cl := newCluster(t, "a", "b")
		a, b := cl.core("a"), cl.core("b")
		arrived := make(chan Event, 8)
		token, err := b.Monitor().SubscribeBuiltin(EventCompletArrived, func(ev Event) { arrived <- ev })
		if err != nil {
			t.Fatal(err)
		}
		defer b.Monitor().Unsubscribe(token)
		gamma, err := b.NewComplet("Msg", "gamma")
		if err != nil {
			t.Fatal(err)
		}
		beta, err := b.NewComplet("Traced")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := beta.Invoke("SetOut", gamma); err != nil {
			t.Fatal(err)
		}
		alpha, err := a.NewComplet("Holder", "alpha")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alpha.Invoke("SetOut", beta); err != nil {
			t.Fatal(err)
		}
		setRelocator(t, a, alpha, ref.Duplicate{})
		if err := a.Move(alpha, "b"); err != nil {
			t.Fatal(err)
		}
		if got := b.CompletCount(); got != 4 {
			t.Fatalf("b hosts %d, want 4 (α, β, its copy, γ)", got)
		}
		alphaAtB, ok := b.lookup(alpha.Target())
		if !ok {
			t.Fatal("α not at b")
		}
		copyID := alphaAtB.anchor.(*holder).Out.Target()
		if copyID == beta.Target() {
			t.Fatal("α's duplicate reference still targets the original β")
		}
		copyEntry, ok := b.lookup(copyID)
		if !ok {
			t.Fatalf("copy %v not hosted at b", copyID)
		}
		cp := copyEntry.anchor.(*tracedHolder)
		if owner := cp.Out.Owner(); owner != copyID {
			t.Fatalf("copy's reference owned by %v, want the copy %v", owner, copyID)
		}
		if got, want := strings.Join(cp.Events, ","), "preArrival:b,postArrival:b"; got != want {
			t.Fatalf("copy's callbacks = %q, want %q", got, want)
		}
		deadline := time.After(2 * time.Second)
		for {
			select {
			case ev := <-arrived:
				if ev.Complet != copyID {
					continue
				}
				if ev.Detail != "b" {
					t.Fatalf("copy's arrival detail = %q, want the owner core b", ev.Detail)
				}
				return
			case <-deadline:
				t.Fatal("no arrival event for the copy")
			}
		}
	})
	t.Run("at capacity", func(t *testing.T) {
		cl := newCluster(t, "a", "b")
		a, b := cl.core("a"), cl.core("b")
		beta, err := b.NewComplet("Msg", "beta")
		if err != nil {
			t.Fatal(err)
		}
		b.SetCapacity(1)
		alpha, err := a.NewComplet("Holder", "alpha")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alpha.Invoke("SetOut", beta); err != nil {
			t.Fatal(err)
		}
		setRelocator(t, a, alpha, ref.Duplicate{})
		// The copy is made (or refused) before the bundle ships; room for
		// α alone is made after that.
		a.SetMoveStepHook(func(step MoveStep, _ ids.CompletID) bool {
			if step == StepBeforePrepare {
				b.SetCapacity(2)
			}
			return false
		})
		if err := a.Move(alpha, "b"); err != nil {
			t.Fatal(err)
		}
		if got := b.CompletCount(); got != 2 {
			t.Fatalf("b hosts %d, want 2 (β and α; the copy refused at capacity)", got)
		}
		if got := invoke1(t, alpha, "CallOut"); got != "beta" {
			t.Fatalf("CallOut = %v", got)
		}
		if got := invoke1(t, beta, "Calls"); got != 1 {
			t.Fatalf("original β Calls = %v, want 1 (α's reference degraded to a link)", got)
		}
	})
}

func TestRemotePullChased(t *testing.T) {
	// α on a, β on c, α --pull--> β; moving α to b also brings β to b
	// (follow-up move, documented deviation from single-message).
	cl := newCluster(t, "a", "b", "c")
	a := cl.core("a")
	beta, err := a.NewCompletAt("c", "Msg", "chased")
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := a.NewComplet("Holder", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Invoke("SetOut", beta); err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(alpha.Target())
	if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Pull{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(alpha, "b"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return cl.core("b").CompletCount() == 2 })
	if got := cl.core("c").CompletCount(); got != 0 {
		t.Fatalf("c still hosts %d", got)
	}
	if got := invoke1(t, alpha, "CallOut"); got != "chased" {
		t.Fatalf("CallOut = %v", got)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMovementCallbacksOrder(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Witness", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Invoke("Log")
	if err != nil {
		t.Fatal(err)
	}
	logs, ok := res[0].([]string)
	if !ok {
		t.Fatalf("Log = %T", res[0])
	}
	// The arrived copy saw preDeparture (recorded before marshal), then
	// preArrival and postArrival. postDeparture ran on the ABANDONED old
	// copy, so it must NOT appear in the moved state.
	want := []string{"preDeparture:b", "preArrival:a", "postArrival:a"}
	if strings.Join(logs, ",") != strings.Join(want, ",") {
		t.Fatalf("callback order = %v, want %v", logs, want)
	}
}

func TestContinuation(t *testing.T) {
	// Weak mobility: the computation resumes via the continuation method
	// at the destination (§3.3).
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Agent")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MoveWithContinuation(r, "b", "Note", []any{"arrived-at-b"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		res, err := r.Invoke("Trail")
		if err != nil {
			return false
		}
		trail, _ := res[0].([]string)
		return len(trail) == 1 && trail[0] == "arrived-at-b"
	})
}

func TestMoveByID(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "by-id")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MoveByID(r.Target(), "b"); err != nil {
		t.Fatal(err)
	}
	if cl.core("b").CompletCount() != 1 {
		t.Fatal("complet did not move")
	}
}

func TestMoveNonexistent(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	ghost := ids.CompletID{Birth: "a", Seq: 999}
	if err := a.MoveByID(ghost, "b"); err == nil {
		t.Fatal("moving a nonexistent complet should fail")
	}
}

func TestMoveToUnknownCore(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "ghost-core"); err == nil {
		t.Fatal("moving to an unknown core should fail")
	}
	// The complet must still be usable after the failed move.
	if got := invoke1(t, r, "Print"); got != "x" {
		t.Fatalf("Print after failed move = %v", got)
	}
	if a.CompletCount() != 1 {
		t.Fatal("complet lost after failed move")
	}
}

func TestInvocationDuringMove(t *testing.T) {
	// Hammer a complet with invocations while it bounces between cores;
	// every invocation must either complete against the pre- or post-move
	// state, never fail or observe a half-moved complet.
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "busy")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				errCh <- nil
				return
			default:
				if _, err := r.Invoke("Print"); err != nil {
					errCh <- fmt.Errorf("invoke during move: %w", err)
					return
				}
			}
		}
	}()
	cores := []ids.CoreID{"b", "a", "b", "a"}
	from := []string{"a", "b", "a", "b"}
	for i, dest := range cores {
		if err := cl.core(from[i]).Move(r, dest); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	// All Print calls counted: none lost, none double-applied on a stale
	// copy (the count only ever grows on the live instance).
	n1 := invoke1(t, r, "Calls").(int)
	invoke1(t, r, "Print")
	n2 := invoke1(t, r, "Calls").(int)
	if n2 != n1+1 {
		t.Fatalf("counter on live instance: %d then %d", n1, n2)
	}
}

func TestNamesCarriedOnMove(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a, b := cl.core("a"), cl.core("b")
	r, err := a.NewComplet("Msg", "named")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Name("svc", r); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	// The name resolves at the origin (tracking ref)...
	got, ok := a.Lookup("svc")
	if !ok {
		t.Fatal("name lost at origin")
	}
	if v := invoke1(t, got, "Print"); v != "named" {
		t.Fatalf("Print via origin name = %v", v)
	}
	// ...and was carried to the destination's naming service.
	got2, ok := b.Lookup("svc")
	if !ok {
		t.Fatal("name not carried to destination")
	}
	if v := invoke1(t, got2, "Print"); v != "named" {
		t.Fatalf("Print via carried name = %v", v)
	}
}
