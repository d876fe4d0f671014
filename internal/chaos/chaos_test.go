package chaos

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"fargo/internal/core"
	"fargo/internal/ids"
)

// newHarness builds a cluster in a test temp dir and hooks teardown.
func newHarness(t *testing.T, seed int64, faulty bool, names ...string) *Harness {
	t.Helper()
	dir := t.TempDir()
	var (
		h   *Harness
		err error
	)
	if faulty {
		h, err = NewWithFaults(dir, seed, names...)
	} else {
		h, err = New(dir, seed, names...)
	}
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// bornBall creates a Ball on the given core and returns its identity.
func bornBall(t *testing.T, h *Harness, at ids.CoreID, label string) ids.CompletID {
	t.Helper()
	r, err := h.Core(at).NewComplet("Ball", label)
	if err != nil {
		t.Fatalf("new ball: %v", err)
	}
	return r.Target()
}

// crashScenario runs the canonical kill/restart scenario for one protocol
// step: a ball born (and checkpointed) on core a, a move a→b armed to crash
// the victim at the step, kill + restart + recover, then the convergence
// invariant — exactly one live copy, at wantOwner, with its state intact.
func crashScenario(t *testing.T, step core.MoveStep, victim, wantOwner ids.CoreID) {
	t.Helper()
	h := newHarness(t, 42, false, "a", "b", "c")
	a := h.Core("a")
	id := bornBall(t, h, "a", "crash-"+string(step))
	if err := h.Checkpoint("a"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	fired := h.ArmCrash(victim, step, id)
	// No deadline: the core's RequestTimeout (2s in the harness) bounds the
	// move, exercising the same budget a production caller would run under.
	r := a.NewRefTo(id, "Ball", "a")
	err := a.MoveCtx(context.Background(), r, "b")
	if err == nil {
		t.Fatalf("move survived a crash armed at %s", step)
	}
	if !fired() {
		t.Fatalf("crash at %s never fired (move error: %v)", step, err)
	}

	if err := h.Kill(victim); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}
	if _, err := h.Restart(victim); err != nil {
		t.Fatalf("restart %s: %v", victim, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.RecoverAll(ctx); err != nil {
		t.Fatalf("recover: %v", err)
	}
	owner, err := h.AssertConverged(ctx, id)
	if err != nil {
		t.Fatalf("after crash at %s: %v", step, err)
	}
	if owner != wantOwner {
		t.Fatalf("after crash at %s: ball at %s, want %s", step, owner, wantOwner)
	}

	// State must have survived the crash, not just identity.
	out, err := h.Core(owner).NewRefTo(id, "Ball", owner).InvokeCtx(ctx, "Get")
	if err != nil {
		t.Fatalf("get survivor: %v", err)
	}
	if got := out[0].(string); got != "crash-"+string(step) {
		t.Fatalf("survivor label = %q, want %q", got, "crash-"+string(step))
	}

	// And nothing may stay pending: a resolved cluster is ready again.
	for name, c := range h.Cores {
		hh := c.Health()
		if hh.PendingMoves != 0 {
			t.Errorf("%s still reports %d pending moves", name, hh.PendingMoves)
		}
		if !hh.JournalEnabled {
			t.Errorf("%s reports journal disabled", name)
		}
	}
}

// The five crash points of DESIGN.md §13's decision table. Crashing the
// source before PREPARE or after it must roll back (ball stays at a);
// crashing after the bundle was acknowledged or after COMMIT must complete
// (ball ends at b); crashing the destination after INSTALL must also
// complete — the journaled payload re-creates the ball on restart and the
// source's probe converts the unknown outcome into a commit.

func TestCrashBeforePrepare(t *testing.T) {
	crashScenario(t, core.StepBeforePrepare, "a", "a")
}

func TestCrashAfterPrepare(t *testing.T) {
	crashScenario(t, core.StepAfterPrepare, "a", "a")
}

func TestCrashAfterSend(t *testing.T) {
	crashScenario(t, core.StepAfterSend, "a", "b")
}

func TestCrashAfterInstall(t *testing.T) {
	crashScenario(t, core.StepAfterInstall, "b", "b")
}

func TestCrashAfterCommit(t *testing.T) {
	crashScenario(t, core.StepAfterCommit, "a", "b")
}

// TestCrashStorm moves one ball back and forth, crashing a core at a
// randomly chosen protocol step every iteration — with every inter-core
// message subject to seeded duplication on top — and demands convergence to
// exactly one live copy each time. The rng is seeded, so a failure
// reproduces.
func TestCrashStorm(t *testing.T) {
	iterations := 6
	if testing.Short() {
		iterations = 2
	}
	h := newHarness(t, 7, true, "a", "b")
	h.Faults["a"].SetDuplicate("b", 0.3)
	h.Faults["b"].SetDuplicate("a", 0.3)
	id := bornBall(t, h, "a", "storm")
	owner := ids.CoreID("a")
	if err := h.Checkpoint(owner); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	steps := []core.MoveStep{
		core.StepBeforePrepare,
		core.StepAfterPrepare,
		core.StepAfterSend,
		core.StepAfterInstall,
		core.StepAfterCommit,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < iterations; i++ {
		dest := ids.CoreID("b")
		if owner == "b" {
			dest = "a"
		}
		step := steps[rng.Intn(len(steps))]
		victim := owner
		if step == core.StepAfterInstall {
			victim = dest
		}
		if err := h.Checkpoint(owner); err != nil {
			t.Fatalf("iter %d: checkpoint %s: %v", i, owner, err)
		}

		fired := h.ArmCrash(victim, step, id)
		err := h.Core(owner).MoveCtx(context.Background(), h.Core(owner).NewRefTo(id, "Ball", owner), dest)
		if err == nil {
			t.Fatalf("iter %d: move survived a crash armed at %s", i, step)
		}
		if !fired() {
			t.Fatalf("iter %d: crash at %s never fired (move error: %v)", i, step, err)
		}
		if err := h.Kill(victim); err != nil {
			t.Fatalf("iter %d: kill %s: %v", i, victim, err)
		}
		if _, err := h.Restart(victim); err != nil {
			t.Fatalf("iter %d: restart %s: %v", i, victim, err)
		}
		// The restarted core got a fresh fault wrapper; keep the weather bad.
		other := ids.CoreID("a")
		if victim == "a" {
			other = "b"
		}
		h.Faults[victim].SetDuplicate(other, 0.3)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rep, err := h.RecoverAll(ctx)
		if err != nil {
			cancel()
			t.Fatalf("iter %d: recover: %v", i, err)
		}
		t.Logf("iter %d: owner=%s dest=%s step=%s victim=%s recovery: %s", i, owner, dest, step, victim, rep.String())
		got, err := h.AssertConverged(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("iter %d (crash %s at %s): %v", i, victim, step, err)
		}
		owner = got
	}
}

// TestCleanMoveUnderDuplication moves without crashing but with every
// message from the source duplicated: the destination must suppress the
// second install via the move epoch and the cluster must still converge to
// one copy.
func TestCleanMoveUnderDuplication(t *testing.T) {
	h := newHarness(t, 11, true, "a", "b")
	a := h.Core("a")
	id := bornBall(t, h, "a", "dup")
	h.Faults["a"].SetDuplicate("b", 1.0)
	defer h.Faults["a"].ClearAll()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := a.MoveCtx(ctx, a.NewRefTo(id, "Ball", "a"), "b"); err != nil {
		t.Fatalf("move under duplication: %v", err)
	}
	owner, err := h.AssertConverged(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if owner != "b" {
		t.Fatalf("ball at %s, want b", owner)
	}
	if got := h.Faults["a"].Counts().Duplicated; got == 0 {
		t.Fatalf("fault injector duplicated nothing; test exercised no duplication")
	}
}

// TestRestartWithoutCheckpoint restarts a crashed destination that never
// checkpointed: the journaled INSTALL payload alone must re-create the
// complet, and with it the invocation accounting the bundle carried.
func TestRestartWithoutCheckpoint(t *testing.T) {
	h := newHarness(t, 13, false, "a", "b")
	a := h.Core("a")
	id := bornBall(t, h, "a", "journal-only")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const pokes = 6
	for i := 0; i < pokes; i++ {
		if _, err := a.NewRefTo(id, "Ball", "a").InvokeCtx(ctx, "Poke"); err != nil {
			t.Fatalf("poke: %v", err)
		}
	}
	if err := a.MoveCtx(ctx, a.NewRefTo(id, "Ball", "a"), "b"); err != nil {
		t.Fatalf("move: %v", err)
	}
	// Hard-kill b with no checkpoint ever taken.
	if err := h.Kill("b"); err != nil {
		t.Fatalf("kill b: %v", err)
	}
	if _, err := h.Restart("b"); err != nil {
		t.Fatalf("restart b: %v", err)
	}
	if _, err := h.RecoverAll(ctx); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Read before AssertConverged, whose liveness poke is one more call.
	if n, err := h.Core("b").Monitor().Instant(core.ServiceInvocationCount, id.String()); err != nil || n != pokes {
		t.Fatalf("invocationCount at b after re-install = %v, %v; want %d", n, err, pokes)
	}
	owner, err := h.AssertConverged(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if owner != "b" {
		t.Fatalf("ball at %s, want b", owner)
	}
	out, err := h.Core("b").NewRefTo(id, "Ball", "b").InvokeCtx(ctx, "Get")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got := out[0].(string); got != "journal-only" {
		t.Fatalf("label = %q, want %q", got, "journal-only")
	}
}
