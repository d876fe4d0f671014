package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fargo/internal/ids"
)

// counterAnchor is a complet whose state must survive any sequence of moves.
// Invocations on one complet may run concurrently (the paper's
// thread-per-invocation model, §5), so the anchor synchronizes its own state;
// the unexported mutex is not serialized and arrives zero-valued (unlocked)
// after each move.
type counterAnchor struct {
	mu sync.Mutex
	N  int
}

func (c *counterAnchor) Add(d int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.N += d
	return c.N
}

func (c *counterAnchor) Value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.N
}

// TestLayoutStormSequential drives a deterministic random workload of moves
// and invocations across a cluster and asserts the model invariants:
// every invocation lands exactly once on the live instance, state follows
// the complet wherever it goes, and location queries agree with reality.
func TestLayoutStormSequential(t *testing.T) {
	const (
		nCores    = 5
		nComplets = 8
		nOps      = 400
	)
	names := make([]string, nCores)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	cl := newCluster(t, names...)
	for _, c := range cl.cores {
		if err := c.Registry().Register("StormCounter", (*counterAnchor)(nil)); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(2026))
	type tracked struct {
		id       ids.CompletID
		expected int
	}
	complets := make([]*tracked, nComplets)
	for i := range complets {
		birth := cl.core(names[rng.Intn(nCores)])
		r, err := birth.NewComplet("StormCounter")
		if err != nil {
			t.Fatal(err)
		}
		complets[i] = &tracked{id: r.Target()}
	}

	for op := 0; op < nOps; op++ {
		c := complets[rng.Intn(nComplets)]
		actor := cl.core(names[rng.Intn(nCores)])
		switch rng.Intn(3) {
		case 0: // move to a random core
			dest := ids.CoreID(names[rng.Intn(nCores)])
			if err := actor.MoveByID(c.id, dest); err != nil {
				t.Fatalf("op %d: move %s to %s: %v", op, c.id, dest, err)
			}
		default: // invoke from a random core through a stale-hinted ref
			hint := ids.CoreID(names[rng.Intn(nCores)])
			r := actor.NewRefTo(c.id, "StormCounter", hint)
			res, err := r.Invoke("Add", 1)
			if err != nil {
				t.Fatalf("op %d: invoke %s from %s: %v", op, c.id, actor.ID(), err)
			}
			c.expected++
			if got := res[0].(int); got != c.expected {
				t.Fatalf("op %d: counter %s = %d, want %d (lost or duplicated update)",
					op, c.id, got, c.expected)
			}
		}
	}

	// Final audit: values, locations, and repository consistency.
	total := 0
	for _, c := range complets {
		observer := cl.core(names[0])
		r := observer.NewRefTo(c.id, "StormCounter", ids.CoreID(names[0]))
		res, err := r.Invoke("Value")
		if err != nil {
			t.Fatalf("audit %s: %v", c.id, err)
		}
		if got := res[0].(int); got != c.expected {
			t.Fatalf("audit %s: value %d, want %d", c.id, got, c.expected)
		}
		total += c.expected

		loc, err := observer.LocateComplet(c.id)
		if err != nil {
			t.Fatalf("audit locate %s: %v", c.id, err)
		}
		if _, hosted := cl.core(loc.String()).lookup(c.id); !hosted {
			t.Fatalf("audit %s: reported at %s but not hosted there", c.id, loc)
		}
	}
	hosted := 0
	for _, c := range cl.cores {
		hosted += c.CompletCount()
	}
	if hosted != nComplets {
		t.Fatalf("repositories hold %d complets, want %d (lost or duplicated complets)", hosted, nComplets)
	}
	if total == 0 {
		t.Fatal("workload made no invocations — test is vacuous")
	}
}

// TestLayoutStormConcurrent runs movers and invokers in parallel against one
// hot complet and checks that no update is lost and the final location is
// coherent.
func TestLayoutStormConcurrent(t *testing.T) {
	names := []string{"p0", "p1", "p2"}
	cl := newCluster(t, names...)
	for _, c := range cl.cores {
		if err := c.Registry().Register("StormCounter", (*counterAnchor)(nil)); err != nil {
			t.Fatal(err)
		}
	}
	origin := cl.core("p0")
	r, err := origin.NewComplet("StormCounter")
	if err != nil {
		t.Fatal(err)
	}
	id := r.Target()

	const (
		invokers  = 4
		perWorker = 30
		moves     = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, invokers+1)
	for w := 0; w < invokers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			actor := cl.core(names[w%len(names)])
			ref := actor.NewRefTo(id, "StormCounter", "p0")
			for i := 0; i < perWorker; i++ {
				if _, err := ref.Invoke("Add", 1); err != nil {
					errs <- fmt.Errorf("invoker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < moves; i++ {
			actor := cl.core(names[rng.Intn(len(names))])
			dest := ids.CoreID(names[rng.Intn(len(names))])
			if err := actor.MoveByID(id, dest); err != nil {
				errs <- fmt.Errorf("mover: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res, err := origin.NewRefTo(id, "StormCounter", "p0").Invoke("Value")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int); got != invokers*perWorker {
		t.Fatalf("final value %d, want %d (updates lost during movement)", got, invokers*perWorker)
	}
}

// TestInvokeBlockedOnMoveRetriesOnce parks a mover at StepAfterCommit, where
// it still holds the complet's write lock, lets invokers block on the
// complet, then releases the mover. Marking the complet gone and pointing the
// tracker at the destination are one transition, so each blocked invocation
// wakes to a forwarding tracker: it succeeds after at most one stale-local
// retry instead of spinning on "local" against the hop budget.
func TestInvokeBlockedOnMoveRetriesOnce(t *testing.T) {
	cl := newCluster(t, "m0", "m1")
	for _, c := range cl.cores {
		if err := c.Registry().Register("StormCounter", (*counterAnchor)(nil)); err != nil {
			t.Fatal(err)
		}
	}
	src := cl.core("m0")
	r, err := src.NewComplet("StormCounter")
	if err != nil {
		t.Fatal(err)
	}
	id := r.Target()

	parked, release := make(chan struct{}), make(chan struct{})
	src.SetMoveStepHook(func(step MoveStep, _ ids.CompletID) bool {
		if step == StepAfterCommit {
			close(parked)
			<-release
		}
		return false
	})
	moved := make(chan error, 1)
	go func() { moved <- src.MoveByID(id, "m1") }()
	<-parked

	stale := src.Metrics().Counter("invoke_stale_local_retries_total")
	before := stale.Value()
	const invokers = 8
	errs := make(chan error, invokers)
	for i := 0; i < invokers; i++ {
		go func() {
			_, err := src.NewRefTo(id, "StormCounter", "m0").Invoke("Add", 1)
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the invokers reach the complet's read lock
	// Holding the monitor lock stalls the mover in
	// fireBuiltin(EventCompletDeparted), right after it releases the
	// complet: any gap between "gone" and "tracker forwards" then stays
	// open long enough for the woken invokers to exhaust their hop budget
	// on stale-local retries.
	src.mon.mu.Lock()
	close(release)
	time.Sleep(100 * time.Millisecond)
	src.mon.mu.Unlock()
	if err := <-moved; err != nil {
		t.Fatalf("move: %v", err)
	}
	for i := 0; i < invokers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("invoker: %v", err)
		}
	}
	if got := stale.Value() - before; got > invokers {
		t.Fatalf("%d stale-local retries for %d blocked invocations, want at most one each", got, invokers)
	}
	res, err := cl.core("m1").NewRefTo(id, "StormCounter", "m1").Invoke("Value")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int); got != invokers {
		t.Fatalf("value %d after %d invocations", got, invokers)
	}
}

// TestMoveUnlocksOnlyAfterTrackerFlip checks the invariant behind
// TestInvokeBlockedOnMoveRetriesOnce without a timing race: moveLocal lets go
// of a departed complet only after remove has pointed its tracker away.
// remove needs the core mutex, so while the test holds that mutex no reader
// may get the complet's lock.
func TestMoveUnlocksOnlyAfterTrackerFlip(t *testing.T) {
	cl := newCluster(t, "m0", "m1")
	src := cl.core("m0")
	r, err := src.NewComplet("Msg", "x")
	if err != nil {
		t.Fatal(err)
	}
	id := r.Target()
	entry, ok := src.lookup(id)
	if !ok {
		t.Fatal("complet not hosted")
	}
	parked, release := make(chan struct{}), make(chan struct{})
	src.SetMoveStepHook(func(step MoveStep, _ ids.CompletID) bool {
		if step == StepAfterCommit {
			close(parked)
			<-release
		}
		return false
	})
	moved := make(chan error, 1)
	go func() { moved <- src.MoveByID(id, "m1") }()
	<-parked
	readable := make(chan struct{})
	go func() {
		entry.moveMu.RLock()
		entry.moveMu.RUnlock()
		close(readable)
	}()

	src.mu.Lock()
	close(release)
	select {
	case <-readable:
		src.mu.Unlock()
		t.Fatal("the moved complet was unlocked before remove repointed its tracker")
	case <-time.After(100 * time.Millisecond):
	}
	src.mu.Unlock()
	if err := <-moved; err != nil {
		t.Fatalf("move: %v", err)
	}
	<-readable
	if next, _ := src.TrackerTarget(id); next != "m1" {
		t.Fatalf("tracker points at %q after the move, want m1", next)
	}
}
