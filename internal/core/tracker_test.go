package core

import (
	"context"
	"sync"
	"testing"

	"fargo/internal/ids"
)

// TestShortenNeverOverwritesEntry hammers shorten from several goroutines
// while the complet is removed and re-installed: a record that holds an
// entry is authoritative, so once install has stored it, no shorten may
// replace it (run under -race in CI).
func TestShortenNeverOverwritesEntry(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "x")
	if err != nil {
		t.Fatal(err)
	}
	id := r.Target()
	entry, _ := a.lookup(id)
	tr := entry.t

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, loc := range []ids.CoreID{"b", "c", "d"} {
		wg.Add(1)
		go func(loc ids.CoreID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.shorten(loc, a.id)
				}
			}
		}(loc)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		entry.moveMu.Lock()
		a.remove(entry, "b")
		entry.moveMu.Unlock()
		entry = a.install(id, entry.typeName, entry.anchor, nil)
		for spin := 0; spin < 10; spin++ {
			if !entry.live() {
				t.Fatalf("round %d: shorten replaced the installed entry with %+v", i, *tr.rec.Load())
			}
		}
	}
	if got := a.CompletCount(); got != 1 {
		t.Fatalf("CompletCount = %d after remove/install rounds, want 1", got)
	}
	if got := a.TrackerCount(); got != 1 {
		t.Fatalf("TrackerCount = %d, want one tracker for the complet", got)
	}
}

// TestTrackerRecordsAllocateNothing checks that the steady reference path
// allocates nothing in the tracker layer: a shorten that finds the tracker
// already pointing where the reply says (every steady remote invocation)
// stores nothing, and the chain walk itself adds no allocation on either
// branch.
func TestTrackerRecordsAllocateNothing(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "x")
	if err != nil {
		t.Fatal(err)
	}
	local := r.Target()
	remote := ids.CompletID{Birth: "b", Seq: 1}
	fwd := a.trackerFor(remote, "b")
	ctx := context.Background()

	if n := testing.AllocsPerRun(100, func() { fwd.shorten("b", a.id) }); n != 0 {
		t.Fatalf("shorten to the current location: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _, _ = walk(ctx, a, local, "", 0, "invoke", "Nop",
			func(*complet) (struct{}, error) { return struct{}{}, nil }, nil)
	}); n != 0 {
		t.Fatalf("walk, local branch: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _, _ = walk(ctx, a, remote, "", 0, "invoke", "Nop", nil,
			func(next ids.CoreID, _ int) (struct{}, ids.CoreID, error) { return struct{}{}, next, nil })
	}); n != 0 {
		t.Fatalf("walk, forward-and-shorten branch: %v allocs, want 0", n)
	}
	if loc, _ := a.TrackerTarget(remote); loc != "b" {
		t.Fatalf("forwarding tracker at %v, want b", loc)
	}
}
