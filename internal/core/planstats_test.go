package core

import (
	"sync"
	"testing"
	"time"

	"fargo/internal/ids"
)

// TestPairAccountingSurvivesMove is the regression test for the planner's
// accounting substrate: per-pair invocation meters are keyed on complet
// identity and travel with the complet, so invocationRate(source, target)
// keeps answering — at the NEW host — after the target relocates, and the old
// host stops reporting the pair.
func TestPairAccountingSurvivesMove(t *testing.T) {
	cl := newCluster(t, "a", "b", "c")
	a := cl.core("a")
	target, err := a.NewCompletAt("b", "Msg", "t")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := a.NewComplet("Holder", "caller")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := caller.Invoke("SetOut", target); err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(caller.Target())
	entry.anchor.(*holder).Out.SetOwner(caller.Target())

	const n = 20
	for i := 0; i < n; i++ {
		invoke1(t, caller, "CallOut")
	}
	src, dst := caller.Target().String(), target.Target().String()
	rateB, err := cl.core("b").Monitor().Instant(ServiceInvocationRate, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rateB <= 0 {
		t.Fatalf("pre-move pair rate at b = %v, want > 0", rateB)
	}

	// Relocate the target; its meters must travel in the movement bundle.
	if err := a.Move(target, "c"); err != nil {
		t.Fatal(err)
	}

	rateC, err := cl.core("c").Monitor().Instant(ServiceInvocationRate, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rateC <= 0 {
		t.Fatalf("pair rate at new host = %v, want > 0 (accounting lost across relocation)", rateC)
	}
	count, err := cl.core("c").Monitor().Instant(ServiceInvocationCount, dst)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("windowed count at new host = %v, want %d", count, n)
	}
	// The old host drops its meters on successful departure; wait out the
	// instant cache TTL for the stale positive reading to age out.
	waitFor(t, 2*time.Second, func() bool {
		v, err := cl.core("b").Monitor().Instant(ServiceInvocationRate, src, dst)
		return err == nil && v == 0
	})

	// Invocations after the move accrue on the same identity-keyed meters
	// (wait out the instant cache TTL for the fresh total).
	for i := 0; i < 5; i++ {
		invoke1(t, caller, "CallOut")
	}
	waitFor(t, 2*time.Second, func() bool {
		v, err := cl.core("c").Monitor().Instant(ServiceInvocationCount, dst)
		return err == nil && v == n+5
	})
}

// TestMetersConcurrentRecordAndRead has several sources create and mark pair
// and method meters on one target at once while readers snapshot them: every
// edge must end up counted exactly.
func TestMetersConcurrentRecordAndRead(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	target, err := a.NewComplet("Msg", "t")
	if err != nil {
		t.Fatal(err)
	}
	const callers, calls = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		// Each caller is a distinct source complet; Echo keeps the target
		// itself free of shared state.
		r := a.NewRefTo(target.Target(), "Msg", "a")
		r.SetOwner(ids.CompletID{Birth: "src", Seq: uint64(i + 1)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				if _, err := r.Invoke("Echo", j); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				a.Monitor().PairStats()
				a.Monitor().MethodStats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-read
	close(errs)
	for err := range errs {
		t.Fatalf("caller: %v", err)
	}
	rows := a.Monitor().PairStats()
	if len(rows) != callers {
		t.Fatalf("pair rows = %+v, want %d edges", rows, callers)
	}
	for _, r := range rows {
		if r.Dst != target.Target() || r.Count != calls {
			t.Fatalf("edge %+v, want %d calls into %s", r, calls, target.Target())
		}
	}
	if m := a.Monitor().MethodStats(); len(m) != 1 || m[0].Method != "Echo" || m[0].Calls != callers*calls {
		t.Fatalf("method rows = %+v, want one Echo row with %d calls", m, callers*calls)
	}
}

// TestProfileInterestChurn hammers the interest-counted Start/Get/Stop
// surface from many goroutines: each holds its own interest while reading, so
// Get must never miss, and when the dust settles the shared sampler is gone.
func TestProfileInterestChurn(t *testing.T) {
	cl := newCluster(t, "a")
	m := cl.core("a").Monitor()
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := m.Start(time.Millisecond, ServiceCompletLoad); err != nil {
					errs <- err
					return
				}
				if _, err := m.Get(ServiceCompletLoad); err != nil {
					errs <- err
					return
				}
				m.Stop(ServiceCompletLoad)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("churn worker: %v", err)
	}
	if got := m.ProfiledCount(); got != 0 {
		t.Fatalf("ProfiledCount after churn = %d, want 0 (interest leaked)", got)
	}
	// A final interested party still works: the sampler is recreated.
	if err := m.Start(time.Millisecond, ServiceCompletLoad); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(ServiceCompletLoad); err != nil {
		t.Fatal(err)
	}
	m.Stop(ServiceCompletLoad)
	if got := m.ProfiledCount(); got != 0 {
		t.Fatalf("ProfiledCount = %d, want 0", got)
	}
}
