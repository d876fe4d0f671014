package core

import (
	"sync"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/netsim"
)

func TestInstantCompletLoad(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	v, err := a.Monitor().Instant(ServiceCompletLoad)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("completLoad = %v, want 0", v)
	}
	if _, err := a.NewComplet("Msg", "x"); err != nil {
		t.Fatal(err)
	}
	// Cache: immediately re-reading may serve the stale 0; wait out TTL.
	waitFor(t, 2*time.Second, func() bool {
		v, err := a.Monitor().Instant(ServiceCompletLoad)
		return err == nil && v == 1
	})
}

func TestInstantCacheServesWithoutReevaluation(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	var (
		mu    sync.Mutex
		calls int
	)
	if err := a.Monitor().RegisterService("countingSvc", func([]string) (float64, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return float64(calls), nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := a.Monitor().Instant("countingSvc"); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("service evaluated %d times within TTL, want 1 (cached)", calls)
	}
}

func TestUnknownService(t *testing.T) {
	cl := newCluster(t, "a")
	if _, err := cl.core("a").Monitor().Instant("nope"); err == nil {
		t.Fatal("unknown service should fail")
	}
	if err := cl.core("a").Monitor().Start(time.Millisecond, "nope"); err == nil {
		t.Fatal("starting unknown service should fail")
	}
}

func TestRegisterServiceValidation(t *testing.T) {
	cl := newCluster(t, "a")
	m := cl.core("a").Monitor()
	if err := m.RegisterService("", nil); err == nil {
		t.Fatal("empty registration should fail")
	}
	if err := m.RegisterService(ServiceMemory, func([]string) (float64, error) { return 0, nil }); err == nil {
		t.Fatal("overriding built-in should fail")
	}
}

func TestContinuousProfileInterestCounting(t *testing.T) {
	cl := newCluster(t, "a")
	m := cl.core("a").Monitor()
	// Two interested parties, one underlying sampler.
	if err := m.Start(time.Millisecond, ServiceCompletLoad); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(time.Millisecond, ServiceCompletLoad); err != nil {
		t.Fatal(err)
	}
	if got := m.ProfiledCount(); got != 1 {
		t.Fatalf("ProfiledCount = %d, want 1 (shared sampler)", got)
	}
	if _, err := m.Get(ServiceCompletLoad); err != nil {
		t.Fatal(err)
	}
	m.Stop(ServiceCompletLoad)
	if got := m.ProfiledCount(); got != 1 {
		t.Fatalf("sampler stopped while one party still interested")
	}
	m.Stop(ServiceCompletLoad)
	if got := m.ProfiledCount(); got != 0 {
		t.Fatalf("ProfiledCount after full stop = %d", got)
	}
	if _, err := m.Get(ServiceCompletLoad); err == nil {
		t.Fatal("Get after stop should fail")
	}
}

func TestLatencyService(t *testing.T) {
	cl := newCluster(t, "a", "b")
	const lat = 10 * time.Millisecond
	if err := cl.net.SetLink("a", "b", netsim.LinkProfile{Latency: lat}); err != nil {
		t.Fatal(err)
	}
	v, err := cl.core("a").Monitor().Instant(ServiceLatency, "b")
	if err != nil {
		t.Fatal(err)
	}
	// RTT >= 2 * one-way latency, reported in milliseconds.
	if v < 20 {
		t.Fatalf("latency = %vms, want >= 20ms", v)
	}
}

func TestBandwidthService(t *testing.T) {
	cl := newCluster(t, "a", "b")
	const bw = 8 << 20 // 8 MiB/s
	if err := cl.net.SetLink("a", "b", netsim.LinkProfile{Latency: time.Millisecond, Bandwidth: bw}); err != nil {
		t.Fatal(err)
	}
	v, err := cl.core("a").Monitor().Instant(ServiceBandwidth, "b")
	if err != nil {
		t.Fatal(err)
	}
	// The estimate should be the right order of magnitude.
	if v < bw/4 || v > bw*4 {
		t.Fatalf("bandwidth = %.0f B/s, want within 4x of %d", v, bw)
	}
}

func TestInvocationRateAndCount(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "hot")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		invoke1(t, r, "Print")
	}
	mb := cl.core("b").Monitor()
	rate, err := mb.Instant(ServiceInvocationRate, r.Target().String())
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate = %v, want > 0", rate)
	}
	count, err := mb.Instant(ServiceInvocationCount, r.Target().String())
	if err != nil {
		t.Fatal(err)
	}
	if count != 30 {
		t.Fatalf("count = %v, want 30", count)
	}
}

func TestPerReferenceInvocationRate(t *testing.T) {
	// A complet holding an owned reference produces a per-(src,dst) rate
	// stream at the hosting core — the measure the example script uses.
	cl := newCluster(t, "a", "b")
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
	// Mark ownership of the inner reference (the runtime does this
	// automatically for moved closures; local wiring is explicit).
	entry, _ := a.lookup(caller.Target())
	entry.anchor.(*holder).Out.SetOwner(caller.Target())

	for i := 0; i < 20; i++ {
		invoke1(t, caller, "CallOut")
	}
	rate, err := cl.core("b").Monitor().Instant(ServiceInvocationRate,
		caller.Target().String(), target.Target().String())
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("per-reference rate = %v, want > 0", rate)
	}
}

// TestInvokeTakesNoMonitorLock runs a co-located invocation — first-use
// meter creation included — while the monitor's mutex is held: the meters
// live on the hosted complet, so the invoke path must not wait for it.
func TestInvokeTakesNoMonitorLock(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	target, err := a.NewComplet("Msg", "t")
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

	a.mon.mu.Lock()
	defer a.mon.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := caller.Invoke("CallOut")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("co-located invocation blocked on the monitor mutex")
	}
	if rows := a.Monitor().PairStats(); len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("pair rows = %+v, want the one edge counted once", rows)
	}
}

func TestCompletSizeService(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	small, err := a.NewComplet("Msg", "s")
	if err != nil {
		t.Fatal(err)
	}
	big, err := a.NewComplet("Msg", string(make([]byte, 10_000)))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := a.Monitor().Instant(ServiceCompletSize, small.Target().String())
	if err != nil {
		t.Fatal(err)
	}
	vb, err := a.Monitor().Instant(ServiceCompletSize, big.Target().String())
	if err != nil {
		t.Fatal(err)
	}
	if vb < vs+5000 {
		t.Fatalf("sizes: small=%v big=%v", vs, vb)
	}
	if _, err := a.Monitor().Instant(ServiceCompletSize, "nowhere/#9"); err == nil {
		t.Fatal("size of unknown complet should fail")
	}
}

func TestInstantAtRemoteCore(t *testing.T) {
	cl := newCluster(t, "a", "b")
	if _, err := cl.core("b").NewComplet("Msg", "x"); err != nil {
		t.Fatal(err)
	}
	v, err := cl.core("a").Monitor().InstantAt("b", ServiceCompletLoad)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("remote completLoad = %v, want 1", v)
	}
}

func TestMemoryService(t *testing.T) {
	cl := newCluster(t, "a")
	v, err := cl.core("a").Monitor().Instant(ServiceMemory)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("memory = %v", v)
	}
}

// --- events -----------------------------------------------------------------

func TestBuiltinLayoutEvents(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a, b := cl.core("a"), cl.core("b")

	type rec struct {
		event  string
		source ids.CoreID
	}
	var (
		mu     sync.Mutex
		events []rec
	)
	listen := func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, rec{ev.Name, ev.Source})
	}
	if _, err := a.Monitor().SubscribeBuiltin(EventCompletDeparted, listen); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Monitor().SubscribeBuiltin(EventCompletArrived, listen); err != nil {
		t.Fatal(err)
	}

	r, err := a.NewComplet("Msg", "evt")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	seen := map[string]bool{}
	for _, e := range events {
		seen[e.event] = true
	}
	if !seen[EventCompletDeparted] || !seen[EventCompletArrived] {
		t.Fatalf("events = %+v", events)
	}
}

func TestThresholdEventEdgeTriggered(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	var fired sync.WaitGroup
	fired.Add(1)
	var once sync.Once
	count := 0
	var mu sync.Mutex
	_, err := a.Monitor().Subscribe(SubscribeOptions{
		Service:   ServiceCompletLoad,
		Threshold: 3,
		Above:     true,
		Interval:  2 * time.Millisecond,
	}, func(ev Event) {
		mu.Lock()
		count++
		mu.Unlock()
		once.Do(fired.Done)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: no event.
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	if count != 0 {
		mu.Unlock()
		t.Fatal("event fired below threshold")
	}
	mu.Unlock()
	// Cross the threshold.
	for i := 0; i < 4; i++ {
		if _, err := a.NewComplet("Msg", "x"); err != nil {
			t.Fatal(err)
		}
	}
	fired.Wait()
	// Stays crossed: edge triggering must not refire.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("fired %d times, want 1 (edge-triggered)", count)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	var (
		mu    sync.Mutex
		count int
	)
	token, err := a.Monitor().SubscribeBuiltin(EventCompletArrived, func(Event) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Monitor().Unsubscribe(token)
	a.Monitor().fireBuiltin(EventCompletArrived, ids.CompletID{}, "")
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatal("listener ran after unsubscribe")
	}
}

func TestSubscriptionReleasesProfileInterest(t *testing.T) {
	cl := newCluster(t, "a")
	m := cl.core("a").Monitor()
	token, err := m.Subscribe(SubscribeOptions{
		Service:   ServiceCompletLoad,
		Threshold: 100,
		Above:     true,
		Interval:  time.Millisecond,
	}, func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if m.ProfiledCount() != 1 {
		t.Fatal("subscription did not start the profile")
	}
	m.Unsubscribe(token)
	if m.ProfiledCount() != 0 {
		t.Fatal("unsubscribe did not release profiling interest")
	}
}

func TestRemoteSubscription(t *testing.T) {
	// a subscribes at b for b's arrivals; moving a complet to b notifies a.
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	got := make(chan Event, 1)
	token, err := a.Monitor().SubscribeAt("b", SubscribeOptions{Service: EventCompletArrived}, func(ev Event) {
		select {
		case got <- ev:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.NewComplet("Msg", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev.Name != EventCompletArrived || ev.Source != "b" || ev.Complet != r.Target() {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote event not delivered")
	}
	if err := a.Monitor().UnsubscribeAt("b", token); err != nil {
		t.Fatal(err)
	}
	if cl.core("b").Monitor().SubscriptionCount() != 0 {
		t.Fatal("remote subscription not removed at source")
	}
}

func TestCompletListenerSurvivesMigration(t *testing.T) {
	// The distributed event model (§4.2): a complet listener keeps
	// receiving events after it migrates, because delivery goes through a
	// tracking reference.
	cl := newCluster(t, "a", "b", "c")
	a := cl.core("a")
	listener, err := a.NewComplet("Sink")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Monitor().SubscribeBuiltinComplet(EventCompletArrived, listener, "OnEvent"); err != nil {
		t.Fatal(err)
	}
	// Fire once while the listener is local.
	probe1, err := a.NewComplet("Msg", "p1")
	if err != nil {
		t.Fatal(err)
	}
	_ = probe1
	// completArrived only fires on movement arrivals; move a probe in.
	probe, err := cl.core("c").NewComplet("Msg", "probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.core("c").Move(probe, "a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		res, err := listener.Invoke("Count")
		return err == nil && res[0].(int) >= 1
	})

	// Migrate the listener to b; events fired at a must still reach it.
	if err := a.Move(listener, "b"); err != nil {
		t.Fatal(err)
	}
	// The listener's own arrival at b is not an event at a. Move another
	// probe into a to fire a fresh event at a.
	probe2, err := cl.core("c").NewComplet("Msg", "probe2")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.core("c").Move(probe2, "a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		res, err := listener.Invoke("Count")
		return err == nil && res[0].(int) >= 2
	})
}

func TestShutdownEventReachesPeers(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a, b := cl.core("a"), cl.core("b")
	// Make b known to a.
	if _, err := a.NewCompletAt("b", "Msg", "x"); err != nil {
		t.Fatal(err)
	}
	got := make(chan Event, 1)
	if _, err := b.Monitor().SubscribeBuiltin(EventCoreShutdown, func(ev Event) {
		select {
		case got <- ev:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Shutdown(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev.Source != "a" {
			t.Fatalf("shutdown source = %v", ev.Source)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown event not delivered to peer")
	}
}
