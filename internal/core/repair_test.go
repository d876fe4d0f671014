package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/transport"
)

// newClusterOpts is newCluster with per-core options (breaker tuning etc.).
func newClusterOpts(t *testing.T, opts Options, names ...string) *cluster {
	t.Helper()
	cl := &cluster{
		t:     t,
		net:   netsim.NewNetwork(7),
		cores: make(map[ids.CoreID]*Core, len(names)),
	}
	for _, name := range names {
		tr, err := transport.NewSim(cl.net, ids.CoreID(name))
		if err != nil {
			t.Fatal(err)
		}
		reg := registry.New()
		registerTestTypes(t, reg)
		c, err := New(tr, reg, opts)
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

// staleChain builds the canonical repair scenario: a complet born on a moves
// a→b→c, with the second hop driven by b so a's tracker still points at the
// (soon to be dead) middle core. Home tracking is on everywhere, so a — the
// birth core — knows the true location. Returns the cluster and the stale
// reference held by a.
func staleChain(t *testing.T) (*cluster, *Core, ids.CompletID) {
	t.Helper()
	cl := homeCluster(t, "a", "b", "c")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "survivor")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	// b moves it on; a is not involved, so a's tracker stays stale at b.
	if err := cl.core("b").MoveByID(r.Target(), "c"); err != nil {
		t.Fatal(err)
	}
	// Home updates are async notifies; wait for the truth to land at a.
	waitFor(t, 2*time.Second, func() bool {
		loc, err := a.LocateViaHome(r.Target())
		return err == nil && loc == "c"
	})
	if loc, ok := a.TrackerTarget(r.Target()); !ok || loc != "b" {
		t.Fatalf("precondition: a's tracker at %v (%v), want stale b", loc, ok)
	}
	return cl, a, r.Target()
}

func TestChainRepairAfterCrash(t *testing.T) {
	cl, a, id := staleChain(t)

	repaired := make(chan Event, 4)
	if _, err := a.Monitor().SubscribeBuiltin(EventChainRepaired, func(ev Event) {
		select {
		case repaired <- ev:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Kill the stale middle hop outright (host down, no shutdown protocol).
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}

	// The invocation through the stale reference must heal itself: dead hop
	// detected, home core consulted, tracker repointed, one retry.
	r := a.NewRefTo(id, "Msg", "b")
	res, err := r.InvokeCtx(context.Background(), "Print")
	if err != nil {
		t.Fatalf("invoke through dead chain hop: %v", err)
	}
	if res[0] != "survivor" {
		t.Fatalf("result = %v, want survivor", res[0])
	}

	select {
	case ev := <-repaired:
		if ev.Complet != id || !strings.Contains(ev.Detail, "b -> c") {
			t.Fatalf("chainRepaired event = %+v", ev)
		}
	default:
		t.Fatal("no chainRepaired event observed")
	}
	if loc, ok := a.TrackerTarget(id); !ok || loc != "c" {
		t.Fatalf("tracker after repair at %v (%v), want c", loc, ok)
	}

	// The healed path needs no further repair: subsequent calls are direct.
	if got := invoke1(t, r, "Print"); got != "survivor" {
		t.Fatalf("second invoke = %v", got)
	}
}

func TestChainRepairViaFaultyPartition(t *testing.T) {
	cl, a, id := staleChain(t)

	// Wrap a's OUTBOUND path in the fault injector and hard-partition the
	// stale hop. Unlike StopHost, b stays alive — only a's view of it dies,
	// exactly the asymmetric partition a chain cannot route around alone.
	faulty := transport.NewFaulty(a.tr, 11)
	a.tr = faulty
	faulty.Partition("b", true)
	defer faulty.Partition("b", false)

	repaired := make(chan Event, 4)
	if _, err := a.Monitor().SubscribeBuiltin(EventChainRepaired, func(ev Event) {
		select {
		case repaired <- ev:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}

	r := a.NewRefTo(id, "Msg", "b")
	res, err := r.InvokeCtx(context.Background(), "Set", "healed")
	if err != nil {
		t.Fatalf("invoke through partitioned chain hop: %v", err)
	}
	_ = res
	select {
	case <-repaired:
	default:
		t.Fatal("no chainRepaired event observed")
	}
	if got := invoke1(t, r, "Print"); got != "healed" {
		t.Fatalf("state after repaired move-target invoke = %v", got)
	}
	_ = cl
}

// TestChainRepairHealsRouting routes each non-invoke operation through the
// stale chain with the middle hop dead: the chain walk repairs every routed
// operation the same way, through the home core, once, without retrying the
// dead hop first.
func TestChainRepairHealsRouting(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(a *Core, id ids.CompletID) error
	}{
		{"move", func(a *Core, id ids.CompletID) error {
			if err := a.MoveByID(id, "a"); err != nil {
				return err
			}
			if _, ok := a.lookup(id); !ok {
				return errors.New("complet did not arrive after repaired move")
			}
			return nil
		}},
		{"locate", func(a *Core, id ids.CompletID) error {
			loc, err := a.LocateComplet(id)
			if err == nil && loc != "c" {
				err = fmt.Errorf("located at %s, want c", loc)
			}
			return err
		}},
		{"clone", func(a *Core, id ids.CompletID) error {
			copyID, err := a.cloneCommand(context.Background(), id, "a", 0, ref.CallOptions{})
			if err != nil {
				return err
			}
			if _, ok := a.lookup(copyID); !ok {
				return fmt.Errorf("copy %s not hosted at a", copyID)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, a, id := staleChain(t)
			if err := cl.net.StopHost("b"); err != nil {
				t.Fatal(err)
			}
			retries := a.met.retries.Value()
			if err := tc.run(a, id); err != nil {
				t.Fatalf("%s through dead chain hop: %v", tc.name, err)
			}
			// The repair is the recovery: no attempt is spent retrying
			// the dead hop first.
			if n := a.met.retries.Value() - retries; n != 0 {
				t.Fatalf("%s retried the dead hop %d times before repairing", tc.name, n)
			}
			if tc.name != "move" {
				if loc, _ := a.TrackerTarget(id); loc != "c" {
					t.Fatalf("tracker after repaired %s at %v, want c", tc.name, loc)
				}
			}
		})
	}
}

func TestRepairFailsCleanlyWhenTargetTrulyDead(t *testing.T) {
	// When the home agrees the target lives on the dead core, repair must
	// not invent a location: the caller gets the original unreachability.
	cl := homeCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		loc, err := a.LocateViaHome(r.Target())
		return err == nil && loc == "b"
	})
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}
	_, err = r.InvokeCtx(context.Background(), "Print")
	var ie *InvokeError
	if !errors.As(err, &ie) || ie.Cause != CauseUnreachable {
		t.Fatalf("err = %v, want unreachable *InvokeError", err)
	}
}

func TestBreakerFailsFastAndRecovers(t *testing.T) {
	cl := newClusterOpts(t, Options{
		RequestTimeout: 10 * time.Second,
		Breaker:        BreakerPolicy{Threshold: 2, OpenFor: time.Minute},
	}, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "guarded")
	if err != nil {
		t.Fatal(err)
	}

	reachable := make(chan Event, 4)
	if _, err := a.Monitor().SubscribeBuiltin(EventCoreReachable, func(ev Event) {
		select {
		case reachable <- ev:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}

	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}

	// Two unreachable operations trip the breaker (threshold 2)...
	for i := 0; i < 2; i++ {
		if _, err := r.InvokeCtx(context.Background(), "Print"); err == nil {
			t.Fatal("invoke against dead peer succeeded")
		}
	}
	if st := a.BreakerState("b"); st != "open" {
		t.Fatalf("breaker state = %s, want open", st)
	}

	// ...after which calls are rejected locally, far below the 10s deadline,
	// with the typed sentinel.
	start := time.Now()
	_, err = r.InvokeCtx(context.Background(), "Print")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrPeerSuspected) {
		t.Fatalf("err = %v, want ErrPeerSuspected", err)
	}
	var ie *InvokeError
	if !errors.As(err, &ie) || ie.Cause != CauseUnreachable {
		t.Fatalf("err = %v, want unreachable *InvokeError", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("open-circuit call took %v, should fail fast", elapsed)
	}

	// The heartbeat probes through the open circuit (pings are exempt) and
	// closes it when the peer returns; OpenFor is a minute, so only the
	// heartbeat can close it within this test.
	hb, err := a.Monitor().StartHeartbeat([]ids.CoreID{"b"}, 20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Stop()

	if err := cl.net.StartHost("b"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-reachable:
		if ev.Source != "b" {
			t.Fatalf("coreReachable event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no coreReachable event after the peer returned")
	}
	waitFor(t, 2*time.Second, func() bool { return a.BreakerState("b") == "closed" })
	if got := invoke1(t, r, "Print"); got != "guarded" {
		t.Fatalf("invoke after recovery = %v", got)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	// Without a heartbeat, an open circuit lets one trial call through after
	// OpenFor; a successful trial closes the circuit.
	cl := newClusterOpts(t, Options{
		RequestTimeout: 10 * time.Second,
		Breaker:        BreakerPolicy{Threshold: 2, OpenFor: 100 * time.Millisecond},
	}, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "trial")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, _ = r.InvokeCtx(context.Background(), "Print")
	}
	if st := a.BreakerState("b"); st != "open" {
		t.Fatalf("breaker state = %s, want open", st)
	}
	if err := cl.net.StartHost("b"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let OpenFor elapse
	if got := invoke1(t, r, "Print"); got != "trial" {
		t.Fatalf("half-open trial invoke = %v", got)
	}
	if st := a.BreakerState("b"); st != "closed" {
		t.Fatalf("breaker state after successful trial = %s, want closed", st)
	}
}

func TestBreakerDisabled(t *testing.T) {
	cl := newClusterOpts(t, Options{
		RequestTimeout: 5 * time.Second,
		Breaker:        BreakerPolicy{Threshold: 1, Disable: true},
	}, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "free")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.InvokeCtx(context.Background(), "Print"); errors.Is(err, ErrPeerSuspected) {
			t.Fatal("disabled breaker rejected a call")
		}
	}
	if st := a.BreakerState("b"); st != "closed" {
		t.Fatalf("disabled breaker state = %s, want closed", st)
	}
}

// panicky is an anchor whose method panics — dispatch must contain it.
type panicky struct{ N int }

func (p *panicky) Boom() { panic("kaboom") }
func (p *panicky) Ok() int {
	p.N++
	return p.N
}

func TestMethodPanicRecoveredCoreSurvives(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a, b := cl.core("a"), cl.core("b")
	if err := b.Registry().Register("Panicky", (*panicky)(nil)); err != nil {
		t.Fatal(err)
	}
	r, err := a.NewCompletAt("b", "Panicky")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.InvokeCtx(context.Background(), "Boom")
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseRemote {
		t.Fatalf("cause = %v, want remote (the method ran and blew up)", ie.Cause)
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error lacks panic diagnostics: %v", err)
	}
	// The hosting core survived: the same complet still serves calls.
	if got := invoke1(t, r, "Ok"); got != 1 {
		t.Fatalf("invoke after panic = %v", got)
	}
	if b.CompletCount() != 1 {
		t.Fatal("core lost the complet after a panicking invocation")
	}
}
