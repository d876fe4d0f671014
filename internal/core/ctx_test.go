package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/ref"
)

// --- cancellation -------------------------------------------------------------

func TestInvokeCtxCancelAbortsPendingInvoke(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "slow")
	if err != nil {
		t.Fatal(err)
	}
	// Make the link slow enough that the invocation is still in flight when
	// the caller cancels.
	if err := cl.net.SetLink("a", "b", netsim.LinkProfile{Latency: 400 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = r.InvokeCtx(ctx, "Print")
	elapsed := time.Since(start)
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseCanceled {
		t.Fatalf("cause = %v, want canceled", ie.Cause)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("errors.Is(err, context.Canceled) should hold")
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("cancel did not abort the pending invoke (took %v)", elapsed)
	}
}

func TestMoveCtxCancelAbortsPendingMove(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "anchored")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.SetLink("a", "b", netsim.LinkProfile{Latency: 400 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = a.MoveCtx(ctx, r, "b")
	elapsed := time.Since(start)
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseCanceled {
		t.Fatalf("cause = %v, want canceled", ie.Cause)
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("cancel did not abort the pending move (took %v)", elapsed)
	}
	// The sender keeps the complet when the move gives up: it must remain
	// installed and invocable on a.
	if a.CompletCount() != 1 {
		t.Fatalf("complet count on a = %d after abandoned move", a.CompletCount())
	}
	if _, ok := a.lookup(r.Target()); !ok {
		t.Fatal("complet left a despite the canceled move")
	}
}

// --- deadlines ----------------------------------------------------------------

func TestInvokeDeadlineShorterThanLinkLatency(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "far")
	if err != nil {
		t.Fatal(err)
	}
	const latency = 300 * time.Millisecond
	if err := cl.net.SetLink("a", "b", netsim.LinkProfile{Latency: latency}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = r.InvokeCtx(context.Background(), "Print", ref.WithTimeout(50*time.Millisecond))
	elapsed := time.Since(start)
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseTimeout || !ie.Timeout() {
		t.Fatalf("cause = %v, want timeout", ie.Cause)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("errors.Is(err, context.DeadlineExceeded) should hold")
	}
	// The caller must give up at its deadline, well before the message
	// could even arrive.
	if elapsed >= latency {
		t.Fatalf("deadline did not bound the invoke (took %v, link latency %v)", elapsed, latency)
	}
}

func TestEndToEndDeadlineAcrossTrackerChain(t *testing.T) {
	// Complet born on a, moved a→b→c, leaving trackers a→b and b→c. The
	// caller on o still hints a, so its invocation traverses o→a→b→c. With
	// 50ms per link one way, the full path costs ~150ms before the method
	// even runs.
	const linkLatency = 50 * time.Millisecond
	build := func(t *testing.T) (*cluster, *ref.Ref) {
		cl := newCluster(t, "o", "a", "b", "c")
		o := cl.core("o")
		r, err := o.NewCompletAtCtx(context.Background(), "a", "Msg", "chained")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.core("a").MoveByID(r.Target(), "b"); err != nil {
			t.Fatal(err)
		}
		if err := cl.core("b").MoveByID(r.Target(), "c"); err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]string{{"o", "a"}, {"a", "b"}, {"b", "c"}} {
			if err := cl.net.SetLink(pair[0], pair[1], netsim.LinkProfile{Latency: linkLatency}); err != nil {
				t.Fatal(err)
			}
		}
		return cl, r
	}

	t.Run("budget covers the chain", func(t *testing.T) {
		_, r := build(t)
		start := time.Now()
		res, err := r.InvokeCtx(context.Background(), "Print", ref.WithTimeout(2*time.Second))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("chained invoke: %v", err)
		}
		if len(res) != 1 || res[0] != "chained" {
			t.Fatalf("results = %v", res)
		}
		if elapsed >= 2*time.Second {
			t.Fatalf("invoke took %v, exceeding its own budget", elapsed)
		}
		// Chain shortening: the stub now hints the executing core.
		if r.Hint() != "c" {
			t.Fatalf("hint after chained invoke = %v, want c", r.Hint())
		}
	})

	t.Run("budget shorter than the chain", func(t *testing.T) {
		// A 120ms budget cannot cover the ~150ms one-way path. Were the
		// clock reset per hop (120ms each), the call would succeed; with
		// one end-to-end deadline it must fail at ~120ms.
		_, r := build(t)
		const budget = 120 * time.Millisecond
		start := time.Now()
		_, err := r.InvokeCtx(context.Background(), "Print", ref.WithTimeout(budget))
		elapsed := time.Since(start)
		var ie *InvokeError
		if !errors.As(err, &ie) {
			t.Fatalf("err = %v (%T), want *InvokeError", err, err)
		}
		if ie.Cause != CauseTimeout {
			t.Fatalf("cause = %v, want timeout", ie.Cause)
		}
		if elapsed < budget {
			t.Fatalf("failed before the budget expired (%v < %v)", elapsed, budget)
		}
		// The caller must give up within one link latency of the budget
		// (plus scheduling slack), not after retrying hop by hop.
		if limit := budget + linkLatency + 150*time.Millisecond; elapsed > limit {
			t.Fatalf("gave up after %v, want within %v", elapsed, limit)
		}
	})
}

func TestMoveCtxDeadline(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "stuck")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.SetLink("a", "b", netsim.LinkProfile{Latency: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	err = a.MoveCtx(context.Background(), r, "b", ref.WithTimeout(40*time.Millisecond))
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseTimeout {
		t.Fatalf("cause = %v, want timeout", ie.Cause)
	}
	if a.CompletCount() != 1 {
		t.Fatal("sender must keep the complet after a timed-out move")
	}
}

// --- retry / backoff ----------------------------------------------------------

func TestLocateRetriesThroughFlappingPartition(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "flappy")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.SetPartition("a", "b", true); err != nil {
		t.Fatal(err)
	}
	var healOnce sync.Once
	go func() {
		time.Sleep(60 * time.Millisecond)
		healOnce.Do(func() {
			if err := cl.net.SetPartition("a", "b", false); err != nil {
				t.Error(err)
			}
		})
	}()
	// Locate is idempotent, so the runtime retries it with backoff: the
	// call must outlive the partition and succeed once the link heals.
	// Without retries the first (instantly failing) send would be final.
	loc, err := a.LocateCompletCtx(context.Background(), r.Target(), ref.WithMaxAttempts(10))
	if err != nil {
		t.Fatalf("locate through flapping partition: %v", err)
	}
	if loc != "b" {
		t.Fatalf("located at %v, want b", loc)
	}
}

func TestLocateNoRetryFailsFast(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.SetPartition("a", "b", true); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = a.LocateCompletCtx(context.Background(), r.Target(), ref.WithNoRetry())
	elapsed := time.Since(start)
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseUnreachable {
		t.Fatalf("cause = %v, want unreachable", ie.Cause)
	}
	if ie.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 with NoRetry", ie.Attempts)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("NoRetry call took %v, should fail fast", elapsed)
	}
}

func TestNonIdempotentInvokeNotRetried(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "once")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.net.SetPartition("a", "b", true); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = r.InvokeCtx(context.Background(), "Print", ref.WithMaxAttempts(10))
	elapsed := time.Since(start)
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseUnreachable {
		t.Fatalf("cause = %v, want unreachable", ie.Cause)
	}
	// Invocations may not be idempotent: a single attempt, no backoff
	// sleeps, even when the caller raises the attempt budget.
	if ie.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 for an invocation", ie.Attempts)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("unretried invoke took %v, should fail fast", elapsed)
	}
}

func TestRemoteMethodErrorIsCauseRemote(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "failing")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.InvokeCtx(context.Background(), "Fail")
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseRemote {
		t.Fatalf("cause = %v, want remote error", ie.Cause)
	}
}

// --- hop budget ---------------------------------------------------------------

func TestHopBudgetTripEmitsEvent(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	fired := make(chan Event, 1)
	token, err := a.Monitor().SubscribeBuiltin(EventHopBudgetExceeded, func(ev Event) {
		select {
		case fired <- ev:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Monitor().Unsubscribe(token)

	r, err := a.NewComplet("Msg", "loop")
	if err != nil {
		t.Fatal(err)
	}
	err = a.tripHopBudget("invoke Msg.Print", r.Target())
	if !errors.Is(err, ErrTooManyHops) {
		t.Fatalf("err = %v, want ErrTooManyHops", err)
	}
	// Backward compatibility: the typed error still matches the old
	// sentinel.
	if !errors.Is(err, ErrTrackingLoop) {
		t.Fatal("ErrTooManyHops must wrap ErrTrackingLoop")
	}
	if got := classifyCause(err); got != CauseTooManyHops {
		t.Fatalf("classifyCause = %v, want too many hops", got)
	}
	select {
	case ev := <-fired:
		if ev.Name != EventHopBudgetExceeded {
			t.Fatalf("event name = %q", ev.Name)
		}
		if ev.Complet != r.Target() {
			t.Fatalf("event complet = %v, want %v", ev.Complet, r.Target())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hop budget event not delivered")
	}

	// A real tracker cycle: a's tracker for a complet that exists nowhere
	// points at b, and b, knowing nothing of it, falls back to the birth
	// core a. Every routed operation walks the cycle into the hop budget.
	ghost := ids.CompletID{Birth: "a", Seq: 1 << 40}
	gr := a.NewRefTo(ghost, "Msg", "b")
	// Room for one event per operation plus strays, so no delivery blocks.
	tripped := make(chan Event, 8)
	for _, c := range cl.cores {
		token, err := c.Monitor().SubscribeBuiltin(EventHopBudgetExceeded, func(ev Event) {
			select {
			case tripped <- ev:
			default:
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Monitor().Unsubscribe(token)
	}
	ctx := context.Background()
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"invoke", func() error { _, err := gr.InvokeCtx(ctx, "Print"); return err }},
		{"locate", func() error { _, err := a.LocateComplet(ghost); return err }},
		{"move", func() error { return a.MoveByID(ghost, "b") }},
		{"clone", func() error { _, err := a.cloneCommand(ctx, ghost, "b", 0, ref.CallOptions{}); return err }},
	} {
		err := op.run()
		if !errors.Is(err, ErrTooManyHops) {
			t.Fatalf("%s around a tracker cycle: err = %v, want ErrTooManyHops", op.name, err)
		}
		// Each hop passes the downstream verdict on as it is, so the
		// text does not grow with the chain.
		if n := len(err.Error()); n >= 512 {
			t.Fatalf("%s: error text is %d bytes, want < 512: %.300s…", op.name, n, err)
		}
		select {
		case ev := <-tripped:
			if ev.Complet != ghost {
				t.Fatalf("%s: hop budget event for %v, want %v", op.name, ev.Complet, ghost)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: hop budget event not delivered", op.name)
		}
	}
	if n := len(tripped); n != 0 {
		t.Fatalf("%d extra hop budget events: each operation trips once", n)
	}
}

// --- default budget -----------------------------------------------------------

func TestRequestTimeoutIsDefaultEndToEndBudget(t *testing.T) {
	// Plain context.Background gets the core's RequestTimeout as its
	// budget; a far-away peer therefore times out instead of hanging.
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "deadweight")
	if err != nil {
		t.Fatal(err)
	}
	a.opts.RequestTimeout = 60 * time.Millisecond
	if err := cl.net.SetLink("a", "b", netsim.LinkProfile{Latency: 400 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = r.InvokeCtx(context.Background(), "Print")
	elapsed := time.Since(start)
	var ie *InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InvokeError", err, err)
	}
	if ie.Cause != CauseTimeout {
		t.Fatalf("cause = %v, want timeout", ie.Cause)
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("default budget did not bound the call (took %v)", elapsed)
	}
}
