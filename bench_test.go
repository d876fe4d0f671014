// Benchmarks for the experiment index in DESIGN.md §4 (E1–E12), one family
// per experiment, plus the shape checks E1, E4, E6 and E11 that no other
// test covers. Every row of the EXPERIMENTS.md tables is a benchmark's ns/op or a
// b.ReportMetric value of one of these; one-shot measurements (a first call
// down a tracker chain, the first move's bundle) are reported as metrics.
// The shape checks drive the same scenario helper as their benchmark.
package fargo_test

import (
	"fmt"
	"testing"
	"time"

	"fargo"
	"fargo/internal/demo"
	"fargo/internal/wire"
)

// benchUniverse builds a universe with the demo types and the given cores.
func benchUniverse(tb testing.TB, names ...string) *fargo.Universe {
	tb.Helper()
	u, err := fargo.NewUniverse(1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := demo.Register(u.RegistryHandle()); err != nil {
		tb.Fatal(err)
	}
	for _, n := range names {
		if _, err := u.NewCore(n); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(u.Close)
	return u
}

func benchCore(tb testing.TB, u *fargo.Universe, name string) *fargo.Core {
	tb.Helper()
	c, ok := u.Core(name)
	if !ok {
		tb.Fatalf("no core %q", name)
	}
	return c
}

// runOps times b.N calls of op, failing the benchmark on the first error.
func runOps(b *testing.B, op func() error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// meanOp is the shape checks' counterpart of runOps: the mean of n calls.
func meanOp(t *testing.T, n int, op func() error) time.Duration {
	t.Helper()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(n)
}

// invoke returns an op that invokes method on r.
func invoke(r *fargo.Ref, method string, args ...any) func() error {
	return func() error {
		_, err := r.Invoke(method, args...)
		return err
	}
}

// pingPong times b.N moves of r back and forth between cores from and to,
// starting at from. It returns the core r ends on and the other core.
func pingPong(b *testing.B, u *fargo.Universe, r *fargo.Ref, from, to string) (at, other string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchCore(b, u, from).Move(r, fargo.CoreID(to)); err != nil {
			b.Fatal(err)
		}
		from, to = to, from
	}
	return from, to
}

// --- E1: invocation indirection ----------------------------------------------

// e1Refs returns an Echo co-located with core a and one on core b, with the
// a–b link at the given latency.
func e1Refs(tb testing.TB, lat time.Duration) (colocated, remote *fargo.Ref) {
	u := benchUniverse(tb, "a", "b")
	if err := u.SetLink("a", "b", fargo.LinkProfile{Latency: lat}); err != nil {
		tb.Fatal(err)
	}
	a := benchCore(tb, u, "a")
	colocated, err := a.NewComplet("Echo")
	if err != nil {
		tb.Fatal(err)
	}
	remote, err = a.NewCompletAt("b", "Echo")
	if err != nil {
		tb.Fatal(err)
	}
	return colocated, remote
}

func BenchmarkE1_InvocationDirect(b *testing.B) {
	anchor := &demo.Echo{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anchor.Nop()
	}
}

func BenchmarkE1_InvocationRefColocated(b *testing.B) {
	r, _ := e1Refs(b, time.Millisecond)
	runOps(b, invoke(r, "Nop"))
}

func BenchmarkE1_InvocationRefRemote(b *testing.B) {
	for _, lat := range []time.Duration{time.Millisecond, 10 * time.Millisecond} {
		b.Run(fmt.Sprintf("lat=%v", lat), func(b *testing.B) {
			_, r := e1Refs(b, lat)
			runOps(b, invoke(r, "Nop"))
		})
	}
}

// BenchmarkE1_InvocationRefRemoteTCP measures the remote invocation path over
// real loopback TCP (the paper's system ran on RMI over real sockets; the
// other E1 benches use the simulated network).
func BenchmarkE1_InvocationRefRemoteTCP(b *testing.B) {
	regA, regB := fargo.NewRegistry(), fargo.NewRegistry()
	if err := demo.Register(regA); err != nil {
		b.Fatal(err)
	}
	if err := demo.Register(regB); err != nil {
		b.Fatal(err)
	}
	a, addrA, err := fargo.ListenTCP("bench-tcp-a", "127.0.0.1:0", nil, regA, fargo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = a.Shutdown(0) })
	peer, _, err := fargo.ListenTCP("bench-tcp-b", "127.0.0.1:0", map[string]string{"bench-tcp-a": addrA}, regB, fargo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = peer.Shutdown(0) })

	r, err := peer.NewCompletAt("bench-tcp-a", "Echo")
	if err != nil {
		b.Fatal(err)
	}
	runOps(b, invoke(r, "Nop"))
}

// TestE1InvocationShape is E1's shape: a direct Go call is cheaper than an
// invocation through a co-located reference, which is cheaper than a remote
// one.
func TestE1InvocationShape(t *testing.T) {
	colocated, remote := e1Refs(t, time.Millisecond)
	anchor := &demo.Echo{}
	direct := meanOp(t, 1000, func() error { anchor.Nop(); return nil })
	local := meanOp(t, 100, invoke(colocated, "Nop"))
	far := meanOp(t, 20, invoke(remote, "Nop"))
	if !(direct < local && local < far) {
		t.Errorf("E1 ordering violated: direct=%v colocated=%v remote=%v", direct, local, far)
	}
}

// --- E2: tracker chains --------------------------------------------------------

func BenchmarkE2_TrackerChain(b *testing.B) {
	for _, k := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			names := make([]string, k+2)
			for i := range names {
				names[i] = fmt.Sprintf("c%d", i)
			}
			u := benchUniverse(b, names...)
			origin := benchCore(b, u, names[0])
			r, err := origin.NewComplet("Echo")
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i <= k; i++ {
				if err := benchCore(b, u, names[i-1]).Move(r, fargo.CoreID(names[i])); err != nil {
					b.Fatal(err)
				}
			}
			stale := origin.NewRefTo(r.Target(), "Echo", fargo.CoreID(names[0]))
			// One-shot: the chain walk, reported as a metric.
			start := time.Now()
			if _, err := stale.Invoke("Nop"); err != nil {
				b.Fatal(err)
			}
			first := time.Since(start)
			runOps(b, invoke(stale, "Nop")) // the shortened path
			b.ReportMetric(float64(first.Microseconds()), "first-call-us")
		})
	}
}

// --- E3: single-message group movement ------------------------------------------

func BenchmarkE3_GroupMove(b *testing.B) {
	for _, k := range []int{0, 1, 4, 16, 64} {
		b.Run(fmt.Sprintf("pulls=%d", k), func(b *testing.B) {
			u := benchUniverse(b, "x", "y")
			x := benchCore(b, u, "x")
			root, err := x.NewComplet("Hub")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < k; i++ {
				child, err := x.NewComplet("Counter")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := root.Invoke("Attach", child, "pull"); err != nil {
					b.Fatal(err)
				}
			}
			at, to := pingPong(b, u, root, "x", "y")
			b.StopTimer()
			u.Network().ResetStats()
			if err := benchCore(b, u, at).Move(root, fargo.CoreID(to)); err != nil {
				b.Fatal(err)
			}
			stats := u.Network().Stats(at, to)
			b.ReportMetric(float64(stats.Messages), "msgs/move")
			b.ReportMetric(float64(stats.Bytes), "bytes/move")
		})
	}
}

// --- E4: relocator marshal cost --------------------------------------------------

// e4Outcome is what the first move of E4's Hub carried and where it left the
// complets.
type e4Outcome struct {
	bundle       uint64 // bytes on the wire x→y
	xLeft, yLeft int    // complets on x and y after the move
}

// e4Move builds E4's scenario for one relocator kind: a Hub on core x holding
// one reference of that kind to a 64 KiB Blob, with a 16-byte Blob on both x
// and y for stamp to re-bind to. It moves the Hub x→y once and returns the
// universe, the Hub and the move's outcome.
func e4Move(tb testing.TB, kind string) (*fargo.Universe, *fargo.Ref, e4Outcome) {
	tb.Helper()
	u := benchUniverse(tb, "x", "y")
	x, y := benchCore(tb, u, "x"), benchCore(tb, u, "y")
	if _, err := x.NewComplet("Blob", 16); err != nil {
		tb.Fatal(err)
	}
	if _, err := y.NewComplet("Blob", 16); err != nil {
		tb.Fatal(err)
	}
	target, err := x.NewComplet("Blob", 64<<10)
	if err != nil {
		tb.Fatal(err)
	}
	source, err := x.NewComplet("Hub")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := source.Invoke("Attach", target, kind); err != nil {
		tb.Fatal(err)
	}
	u.Network().ResetStats()
	if err := x.Move(source, "y"); err != nil {
		tb.Fatal(err)
	}
	return u, source, e4Outcome{
		bundle: u.Network().Stats("x", "y").Bytes,
		xLeft:  x.CompletCount(),
		yLeft:  y.CompletCount(),
	}
}

var e4Kinds = []string{"link", "pull", "duplicate", "stamp"}

func BenchmarkE4_RelocatorMove(b *testing.B) {
	for _, kind := range e4Kinds {
		b.Run(kind, func(b *testing.B) {
			u, source, out := e4Move(b, kind)
			pingPong(b, u, source, "y", "x")
			b.ReportMetric(float64(out.bundle), "bundle-bytes")
			b.ReportMetric(float64(out.xLeft), "x-complets")
			b.ReportMetric(float64(out.yLeft), "y-complets")
		})
	}
}

// TestE4RelocatorOutcomes is E4's shape: link and stamp leave the target on
// x, pull carries it to y, duplicate ships a copy; and the bundles of pull
// and duplicate, which carry the 64 KiB closure, outweigh those of link and
// stamp, which carry a descriptor.
func TestE4RelocatorOutcomes(t *testing.T) {
	want := map[string][2]int{ // kind → {x, y} complets after the move
		"link":      {2, 2},
		"pull":      {1, 3},
		"duplicate": {2, 3},
		"stamp":     {2, 2},
	}
	got := map[string]e4Outcome{}
	for _, kind := range e4Kinds {
		_, _, out := e4Move(t, kind)
		got[kind] = out
		if w := want[kind]; out.xLeft != w[0] || out.yLeft != w[1] {
			t.Errorf("%s: x=%d y=%d complets after the move, want x=%d y=%d", kind, out.xLeft, out.yLeft, w[0], w[1])
		}
	}
	for _, heavy := range []string{"pull", "duplicate"} {
		for _, light := range []string{"link", "stamp"} {
			if got[heavy].bundle <= got[light].bundle {
				t.Errorf("%s bundle %d B not larger than %s bundle %d B", heavy, got[heavy].bundle, light, got[light].bundle)
			}
		}
	}
}

// --- E5: profiling overhead ------------------------------------------------------

func BenchmarkE5_ProfilingOverhead(b *testing.B) {
	run := func(b *testing.B, profiled int) {
		u := benchUniverse(b, "a", "b")
		a := benchCore(b, u, "a")
		r, err := a.NewCompletAt("b", "Echo")
		if err != nil {
			b.Fatal(err)
		}
		target := r.Target().String()
		services := [][]string{
			{fargo.ServiceInvocationRate, target},
			{fargo.ServiceCompletLoad},
			{fargo.ServiceMemory},
			{fargo.ServiceInvocationCount, target},
		}
		mon := benchCore(b, u, "b").Monitor()
		for _, s := range services[:profiled] {
			if err := mon.Start(20*time.Millisecond, s[0], s[1:]...); err != nil {
				b.Fatal(err)
			}
		}
		runOps(b, invoke(r, "Nop"))
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("invocationRate", func(b *testing.B) { run(b, 1) })
	b.Run("4-services", func(b *testing.B) { run(b, 4) })
}

// BenchmarkTraceOverhead measures what the tracing subsystem adds to the
// remote invocation path at three sampling rates: off (the near-zero-overhead
// contract — one atomic load per entry point), 1% (production posture), and
// 100% (debug posture, every hop records spans). Compare against E5's "off"
// variant for the untraced baseline.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, rate float64) {
		u := benchUniverse(b, "a", "b")
		a := benchCore(b, u, "a")
		for _, name := range []string{"a", "b"} {
			benchCore(b, u, name).Tracer().SetSampleRate(rate)
		}
		r, err := a.NewCompletAt("b", "Echo")
		if err != nil {
			b.Fatal(err)
		}
		runOps(b, invoke(r, "Nop"))
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("sample=0.01", func(b *testing.B) { run(b, 0.01) })
	b.Run("sample=1", func(b *testing.B) { run(b, 1) })
}

func BenchmarkE5_InstantCached(b *testing.B) {
	u := benchUniverse(b, "a")
	a := benchCore(b, u, "a")
	blob, err := a.NewComplet("Blob", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	size := func() error {
		_, err := a.Monitor().Instant(fargo.ServiceCompletSize, blob.Target().String())
		return err
	}
	start := time.Now()
	if err := size(); err != nil {
		b.Fatal(err)
	}
	cold := time.Since(start)
	runOps(b, size)
	b.ReportMetric(float64(cold.Nanoseconds()), "cold-ns")
}

// --- E6: threshold-event fan-out ---------------------------------------------------

// e6Listeners subscribes n threshold listeners to core a's completLoad, with
// thresholds spread over 1–7 complets so that one burst of 8 new complets
// crosses them all. They share one sampler (§4.2); notify runs per event. It
// returns the subscription tokens.
func e6Listeners(tb testing.TB, a *fargo.Core, n int, notify func()) []string {
	tb.Helper()
	tokens := make([]string, n)
	for i := range tokens {
		tok, err := a.Monitor().Subscribe(fargo.SubscribeOptions{
			Service:   fargo.ServiceCompletLoad,
			Threshold: float64(1 + i%7),
			Above:     true,
			Interval:  e6Interval,
		}, func(fargo.Event) { notify() })
		if err != nil {
			tb.Fatal(err)
		}
		tokens[i] = tok
	}
	return tokens
}

const e6Interval = 5 * time.Millisecond

// BenchmarkE6_EventFanout times one threshold crossing until all n listeners
// are notified. Each crossing gets a fresh set of listeners, subscribed while
// the load is below every threshold, so each is armed and fires exactly once;
// a late event from an earlier set lands in that set's channel. Between
// crossings, outside the timer, the burst moves away and the load falls below
// 1 again. An extra profile holds the sampler across the re-subscriptions.
func BenchmarkE6_EventFanout(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("listeners=%d", n), func(b *testing.B) {
			u := benchUniverse(b, "a", "b")
			a := benchCore(b, u, "a")
			mon := a.Monitor()
			if err := mon.Start(e6Interval, fargo.ServiceCompletLoad); err != nil {
				b.Fatal(err)
			}
			burst := make([]*fargo.Ref, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				notified := make(chan struct{}, n)
				tokens := e6Listeners(b, a, n, func() {
					select {
					case notified <- struct{}{}:
					default:
					}
				})
				b.StartTimer()
				for j := range burst {
					r, err := a.NewComplet("Counter")
					if err != nil {
						b.Fatal(err)
					}
					burst[j] = r
				}
				for j := 0; j < n; j++ {
					select {
					case <-notified:
					case <-time.After(10 * time.Second):
						b.Fatalf("%d of %d listeners notified", j, n)
					}
				}
				b.StopTimer()
				for _, tok := range tokens {
					mon.Unsubscribe(tok)
				}
				for _, r := range burst {
					if err := a.Move(r, "b"); err != nil {
						b.Fatal(err)
					}
				}
				for {
					v, err := mon.Get(fargo.ServiceCompletLoad)
					if err != nil {
						b.Fatal(err)
					}
					if v < 1 {
						break
					}
					time.Sleep(time.Millisecond)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(mon.ProfiledCount()), "samplers")
		})
	}
}

// TestE6SharedSampler is E6's shape: threshold listeners on one service
// share one sampler however many there are.
func TestE6SharedSampler(t *testing.T) {
	for _, n := range []int{1, 10, 100} {
		a := benchCore(t, benchUniverse(t, "a"), "a")
		e6Listeners(t, a, n, func() {})
		if got := a.Monitor().ProfiledCount(); got != 1 {
			t.Errorf("%d listeners: %d samplers, want 1", n, got)
		}
	}
}

// --- E7: script machinery -----------------------------------------------------------

// e7Script is the paper's example script (§4.3), with an `every` qualifier on
// the rate rule.
const e7Script = `
$coreList = %1
$targetCore = %2
$comps = %3
on shutdown firedby $core listenAt $coreList do
  move completsIn $core to $targetCore
end
on methodInvokeRate(3) from $comps[0] to $comps[1] every 50 do
  move $comps[0] to coreOf $comps[1]
end`

func BenchmarkE7_ScriptParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fargo.ParseScript(e7Script); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_ScriptArm(b *testing.B) {
	u := benchUniverse(b, "a", "safe")
	a := benchCore(b, u, "a")
	target, err := a.NewComplet("Echo")
	if err != nil {
		b.Fatal(err)
	}
	caller, err := a.NewComplet("Echo")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := fargo.RunScript(a, e7Script, nil,
			[]fargo.ScriptValue{"a"}, "safe",
			[]fargo.ScriptValue{caller.Target().String(), target.Target().String()})
		if err != nil {
			b.Fatal(err)
		}
		inst.Close()
	}
}

// BenchmarkE7_ScriptReaction times each rule of the paper's script, armed on
// core admin over north and south, from its trigger to the layout it asks
// for: the performance rule from the start of a >3/s burst of caller→target
// invocations to the caller's arrival at the target's core, the reliability
// rule from north's shutdown to the evacuation of its bystander to safe.
// Every op builds a fresh cluster outside the timer.
func BenchmarkE7_ScriptReaction(b *testing.B) {
	arm := func(b *testing.B) (u *fargo.Universe, admin *fargo.Core, caller, target, bystander *fargo.Ref) {
		u = benchUniverse(b, "north", "south", "safe", "admin")
		admin = benchCore(b, u, "admin")
		var err error
		if caller, err = admin.NewCompletAt("north", "Echo"); err != nil {
			b.Fatal(err)
		}
		if target, err = admin.NewCompletAt("south", "Echo"); err != nil {
			b.Fatal(err)
		}
		if bystander, err = admin.NewCompletAt("north", "Counter"); err != nil {
			b.Fatal(err)
		}
		inst, err := fargo.RunScript(admin, e7Script, nil,
			[]fargo.ScriptValue{"north", "south"}, "safe",
			[]fargo.ScriptValue{caller.Target().String(), target.Target().String()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(inst.Close)
		return u, admin, caller, target, bystander
	}
	waitAt := func(b *testing.B, admin *fargo.Core, r *fargo.Ref, want fargo.CoreID) {
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			if loc, err := admin.LocateComplet(r.Target()); err == nil && loc == want {
				return
			}
			if time.Now().After(deadline) {
				b.Fatalf("%s never reached %s", r.Target(), want)
			}
		}
	}
	b.Run("rule=performance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, admin, caller, target, _ := arm(b)
			target.SetOwner(caller.Target())
			stop, done := make(chan struct{}), make(chan struct{})
			b.StartTimer()
			go func() {
				defer close(done)
				tick := time.NewTicker(5 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-tick.C:
						_, _ = target.Invoke("Nop")
					case <-stop:
						return
					}
				}
			}()
			waitAt(b, admin, caller, "south")
			b.StopTimer()
			close(stop)
			<-done
		}
	})
	b.Run("rule=reliability", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			u, admin, _, _, bystander := arm(b)
			north := benchCore(b, u, "north")
			done := make(chan struct{})
			b.StartTimer()
			go func() {
				defer close(done)
				_ = north.Shutdown(200 * time.Millisecond)
			}()
			waitAt(b, admin, bystander, "safe")
			b.StopTimer()
			<-done
		}
	})
}

// --- E8: by-value parameter copying ---------------------------------------------------

func BenchmarkE8_ParamCopy(b *testing.B) {
	u := benchUniverse(b, "a")
	a := benchCore(b, u, "a")
	sink, err := a.NewComplet("Echo")
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			runOps(b, invoke(sink, "EchoBytes", make([]byte, size)))
		})
	}
}

func BenchmarkE8_RefDegradeRoundtrip(b *testing.B) {
	u := benchUniverse(b, "a")
	a := benchCore(b, u, "a")
	sink, err := a.NewComplet("Echo")
	if err != nil {
		b.Fatal(err)
	}
	r := a.NewRefTo(sink.Target(), "Echo", "a")
	runOps(b, func() error {
		data, _, err := wire.EncodeArgs([]any{r})
		if err != nil {
			return err
		}
		_, _, err = wire.DecodeArgs(data)
		return err
	})
}

// --- E9: tracking ablation --------------------------------------------------------------

// BenchmarkE9_Tracking compares tracker chains with home-based naming (§7):
// the complet moves k times, then core obs, which never talked to it, calls
// it. first-call-us is obs's first call; ns/op is every call after it.
func BenchmarkE9_Tracking(b *testing.B) {
	for _, k := range []int{2, 8} {
		for _, strategy := range []string{"chain", "home"} {
			b.Run(fmt.Sprintf("k=%d/%s", k, strategy), func(b *testing.B) {
				names := []string{"obs"}
				for i := 0; i <= k; i++ {
					names = append(names, fmt.Sprintf("h%d", i))
				}
				u := benchUniverse(b, names...)
				if strategy == "home" {
					for _, n := range names {
						benchCore(b, u, n).EnableHomeTracking()
					}
				}
				r, err := benchCore(b, u, "h0").NewComplet("Echo")
				if err != nil {
					b.Fatal(err)
				}
				for i := 1; i <= k; i++ {
					if err := benchCore(b, u, names[i]).Move(r, fargo.CoreID(names[i+1])); err != nil {
						b.Fatal(err)
					}
				}
				obs, last := benchCore(b, u, "obs"), fargo.CoreID(names[k+1])
				op := invoke(obs.NewRefTo(r.Target(), "Echo", "h0"), "Nop")
				if strategy == "home" {
					// Wait for the asynchronous home updates to land.
					for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
						if loc, err := obs.LocateViaHome(r.Target()); err == nil && loc == last {
							break
						}
						if time.Now().After(deadline) {
							b.Fatal("home record did not land")
						}
					}
					op = func() error {
						_, err := obs.InvokeViaHome(r.Target(), "Nop")
						return err
					}
				}
				start := time.Now()
				if err := op(); err != nil {
					b.Fatal(err)
				}
				first := time.Since(start)
				runOps(b, op)
				b.ReportMetric(float64(first.Microseconds()), "first-call-us")
			})
		}
	}
}

// --- E10: layout-view freshness -------------------------------------------------------

// BenchmarkE10_ViewUpdate times a move until the event-driven layout view
// (Fig 4) shows the complet at its destination; every op waits for the view
// to converge.
func BenchmarkE10_ViewUpdate(b *testing.B) {
	u := benchUniverse(b, "a", "b", "viewer")
	viewer := benchCore(b, u, "viewer")
	view, err := fargo.NewLayoutView(viewer, []fargo.CoreID{"a", "b"})
	if err != nil {
		b.Fatal(err)
	}
	defer view.Close()
	r, err := viewer.NewCompletAt("a", "Counter")
	if err != nil {
		b.Fatal(err)
	}
	dests := []fargo.CoreID{"b", "a"}
	events := view.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dest := dests[i%2]
		if err := viewer.Move(r, dest); err != nil {
			b.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if where, ok := view.Where(r.Target()); ok && where == dest {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("view never showed %s at %s", r.Target(), dest)
			}
		}
	}
	b.StopTimer()
	// Departure events may trail the arrival the loop waited for.
	for deadline := time.Now().Add(time.Second); view.Events()-events < 2*uint64(b.N) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	b.ReportMetric(float64(view.Events()-events)/float64(b.N), "events/move")
}

// --- E11: adaptive layout under WAN change --------------------------------------------------

var (
	e11Healthy  = fargo.LinkProfile{Latency: 2 * time.Millisecond, Bandwidth: 64 << 20}
	e11Degraded = fargo.LinkProfile{Latency: 40 * time.Millisecond, Bandwidth: 1 << 20}
)

// e11Server is the §1 scenario: a client on core edge uses a KVStore on core
// dc over a healthy link, which then changes to link. When adaptive is set,
// the relocation policy of §4.1 runs after the change, expressed with the
// monitoring API alone: if dc sees the server invoked more than 0.5 times a
// second and the link's latency exceeds 10 ms, co-locate the server with its
// client.
func e11Server(tb testing.TB, link fargo.LinkProfile, adaptive bool) *fargo.Ref {
	tb.Helper()
	u := benchUniverse(tb, "edge", "dc")
	if err := u.SetLink("edge", "dc", e11Healthy); err != nil {
		tb.Fatal(err)
	}
	edge := benchCore(tb, u, "edge")
	server, err := edge.NewCompletAt("dc", "KVStore")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := server.Invoke("Put", "k", "v"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 10; i++ { // the traffic dc's rate meter sees
		if _, err := server.Invoke("Get", "k"); err != nil {
			tb.Fatal(err)
		}
	}
	if err := u.SetLink("edge", "dc", link); err != nil {
		tb.Fatal(err)
	}
	if !adaptive {
		return server
	}
	rate, err := edge.Monitor().InstantAt("dc", fargo.ServiceInvocationRate, server.Target().String())
	if err != nil {
		tb.Fatal(err)
	}
	lat, err := edge.Monitor().Instant(fargo.ServiceLatency, "dc")
	if err != nil {
		tb.Fatal(err)
	}
	if rate > 0.5 && lat > 10 {
		if err := edge.Move(server, "edge"); err != nil {
			tb.Fatal(err)
		}
	}
	return server
}

func BenchmarkE11_AdaptiveVsStatic(b *testing.B) {
	for _, policy := range []string{"static", "adaptive"} {
		for _, phase := range []string{"healthy", "degraded"} {
			b.Run(policy+"/"+phase, func(b *testing.B) {
				link := map[string]fargo.LinkProfile{"healthy": e11Healthy, "degraded": e11Degraded}[phase]
				runOps(b, invoke(e11Server(b, link, policy == "adaptive"), "Get", "k"))
			})
		}
	}
}

// TestE11AdaptiveBeatsStatic is E11's shape: on the degraded link, the
// adaptive layout serves calls faster than the static one.
func TestE11AdaptiveBeatsStatic(t *testing.T) {
	static := meanOp(t, 3, invoke(e11Server(t, e11Degraded, false), "Get", "k"))
	adaptive := meanOp(t, 3, invoke(e11Server(t, e11Degraded, true), "Get", "k"))
	if adaptive >= static {
		t.Errorf("E11: adaptive (%v/call) not faster than static (%v/call) on the degraded link", adaptive, static)
	}
}

// --- E12: self-movement ---------------------------------------------------------------

func BenchmarkE12_MovePerHop(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("closure=%dB", size), func(b *testing.B) {
			u := benchUniverse(b, "x", "y")
			blob, err := benchCore(b, u, "x").NewComplet("Blob", size)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			pingPong(b, u, blob, "x", "y")
		})
	}
}

// --- E16: per-method instrument overhead -------------------------------------

// BenchmarkPerMethodInstrumentOverhead measures what the always-on per-method
// SLO instruments (latency histogram, call/error counters, in-flight gauge
// per (complet, method); DESIGN.md §16) add to the E1 colocated invoke hot
// path. The "off" arm disables them via Options.DisablePerMethodStats; the
// "on" arm is the default configuration. scripts/bench_regression.sh gates
// the ratio of the arms' median ns/op at ≤ 1.10 (the acceptance bound of the
// telemetry work).
func BenchmarkPerMethodInstrumentOverhead(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		u, err := fargo.NewUniverse(1)
		if err != nil {
			b.Fatal(err)
		}
		defer u.Close()
		if err := demo.Register(u.RegistryHandle()); err != nil {
			b.Fatal(err)
		}
		a, err := u.NewCore("a", fargo.Options{DisablePerMethodStats: disable})
		if err != nil {
			b.Fatal(err)
		}
		r, err := a.NewComplet("Echo")
		if err != nil {
			b.Fatal(err)
		}
		runOps(b, invoke(r, "Nop"))
	}
	b.Run("off", func(b *testing.B) { run(b, true) })
	b.Run("on", func(b *testing.B) { run(b, false) })
}
