package observatory

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fargo/internal/core"
	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/netsim"
	"fargo/internal/plan"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

// --- workload complets -------------------------------------------------------

type msg struct {
	Text string
}

func (m *msg) Init(text string) { m.Text = text }
func (m *msg) Print() string    { return m.Text }

// front/back form a chatty pair for the planner interplay test (same shape as
// the planner's own harness: invocations through front meter the pair at
// back's hosting core).
type front struct {
	Name string
	Out  *ref.Ref
	c    *core.Core
}

func (f *front) SetCore(c *core.Core) { f.c = c }
func (f *front) Init(name string)     { f.Name = name }

func (f *front) Wire(r *ref.Ref) error {
	self, err := f.c.RefOf(f)
	if err != nil {
		return err
	}
	r.SetOwner(self.Target())
	f.Out = r
	return nil
}

func (f *front) Call() (int, error) {
	if f.Out == nil {
		return 0, errors.New("front: not wired")
	}
	res, err := f.Out.Invoke("Pong")
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

type back struct{ N int }

func (b *back) Init(string) {}
func (b *back) Pong() int   { b.N++; return b.N }

// --- cluster helper ----------------------------------------------------------

type cluster struct {
	t        testing.TB
	net      *netsim.Network
	cores    map[ids.CoreID]*core.Core
	shutOnce sync.Once
}

func (cl *cluster) close() {
	cl.shutOnce.Do(func() {
		for _, c := range cl.cores {
			_ = c.Shutdown(0)
		}
		cl.net.Close()
	})
}

func newTestRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	reg := registry.New()
	for name, proto := range map[string]any{
		"Msg":   (*msg)(nil),
		"Front": (*front)(nil),
		"Back":  (*back)(nil),
	} {
		if err := reg.Register(name, proto); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	return reg
}

// newCluster builds named cores over one simulated network; sample is the
// trace sampling rate (1 for trace tests, 0 elsewhere).
func newCluster(t testing.TB, sample float64, names ...string) *cluster {
	t.Helper()
	cl := &cluster{
		t:     t,
		net:   netsim.NewNetwork(11),
		cores: make(map[ids.CoreID]*core.Core, len(names)),
	}
	for _, name := range names {
		id := ids.CoreID(name)
		tr, err := transport.NewSim(cl.net, id)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.New(tr, newTestRegistry(t), core.Options{
			RequestTimeout:  10 * time.Second,
			TraceSampleRate: sample,
			Logf:            func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.cores[id] = c
	}
	t.Cleanup(cl.close)
	return cl
}

func (cl *cluster) core(name string) *core.Core { return cl.cores[ids.CoreID(name)] }

func coreIDs(names ...string) []ids.CoreID {
	out := make([]ids.CoreID, len(names))
	for i, n := range names {
		out[i] = ids.CoreID(n)
	}
	return out
}

func ctxFor(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// --- trace stitching ---------------------------------------------------------

// TestStitchCrossCoreTrace is the headline acceptance scenario: a complet
// born on a and moved a→b→c leaves a two-hop tracker chain; a traced
// invocation from a then traverses all three cores, and the observatory
// stitches the shards each core retained into ONE causal tree.
func TestStitchCrossCoreTrace(t *testing.T) {
	cl := newCluster(t, 1, "a", "b", "c")
	a := cl.core("a")
	ctx := ctxFor(t)

	r, err := a.NewComplet("Msg", "chained")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	// b drives the second hop so a's tracker stays stale at b — the
	// invocation must then cross a → b → c.
	if err := cl.core("b").MoveByID(r.Target(), "c"); err != nil {
		t.Fatal(err)
	}
	stale := a.NewRefTo(r.Target(), "Msg", "b")
	res, err := stale.InvokeCtx(ctx, "Print")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "chained" {
		t.Fatalf("result = %v", res[0])
	}

	o, err := Start(a, Options{Cores: coreIDs("a", "b", "c")})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	// Discover the invocation trace through the merged listing.
	entries, unreachable, err := o.Traces(ctx, 0)
	if err != nil {
		t.Fatalf("Traces: %v", err)
	}
	if len(unreachable) != 0 {
		t.Fatalf("unreachable = %v, want none", unreachable)
	}
	var entry *TraceEntry
	for i := range entries {
		if entries[i].Root == "invoke Msg.Print" {
			entry = &entries[i]
			break
		}
	}
	if entry == nil {
		t.Fatalf("no invoke trace in listing: %+v", entries)
	}
	if len(entry.Cores) != 3 {
		t.Fatalf("listing cores = %v, want shards on all of a, b, c", entry.Cores)
	}

	// The merged entry's bounds are the union of the per-core shards —
	// earliest start to latest end — regardless of merge order.
	var wantStart, wantEnd time.Time
	for _, name := range []string{"a", "b", "c"} {
		reply, err := a.ObsAtCtx(ctx, ids.CoreID(name), wire.ObsQuery{Traces: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range reply.Traces {
			if s.Trace != entry.Trace {
				continue
			}
			end := s.Start.Add(s.Duration)
			if wantStart.IsZero() || s.Start.Before(wantStart) {
				wantStart = s.Start
			}
			if end.After(wantEnd) {
				wantEnd = end
			}
		}
	}
	if !entry.Start.Equal(wantStart) {
		t.Fatalf("listing Start = %v, want earliest shard start %v", entry.Start, wantStart)
	}
	if want := wantEnd.Sub(wantStart).Nanoseconds(); entry.DurationNanos != want {
		t.Fatalf("listing DurationNanos = %d, want maxEnd-minStart = %d", entry.DurationNanos, want)
	}

	st, err := o.Stitch(ctx, entry.Trace)
	if err != nil {
		t.Fatalf("Stitch: %v", err)
	}
	if got := strings.Join(st.Cores, ","); got != "a,b,c" {
		t.Fatalf("stitched cores = %q, want a,b,c", got)
	}
	if len(st.Unreachable) != 0 {
		t.Fatalf("stitched Unreachable = %v, want none", st.Unreachable)
	}
	if len(st.Orphans) != 0 {
		t.Fatalf("stitched Orphans = %d, want none (every parent present)", len(st.Orphans))
	}
	roots := 0
	for _, sp := range st.Spans {
		if sp.Trace != entry.Trace {
			t.Fatalf("span %q carries trace %s, want %s", sp.Name, sp.Trace, entry.Trace)
		}
		if sp.Parent == 0 {
			roots++
			if sp.Core != "a" || sp.Name != "invoke Msg.Print" {
				t.Fatalf("root = %q on %s, want invoke Msg.Print on a", sp.Name, sp.Core)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("stitched tree has %d roots, want exactly 1", roots)
	}
	// The serve hop on every chain core made it into the tree.
	for _, want := range []string{"b", "c"} {
		found := false
		for _, sp := range st.Spans {
			if sp.Core == want && sp.Name == "serve invoke Print" {
				found = true
			}
		}
		if !found {
			t.Fatalf("no serve span from %s in stitched tree", want)
		}
	}
}

// --- partial views -----------------------------------------------------------

// TestPartialViewUnreachableMember pins the degradation contract: a member
// that answers nothing yields a flagged partial view, never an error.
func TestPartialViewUnreachableMember(t *testing.T) {
	cl := newCluster(t, 0, "a", "b")
	ctx := ctxFor(t)
	o, err := Start(cl.core("a"), Options{
		Cores:          coreIDs("a", "b", "ghost"),
		RefreshTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	if err := o.Refresh(ctx); err != nil {
		t.Fatalf("Refresh with unreachable member errored: %v", err)
	}
	st := o.Status()
	if !st.Partial {
		t.Fatal("Status.Partial = false, want true")
	}
	if len(st.Unreachable) != 1 || st.Unreachable[0] != "ghost" {
		t.Fatalf("Unreachable = %v, want [ghost]", st.Unreachable)
	}
	for _, m := range st.Members {
		wantUp := m.Core != "ghost"
		if m.Reachable != wantUp {
			t.Fatalf("member %s reachable = %v, want %v", m.Core, m.Reachable, wantUp)
		}
	}

	snap := o.ClusterSnapshot()
	upOf := func(core string) float64 {
		name, err := metrics.WithLabel("cluster_member_up", "core", core)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("no cluster_member_up gauge for %s", core)
		}
		return v
	}
	if upOf("a") != 1 || upOf("b") != 1 || upOf("ghost") != 0 {
		t.Fatalf("member_up gauges = a:%v b:%v ghost:%v", upOf("a"), upOf("b"), upOf("ghost"))
	}
	if snap.Gauges["cluster_members"] != 3 || snap.Gauges["cluster_members_up"] != 2 {
		t.Fatalf("members=%v up=%v, want 3/2", snap.Gauges["cluster_members"], snap.Gauges["cluster_members_up"])
	}

	// Fan-out reads degrade the same way: answers from the live members, the
	// dead one listed, no error.
	_, unreachable, err := o.Traces(ctx, 0)
	if err != nil {
		t.Fatalf("Traces with unreachable member errored: %v", err)
	}
	if len(unreachable) != 1 || unreachable[0] != "ghost" {
		t.Fatalf("Traces unreachable = %v, want [ghost]", unreachable)
	}
}

// --- metrics federation ------------------------------------------------------

// TestClusterSnapshotFederation checks the three strata of /cluster/metrics:
// per-core labeled series, summed cluster_ families, and derived gauges.
func TestClusterSnapshotFederation(t *testing.T) {
	cl := newCluster(t, 0, "a", "b")
	a := cl.core("a")
	ctx := ctxFor(t)

	r, err := a.NewCompletAt("b", "Msg", "fed")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.InvokeCtx(ctx, "Print"); err != nil {
			t.Fatal(err)
		}
	}

	o, err := Start(a, Options{Cores: coreIDs("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	snap := o.ClusterSnapshot()

	// Every cluster_ counter equals the sum of its per-core labeled series.
	perCore := make(map[string]uint64) // merged name -> sum of labeled series
	var labeledSeen int
	for name, v := range snap.Counters {
		base, labels, err := metrics.SplitName(name)
		if err != nil {
			t.Fatalf("unparseable counter name %q: %v", name, err)
		}
		if strings.HasPrefix(base, "cluster_") {
			continue
		}
		core, ok := labels["core"]
		if !ok {
			t.Fatalf("per-core counter %q lacks a core label", name)
		}
		if core != "a" && core != "b" {
			t.Fatalf("counter %q has unexpected core label %q", name, core)
		}
		labeledSeen++
		delete(labels, "core")
		perCore[metrics.JoinLabels("cluster_"+base, labels)] += v
	}
	if labeledSeen == 0 {
		t.Fatal("no per-core labeled counters in the federated snapshot")
	}
	for merged, want := range perCore {
		if got := snap.Counters[merged]; got != want {
			t.Fatalf("merged counter %q = %d, want sum of per-core series %d", merged, got, want)
		}
	}

	// Histograms merge bucket-wise: merged Count is the sum, the bucket
	// layout survives, and bucket counts account for every observation.
	var histChecked bool
	for name, h := range snap.Histograms {
		base, labels, err := metrics.SplitName(name)
		if err != nil {
			t.Fatalf("unparseable histogram name %q: %v", name, err)
		}
		if !strings.HasPrefix(base, "cluster_") || h.Count == 0 {
			continue
		}
		histChecked = true
		var sum uint64
		for coreName := range map[string]bool{"a": true, "b": true} {
			l := make(metrics.Labels, len(labels)+1)
			for k, v := range labels {
				l[k] = v
			}
			l["core"] = coreName
			if ph, ok := snap.Histograms[metrics.JoinLabels(strings.TrimPrefix(base, "cluster_"), l)]; ok {
				sum += ph.Count
			}
		}
		if h.Count != sum {
			t.Fatalf("merged histogram %q Count = %d, want %d (sum of members)", name, h.Count, sum)
		}
		if len(h.Bounds) == 0 || len(h.Bounds) != len(h.Buckets) {
			t.Fatalf("merged histogram %q lost its bucket layout (%d bounds, %d buckets)", name, len(h.Bounds), len(h.Buckets))
		}
		var inBuckets uint64
		for _, c := range h.Buckets {
			inBuckets += c
		}
		if inBuckets != h.Count {
			t.Fatalf("merged histogram %q buckets hold %d observations, Count says %d", name, inBuckets, h.Count)
		}
	}
	if !histChecked {
		t.Fatal("no populated merged histogram to check")
	}

	// The exposition page renders and carries the per-core labels.
	var buf bytes.Buffer
	metrics.WritePrometheus(&buf, snap)
	page := buf.String()
	for _, want := range []string{`core="a"`, `core="b"`, "cluster_members 2", "cluster_member_up"} {
		if !strings.Contains(page, want) {
			t.Fatalf("exposition page lacks %q:\n%s", want, page)
		}
	}
}

// --- timeline ----------------------------------------------------------------

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

// TestMergeBatchesOrdering: the k-way merge orders by time across batches but
// NEVER reorders within one batch (a core's Seq order is causal truth even
// when its clock jumps).
func TestMergeBatchesOrdering(t *testing.T) {
	batchA := []Event{
		{Core: "a", Event: flight.Event{Seq: 1, At: at(0)}},
		{Core: "a", Event: flight.Event{Seq: 2, At: at(20)}},
		{Core: "a", Event: flight.Event{Seq: 3, At: at(40)}},
	}
	batchB := []Event{
		{Core: "b", Event: flight.Event{Seq: 1, At: at(10)}},
		{Core: "b", Event: flight.Event{Seq: 2, At: at(30)}},
	}
	merged := mergeBatches([][]Event{batchA, batchB})
	var got []string
	for _, ev := range merged {
		got = append(got, fmt.Sprintf("%s%d", ev.Core, ev.Seq))
	}
	want := "a1 b1 a2 b2 a3"
	if strings.Join(got, " ") != want {
		t.Fatalf("merged order = %v, want %s", got, want)
	}

	// A batch with an inverted clock still comes out in Seq order.
	skewed := []Event{
		{Core: "s", Event: flight.Event{Seq: 1, At: at(50)}},
		{Core: "s", Event: flight.Event{Seq: 2, At: at(5)}}, // clock jumped backwards
	}
	merged = mergeBatches([][]Event{skewed, batchB})
	pos := map[string]int{}
	for i, ev := range merged {
		pos[fmt.Sprintf("%s%d", ev.Core, ev.Seq)] = i
	}
	if pos["s1"] > pos["s2"] {
		t.Fatalf("merge reordered within a batch: %v", merged)
	}
	if pos["b1"] > pos["b2"] {
		t.Fatalf("merge reordered within a batch: %v", merged)
	}
}

// TestTimelineMergeAndSubscribe runs the e2e path: flight events recorded on
// two cores surface in one merged timeline with a strictly increasing merge
// clock and per-core Seq order intact, and subscribers see fresh events live.
func TestTimelineMergeAndSubscribe(t *testing.T) {
	cl := newCluster(t, 0, "a", "b")
	a := cl.core("a")
	ctx := ctxFor(t)

	o, err := Start(a, Options{Cores: coreIDs("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	r, err := a.NewComplet("Msg", "mover")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	events := o.Timeline(0)
	if len(events) == 0 {
		t.Fatal("timeline empty after a move")
	}
	foundMove := false
	lastMerge := uint64(0)
	lastSeq := map[string]uint64{}
	for _, ev := range events {
		if ev.Merge <= lastMerge {
			t.Fatalf("merge clock not strictly increasing: %d after %d", ev.Merge, lastMerge)
		}
		lastMerge = ev.Merge
		if ev.Seq <= lastSeq[ev.Core] {
			t.Fatalf("per-core Seq order violated for %s: %d after %d", ev.Core, ev.Seq, lastSeq[ev.Core])
		}
		lastSeq[ev.Core] = ev.Seq
		if ev.Kind == flight.KindMove {
			foundMove = true
		}
	}
	if !foundMove {
		t.Fatalf("no %s event in merged timeline: %+v", flight.KindMove, events)
	}

	backlog, ch, cancel := o.Subscribe(16)
	defer cancel()
	if len(backlog) != len(events) {
		t.Fatalf("backlog = %d events, want the full retained timeline (%d)", len(backlog), len(events))
	}

	// A fresh move on b must arrive through the live channel.
	if err := cl.core("b").MoveByID(r.Target(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-ch:
			if ev.Kind == flight.KindMove && ev.Core == "b" {
				return // delivered
			}
		case <-deadline:
			t.Fatal("no live move event delivered to the subscriber")
		}
	}
}

// TestPlanAppliedReachesTimeline: planner decisions are flight events on the
// planning core, so an actuated move surfaces in the merged timeline as
// planApplied — the interleaving the acceptance criteria call for.
func TestPlanAppliedReachesTimeline(t *testing.T) {
	cl := newCluster(t, 0, "c1", "c2")
	c1 := cl.core("c1")
	ctx := ctxFor(t)

	f, err := c1.NewCompletAt("c1", "Front", "f")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c1.NewCompletAt("c2", "Back", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Invoke("Wire", b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := f.Invoke("Call"); err != nil {
			t.Fatal(err)
		}
	}

	p, err := plan.Start(c1, plan.Options{
		Cores:   coreIDs("c1", "c2"),
		Pinned:  []ids.CompletID{f.Target()},
		MinGain: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	round, err := p.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if round.Applied == 0 {
		t.Fatalf("planner applied no moves: %+v", round)
	}

	o, err := Start(c1, Options{Cores: coreIDs("c1", "c2")})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	for _, ev := range o.Timeline(0) {
		if ev.Kind == flight.KindPlanApplied {
			return
		}
	}
	t.Fatalf("no %s event in merged timeline", flight.KindPlanApplied)
}

// TestStatusAndDynamicMembership: an observatory with no configured members
// observes itself plus its peers, and members once seen stay in the model.
func TestStatusAndDynamicMembership(t *testing.T) {
	cl := newCluster(t, 0, "a", "b")
	a := cl.core("a")
	a.SeedPeers("b")
	ctx := ctxFor(t)

	o, err := Start(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if _, dup := For(a); !dup {
		t.Fatal("For did not find the started observatory")
	}
	if _, err := Start(a, Options{}); err == nil {
		t.Fatal("second Start on the same core did not error")
	}
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	st := o.Status()
	var names []string
	for _, m := range st.Members {
		names = append(names, m.Core)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "a,b" {
		t.Fatalf("dynamic members = %v, want [a b]", names)
	}
	if st.Partial {
		t.Fatalf("Partial = true with all members up: %+v", st)
	}
}

// --- subscriber lifecycle ----------------------------------------------------

// TestSubscribeCancelIdempotent: cancel is documented safe; calling it twice,
// after Stop, or on a subscription taken from a stopped observatory must all
// be no-ops, never a close-of-closed panic.
func TestSubscribeCancelIdempotent(t *testing.T) {
	cl := newCluster(t, 0, "a")
	o, err := Start(cl.core("a"), Options{Cores: coreIDs("a")})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, cancel := o.Subscribe(4)
	cancel()
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel delivered after cancel")
	}
	_, ch2, cancel2 := o.Subscribe(4)
	o.Stop()
	if _, ok := <-ch2; ok {
		t.Fatal("channel delivered after Stop")
	}
	cancel2() // Stop already closed the channel
	cancel2()
	_, ch3, cancel3 := o.Subscribe(4)
	if _, ok := <-ch3; ok {
		t.Fatal("subscription on a stopped observatory delivered an event")
	}
	cancel3()
}

// TestSubscribeRefreshStopRace hammers the subscriber lifecycle against
// refresh fan-outs: cancels (and double-cancels) race live deliveries, and
// Stop races an in-flight Refresh — the send-on-closed-channel window the
// per-subscriber closed flag removes. Run under -race.
func TestSubscribeRefreshStopRace(t *testing.T) {
	cl := newCluster(t, 0, "a", "b")
	a := cl.core("a")
	ctx := ctxFor(t)
	o, err := Start(a, Options{Cores: coreIDs("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.NewComplet("Msg", "racer")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Workload: keep the flight recorders busy so refreshes deliver events.
	wg.Add(1)
	go func() {
		defer wg.Done()
		loc := ids.CoreID("a")
		next := map[ids.CoreID]ids.CoreID{"a": "b", "b": "a"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			dst := next[loc]
			if err := cl.cores[loc].MoveByID(r.Target(), dst); err != nil {
				return
			}
			loc = dst
		}
	}()
	// Refresher: keeps fanning out past Stop, like an HTTP-driven refresh.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = o.Refresh(ctx)
		}
	}()
	// Churning subscribers: subscribe, maybe drain one event, cancel twice.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, ch, cancel := o.Subscribe(1)
				select {
				case <-ch:
				default:
				}
				cancel()
				cancel()
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	o.Stop() // races the still-running refresher and subscriber churn
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestMemberRestartResetsSeqHighWater: a member whose flight recorder
// restarted (Seq counter reset) must not be filtered out forever by the
// observatory's stale per-member high-water mark — the Total regression in
// its reply resets the mark, and the following refresh merges its events
// again.
func TestMemberRestartResetsSeqHighWater(t *testing.T) {
	cl := newCluster(t, 0, "a", "b")
	a := cl.core("a")
	ctx := ctxFor(t)
	o, err := Start(a, Options{Cores: coreIDs("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	r, err := a.NewComplet("Msg", "phoenix")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	// b initiates a move so ITS flight recorder holds events.
	if err := cl.core("b").MoveByID(r.Target(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	bID := ids.CoreID("b")
	o.mu.Lock()
	mb := o.members[bID]
	if mb == nil || mb.lastSeq == 0 {
		o.mu.Unlock()
		t.Fatal("no flight events merged from b before the simulated restart")
	}
	// Simulate b having restarted: its recorder's Seq space is reset, so the
	// retained high water is far beyond anything b will ever report again.
	mb.lastSeq = 1 << 40
	o.mu.Unlock()

	// The next refresh sees Total < lastSeq and resets the high water (the
	// reply's events were filtered by the stale mark, so none merge yet).
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	o.mu.Lock()
	got := o.members[bID].lastSeq
	o.mu.Unlock()
	if got >= 1<<40 {
		t.Fatalf("lastSeq = %d after Seq regression, want reset", got)
	}
	// The refresh after that pulls b's events from the reset mark.
	countB := func() int {
		n := 0
		for _, ev := range o.Timeline(0) {
			if ev.Core == "b" {
				n++
			}
		}
		return n
	}
	before := countB()
	if err := o.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if after := countB(); after <= before {
		t.Fatalf("timeline holds %d events from b after restart recovery, want > %d", after, before)
	}
}

// --- benchmark (E15: scrape latency vs. member count) ------------------------

func BenchmarkObservatoryRefresh(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("m%d", i)
			}
			cl := newCluster(b, 0, names...)
			api := cl.core(names[0])
			// Some layout churn so every refresh carries real payloads.
			for i := 0; i < n; i++ {
				r, err := api.NewCompletAt(ids.CoreID(names[i]), "Msg", fmt.Sprintf("w%d", i))
				if err != nil {
					b.Fatal(err)
				}
				if err := api.MoveByID(r.Target(), ids.CoreID(names[(i+1)%n])); err != nil {
					b.Fatal(err)
				}
			}
			o, err := Start(api, Options{Cores: coreIDs(names...)})
			if err != nil {
				b.Fatal(err)
			}
			defer o.Stop()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := o.Refresh(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
