package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

// --- test anchors -----------------------------------------------------------

// msg mirrors Figure 3's Message complet.
type msg struct {
	Text  string
	Count int
}

func (m *msg) Init(text string) { m.Text = text }
func (m *msg) Print() string    { m.Count++; return m.Text }
func (m *msg) Set(text string)  { m.Text = text }
func (m *msg) Calls() int       { return m.Count }
func (m *msg) Fail() error      { return errors.New("deliberate failure") }
func (m *msg) Echo(v int) int   { return v }
func (m *msg) Concat(a, b string) string {
	return a + b
}

// holder is a complet with one outgoing complet reference.
type holder struct {
	Label string
	Out   *ref.Ref
}

func (h *holder) Init(label string) { h.Label = label }
func (h *holder) SetOut(r *ref.Ref) { h.Out = r }
func (h *holder) GetOut() *ref.Ref  { return h.Out }
func (h *holder) CallOut() (string, error) {
	if h.Out == nil {
		return "", errors.New("no outgoing reference")
	}
	res, err := h.Out.Invoke("Print")
	if err != nil {
		return "", err
	}
	s, _ := res[0].(string)
	return s, nil
}

// witness records movement callbacks in order.
type witness struct {
	Name   string
	Events []string
}

func (w *witness) Init(name string) { w.Name = name }
func (w *witness) Log() []string    { return w.Events }
func (w *witness) PreDeparture(dest ids.CoreID) {
	w.Events = append(w.Events, "preDeparture:"+dest.String())
}
func (w *witness) PostDeparture(dest ids.CoreID) {
	w.Events = append(w.Events, "postDeparture:"+dest.String())
}
func (w *witness) PreArrival(from ids.CoreID) {
	w.Events = append(w.Events, "preArrival:"+from.String())
}
func (w *witness) PostArrival(from ids.CoreID) {
	w.Events = append(w.Events, "postArrival:"+from.String())
}

// agent is a self-moving complet exercising continuations.
type agent struct {
	Visited []string
}

func (a *agent) Note(core string) { a.Visited = append(a.Visited, core) }
func (a *agent) Trail() []string  { return a.Visited }

// eventSink is a complet that counts events delivered to it (distributed
// event listener tests).
type eventSink struct {
	mu sync.Mutex // not serialized: arrives unlocked after a move
	N  int
}

func (s *eventSink) OnEvent(event string, value float64, source, complet, detail string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.N++
}

func (s *eventSink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.N
}

// printerLike is used for stamp-reference tests.
type printerLike struct {
	Site string
}

func (p *printerLike) Init(site string) { p.Site = site }
func (p *printerLike) Where() string    { return p.Site }

// registerTestTypes registers all test anchor types into a registry.
func registerTestTypes(t *testing.T, reg *registry.Registry) {
	t.Helper()
	for name, proto := range map[string]any{
		"Msg":     (*msg)(nil),
		"Holder":  (*holder)(nil),
		"Witness": (*witness)(nil),
		"Agent":   (*agent)(nil),
		"Printer": (*printerLike)(nil),
		"Sink":    (*eventSink)(nil),
	} {
		if err := reg.Register(name, proto); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
}

// --- cluster helper ----------------------------------------------------------

type cluster struct {
	t     *testing.T
	net   *netsim.Network
	cores map[ids.CoreID]*Core
}

// newCluster builds named cores over one simulated network.
func newCluster(t *testing.T, names ...string) *cluster {
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
		c, err := New(tr, reg, Options{RequestTimeout: 10 * time.Second})
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

func (cl *cluster) core(name string) *Core {
	c, ok := cl.cores[ids.CoreID(name)]
	if !ok {
		cl.t.Fatalf("no core %q in cluster", name)
	}
	return c
}

// invoke1 performs an invocation expecting one result.
func invoke1(t *testing.T, r *ref.Ref, method string, args ...any) any {
	t.Helper()
	res, err := r.Invoke(method, args...)
	if err != nil {
		t.Fatalf("invoke %s: %v", method, err)
	}
	if len(res) != 1 {
		t.Fatalf("invoke %s: %d results", method, len(res))
	}
	return res[0]
}

// --- basic lifecycle ----------------------------------------------------------

func TestNewCompletAndLocalInvoke(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if got := invoke1(t, r, "Print"); got != "hello" {
		t.Fatalf("Print = %v", got)
	}
	if a.CompletCount() != 1 {
		t.Fatalf("CompletCount = %d", a.CompletCount())
	}
	if loc, err := r.Meta().Location(); err != nil || loc != "a" {
		t.Fatalf("Location = %v, %v", loc, err)
	}
}

func TestRemoteInstantiationAndInvoke(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "remote")
	if err != nil {
		t.Fatal(err)
	}
	if cl.core("b").CompletCount() != 1 {
		t.Fatal("complet not installed on b")
	}
	if got := invoke1(t, r, "Print"); got != "remote" {
		t.Fatalf("Print = %v", got)
	}
	if loc, err := r.Meta().Location(); err != nil || loc != "b" {
		t.Fatalf("Location = %v, %v", loc, err)
	}
}

func TestInvocationByValueSemantics(t *testing.T) {
	// Complets are always remote to each other w.r.t. parameter passing:
	// even a co-located invocation must deep-copy its arguments (§2).
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "x")
	if err != nil {
		t.Fatal(err)
	}
	s := "original"
	if got := invoke1(t, r, "Concat", s, "!"); got != "original!" {
		t.Fatalf("Concat = %v", got)
	}
	// State mutations persist across invocations (same anchor instance).
	invoke1(t, r, "Print")
	invoke1(t, r, "Print")
	if got := invoke1(t, r, "Calls"); got != 2 {
		t.Fatalf("Calls = %v, want 2", got)
	}
}

func TestInvocationErrorsPropagate(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	for _, dest := range []ids.CoreID{"a", "b"} {
		r, err := a.NewCompletAt(dest, "Msg", "e")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Invoke("Fail"); err == nil {
			t.Fatalf("dest %s: error did not propagate", dest)
		}
		if _, err := r.Invoke("NoSuchMethod"); err == nil {
			t.Fatalf("dest %s: missing method did not error", dest)
		}
	}
}

func TestRefArgumentPassing(t *testing.T) {
	// Passing a complet reference as an argument: the receiver can invoke
	// through it (complets passed by reference, §2).
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	target, err := a.NewComplet("Msg", "shared-target")
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.NewCompletAt("b", "Holder", "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke("SetOut", target); err != nil {
		t.Fatal(err)
	}
	if got := invoke1(t, h, "CallOut"); got != "shared-target" {
		t.Fatalf("CallOut = %v", got)
	}
	// The target's call count incremented exactly once, on the original.
	if got := invoke1(t, target, "Calls"); got != 1 {
		t.Fatalf("Calls = %v, want 1 (no copy of the complet)", got)
	}
}

func TestAnchorArgumentBecomesRef(t *testing.T) {
	// Passing a raw local anchor converts to a reference automatically.
	cl := newCluster(t, "a")
	a := cl.core("a")
	target, err := a.NewComplet("Msg", "anchor-pass")
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.NewComplet("Holder", "h")
	if err != nil {
		t.Fatal(err)
	}
	// Dig out the raw anchor (test-only) and pass it.
	entry, ok := a.lookup(target.Target())
	if !ok {
		t.Fatal("target not found")
	}
	if _, err := h.Invoke("SetOut", entry.anchor); err != nil {
		t.Fatal(err)
	}
	if got := invoke1(t, h, "CallOut"); got != "anchor-pass" {
		t.Fatalf("CallOut = %v", got)
	}
}

func TestRefOf(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "self")
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(r.Target())
	self, err := a.RefOf(entry.anchor)
	if err != nil {
		t.Fatal(err)
	}
	if self.Target() != r.Target() {
		t.Fatalf("RefOf target %v, want %v", self.Target(), r.Target())
	}
	if _, err := a.RefOf(&msg{}); err == nil {
		t.Fatal("RefOf of unhosted anchor should fail")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	if _, err := a.NewComplet("Ghost"); err == nil {
		t.Fatal("unknown type should fail locally")
	}
	if _, err := a.NewCompletAt("b", "Ghost"); err == nil {
		t.Fatal("unknown type should fail remotely")
	}
}

func TestCoreInfo(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	if _, err := a.NewCompletAt("b", "Msg", "x"); err != nil {
		t.Fatal(err)
	}
	reply, err := a.ObsAtCtx(context.Background(), "b", wire.ObsQuery{Info: true})
	if err != nil {
		t.Fatal(err)
	}
	if info := reply.Info; info.Core != "b" || len(info.Complets) != 1 || info.Complets[0].TypeName != "Msg" {
		t.Fatalf("info = %+v", info)
	}
	// Self-info works without the network.
	reply, err = a.ObsAtCtx(context.Background(), "a", wire.ObsQuery{Info: true})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Info.Core != "a" {
		t.Fatalf("self info = %+v", reply.Info)
	}
}

func TestShutdownRejectsFurtherUse(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	if err := a.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewComplet("Msg", "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewComplet after shutdown: %v", err)
	}
	if err := a.Shutdown(0); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}

func TestTrackerSharing(t *testing.T) {
	// Many refs to one target share a single tracker per core (§3.1).
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	target, err := a.NewCompletAt("b", "Msg", "shared")
	if err != nil {
		t.Fatal(err)
	}
	// First use materializes the single shared tracker.
	if _, err := target.Invoke("Print"); err != nil {
		t.Fatal(err)
	}
	before := a.TrackerCount()
	for i := 0; i < 10; i++ {
		r := ref.New(target.Target(), "Msg", "b", nil)
		r.Bind(a.binder())
		if _, err := r.Invoke("Print"); err != nil {
			t.Fatal(err)
		}
	}
	if after := a.TrackerCount(); after != before {
		t.Fatalf("tracker count grew from %d to %d; refs must share trackers", before, after)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	r, err := a.NewCompletAt("b", "Msg", "c")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := r.Invoke("Echo", i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPeersTracked(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	if _, err := a.NewCompletAt("b", "Msg", "x"); err != nil {
		t.Fatal(err)
	}
	peers := a.Peers()
	if len(peers) != 1 || peers[0] != "b" {
		t.Fatalf("peers = %v", peers)
	}
}

func TestCompletsListing(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	r, err := a.NewComplet("Msg", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Name("the-msg", r); err != nil {
		t.Fatal(err)
	}
	infos := a.Complets()
	if len(infos) != 1 {
		t.Fatalf("Complets = %+v", infos)
	}
	if infos[0].TypeName != "Msg" || len(infos[0].Names) != 1 || infos[0].Names[0] != "the-msg" {
		t.Fatalf("info = %+v", infos[0])
	}
}

func fmtTrail(vals []any) string {
	return fmt.Sprint(vals...)
}
