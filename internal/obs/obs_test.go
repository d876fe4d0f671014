package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fargo/internal/core"
	"fargo/internal/demo"
	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/observatory"
	"fargo/internal/registry"
	"fargo/internal/transport"
)

// cluster is the standard simulated deployment with home tracking enabled
// (the chain-repair scenario needs the home core to know the truth).
type cluster struct {
	t     *testing.T
	net   *netsim.Network
	cores map[ids.CoreID]*core.Core
}

func newCluster(t *testing.T, names ...string) *cluster {
	t.Helper()
	return newClusterOpts(t, func(string) core.Options { return core.Options{} }, names...)
}

// newClusterOpts is newCluster with per-core options (RequestTimeout is
// always 10s).
func newClusterOpts(t *testing.T, optsFor func(name string) core.Options, names ...string) *cluster {
	t.Helper()
	cl := &cluster{
		t:     t,
		net:   netsim.NewNetwork(9),
		cores: make(map[ids.CoreID]*core.Core, len(names)),
	}
	for _, name := range names {
		tr, err := transport.NewSim(cl.net, ids.CoreID(name))
		if err != nil {
			t.Fatal(err)
		}
		reg := registry.New()
		if err := demo.Register(reg); err != nil {
			t.Fatal(err)
		}
		opts := optsFor(name)
		opts.RequestTimeout = 10 * time.Second
		c, err := core.New(tr, reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableHomeTracking()
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

func (cl *cluster) core(name string) *core.Core { return cl.cores[ids.CoreID(name)] }

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// get fetches a URL, returning status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// Prometheus text exposition grammar (the subset the 0.0.4 format allows):
// every non-empty line is a comment or a sample with a valid metric name and
// well-formed label set.
var (
	promComment = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
)

// checkExposition validates every line of a scrape against the exposition
// grammar and returns the sample lines.
func checkExposition(t *testing.T, text string) []string {
	t.Helper()
	var samples []string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if promComment.MatchString(line) {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("line violates Prometheus exposition grammar: %q", line)
			continue
		}
		samples = append(samples, line)
	}
	if len(samples) == 0 {
		t.Fatal("scrape contained no samples")
	}
	return samples
}

// TestOpsEndToEnd drives the acceptance scenario: a simulated core with an
// ops server, an invocation, a forced move, and a chain repair across a dead
// hop — then asserts the ops surfaces report all of it.
func TestOpsEndToEnd(t *testing.T) {
	cl := newCluster(t, "a", "b", "c")
	a := cl.core("a")

	srv, err := Start(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(srv.Addr(), "127.0.0.1:") {
		t.Fatalf("empty Addr must bind loopback, got %s", srv.Addr())
	}
	base := "http://" + srv.Addr()

	// A local invocation (records invoke latency at a), then the canonical
	// stale-chain scenario: the complet moves a→b→c with the second hop
	// driven by b, so a's tracker still points at b when b dies.
	r, err := a.NewComplet("Message", "survivor")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke("Print"); err != nil {
		t.Fatal(err)
	}
	if err := a.Move(r, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.core("b").MoveByID(r.Target(), "c"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		loc, err := a.LocateViaHome(r.Target())
		return err == nil && loc == "c"
	})
	if loc, ok := a.TrackerTarget(r.Target()); !ok || loc != "b" {
		t.Fatalf("precondition: a's tracker at %v (%v), want stale b", loc, ok)
	}
	if err := cl.net.StopHost("b"); err != nil {
		t.Fatal(err)
	}
	stale := a.NewRefTo(r.Target(), "Message", "b")
	res, err := stale.Invoke("Print")
	if err != nil {
		t.Fatalf("invoke through dead chain hop: %v", err)
	}
	if res[0] != "survivor" {
		t.Fatalf("result = %v, want survivor", res[0])
	}

	// /metrics parses under Prometheus rules and carries the invoke latency
	// histogram (cumulative buckets with the mandatory +Inf bound).
	status, body := get(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	samples := checkExposition(t, body)
	var sawInf, sawCount, sawMove, sawRepair bool
	for _, s := range samples {
		switch {
		case strings.HasPrefix(s, `invoke_latency_ns_bucket{le="+Inf"}`):
			sawInf = true
		case strings.HasPrefix(s, "invoke_latency_ns_count "):
			sawCount = true
		case strings.HasPrefix(s, "moves_total "):
			sawMove = true
		case strings.HasPrefix(s, "chain_repairs_total "):
			sawRepair = true
		}
	}
	if !sawInf || !sawCount {
		t.Errorf("invoke_latency_ns histogram incomplete (+Inf bucket %v, count %v):\n%s", sawInf, sawCount, body)
	}
	if !sawMove || !sawRepair {
		t.Errorf("move/repair counters missing (move %v, repair %v)", sawMove, sawRepair)
	}

	// /healthz is 200 while nothing is suspect.
	if status, _ := get(t, base+"/healthz"); status != http.StatusOK {
		t.Errorf("/healthz before faults: status %d", status)
	}

	// /flight carries the move and the repair, causally ordered.
	status, body = get(t, base+"/flight")
	if status != http.StatusOK {
		t.Fatalf("/flight: status %d", status)
	}
	var fl struct {
		Core   string `json:"core"`
		Total  uint64 `json:"total"`
		Events []struct {
			Seq  uint64    `json:"seq"`
			At   time.Time `json:"at"`
			Kind string    `json:"kind"`
			Peer string    `json:"peer"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &fl); err != nil {
		t.Fatalf("/flight: bad JSON: %v\n%s", err, body)
	}
	if fl.Core != "a" || fl.Total == 0 {
		t.Errorf("/flight header = %s/%d", fl.Core, fl.Total)
	}
	moveIdx, repairIdx := -1, -1
	for i, ev := range fl.Events {
		if i > 0 && fl.Events[i-1].Seq >= ev.Seq {
			t.Errorf("flight events out of causal order: seq %d then %d", fl.Events[i-1].Seq, ev.Seq)
		}
		if i > 0 && ev.At.Before(fl.Events[i-1].At) {
			t.Errorf("flight timestamps regress at seq %d", ev.Seq)
		}
		switch ev.Kind {
		case "move":
			if moveIdx == -1 {
				moveIdx = i
			}
		case "repair":
			repairIdx = i
		}
	}
	if moveIdx == -1 || repairIdx == -1 {
		t.Fatalf("/flight missing move (%d) or repair (%d):\n%s", moveIdx, repairIdx, body)
	}
	if fl.Events[moveIdx].Seq >= fl.Events[repairIdx].Seq {
		t.Errorf("move (seq %d) must precede the repair (seq %d)",
			fl.Events[moveIdx].Seq, fl.Events[repairIdx].Seq)
	}
	if fl.Events[moveIdx].Peer != "b" {
		t.Errorf("move event peer = %q, want b", fl.Events[moveIdx].Peer)
	}

	// ?n= limits to the newest n; bad values are a client error.
	if _, body := get(t, base+"/flight?n=1"); true {
		var one struct {
			Events []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &one); err != nil || len(one.Events) != 1 {
			t.Errorf("/flight?n=1: %v, %d events", err, len(one.Events))
		}
	}
	if status, _ := get(t, base+"/flight?n=bogus"); status != http.StatusBadRequest {
		t.Errorf("/flight?n=bogus: status %d, want 400", status)
	}

	// /layout shows the repaired tracker routing to c.
	status, body = get(t, base+"/layout")
	if status != http.StatusOK {
		t.Fatalf("/layout: status %d", status)
	}
	var lay struct {
		Core     string `json:"core"`
		Trackers []struct {
			Complet string `json:"complet"`
			Local   bool   `json:"local"`
			Next    string `json:"next"`
		} `json:"trackers"`
		ChainForwarding int `json:"chain_forwarding"`
	}
	if err := json.Unmarshal([]byte(body), &lay); err != nil {
		t.Fatalf("/layout: bad JSON: %v\n%s", err, body)
	}
	if lay.Core != "a" {
		t.Errorf("/layout core = %q", lay.Core)
	}
	found := false
	for _, tr := range lay.Trackers {
		if tr.Complet == r.Target().String() && !tr.Local && tr.Next == "c" {
			found = true
		}
	}
	if !found || lay.ChainForwarding == 0 {
		t.Errorf("/layout missing repaired tracker a->c (forwarding=%d):\n%s", lay.ChainForwarding, body)
	}

	// /trace answers with valid trace_event JSON; / lists the endpoints;
	// pprof is mounted.
	status, body = get(t, base+"/trace")
	if status != http.StatusOK {
		t.Fatalf("/trace: status %d", status)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Errorf("/trace: bad JSON: %v", err)
	}
	if status, body := get(t, base+"/"); status != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: status %d body %q", status, body)
	}
	if status, _ := get(t, base+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", status)
	}
	if status, _ := get(t, base+"/nosuch"); status != http.StatusNotFound {
		t.Errorf("/nosuch: status %d, want 404", status)
	}

	// Closing the core tears the ops server down (shutdown hook).
	if err := a.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		_, err := http.Get(base + "/healthz")
		return err != nil
	})
}

// TestOpsHealthzFlipsOnIsolation starts a two-core deployment with a
// heartbeat probing the only peer; killing that peer must flip /healthz to
// 503 (total isolation) and /readyz along with it.
func TestOpsHealthzFlipsOnIsolation(t *testing.T) {
	cl := newCluster(t, "x", "y")
	x := cl.core("x")

	srv, err := Start(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Make y a known peer, then watch it.
	if _, err := x.NewCompletAt("y", "Message", "over there"); err != nil {
		t.Fatal(err)
	}
	hb, err := x.Monitor().StartHeartbeat([]ids.CoreID{"y"}, 10*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Stop()

	if status, _ := get(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz with live peer: status %d", status)
	}
	if status, _ := get(t, base+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz with live peer: status %d", status)
	}

	if err := cl.net.StopHost("y"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		status, _ := get(t, base+"/healthz")
		return status == http.StatusServiceUnavailable
	})
	status, body := get(t, base+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after isolation: status %d", status)
	}
	var h struct {
		Live  bool `json:"live"`
		Ready bool `json:"ready"`
		Peers []struct {
			Core    string `json:"core"`
			Suspect bool   `json:"suspect"`
		} `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz: bad JSON: %v\n%s", err, body)
	}
	if h.Live || h.Ready {
		t.Errorf("verdict after isolation = live=%v ready=%v", h.Live, h.Ready)
	}
	suspect := false
	for _, p := range h.Peers {
		if p.Core == "y" && p.Suspect {
			suspect = true
		}
	}
	if !suspect {
		t.Errorf("peer y not reported suspect:\n%s", body)
	}
	if status, _ := get(t, base+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("/readyz after isolation: status %d, want 503", status)
	}
}

// TestHealthzBody pins the /healthz and /readyz JSON contract: every key, in
// order, with its value, for a core running with a move journal.
func TestHealthzBody(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "a.journal")
	cl := newClusterOpts(t, func(name string) core.Options {
		if name == "a" {
			return core.Options{JournalPath: journal}
		}
		return core.Options{}
	}, "a", "b")
	a := cl.core("a")
	srv, err := Start(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	if _, err := a.NewComplet("Message", "stays"); err != nil {
		t.Fatal(err)
	}
	mover, err := a.NewComplet("Message", "moves")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Move(mover, "b"); err != nil {
		t.Fatal(err)
	}

	const want = `{
  "core": "a",
  "live": true,
  "ready": true,
  "closed": false,
  "moves_in_flight": 0,
  "complets": 1,
  "peers": [
    {
      "core": "b",
      "breaker": "closed",
      "suspect": false
    }
  ],
  "journal_enabled": true,
  "journal_records": 2,
  "pending_moves": 0,
  "moves_recovered": 0,
  "moves_rolled_back": 0
}
`
	for _, path := range []string{"/healthz", "/readyz"} {
		status, body := get(t, base+path)
		if status != http.StatusOK {
			t.Errorf("%s: status %d", path, status)
		}
		if body != want {
			t.Errorf("%s body:\n%s\nwant:\n%s", path, body, want)
		}
	}
}

// TestNormalizeAddr pins the loopback-by-default contract.
func TestNormalizeAddr(t *testing.T) {
	for in, want := range map[string]string{
		"":               "127.0.0.1:0",
		":9120":          "127.0.0.1:9120",
		"127.0.0.1:9120": "127.0.0.1:9120",
		"0.0.0.0:9120":   "0.0.0.0:9120",
	} {
		got, err := normalizeAddr(in)
		if err != nil || got != want {
			t.Errorf("normalizeAddr(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := normalizeAddr("no-port-here"); err == nil {
		t.Error("normalizeAddr without port: expected error")
	}
}

// TestStartRejectsNilCore pins the constructor contract.
func TestStartRejectsNilCore(t *testing.T) {
	if _, err := Start(nil, Options{}); err == nil {
		t.Fatal("Start(nil) must fail")
	}
}

// TestClusterRoutesThroughOps: the ops plane routes /cluster/* to the
// observatory attached to its core — 404 with a hint while none is attached,
// the full endpoint family once one is. The metrics page must satisfy the
// exposition grammar and carry per-core labels.
func TestClusterRoutesThroughOps(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	srv, err := Start(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	status, body := get(t, base+"/cluster/metrics")
	if status != http.StatusNotFound || !strings.Contains(body, "no observatory") {
		t.Fatalf("without observatory: status=%d body=%q, want 404 with hint", status, body)
	}

	o, err := observatory.Start(a, observatory.Options{Cores: []ids.CoreID{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	status, body = get(t, base+"/cluster/metrics")
	if status != http.StatusOK {
		t.Fatalf("/cluster/metrics status = %d, want 200: %s", status, body)
	}
	samples := checkExposition(t, body)
	var labeled bool
	for _, s := range samples {
		if strings.Contains(s, `core="a"`) || strings.Contains(s, `core="b"`) {
			labeled = true
		}
	}
	if !labeled {
		t.Fatalf("no per-core labeled sample in /cluster/metrics:\n%s", body)
	}
	if !strings.Contains(body, "cluster_members 2") {
		t.Fatalf("derived gauge cluster_members missing:\n%s", body)
	}

	status, body = get(t, base+"/cluster/status")
	if status != http.StatusOK {
		t.Fatalf("/cluster/status status = %d: %s", status, body)
	}
	var st struct {
		Partial bool   `json:"partial"`
		Core    string `json:"core"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/cluster/status not JSON: %v\n%s", err, body)
	}
	if st.Partial || st.Core != "a" {
		t.Fatalf("/cluster/status = %+v, want full view via a", st)
	}

	status, body = get(t, base+"/cluster/timeline?n=5")
	if status != http.StatusOK {
		t.Fatalf("/cluster/timeline status = %d: %s", status, body)
	}
	var tl struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatalf("/cluster/timeline not JSON: %v\n%s", err, body)
	}

	status, body = get(t, base+"/cluster/")
	if status != http.StatusOK || !strings.Contains(body, "EventSource") {
		t.Fatalf("/cluster/ page status=%d, want the self-contained HTML view", status)
	}
	status, body = get(t, base+"/")
	if status != http.StatusOK || !strings.Contains(body, "/cluster/") {
		t.Fatalf("index does not advertise /cluster/: %s", body)
	}
}
