package shell

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"fargo/internal/alert"
	"fargo/internal/core"
	"fargo/internal/demo"
	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/registry"
	"fargo/internal/transport"
)

func testDeployment(t *testing.T, names ...string) map[string]*core.Core {
	t.Helper()
	net := netsim.NewNetwork(5)
	cores := make(map[string]*core.Core, len(names))
	for _, name := range names {
		tr, err := transport.NewSim(net, ids.CoreID(name))
		if err != nil {
			t.Fatal(err)
		}
		reg := registry.New()
		if err := demo.Register(reg); err != nil {
			t.Fatal(err)
		}
		c, err := core.New(tr, reg, core.Options{RequestTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cores[name] = c
	}
	t.Cleanup(func() {
		for _, c := range cores {
			_ = c.Shutdown(0)
		}
		net.Close()
	})
	return cores
}

// execLines runs commands, returning accumulated output.
func execLines(t *testing.T, s *Shell, lines ...string) string {
	t.Helper()
	for _, line := range lines {
		if err := s.Exec(line); err != nil {
			t.Fatalf("exec %q: %v", line, err)
		}
	}
	return ""
}

// syncBuffer is a goroutine-safe output sink: watch listeners write from
// event-delivery goroutines while tests read.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func newShell(t *testing.T, c *core.Core) (*Shell, *syncBuffer) {
	t.Helper()
	var out syncBuffer
	s, err := New(c, &out)
	if err != nil {
		t.Fatal(err)
	}
	return s, &out
}

func TestShellLifecycleCommands(t *testing.T) {
	cores := testDeployment(t, "admin", "worker")
	s, out := newShell(t, cores["admin"])

	execLines(t, s,
		"help",
		"new worker Message hello",
		"info worker",
	)
	text := out.String()
	for _, want := range []string{"commands:", "created worker/#1 (Message) at worker", "core worker: 1 complet(s)"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestShellInvokeMoveWhere(t *testing.T) {
	cores := testDeployment(t, "admin", "worker", "other")
	s, out := newShell(t, cores["admin"])

	execLines(t, s,
		"new worker Message greetings",
		"invoke worker/#1 Print",
		"move worker/#1 other",
		"where worker/#1",
		"invoke worker/#1 Print",
	)
	text := out.String()
	if !strings.Contains(text, "-> [greetings]") {
		t.Errorf("invoke output missing:\n%s", text)
	}
	if !strings.Contains(text, "moved worker/#1 to other") {
		t.Errorf("move output missing:\n%s", text)
	}
	if !strings.Contains(text, "worker/#1 is at other") {
		t.Errorf("where output missing:\n%s", text)
	}
}

func TestShellNamingAndLookup(t *testing.T) {
	cores := testDeployment(t, "admin", "worker")
	s, out := newShell(t, cores["admin"])
	execLines(t, s,
		"new worker Message x",
		"name worker svc worker/#1",
		"lookup worker svc",
		"lookup worker missing",
	)
	text := out.String()
	if !strings.Contains(text, `svc -> worker/#1 (Message)`) {
		t.Errorf("lookup output missing:\n%s", text)
	}
	if !strings.Contains(text, `no binding for "missing"`) {
		t.Errorf("missing-lookup output missing:\n%s", text)
	}
}

func TestShellSetref(t *testing.T) {
	cores := testDeployment(t, "admin", "worker")
	s, out := newShell(t, cores["admin"])
	execLines(t, s,
		"new worker Hub",
		"new worker Counter",
		"setref worker/#1 worker/#2 pull",
		"invoke worker/#1 Targets",
	)
	text := out.String()
	if !strings.Contains(text, "attached worker/#2 to worker/#1 as pull") {
		t.Errorf("setref output missing:\n%s", text)
	}
	if !strings.Contains(text, "worker/#2") {
		t.Errorf("targets output missing:\n%s", text)
	}
}

func TestShellProfile(t *testing.T) {
	cores := testDeployment(t, "admin", "worker")
	s, out := newShell(t, cores["admin"])
	execLines(t, s,
		"new worker Message x",
		"profile worker completLoad",
	)
	if !strings.Contains(out.String(), "completLoad() = 1") {
		t.Errorf("profile output:\n%s", out.String())
	}
}

func TestShellStatsAndTrace(t *testing.T) {
	cores := testDeployment(t, "admin", "worker")
	for _, c := range cores {
		c.Tracer().SetSampleRate(1)
	}
	s, out := newShell(t, cores["admin"])
	execLines(t, s,
		"new worker Message traced",
		"invoke worker/#1 Print",
		"stats admin",
		"stats worker",
		"trace admin",
	)
	text := out.String()
	for _, want := range []string{
		"invoke_forwarded_total", // admin routed the invocation out
		"invoke_local_total",     // worker executed it
		"invoke_latency_ns",
		"invoke worker/#1.Print", // the trace listing names the root by ID
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// The listing's first column is the trace ID; the span-tree form must
	// merge admin's root with worker's serve/exec spans.
	var id string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "invoke worker/#1.Print") {
			id = strings.Fields(line)[0]
			break
		}
	}
	if id == "" {
		t.Fatalf("no trace listing line found:\n%s", text)
	}
	s2, out2 := newShell(t, cores["admin"])
	execLines(t, s2, "trace admin "+id+" worker")
	tree := out2.String()
	for _, want := range []string{"invoke worker/#1.Print", "serve invoke Print", "exec Message.Print"} {
		if !strings.Contains(tree, want) {
			t.Errorf("span tree missing %q:\n%s", want, tree)
		}
	}
}

func TestShellHealthAndFlight(t *testing.T) {
	cores := testDeployment(t, "admin", "worker", "other")
	s, out := newShell(t, cores["admin"])
	execLines(t, s,
		"new worker Message hi",
		"move worker/#1 other",
		"health worker",
		"recovery worker",
		"flight worker",
		"flight worker 1",
	)
	text := out.String()
	for _, want := range []string{
		"core worker: live=ok ready=ok",
		"core worker: journal=off pending-moves=0",
		"event(s) recorded",
		"move", // the forced move must appear in worker's flight ring
		"peer=other",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// Bad arguments are reported, not executed.
	for _, line := range []string{"health", "recovery", "flight", "flight worker -1", "flight worker x"} {
		if err := s.Exec(line); err == nil {
			t.Errorf("Exec(%q): expected error", line)
		}
	}
}

func TestShellArgParsing(t *testing.T) {
	args := ParseArgs([]string{"42", "3.5", "true", "false", `"quoted"`, "bare"})
	if args[0] != 42 || args[1] != 3.5 || args[2] != true || args[3] != false ||
		args[4] != "quoted" || args[5] != "bare" {
		t.Fatalf("ParseArgs = %#v", args)
	}
}

func TestShellErrors(t *testing.T) {
	cores := testDeployment(t, "admin")
	s, _ := newShell(t, cores["admin"])
	for _, line := range []string{
		"bogus",
		"info",
		"new",
		"invoke onearg",
		"move x",
		"where not-an-id",
		"name a b",
		"lookup a",
		"profile x",
		"watch",
	} {
		if err := s.Exec(line); err == nil {
			t.Errorf("Exec(%q): expected error", line)
		}
	}
	if err := s.Exec(""); err != nil {
		t.Errorf("empty line: %v", err)
	}
	if err := s.Exec("quit"); !errors.Is(err, io.EOF) {
		t.Errorf("quit: %v, want io.EOF", err)
	}
}

func TestShellWatch(t *testing.T) {
	cores := testDeployment(t, "admin", "a", "b")
	s, out := newShell(t, cores["admin"])
	execLines(t, s,
		"watch a b",
		"new a Message x",
		"move a/#1 b",
	)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(out.String(), "completArrived") {
		if time.Now().After(deadline) {
			t.Fatalf("no arrival event in output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShellTopAndAlerts(t *testing.T) {
	cores := testDeployment(t, "admin", "worker")
	s, out := newShell(t, cores["admin"])
	execLines(t, s,
		"new worker Message greetings",
		"invoke worker/#1 Print",
		"invoke worker/#1 Print",
		"top worker",
	)
	got := out.String()
	if !strings.Contains(got, "Print") || !strings.Contains(got, "Message") {
		t.Fatalf("top worker output missing Print row:\n%s", got)
	}

	// Without an engine, `alerts` points at how to start one.
	execLines(t, s, "alerts")
	if !strings.Contains(out.String(), "no alert engine") {
		t.Fatalf("alerts without engine:\n%s", out.String())
	}

	if _, err := alert.Start(cores["admin"], alert.Options{
		Interval: -1, // shell drives nothing; Status is read from rule state
		Rules: []alert.Rule{
			{Name: "hot-shard", Cond: alert.CondThreshold, Series: "shard_load", Op: ">", Value: 100},
		},
	}); err != nil {
		t.Fatal(err)
	}
	execLines(t, s, "alerts")
	got = out.String()
	if !strings.Contains(got, "hot-shard") || !strings.Contains(got, "inactive") {
		t.Fatalf("alerts with engine missing rule row:\n%s", got)
	}
}
