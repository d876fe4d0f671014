package fargo_test

// End-to-end telemetry pipeline: a slow method drives the invoke latency
// histogram, whose Prometheus exposition carries an exemplar trace ID; that
// ID resolves to a stitched cross-core trace on /cluster/trace/{id}; a
// burn-rate alert rule fires over the same histogram, surfaces as an
// alertFiring event on the merged /cluster/timeline, and resolves once the
// workload recovers. This is the metric→trace→alert loop of the telemetry
// subsystem exercised through the public API and HTTP surfaces only.

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"fargo"
	"fargo/internal/demo"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestTelemetryPipelineEndToEnd(t *testing.T) {
	u, err := fargo.NewUniverse(7)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := demo.Register(u.RegistryHandle()); err != nil {
		t.Fatal(err)
	}
	a, err := u.NewCore("a", fargo.Options{TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.NewCore("b", fargo.Options{TraceSampleRate: 1}); err != nil {
		t.Fatal(err)
	}
	echo, err := a.NewCompletAt("b", "Echo")
	if err != nil {
		t.Fatal(err)
	}

	obs, err := fargo.StartObservatory(a, fargo.ObservatoryOptions{Cores: []fargo.CoreID{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fargo.StartOps(a, fargo.OpsOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	rules, err := fargo.ParseAlertRules(`
# p95-style SLO: more than half the invokes from this core over 10ms.
alert slow-echo burnrate invoke_latency_ns above 10ms > 0.5 window 5m
`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fargo.StartAlerts(a, fargo.AlertOptions{Rules: rules, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Fast warm-up traffic creates the series and gives the burn-rate window
	// its baseline observation.
	for i := 0; i < 4; i++ {
		if _, err := echo.Invoke("Nop"); err != nil {
			t.Fatal(err)
		}
	}
	eng.EvalOnce(ctx)
	if firing := eng.Firing(); len(firing) != 0 {
		t.Fatalf("firing before the fault: %v", firing)
	}

	// --- Fault phase: every invoke blows the 10ms SLO ------------------------
	for i := 0; i < 6; i++ {
		if _, err := echo.Invoke("Slow", 25); err != nil {
			t.Fatal(err)
		}
	}
	eng.EvalOnce(ctx)
	if firing := eng.Firing(); len(firing) != 1 || firing[0] != "slow-echo" {
		t.Fatalf("after the slow burst firing = %v, want [slow-echo]", firing)
	}

	// The exposition carries an exemplar linking the latency histogram to a
	// concrete trace of the slow traffic.
	code, metricsBody := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	m := regexp.MustCompile(`# EXEMPLAR invoke_latency_ns_bucket\S* \{trace_id="([^"]+)"\}`).FindStringSubmatch(metricsBody)
	if m == nil {
		t.Fatalf("no invoke_latency_ns exemplar on /metrics; exposition:\n%s", metricsBody)
	}
	traceID := m[1]

	// The exemplar's trace ID resolves to a stitched cross-core trace.
	code, traceBody := httpGet(t, base+"/cluster/trace/"+traceID)
	if code != http.StatusOK {
		t.Fatalf("/cluster/trace/%s: status %d: %s", traceID, code, traceBody)
	}
	if !strings.Contains(traceBody, "Echo.") {
		t.Fatalf("stitched trace does not mention the Echo invocation:\n%s", traceBody)
	}

	// The firing transition is an ordinary flight event, so it reaches the
	// observatory's merged timeline and the /cluster/alerts summary.
	if err := obs.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	code, timeline := httpGet(t, base+"/cluster/timeline")
	if code != http.StatusOK || !strings.Contains(timeline, `"alertFiring"`) {
		t.Fatalf("/cluster/timeline status %d, missing alertFiring:\n%s", code, timeline)
	}
	code, alerts := httpGet(t, base+"/cluster/alerts")
	if code != http.StatusOK || !strings.Contains(alerts, `"slow-echo"`) {
		t.Fatalf("/cluster/alerts status %d, missing slow-echo:\n%s", code, alerts)
	}

	// --- Recovery phase: fast traffic dilutes the burn rate ------------------
	for i := 0; i < 80; i++ {
		if _, err := echo.Invoke("Nop"); err != nil {
			t.Fatal(err)
		}
	}
	eng.EvalOnce(ctx)
	if firing := eng.Firing(); len(firing) != 0 {
		t.Fatalf("still firing after recovery: %v", firing)
	}
	if err := obs.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	code, timeline = httpGet(t, base+"/cluster/timeline")
	if code != http.StatusOK || !strings.Contains(timeline, `"alertResolved"`) {
		t.Fatalf("/cluster/timeline status %d, missing alertResolved:\n%s", code, timeline)
	}

	// Per-method attribution names the culprit: the Slow rows on b dominate
	// the method latency table.
	reply, err := a.ObsAtCtx(ctx, "b", fargo.ObsQuery{Methods: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := reply.Methods
	found := false
	for _, row := range stats {
		if row.Method == "Slow" && row.Calls >= 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Slow row in b's method stats: %+v", stats)
	}
}
