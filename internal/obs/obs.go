// Package obs implements the per-core ops plane: an optional embedded HTTP
// server exposing the observability surfaces the rest of the runtime already
// maintains — the metrics registry as a Prometheus scrape, liveness and
// readiness verdicts from the heartbeat/breaker state, Go's pprof profiles,
// a JSON layout snapshot, the Chrome trace download, and the layout flight
// recorder.
//
// The server is embedded, not built into the core: core.Options.HTTPAddr is
// only a request that the embedding layer (fargo.ListenTCP, cmd/fargo-core,
// tests) call Start. Simulated in-process cores therefore pay nothing, and
// the core package never imports net/http.
//
// Security note: the ops plane is unauthenticated and includes pprof, which
// can reveal memory contents. An address without a host ("":9120" style)
// binds to loopback, NOT to all interfaces — exposing the port beyond the
// host is an explicit opt-in ("0.0.0.0:9120") that should sit behind a
// firewall or proxy.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"fargo/internal/alert"
	"fargo/internal/core"
	"fargo/internal/flight"
	"fargo/internal/layoutview"
	"fargo/internal/metrics"
	"fargo/internal/observatory"
	"fargo/internal/plan"
	"fargo/internal/trace"
)

// Options configures an ops server.
type Options struct {
	// Addr is the listen address. An empty or missing host binds to
	// loopback (see the package security note). Empty Addr means
	// "127.0.0.1:0" — an ephemeral loopback port, Addr() reports it.
	Addr string
	// View, when non-nil, enriches /layout with the live multi-core layout
	// model (cmd/fargo-monitor attaches one).
	View *layoutview.View
	// Logf receives diagnostic output; nil discards it.
	Logf func(format string, args ...any)
}

// Server is a running ops plane for one core.
type Server struct {
	c    *core.Core
	opts Options
	ln   net.Listener
	srv  *http.Server
}

// Start begins serving the ops plane for c. The returned server is already
// listening; shut it down with Close (Start also registers Close as a core
// shutdown hook, so an ops server never outlives its core).
func Start(c *core.Core, opts Options) (*Server, error) {
	if c == nil {
		return nil, fmt.Errorf("obs: nil core")
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	addr, err := normalizeAddr(opts.Addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{c: c, opts: opts, ln: ln}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/layout", s.handleLayout)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/plan", s.handlePlan)
	mux.HandleFunc("/alerts", s.handleAlerts)
	mux.HandleFunc("/cluster/", s.handleCluster)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.handleIndex)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			opts.Logf("fargo obs %s: serve: %v", c.ID(), err)
		}
	}()
	c.OnShutdown(func() { _ = s.Close() })
	opts.Logf("fargo obs %s: ops plane on http://%s", c.ID(), s.Addr())
	return s, nil
}

// normalizeAddr defaults the host part to loopback: ":9120" and "" must not
// silently bind every interface.
func normalizeAddr(addr string) (string, error) {
	if addr == "" {
		return "127.0.0.1:0", nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("obs: bad address %q: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port), nil
}

// Addr reports the bound listen address (useful with ephemeral ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Idempotent.
func (s *Server) Close() error { return s.srv.Close() }

// handleMetrics serves the Prometheus text exposition of the core's registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType)
	metrics.WritePrometheus(w, s.c.Metrics().Snapshot())
}

// handleHealthz serves the liveness verdict: 200 while the core is live, 503
// once it shut down or every heartbeat-monitored peer is suspect.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.c.Health()
	writeJSONStatus(w, h, h.Live)
}

// handleReadyz serves the readiness verdict: 200 only while nothing is
// degraded (no suspect peer, no open breaker, no move in flight).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.c.Health()
	writeJSONStatus(w, h, h.Ready)
}

// layoutBody is the JSON served by /layout: this core's repository and
// tracker table, and — when a layoutview is attached — the multi-core view.
type layoutBody struct {
	Core     string        `json:"core"`
	Complets []completBody `json:"complets"`
	Trackers []trackerBody `json:"trackers"`
	// ChainLocal/ChainForwarding summarize the tracker table: how many
	// entries resolve here vs. route onward (local chain-length signal).
	ChainLocal      int           `json:"chain_local"`
	ChainForwarding int           `json:"chain_forwarding"`
	Peers           []string      `json:"peers,omitempty"`
	View            []viewRowBody `json:"view,omitempty"`
}

type completBody struct {
	ID       string   `json:"id"`
	TypeName string   `json:"type"`
	Names    []string `json:"names,omitempty"`
}

type trackerBody struct {
	Complet string `json:"complet"`
	Local   bool   `json:"local"`
	Next    string `json:"next,omitempty"`
}

type viewRowBody struct {
	Core     string   `json:"core"`
	Complet  string   `json:"complet"`
	TypeName string   `json:"type,omitempty"`
	Names    []string `json:"names,omitempty"`
}

// handleLayout serves the layout snapshot.
func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	body := layoutBody{
		Core:     s.c.ID().String(),
		Complets: []completBody{},
		Trackers: []trackerBody{},
	}
	for _, ci := range s.c.Complets() {
		body.Complets = append(body.Complets, completBody{
			ID:       ci.ID.String(),
			TypeName: ci.TypeName,
			Names:    ci.Names,
		})
	}
	for _, t := range s.c.Trackers() {
		tb := trackerBody{Complet: t.Complet.String(), Local: t.Local}
		if t.Local {
			body.ChainLocal++
		} else {
			tb.Next = t.Next.String()
			body.ChainForwarding++
		}
		body.Trackers = append(body.Trackers, tb)
	}
	for _, p := range s.c.Peers() {
		body.Peers = append(body.Peers, p.String())
	}
	if s.opts.View != nil {
		snap := s.opts.View.Snapshot()
		cores := make([]string, 0, len(snap))
		byCore := make(map[string][]layoutview.Entry, len(snap))
		for c, entries := range snap {
			cores = append(cores, c.String())
			byCore[c.String()] = entries
		}
		sort.Strings(cores)
		for _, c := range cores {
			for _, e := range byCore[c] {
				body.View = append(body.View, viewRowBody{
					Core:     c,
					Complet:  e.ID.String(),
					TypeName: e.TypeName,
					Names:    e.Names,
				})
			}
		}
	}
	writeJSONStatus(w, body, true)
}

// handleTrace serves the retained spans as a Chrome trace_event download.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", "fargo-trace-"+s.c.ID().String()+".json"))
	spans := s.c.Tracer().Collector().Snapshot()
	if err := trace.WriteChromeJSON(w, spans); err != nil {
		s.opts.Logf("fargo obs %s: trace export: %v", s.c.ID(), err)
	}
}

// flightBody is the JSON served by /flight.
type flightBody struct {
	Core   string         `json:"core"`
	Total  uint64         `json:"total"`
	Events []flight.Event `json:"events"`
}

// handleFlight serves the flight-recorder ring (?n= limits to the newest n).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	max := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		max = n
	}
	rec := s.c.Flight()
	body := flightBody{
		Core:   s.c.ID().String(),
		Total:  rec.Total(),
		Events: rec.Snapshot(max),
	}
	if body.Events == nil {
		body.Events = []flight.Event{}
	}
	writeJSONStatus(w, body, true)
}

// planBody is the JSON served by /plan.
type planBody struct {
	Core    string       `json:"core"`
	Enabled bool         `json:"enabled"`
	Status  *plan.Status `json:"status,omitempty"`
}

// handlePlan serves the autonomic layout planner's introspection snapshot:
// configuration, the last collected communication graph, the last proposal,
// and the recent decisions. Read-only; rounds are driven by the planner's
// loop, the shell, or scripts.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	body := planBody{Core: s.c.ID().String()}
	if p, ok := plan.For(s.c); ok {
		st := p.Status()
		body.Enabled = true
		body.Status = &st
	}
	writeJSONStatus(w, body, true)
}

// alertsBody is the JSON served by /alerts.
type alertsBody struct {
	Core    string             `json:"core"`
	Enabled bool               `json:"enabled"`
	Firing  []string           `json:"firing,omitempty"`
	Rules   []alert.RuleStatus `json:"rules,omitempty"`
}

// handleAlerts serves the local alert engine's rule states: configuration,
// current state machine position, last value, and firing counts. Cluster-wide
// alert history lives under /cluster/alerts (the observatory's merged view).
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	body := alertsBody{Core: s.c.ID().String()}
	if e, ok := alert.For(s.c); ok {
		body.Enabled = true
		body.Firing = e.Firing()
		body.Rules = e.Status()
	}
	writeJSONStatus(w, body, true)
}

// handleCluster routes /cluster/* to the deployment observatory attached to
// this core, when one is (observatory.Start, fargo.StartObservatory, the
// shell's `cluster` command, fargo-monitor -web). Resolution happens per
// request, so the observatory may start before or after the ops plane.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	o, ok := observatory.For(s.c)
	if !ok {
		http.Error(w, "no observatory on this core (start one with fargo.StartObservatory, core option Observatory, or the shell's `cluster` command)", http.StatusNotFound)
		return
	}
	o.ServeHTTP(w, r)
}

// handleIndex lists the endpoints (human convenience).
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, "fargo core %s ops plane\n\n", s.c.ID())
	for _, ep := range []string{
		"/metrics       Prometheus text exposition",
		"/healthz       liveness (JSON; 503 when not live)",
		"/readyz        readiness (JSON; 503 when degraded)",
		"/layout        layout snapshot (JSON)",
		"/trace         Chrome trace_event download",
		"/flight        flight recorder ring (JSON; ?n= newest n)",
		"/plan          layout planner status (JSON)",
		"/alerts        alert engine rule states (JSON)",
		"/cluster/      deployment observatory (HTML; /cluster/metrics, /cluster/timeline, /cluster/alerts, /cluster/trace/{id})",
		"/debug/pprof/  Go profiles",
	} {
		fmt.Fprintln(w, ep)
	}
}

// writeJSONStatus writes body as indented JSON, with 200 when ok and 503
// otherwise.
func writeJSONStatus(w http.ResponseWriter, body any, ok bool) {
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
