// fargo-monitor is the terminal counterpart of the paper's graphical monitor
// (Figure 4): it connects to multiple cores, shows in real time which
// complets reside in which cores, and keeps the view current by listening to
// layout events at the inspected cores.
//
// Usage:
//
//	fargo-monitor -name mon -peer accadia=host1:7101 -peer lehavim=host2:7102 \
//	    -watch accadia,lehavim [-once] [-interval 2s]
//
// With -once the monitor prints a single snapshot and exits; otherwise it
// re-renders on every event (and on a periodic refresh) until interrupted.
// With -stats each render appends a metrics pane: one line per inspected core
// summarizing its invocation/movement counters and latency percentiles.
//
// With -web the monitor also hosts the deployment observatory and serves its
// cluster view over HTTP —
//
//	fargo-monitor -name mon -peer a=host1:7101 -peer b=host2:7102 -watch a,b -web :9300
//
// opens http://127.0.0.1:9300/cluster/: a self-contained page with the layout
// graph and a live timeline (SSE), plus /cluster/metrics (federated
// Prometheus), /cluster/traces and /cluster/trace/{id} (stitched cross-core
// traces).
//
// With -scrape the monitor does not join the deployment at all: it reads a
// core's ops plane over plain HTTP instead —
//
//	fargo-monitor -scrape http://127.0.0.1:9120 [-once] [-interval 2s]
//
// each round fetches /layout and /flight from the given base URL and renders
// them; -once prints a single round and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"fargo"
	"fargo/internal/cliutil"
	"fargo/internal/core"
	"fargo/internal/demo"
	"fargo/internal/ids"
	"fargo/internal/layoutview"
	"fargo/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fargo-monitor:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("name", "monitor", "monitor core name")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		watch    = flag.String("watch", "", "comma-separated cores to inspect (default: all peers)")
		once     = flag.Bool("once", false, "print one snapshot and exit")
		interval = flag.Duration("interval", 5*time.Second, "periodic full refresh")
		stats    = flag.Bool("stats", false, "append a per-core metrics pane to each render")
		web      = flag.String("web", "", "serve the cluster observatory web view at this HTTP address (layout graph + live SSE timeline under /cluster/); hostless addresses bind loopback")
		alerts   = flag.String("alerts", "", "alert rules file: run the cluster alert engine on the monitor core (needs -web; firing alerts show on /cluster/ and /cluster/alerts)")
		scrape   = flag.String("scrape", "", "read one core's ops plane over HTTP (base URL, e.g. http://127.0.0.1:9120) instead of joining the deployment")
		peers    = cliutil.PeerFlags{}
	)
	flag.Var(peers, "peer", "peer core as name=host:port (repeatable)")
	flag.Parse()

	if *scrape != "" {
		return runScrape(strings.TrimRight(*scrape, "/"), *once, *interval)
	}

	reg := fargo.NewRegistry()
	if err := demo.Register(reg); err != nil {
		return err
	}
	c, _, err := fargo.ListenTCP(*name, *listen, peers, reg, fargo.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = c.Shutdown(0) }()

	var cores []ids.CoreID
	if *watch != "" {
		for _, w := range strings.Split(*watch, ",") {
			cores = append(cores, ids.CoreID(strings.TrimSpace(w)))
		}
	} else {
		for p := range peers {
			cores = append(cores, ids.CoreID(p))
		}
	}
	if len(cores) == 0 {
		return fmt.Errorf("nothing to watch: give -watch or -peer flags")
	}

	if *web != "" {
		// The monitor's embedded core hosts a deployment observatory over the
		// inspected cores and serves its /cluster/ endpoints (self-contained
		// HTML page, federated metrics, stitched traces, SSE timeline) from
		// an ops plane bound at -web.
		if _, err := fargo.StartObservatory(c, fargo.ObservatoryOptions{Cores: cores}); err != nil {
			return err
		}
		srv, err := fargo.StartOps(c, fargo.OpsOptions{Addr: *web})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cluster view: http://%s/cluster/\n", srv.Addr())
	}
	if *alerts != "" {
		if *web == "" {
			return fmt.Errorf("-alerts needs -web (the engine evaluates cluster_ series via the observatory)")
		}
		src, err := os.ReadFile(*alerts)
		if err != nil {
			return fmt.Errorf("read alert rules: %w", err)
		}
		rules, err := fargo.ParseAlertRules(string(src))
		if err != nil {
			return fmt.Errorf("parse alert rules %s: %w", *alerts, err)
		}
		if _, err := fargo.StartAlerts(c, fargo.AlertOptions{Rules: rules}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "alert engine: %d rule(s) from %s\n", len(rules), *alerts)
	}

	view := layoutview.New(c, cores)
	statsPane := func() string {
		if !*stats {
			return ""
		}
		return renderStatsPane(c, cores)
	}
	if *once {
		if err := view.Refresh(); err != nil {
			return err
		}
		fmt.Print(view.Render() + statsPane())
		return nil
	}

	render := func() {
		// Clear screen + home, then the table (plain ANSI).
		fmt.Print("\033[2J\033[H" + view.Render() + statsPane())
	}
	view.OnChange = render
	if err := view.Start(); err != nil {
		return err
	}
	defer view.Close()
	render()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := view.Refresh(); err != nil {
				fmt.Fprintf(os.Stderr, "refresh: %v\n", err)
			}
		case <-stop:
			return nil
		}
	}
}

// renderStatsPane summarizes each inspected core's metrics on one line:
// invocation counters, movement/repair totals, retries, breaker trips, and
// the invoke latency p50/p95. Unreachable cores are reported, not fatal.
func renderStatsPane(c *core.Core, cores []ids.CoreID) string {
	var b strings.Builder
	b.WriteString("\nmetrics:\n")
	for _, at := range cores {
		obs, err := c.ObsAtCtx(context.Background(), at, wire.ObsQuery{Stats: true})
		if err != nil {
			fmt.Fprintf(&b, "  %-12s (unreachable: %v)\n", at, err)
			continue
		}
		reply := obs.Stats
		inv := reply.Counters["invoke_local_total"]
		fwd := reply.Counters["invoke_forwarded_total"]
		errs := reply.Counters["invoke_errors_total"]
		moves := reply.Counters["moves_total"]
		repairs := reply.Counters["chain_repairs_total"]
		retries := reply.Counters["request_retries_total"]
		opened := reply.Counters["breaker_opened_total"]
		fmt.Fprintf(&b, "  %-12s inv=%d fwd=%d errs=%d moves=%d repairs=%d retries=%d breaker-open=%d%s\n",
			at, inv, fwd, errs, moves, repairs, retries, opened, latencySummary(*reply))
	}
	return b.String()
}

// scrapeLayout / scrapeFlight mirror the ops plane's /layout and /flight JSON
// bodies (internal/obs); only the fields the renderer uses are declared.
type scrapeLayout struct {
	Core     string `json:"core"`
	Complets []struct {
		ID       string   `json:"id"`
		TypeName string   `json:"type"`
		Names    []string `json:"names"`
	} `json:"complets"`
	Trackers []struct {
		Complet string `json:"complet"`
		Local   bool   `json:"local"`
		Next    string `json:"next"`
	} `json:"trackers"`
	ChainLocal      int      `json:"chain_local"`
	ChainForwarding int      `json:"chain_forwarding"`
	Peers           []string `json:"peers"`
	View            []struct {
		Core    string `json:"core"`
		Complet string `json:"complet"`
	} `json:"view"`
}

type scrapeFlight struct {
	Core   string `json:"core"`
	Total  uint64 `json:"total"`
	Events []struct {
		Seq     uint64    `json:"seq"`
		At      time.Time `json:"at"`
		Kind    string    `json:"kind"`
		Complet string    `json:"complet"`
		Peer    string    `json:"peer"`
		Detail  string    `json:"detail"`
		Err     string    `json:"err"`
	} `json:"events"`
}

// runScrape is the HTTP mode: it renders /layout and /flight from one core's
// ops plane, periodically or once, without opening a FarGo transport.
func runScrape(base string, once bool, interval time.Duration) error {
	client := &http.Client{Timeout: 5 * time.Second}
	round := func() error {
		out, err := scrapeRound(client, base)
		if err != nil {
			return err
		}
		if !once {
			fmt.Print("\033[2J\033[H")
		}
		fmt.Print(out)
		return nil
	}
	if once {
		return round()
	}
	if err := round(); err != nil {
		fmt.Fprintf(os.Stderr, "scrape: %v\n", err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := round(); err != nil {
				fmt.Fprintf(os.Stderr, "scrape: %v\n", err)
			}
		case <-stop:
			return nil
		}
	}
}

// scrapeRound fetches and renders one /layout + /flight round.
func scrapeRound(client *http.Client, base string) (string, error) {
	var lay scrapeLayout
	if err := fetchJSON(client, base+"/layout", &lay); err != nil {
		return "", err
	}
	var fl scrapeFlight
	if err := fetchJSON(client, base+"/flight?n=12", &fl); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "core %s  (%d complet(s), trackers: %d local / %d forwarding)\n",
		lay.Core, len(lay.Complets), lay.ChainLocal, lay.ChainForwarding)
	sort.Slice(lay.Complets, func(i, j int) bool { return lay.Complets[i].ID < lay.Complets[j].ID })
	for _, cp := range lay.Complets {
		line := "  " + cp.ID + "  " + cp.TypeName
		if len(cp.Names) > 0 {
			line += "  (" + strings.Join(cp.Names, ", ") + ")"
		}
		fmt.Fprintln(&b, line)
	}
	if len(lay.View) > 0 {
		fmt.Fprintln(&b, "view:")
		for _, row := range lay.View {
			fmt.Fprintf(&b, "  %-12s %s\n", row.Core, row.Complet)
		}
	}
	fmt.Fprintf(&b, "flight (%d recorded, newest %d):\n", fl.Total, len(fl.Events))
	for _, ev := range fl.Events {
		ts := ev.At.Format("15:04:05.000")
		fmt.Fprintf(&b, "  #%-5d %s %-13s", ev.Seq, ts, ev.Kind)
		if ev.Complet != "" {
			fmt.Fprintf(&b, " %s", ev.Complet)
		}
		if ev.Peer != "" {
			fmt.Fprintf(&b, " peer=%s", ev.Peer)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, " %s", ev.Detail)
		}
		if ev.Err != "" {
			fmt.Fprintf(&b, " ERR=%s", ev.Err)
		}
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}

// fetchJSON GETs url and decodes the JSON body into out, surfacing non-200
// statuses as errors.
func fetchJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// latencySummary renders the invoke latency percentiles when any invocation
// has been observed at the core.
func latencySummary(reply wire.StatsQueryReply) string {
	h, ok := reply.Histograms["invoke_latency_ns"]
	if !ok || h.Count == 0 {
		return ""
	}
	return fmt.Sprintf(" lat(p50/p95)=%v/%v",
		time.Duration(h.P50).Round(time.Microsecond),
		time.Duration(h.P95).Round(time.Microsecond))
}
