// Package shell implements the administration shell's command interpreter
// (§3 of the paper lists a shell complet among the system components). The
// fargo-shell binary wires it to stdin/stdout; tests drive it directly.
package shell

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"fargo/internal/alert"
	"fargo/internal/core"
	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/observatory"
	"fargo/internal/plan"
	"fargo/internal/ref"
	"fargo/internal/trace"
	"fargo/internal/wire"
)

// Shell interprets administration commands against a live core.
type Shell struct {
	c   *core.Core
	out io.Writer
}

// New returns a shell bound to the given core, writing output to out.
func New(c *core.Core, out io.Writer) (*Shell, error) {
	if c == nil || out == nil {
		return nil, fmt.Errorf("shell: core and output required")
	}
	return &Shell{c: c, out: out}, nil
}

// Help is the command summary printed by the help command.
const Help = `commands:
  cores                          list peer cores seen so far
  info <core>                    complets and names hosted by a core
  new <core> <type> [args...]    instantiate a complet remotely
  invoke <id|name> <m> [args...] invoke a method through a tracked reference
  move <id|name> <core>          relocate a complet
  where <id|name>                locate a complet
  setref <hub> <target> <kind>   attach a reference (link|pull|duplicate|stamp)
  name <core> <name> <id>        bind a logical name
  lookup <core> <name>           resolve a logical name
  profile <core> <svc> [args...] instant profiling measurement
  stats <core>                   metrics snapshot (counters, gauges, latency histograms)
  top <core> [n]                 hottest (complet, method) telemetry rows by call count
  alerts                         alert engine rule states on this shell's core
  health <core>                  liveness/readiness verdict and per-peer breaker state
  recovery <core>                move-journal and crash-recovery state (pending moves)
  plan status|run|dry-run        layout planner: status, one round, or a what-if proposal
  cluster status                 deployment observatory: membership, staleness, partial flag
  cluster metrics                federated Prometheus exposition across every member
  cluster timeline [n]           globally ordered layout timeline (newest n)
  cluster traces                 merged trace listing across the deployment
  cluster trace <id>             stitch one trace into its cross-core causal tree
  flight <core> [n]              flight recorder ring (newest n; default all retained)
  trace <core>                   list recent traces retained at a core
  trace <core> <id> [core...]    span tree of one trace, merged across the given cores
  checkpoint <core> <path>       persist a core's complets to a file (on its host)
  watch <core...>                stream layout events
  help | quit`

// Exec runs one command line. It returns io.EOF for quit/exit.
func (s *Shell) Exec(line string) error {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "quit", "exit":
		return io.EOF
	case "help":
		fmt.Fprintln(s.out, Help)
		return nil
	case "cores":
		peers := s.c.Peers()
		if len(peers) == 0 {
			fmt.Fprintln(s.out, "(no peers seen yet)")
			return nil
		}
		for _, p := range peers {
			fmt.Fprintln(s.out, p)
		}
		return nil
	case "info":
		if len(args) != 1 {
			return fmt.Errorf("usage: info <core>")
		}
		reply, err := s.obs(args[0], wire.ObsQuery{Info: true})
		if err != nil {
			return err
		}
		info := reply.Info
		fmt.Fprintf(s.out, "core %s: %d complet(s)\n", info.Core, len(info.Complets))
		for _, ci := range info.Complets {
			names := ""
			if len(ci.Names) > 0 {
				names = " [" + strings.Join(ci.Names, ",") + "]"
			}
			fmt.Fprintf(s.out, "  %-24s %s%s\n", ci.ID, ci.TypeName, names)
		}
		return nil
	case "new":
		if len(args) < 2 {
			return fmt.Errorf("usage: new <core> <type> [args...]")
		}
		r, err := s.c.NewCompletAt(ids.CoreID(args[0]), args[1], ParseArgs(args[2:])...)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "created %s (%s) at %s\n", r.Target(), args[1], args[0])
		return nil
	case "invoke":
		if len(args) < 2 {
			return fmt.Errorf("usage: invoke <id|name> <method> [args...]")
		}
		r, err := s.RefFor(args[0])
		if err != nil {
			return err
		}
		res, err := r.Invoke(args[1], ParseArgs(args[2:])...)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "-> %v\n", res)
		return nil
	case "move":
		if len(args) != 2 {
			return fmt.Errorf("usage: move <id|name> <core>")
		}
		r, err := s.RefFor(args[0])
		if err != nil {
			return err
		}
		if err := s.c.Move(r, ids.CoreID(args[1])); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "moved %s to %s\n", r.Target(), args[1])
		return nil
	case "where":
		if len(args) != 1 {
			return fmt.Errorf("usage: where <id|name>")
		}
		r, err := s.RefFor(args[0])
		if err != nil {
			return err
		}
		loc, err := r.Meta().Location()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s is at %s\n", r.Target(), loc)
		return nil
	case "setref":
		if len(args) != 3 {
			return fmt.Errorf("usage: setref <hub> <target> <link|pull|duplicate|stamp>")
		}
		hub, err := s.RefFor(args[0])
		if err != nil {
			return err
		}
		target, err := s.RefFor(args[1])
		if err != nil {
			return err
		}
		if _, err := hub.Invoke("Attach", target, args[2]); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "attached %s to %s as %s\n", target.Target(), hub.Target(), args[2])
		return nil
	case "name":
		if len(args) != 3 {
			return fmt.Errorf("usage: name <core> <name> <id>")
		}
		r, err := s.RefFor(args[2])
		if err != nil {
			return err
		}
		if err := s.c.NameAt(ids.CoreID(args[0]), args[1], r); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "named %s %q at %s\n", r.Target(), args[1], args[0])
		return nil
	case "lookup":
		if len(args) != 2 {
			return fmt.Errorf("usage: lookup <core> <name>")
		}
		r, ok, err := s.c.LookupAt(ids.CoreID(args[0]), args[1])
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintf(s.out, "no binding for %q at %s\n", args[1], args[0])
			return nil
		}
		fmt.Fprintf(s.out, "%s -> %s (%s)\n", args[1], r.Target(), r.AnchorType())
		return nil
	case "profile":
		if len(args) < 2 {
			return fmt.Errorf("usage: profile <core> <service> [args...]")
		}
		v, err := s.c.Monitor().InstantAt(ids.CoreID(args[0]), args[1], args[2:]...)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s(%s) = %g\n", args[1], strings.Join(args[2:], ","), v)
		return nil
	case "stats":
		if len(args) != 1 {
			return fmt.Errorf("usage: stats <core>")
		}
		reply, err := s.obs(args[0], wire.ObsQuery{Stats: true})
		if err != nil {
			return err
		}
		core.FormatStats(s.out, *reply.Stats)
		return nil
	case "top":
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("usage: top <core> [n]")
		}
		max := 0
		if len(args) == 2 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 0 {
				return fmt.Errorf("usage: top <core> [n]")
			}
			max = n
		}
		reply, err := s.obs(args[0], wire.ObsQuery{Methods: true})
		if err != nil {
			return err
		}
		rows := reply.Methods
		if len(rows) == 0 {
			fmt.Fprintf(s.out, "core %s: no per-method telemetry (no invocations yet, or DisablePerMethodStats)\n", args[0])
			return nil
		}
		core.FormatMethodStats(s.out, rows, max)
		return nil
	case "alerts":
		if len(args) != 0 {
			return fmt.Errorf("usage: alerts")
		}
		e, ok := alert.For(s.c)
		if !ok {
			fmt.Fprintln(s.out, "no alert engine on this core (start one with fargo.StartAlerts or -alerts)")
			return nil
		}
		statuses := e.Status()
		if len(statuses) == 0 {
			fmt.Fprintln(s.out, "alert engine running with no rules")
			return nil
		}
		for _, st := range statuses {
			marker := " "
			if st.State == alert.StateFiring || st.State == alert.StateResolving {
				marker = "!"
			}
			presence := ""
			if !st.Present {
				presence = " (series absent)"
			}
			fmt.Fprintf(s.out, "%s %-20s %-10s value=%.4g firings=%d%s\n",
				marker, st.Rule.Name, st.State, st.Value, st.Firings, presence)
		}
		return nil
	case "health":
		if len(args) != 1 {
			return fmt.Errorf("usage: health <core>")
		}
		obs, err := s.obs(args[0], wire.ObsQuery{Health: true})
		if err != nil {
			return err
		}
		reply := obs.Health
		verdict := func(ok bool) string {
			if ok {
				return "ok"
			}
			return "NOT ok"
		}
		fmt.Fprintf(s.out, "core %s: live=%s ready=%s closed=%v moves-in-flight=%d complets=%d\n",
			reply.Core, verdict(reply.Live), verdict(reply.Ready),
			reply.Closed, reply.MovesInFlight, reply.Complets)
		for _, p := range reply.Peers {
			suspect := ""
			if p.Suspect {
				suspect = " SUSPECT"
			}
			fmt.Fprintf(s.out, "  peer %-12s breaker=%s%s\n", p.Core, p.Breaker, suspect)
		}
		return nil
	case "recovery":
		if len(args) != 1 {
			return fmt.Errorf("usage: recovery <core>")
		}
		obs, err := s.obs(args[0], wire.ObsQuery{Health: true})
		if err != nil {
			return err
		}
		reply := obs.Health
		journal := "off"
		if reply.JournalEnabled {
			journal = fmt.Sprintf("on (%d records)", reply.JournalRecords)
		}
		fmt.Fprintf(s.out, "core %s: journal=%s pending-moves=%d recovered=%d rolled-back=%d\n",
			reply.Core, journal, reply.PendingMoves, reply.MovesRecovered, reply.MovesRolledBack)
		if reply.PendingMoves > 0 {
			fmt.Fprintf(s.out, "  %d journaled move(s) await resolution; the core is not ready until they resolve\n", reply.PendingMoves)
		}
		return nil
	case "plan":
		if len(args) != 1 {
			return fmt.Errorf("usage: plan status|run|dry-run")
		}
		p, ok := plan.For(s.c)
		if !ok {
			// The shell core hosts no planner of its own: start an ad-hoc
			// one spanning the seeded peers (manual rounds only). The shell
			// core is excluded so nothing is ever attracted onto it.
			peers := s.c.Peers()
			if len(peers) == 0 {
				fmt.Fprintln(s.out, "no planner and no peer cores to plan over")
				return nil
			}
			var err error
			p, err = plan.Start(s.c, plan.Options{Cores: peers})
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "started ad-hoc planner over %d peer core(s)\n", len(peers))
		}
		switch args[0] {
		case "status":
			st := p.Status()
			fmt.Fprintf(s.out, "planner on %s: running=%v dry-run=%v interval=%s min-gain=%g/s cooldown=%s max-moves=%d\n",
				st.Core, st.Running, st.DryRun, st.Interval, st.MinGain, st.Cooldown, st.MaxMovesPerRound)
			fmt.Fprintf(s.out, "  members: %s\n", strings.Join(st.Cores, ", "))
			fmt.Fprintf(s.out, "  rounds=%d applied=%d skipped=%d", st.Rounds, st.Applied, st.Skipped)
			if st.LastErr != "" {
				fmt.Fprintf(s.out, " last-err=%q", st.LastErr)
			}
			fmt.Fprintln(s.out)
			if st.Graph != nil {
				fmt.Fprintf(s.out, "  graph: %d complet(s), %d edge(s), cross-rate %.3g/s\n",
					st.Graph.Complets, len(st.Graph.Edges), st.Graph.CrossRate)
				for _, e := range st.Graph.Edges {
					marker := ""
					if e.Cross {
						marker = " CROSS"
					}
					fmt.Fprintf(s.out, "    %s@%s -> %s@%s  %.3g/s (%d in window, %d bytes)%s\n",
						e.Src, e.SrcCore, e.Dst, e.DstCore, e.Rate, e.Count, e.Bytes, marker)
				}
			}
			for _, d := range st.Decisions {
				suffix := ""
				if d.Err != "" {
					suffix = " ERR=" + d.Err
				}
				fmt.Fprintf(s.out, "  %s %-8s %s: %s -> %s (gain %.3g/s)%s\n",
					d.At.Format("15:04:05.000"), d.Action, d.Complet, d.From, d.To, d.Gain, suffix)
			}
			return nil
		case "run":
			round, err := p.RunOnce(context.Background())
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "round: %d move(s) proposed, %d applied, %d failed (cross-rate %.3g/s, est. savings %.3g/s)\n",
				len(round.Proposal.Moves), round.Applied, round.Failed, round.Proposal.CrossRate, round.Proposal.Savings)
			for _, m := range round.Proposal.Moves {
				fmt.Fprintf(s.out, "  %s: %s -> %s (gain %.3g/s)\n", m.Complet, m.From, m.To, m.Gain)
			}
			return nil
		case "dry-run":
			prop, err := p.Propose(context.Background())
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "dry run: %d move(s) (cross-rate %.3g/s, est. savings %.3g/s)\n",
				len(prop.Moves), prop.CrossRate, prop.Savings)
			for _, m := range prop.Moves {
				fmt.Fprintf(s.out, "  %s: %s -> %s (gain %.3g/s)\n", m.Complet, m.From, m.To, m.Gain)
			}
			return nil
		default:
			return fmt.Errorf("usage: plan status|run|dry-run")
		}
	case "cluster":
		if len(args) == 0 {
			return fmt.Errorf("usage: cluster status|metrics|timeline [n]|traces|trace <id>")
		}
		o, ok := observatory.For(s.c)
		if !ok {
			// The shell core hosts no observatory of its own: start an ad-hoc
			// one with dynamic membership (this core plus every peer it
			// knows), refresh-on-demand only.
			var err error
			o, err = observatory.Start(s.c, observatory.Options{})
			if err != nil {
				return err
			}
			fmt.Fprintln(s.out, "started ad-hoc observatory (this core + known peers)")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		switch args[0] {
		case "status":
			if err := o.Refresh(ctx); err != nil {
				return err
			}
			st := o.Status()
			fmt.Fprintf(s.out, "observatory on %s: %d member(s), refreshes=%d merge-clock=%d cross-rate=%.3g/s\n",
				st.Core, len(st.Members), st.Refreshes, st.MergeClock, st.CrossRate)
			if st.Partial {
				fmt.Fprintf(s.out, "  PARTIAL VIEW: unreachable: %s\n", strings.Join(st.Unreachable, ", "))
			}
			for _, m := range st.Members {
				mark := "up"
				if !m.Reachable {
					mark = "DOWN"
				}
				fmt.Fprintf(s.out, "  %-12s %-4s live=%v ready=%v complets=%d moves=%d suspects=%d",
					m.Core, mark, m.Live, m.Ready, m.Complets, m.Moves, m.Suspects)
				if m.Err != "" {
					fmt.Fprintf(s.out, " err=%q", m.Err)
				}
				fmt.Fprintln(s.out)
			}
			return nil
		case "metrics":
			if err := o.Refresh(ctx); err != nil {
				return err
			}
			metrics.WritePrometheus(s.out, o.ClusterSnapshot())
			return nil
		case "timeline":
			max := 0
			if len(args) == 2 {
				n, err := strconv.Atoi(args[1])
				if err != nil || n < 0 {
					return fmt.Errorf("usage: cluster timeline [n] (n must be a non-negative integer)")
				}
				max = n
			}
			if err := o.Refresh(ctx); err != nil {
				return err
			}
			events := o.Timeline(max)
			if len(events) == 0 {
				fmt.Fprintln(s.out, "(timeline empty)")
				return nil
			}
			for _, ev := range events {
				fmt.Fprintf(s.out, "#%-5d %s %-12s %-14s", ev.Merge, ev.At.Format("15:04:05.000"), ev.Core, ev.Kind)
				if ev.Complet != "" {
					fmt.Fprintf(s.out, " %s", ev.Complet)
				}
				if ev.Peer != "" {
					fmt.Fprintf(s.out, " -> %s", ev.Peer)
				}
				if ev.Detail != "" {
					fmt.Fprintf(s.out, " %s", ev.Detail)
				}
				if ev.Err != "" {
					fmt.Fprintf(s.out, " ERR=%s", ev.Err)
				}
				fmt.Fprintln(s.out)
			}
			return nil
		case "traces":
			entries, unreachable, err := o.Traces(ctx, 0)
			if err != nil {
				return err
			}
			if len(unreachable) > 0 {
				fmt.Fprintf(s.out, "PARTIAL: %d member(s) unreachable\n", len(unreachable))
			}
			if len(entries) == 0 {
				fmt.Fprintln(s.out, "(no traces retained anywhere)")
				return nil
			}
			for _, e := range entries {
				fmt.Fprintf(s.out, "%s  %4d span(s)  cores=%s  %s  %s\n",
					e.ID, e.Spans, strings.Join(e.Cores, ","), e.Start.Format("15:04:05.000"), e.Root)
			}
			return nil
		case "trace":
			if len(args) != 2 {
				return fmt.Errorf("usage: cluster trace <id>")
			}
			id, err := trace.ParseTraceID(args[1])
			if err != nil {
				return err
			}
			st, err := o.Stitch(ctx, id)
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "trace %s: %d span(s) across %s\n", id, len(st.Spans), strings.Join(st.Cores, ", "))
			if len(st.Unreachable) > 0 {
				fmt.Fprintf(s.out, "PARTIAL: %d member(s) unreachable\n", len(st.Unreachable))
			}
			if len(st.Orphans) > 0 {
				fmt.Fprintf(s.out, "%d orphaned span(s) (parent missing; promoted to roots)\n", len(st.Orphans))
			}
			trace.FormatTree(s.out, st.Spans)
			return nil
		default:
			return fmt.Errorf("usage: cluster status|metrics|timeline [n]|traces|trace <id>")
		}
	case "flight":
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("usage: flight <core> [n]")
		}
		max := 0
		if len(args) == 2 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 0 {
				return fmt.Errorf("usage: flight <core> [n] (n must be a non-negative integer)")
			}
			max = n
		}
		obs, err := s.obs(args[0], wire.ObsQuery{Flight: true, FlightMax: max})
		if err != nil {
			return err
		}
		reply := obs.Flight
		fmt.Fprintf(s.out, "core %s: %d event(s) recorded, showing %d\n",
			reply.Core, reply.Total, len(reply.Events))
		for _, ev := range reply.Events {
			fmt.Fprintf(s.out, "  #%-5d %s %-13s", ev.Seq,
				time.Unix(0, ev.UnixNanos).Format("15:04:05.000"), ev.Kind)
			if ev.Complet != "" {
				fmt.Fprintf(s.out, " %s", ev.Complet)
			}
			if ev.Peer != "" {
				fmt.Fprintf(s.out, " peer=%s", ev.Peer)
			}
			if ev.Detail != "" {
				fmt.Fprintf(s.out, " %s", ev.Detail)
			}
			if ev.DurationNanos > 0 {
				fmt.Fprintf(s.out, " took=%v", time.Duration(ev.DurationNanos).Round(time.Microsecond))
			}
			if ev.Bytes > 0 {
				fmt.Fprintf(s.out, " bytes=%d", ev.Bytes)
			}
			if ev.Err != "" {
				fmt.Fprintf(s.out, " ERR=%s", ev.Err)
			}
			fmt.Fprintln(s.out)
		}
		return nil
	case "trace":
		if len(args) == 0 {
			return fmt.Errorf("usage: trace <core> [id [core...]]")
		}
		if len(args) == 1 {
			reply, err := s.obs(args[0], wire.ObsQuery{Traces: true})
			if err != nil {
				return err
			}
			sums := reply.Traces.Summaries
			if len(sums) == 0 {
				fmt.Fprintln(s.out, "(no traces retained; is sampling enabled?)")
				return nil
			}
			core.FormatTraceSummaries(s.out, sums)
			return nil
		}
		id, err := trace.ParseTraceID(args[1])
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		// Merge the trace's spans from the named core plus any extra cores:
		// each collector only retains the spans recorded locally, so the
		// cross-core tree needs every involved core queried.
		var spans []trace.Span
		for _, coreName := range append([]string{args[0]}, args[2:]...) {
			reply, err := s.obs(coreName, wire.ObsQuery{Trace: uint64(id)})
			if err != nil {
				return err
			}
			spans = append(spans, core.SpansFromWire(reply.Spans)...)
		}
		if len(spans) == 0 {
			fmt.Fprintf(s.out, "no spans for trace %s at the queried core(s)\n", id)
			return nil
		}
		trace.FormatTree(s.out, spans)
		return nil
	case "checkpoint":
		if len(args) != 2 {
			return fmt.Errorf("usage: checkpoint <core> <path>")
		}
		n, err := s.c.CheckpointRemote(ids.CoreID(args[0]), args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "checkpointed %d complet(s) of %s to %s\n", n, args[0], args[1])
		return nil
	case "watch":
		if len(args) == 0 {
			return fmt.Errorf("usage: watch <core...>")
		}
		for _, coreName := range args {
			at := ids.CoreID(coreName)
			for _, event := range []string{core.EventCompletArrived, core.EventCompletDeparted, core.EventCoreShutdown} {
				if _, err := s.c.Monitor().SubscribeAt(at, core.SubscribeOptions{Service: event}, func(e core.Event) {
					fmt.Fprintf(s.out, "[event] %s at %s complet=%s detail=%s\n", e.Name, e.Source, e.Complet, e.Detail)
				}); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(s.out, "watching %s\n", strings.Join(args, ", "))
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

// obs fetches the selected introspection sections of a core under the core's
// default request budget.
func (s *Shell) obs(at string, q wire.ObsQuery) (wire.ObsQueryReply, error) {
	return s.c.ObsAtCtx(context.Background(), ids.CoreID(at), q)
}

// RefFor resolves an ID string ("birth/#seq") or a local logical name to a
// tracked reference.
func (s *Shell) RefFor(designator string) (*ref.Ref, error) {
	if r, ok := s.c.Lookup(designator); ok {
		return r, nil
	}
	if id, ok := ParseCompletID(designator); ok {
		return s.c.NewRefTo(id, "", id.Birth), nil
	}
	return nil, fmt.Errorf("%q is neither a local name nor a complet ID (birth/#seq)", designator)
}

// ParseCompletID parses CompletID.String output ("birth/#seq").
func ParseCompletID(s string) (ids.CompletID, bool) {
	i := strings.LastIndex(s, "/#")
	if i <= 0 {
		return ids.CompletID{}, false
	}
	seq, err := strconv.ParseUint(s[i+2:], 10, 64)
	if err != nil || seq == 0 {
		return ids.CompletID{}, false
	}
	return ids.CompletID{Birth: ids.CoreID(s[:i]), Seq: seq}, true
}

// ParseArgs converts shell words to typed invocation arguments: integers and
// floats become numbers, true/false become bools, everything else remains a
// string (surrounding double quotes stripped).
func ParseArgs(words []string) []any {
	out := make([]any, len(words))
	for i, w := range words {
		switch {
		case isInt(w):
			n, _ := strconv.Atoi(w)
			out[i] = n
		case isFloat(w):
			f, _ := strconv.ParseFloat(w, 64)
			out[i] = f
		case w == "true", w == "false":
			out[i] = w == "true"
		default:
			out[i] = strings.Trim(w, `"`)
		}
	}
	return out
}

func isInt(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil
}

func isFloat(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
