// Package layoutview maintains a live model of which complets reside on
// which cores — the data behind the paper's graphical monitor (Figure 4).
// The view seeds itself with core-info snapshots and then stays current by
// subscribing to completArrived/completDeparted events on every watched
// core, exactly like the original viewer ("a movement of a complet is
// tracked by the viewer, who listens for such events at the inspected
// cores"). cmd/fargo-monitor renders it in a terminal; experiment E10
// measures its event-to-view latency.
package layoutview

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fargo/internal/core"
	"fargo/internal/ids"
	"fargo/internal/wire"
)

// Entry is one complet in the view.
type Entry struct {
	ID       ids.CompletID
	TypeName string
	Names    []string
	Core     ids.CoreID
	// Seen is when the entry last changed.
	Seen time.Time
}

// View is a live layout model. Safe for concurrent use.
type View struct {
	c     *core.Core
	cores []ids.CoreID

	mu      sync.Mutex
	entries map[ids.CompletID]Entry
	events  uint64
	updated time.Time
	cancels []func()
	closed  bool

	// OnChange, if set before Start, runs after every view mutation
	// (rendering hooks, experiment probes).
	OnChange func()
}

// New builds a view that watches the given cores through the observer core
// obs (which may itself be one of them).
func New(obs *core.Core, cores []ids.CoreID) *View {
	return &View{
		c:       obs,
		cores:   append([]ids.CoreID(nil), cores...),
		entries: make(map[ids.CompletID]Entry),
	}
}

// Start subscribes to layout events on every watched core and seeds the view
// with snapshots.
func (v *View) Start() error {
	for _, watched := range v.cores {
		w := watched
		arr, err := v.c.Monitor().SubscribeAt(w, core.SubscribeOptions{Service: core.EventCompletArrived}, func(ev core.Event) {
			v.onArrived(w, ev)
		})
		if err != nil {
			v.Close()
			return fmt.Errorf("layoutview: subscribe arrivals at %s: %w", w, err)
		}
		v.addCancel(func() { _ = v.c.Monitor().UnsubscribeAt(w, arr) })

		dep, err := v.c.Monitor().SubscribeAt(w, core.SubscribeOptions{Service: core.EventCompletDeparted}, func(ev core.Event) {
			v.onDeparted(w, ev)
		})
		if err != nil {
			v.Close()
			return fmt.Errorf("layoutview: subscribe departures at %s: %w", w, err)
		}
		v.addCancel(func() { _ = v.c.Monitor().UnsubscribeAt(w, dep) })
	}
	return v.Refresh()
}

// Refresh re-seeds the view with core-info snapshots (also used by --once
// rendering without subscriptions).
func (v *View) Refresh() error {
	var firstErr error
	for _, watched := range v.cores {
		reply, err := v.c.ObsAtCtx(context.Background(), watched, wire.ObsQuery{Info: true})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("layoutview: snapshot of %s: %w", watched, err)
			}
			continue
		}
		v.applySnapshot(reply.Info.Core, reply.Info.Complets)
	}
	return firstErr
}

func (v *View) applySnapshot(coreID ids.CoreID, complets []wire.CompletInfo) {
	now := time.Now()
	v.mu.Lock()
	// Remove stale entries previously attributed to this core.
	for id, e := range v.entries {
		if e.Core == coreID {
			found := false
			for _, ci := range complets {
				if ci.ID == id {
					found = true
					break
				}
			}
			if !found {
				delete(v.entries, id)
			}
		}
	}
	for _, ci := range complets {
		v.entries[ci.ID] = Entry{
			ID:       ci.ID,
			TypeName: ci.TypeName,
			Names:    ci.Names,
			Core:     coreID,
			Seen:     now,
		}
	}
	v.updated = now
	cb := v.OnChange
	v.mu.Unlock()
	if cb != nil {
		cb()
	}
}

func (v *View) onArrived(at ids.CoreID, ev core.Event) {
	v.mu.Lock()
	e := v.entries[ev.Complet]
	e.ID = ev.Complet
	e.Core = at
	e.Seen = time.Now()
	if e.TypeName == "" {
		e.TypeName = "?"
	}
	v.entries[ev.Complet] = e
	v.events++
	v.updated = e.Seen
	cb := v.OnChange
	v.mu.Unlock()
	if cb != nil {
		cb()
	}
	// Arrival events carry no type name; enrich lazily from a snapshot.
	if e.TypeName == "?" {
		if reply, err := v.c.ObsAtCtx(context.Background(), at, wire.ObsQuery{Info: true}); err == nil {
			v.applySnapshot(reply.Info.Core, reply.Info.Complets)
		}
	}
}

func (v *View) onDeparted(at ids.CoreID, ev core.Event) {
	v.mu.Lock()
	// Only remove if we still attribute the complet to the departing
	// core; an arrival event for the new core may have come first.
	if e, ok := v.entries[ev.Complet]; ok && e.Core == at {
		if dest := ids.CoreID(ev.Detail); !dest.Nil() {
			e.Core = dest
			e.Seen = time.Now()
			v.entries[ev.Complet] = e
		} else {
			delete(v.entries, ev.Complet)
		}
	}
	v.events++
	v.updated = time.Now()
	cb := v.OnChange
	v.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// Where reports the core currently shown for a complet.
func (v *View) Where(id ids.CompletID) (ids.CoreID, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.entries[id]
	return e.Core, ok
}

// Events returns how many layout events the view has consumed.
func (v *View) Events() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.events
}

// Snapshot returns the entries grouped by core, sorted for stable rendering.
func (v *View) Snapshot() map[ids.CoreID][]Entry {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[ids.CoreID][]Entry)
	for _, e := range v.entries {
		out[e.Core] = append(out[e.Core], e)
	}
	for _, list := range out {
		sort.Slice(list, func(i, j int) bool { return list[i].ID.String() < list[j].ID.String() })
	}
	return out
}

// Row is one core's slice of a JSON layout rendering — the shared shape of
// the ops plane's /layout view block and the observatory's /cluster/layout,
// so scrapers and the cluster web page read one format.
type Row struct {
	Core      string    `json:"core"`
	Reachable bool      `json:"reachable"`
	Complets  []Complet `json:"complets"`
}

// Complet is one complet inside a Row.
type Complet struct {
	ID       string   `json:"id"`
	TypeName string   `json:"type"`
	Names    []string `json:"names,omitempty"`
}

// Rows renders the view as per-core rows, sorted by core, watched-but-empty
// cores included. The view only models cores it could reach, so Reachable is
// always true here; aggregators that track reachability themselves (the
// observatory) build Rows directly.
func (v *View) Rows() []Row {
	snap := v.Snapshot()
	cores := append([]ids.CoreID(nil), v.cores...)
	seen := map[ids.CoreID]bool{}
	for _, c := range cores {
		seen[c] = true
	}
	for c := range snap {
		if !seen[c] {
			cores = append(cores, c)
		}
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	rows := make([]Row, 0, len(cores))
	for _, c := range cores {
		row := Row{Core: c.String(), Reachable: true, Complets: []Complet{}}
		for _, e := range snap[c] {
			row.Complets = append(row.Complets, Complet{ID: e.ID.String(), TypeName: e.TypeName, Names: e.Names})
		}
		rows = append(rows, row)
	}
	return rows
}

// Render formats the layout as a text table (the terminal stand-in for
// Figure 4).
func (v *View) Render() string {
	snap := v.Snapshot()
	cores := append([]ids.CoreID(nil), v.cores...)
	// Include cores that appear only in entries (e.g. learned
	// destinations).
	seen := map[ids.CoreID]bool{}
	for _, c := range cores {
		seen[c] = true
	}
	for c := range snap {
		if !seen[c] {
			cores = append(cores, c)
		}
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })

	var sb strings.Builder
	fmt.Fprintf(&sb, "FarGo layout (%d complets, %d events)\n", v.count(), v.Events())
	for _, c := range cores {
		fmt.Fprintf(&sb, "core %s\n", c)
		entries := snap[c]
		if len(entries) == 0 {
			sb.WriteString("  (empty)\n")
			continue
		}
		for _, e := range entries {
			names := ""
			if len(e.Names) > 0 {
				names = " [" + strings.Join(e.Names, ",") + "]"
			}
			fmt.Fprintf(&sb, "  %-24s %-12s%s\n", e.ID, e.TypeName, names)
		}
	}
	return sb.String()
}

func (v *View) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.entries)
}

func (v *View) addCancel(c func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		c()
		return
	}
	v.cancels = append(v.cancels, c)
}

// Close cancels all subscriptions.
func (v *View) Close() {
	v.mu.Lock()
	cancels := v.cancels
	v.cancels = nil
	v.closed = true
	v.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}
