package script

import (
	"context"
	"fmt"
	"time"

	"fargo/internal/core"
	"fargo/internal/ids"
	"fargo/internal/wire"
)

// CoreRuntime adapts a live Core to the script Runtime interface, letting
// administrators attach layout scripts to a running deployment (§4.3).
type CoreRuntime struct {
	c    *core.Core
	logf func(format string, args ...any)
}

var (
	_ Runtime    = (*CoreRuntime)(nil)
	_ CtxRuntime = (*CoreRuntime)(nil)
)

// NewCoreRuntime wraps a core. logf receives log-action output (nil uses the
// core's logger configuration via fmt to standard log).
func NewCoreRuntime(c *core.Core, logf func(format string, args ...any)) (*CoreRuntime, error) {
	if c == nil {
		return nil, fmt.Errorf("script: nil core")
	}
	if logf == nil {
		logf = func(format string, args ...any) {} // discard by default
	}
	return &CoreRuntime{c: c, logf: logf}, nil
}

// LocalCore implements Runtime.
func (r *CoreRuntime) LocalCore() string { return r.c.ID().String() }

// Core exposes the wrapped core. Registered actions that integrate deeper
// than the Runtime surface (e.g. the planner's `plan` action) type-assert
// their Runtime to interface{ Core() *core.Core } to reach it.
func (r *CoreRuntime) Core() *core.Core { return r.c }

// Logf implements Runtime.
func (r *CoreRuntime) Logf(format string, args ...any) { r.logf(format, args...) }

// Heartbeat parameters backing `on unreachable` rules.
const (
	unreachableProbeInterval = 100 * time.Millisecond
	unreachableProbeMisses   = 3
)

// SubscribeBuiltin implements Runtime. Subscriptions at remote cores ride
// the distributed event mechanism (§4.2), so e.g. `on shutdown listenAt
// $coreList` hears every listed core. The coreUnreachable event is special:
// listenAt names the cores to PROBE — the script daemon runs the heartbeat
// itself (a crashed core cannot announce anything).
func (r *CoreRuntime) SubscribeBuiltin(event string, atCores []string, fn func(source string)) (func(), error) {
	// Registered event sources (e.g. the alert engine's "alert" event) take
	// precedence: they tap runtime-local feeds rather than the distributed
	// event mechanism.
	if src, ok := lookupEventSource(event); ok {
		return src(r, atCores, fn)
	}
	if event == core.EventCoreUnreachable {
		if len(atCores) == 0 {
			return nil, fmt.Errorf("script: `on unreachable` needs listenAt with the cores to probe")
		}
		probe := make([]ids.CoreID, len(atCores))
		for i, a := range atCores {
			probe[i] = ids.CoreID(a)
		}
		token, err := r.c.Monitor().SubscribeBuiltin(core.EventCoreUnreachable, func(ev core.Event) {
			fn(ev.Source.String())
		})
		if err != nil {
			return nil, err
		}
		hb, err := r.c.Monitor().StartHeartbeat(probe, unreachableProbeInterval, unreachableProbeMisses)
		if err != nil {
			r.c.Monitor().Unsubscribe(token)
			return nil, err
		}
		return func() {
			hb.Stop()
			r.c.Monitor().Unsubscribe(token)
		}, nil
	}
	if len(atCores) == 0 {
		atCores = []string{r.LocalCore()}
	}
	listener := func(ev core.Event) { fn(ev.Source.String()) }
	var cancels []func()
	for _, at := range atCores {
		atCore := ids.CoreID(at)
		token, err := r.c.Monitor().SubscribeAt(atCore, core.SubscribeOptions{Service: event}, listener)
		if err != nil {
			for _, c := range cancels {
				c()
			}
			return nil, err
		}
		tok := token
		cancels = append(cancels, func() {
			if err := r.c.Monitor().UnsubscribeAt(atCore, tok); err != nil {
				r.logf("script: unsubscribe %s at %s: %v", event, atCore, err)
			}
		})
	}
	return func() {
		for _, c := range cancels {
			c()
		}
	}, nil
}

// SubscribeThreshold implements Runtime.
func (r *CoreRuntime) SubscribeThreshold(atCore, service string, args []string, threshold float64, interval time.Duration, fn func(source string, value float64)) (func(), error) {
	at := ids.CoreID(atCore)
	if at.Nil() {
		at = r.c.ID()
	}
	// Complet arguments may be logical names; resolve them to IDs.
	resolved := make([]string, len(args))
	for i, a := range args {
		id, err := r.resolveComplet(a)
		if err != nil {
			// Not a complet: pass through (e.g. a core name for
			// latency/bandwidth services).
			resolved[i] = a
			continue
		}
		resolved[i] = id.String()
	}
	token, err := r.c.Monitor().SubscribeAt(at, core.SubscribeOptions{
		Service:   service,
		Args:      resolved,
		Threshold: threshold,
		Above:     true,
		Interval:  interval,
	}, func(ev core.Event) { fn(ev.Source.String(), ev.Value) })
	if err != nil {
		return nil, err
	}
	return func() {
		if err := r.c.Monitor().UnsubscribeAt(at, token); err != nil {
			r.logf("script: unsubscribe %s at %s: %v", service, at, err)
		}
	}, nil
}

// MoveComplet implements Runtime.
func (r *CoreRuntime) MoveComplet(target, dest string) error {
	id, err := r.resolveComplet(target)
	if err != nil {
		return err
	}
	return r.c.MoveByID(id, ids.CoreID(dest))
}

// MoveCompletCtx implements CtxRuntime: the move is abandoned (sender keeps
// the complet) once ctx ends.
func (r *CoreRuntime) MoveCompletCtx(ctx context.Context, target, dest string) error {
	id, err := r.resolveComplet(target)
	if err != nil {
		return err
	}
	return r.c.MoveByIDCtx(ctx, id, ids.CoreID(dest))
}

// Measure implements Runtime: one instant profiling measurement, with
// complet-name arguments resolved to IDs.
func (r *CoreRuntime) Measure(atCore, service string, args []string) (float64, error) {
	at := ids.CoreID(atCore)
	if at.Nil() {
		at = r.c.ID()
	}
	resolved := make([]string, len(args))
	for i, a := range args {
		if id, err := r.resolveComplet(a); err == nil {
			resolved[i] = id.String()
		} else {
			resolved[i] = a
		}
	}
	return r.c.Monitor().InstantAt(at, service, resolved...)
}

// CompletsIn implements Runtime.
func (r *CoreRuntime) CompletsIn(coreName string) ([]string, error) {
	reply, err := r.c.ObsAtCtx(context.Background(), ids.CoreID(coreName), wire.ObsQuery{Info: true})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(reply.Info.Complets))
	for i, ci := range reply.Info.Complets {
		out[i] = ci.ID.String()
	}
	return out, nil
}

// CoreOf implements Runtime.
func (r *CoreRuntime) CoreOf(target string) (string, error) {
	id, err := r.resolveComplet(target)
	if err != nil {
		return "", err
	}
	loc, err := r.c.LocateComplet(id)
	if err != nil {
		return "", err
	}
	return loc.String(), nil
}

// resolveComplet turns a script-level complet designator — an ID string
// ("core/#7") or a logical name in the local naming service — into a
// CompletID.
func (r *CoreRuntime) resolveComplet(s string) (ids.CompletID, error) {
	if id, ok := ids.ParseCompletID(s); ok {
		return id, nil
	}
	if ref, ok := r.c.Lookup(s); ok {
		return ref.Target(), nil
	}
	return ids.CompletID{}, fmt.Errorf("script: unknown complet %q (neither an ID nor a registered name)", s)
}
