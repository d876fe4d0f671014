// Package fargo is a Go reproduction of the FarGo system (Holder, Ben-Shaul,
// Gazit: "System Support for Dynamic Layout of Distributed Applications",
// ICDCS 1999): a distributed component runtime in which the layout of an
// application — which core each component lives on — is programmed separately
// from its logic, can change while the application runs, and can be driven
// automatically by monitoring data.
//
// # Concepts
//
// A complet is a component: a registered Go type whose instance (the anchor)
// is hosted by exactly one Core at a time and addressed through complet
// references (Ref). References stay valid as complets migrate; their
// relocation semantics (link, pull, duplicate, stamp) are reified by a
// meta-reference and govern what happens to the target when the referring
// complet moves. Cores are stationary runtimes connected by a transport —
// real TCP or a simulated network with configurable latency and bandwidth.
//
// # Quick start
//
//	u, _ := fargo.NewUniverse(1)
//	defer u.Close()
//	u.Register("Message", (*Message)(nil))
//	north, _ := u.NewCore("north")
//	south, _ := u.NewCore("south")
//	_ = south
//
//	msg, _ := north.NewComplet("Message", "hello")
//	out, _ := msg.Invoke("Print")            // invoke like a local object
//	_ = north.Move(msg, "south")             // relocate at runtime
//	out, _ = msg.Invoke("Print")             // same reference still works
//	_ = out
//
// # Deadlines, cancellation and retries
//
// Every pipeline operation has a context-first variant that bounds the whole
// operation end to end — the remaining deadline travels on the wire, so each
// tracker-chain hop and movement stage deducts elapsed time instead of
// restarting the clock:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
//	defer cancel()
//	out, err := msg.InvokeCtx(ctx, "Print")               // Invoke
//	err = north.MoveCtx(ctx, msg, "south")                // Move
//	r, err := north.NewCompletAtCtx(ctx, "south", "Message", "hi") // NewCompletAt
//	loc, err := north.LocateCompletCtx(ctx, msg.Target()) // LocateComplet
//
// The context-free methods remain and are thin wrappers: they run under the
// core's Options.RequestTimeout as the default end-to-end budget. The same
// pattern covers the ops queries — ObsAtCtx (every introspection section in
// one round-trip: stats, health, core info, flight ring, traces, per-method
// telemetry, planner statistics), CheckpointRemoteCtx, LocateViaHomeCtx and
// InvokeViaHomeCtx are the one-implementation forms. Per-call
// options (WithTimeout, WithNoRetry, WithMaxAttempts) ride the ctx variants.
// Failures surface as *InvokeError, whose Cause separates a deadline expiry
// from a cancellation, a peer that answered with an error, and a peer that
// never answered; idempotent requests (locate, lookups, monitor queries) are
// transparently retried with jittered exponential backoff per RetryPolicy,
// while invocations, moves and instantiation fail fast.
//
// See the examples directory for complete programs and DESIGN.md for the
// paper-to-module mapping.
package fargo

import (
	"fmt"
	"time"

	"fargo/internal/alert"
	"fargo/internal/core"
	"fargo/internal/ids"
	"fargo/internal/layoutview"
	"fargo/internal/netsim"
	"fargo/internal/obs"
	"fargo/internal/observatory"
	"fargo/internal/plan"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/script"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

// Core is a FarGo runtime instance hosting complets. See the methods of
// internal/core.Core: NewComplet, Move, Name, Monitor, …
type Core = core.Core

// Ref is a complet reference — the stub application code holds and invokes
// through.
type Ref = ref.Ref

// MetaRef reifies a reference's relocation semantics (Ref.Meta).
type MetaRef = ref.MetaRef

// Relocator governs a reference's behaviour when its complet moves.
type Relocator = ref.Relocator

// The predefined relocators (§2 of the paper).
type (
	// Link keeps a tracked remote reference (the default).
	Link = ref.Link
	// Pull moves the target along with the source.
	Pull = ref.Pull
	// Duplicate ships a copy of the target along with the source.
	Duplicate = ref.Duplicate
	// Stamp re-binds to an equivalent-typed complet at the destination.
	Stamp = ref.Stamp
)

// CompletID identifies a complet instance; CoreID names a core.
type (
	CompletID = ids.CompletID
	CoreID    = ids.CoreID
)

// Event is a monitoring event; Listener consumes events.
type (
	Event    = core.Event
	Listener = core.Listener
)

// SubscribeOptions parameterizes threshold-event subscriptions.
type SubscribeOptions = core.SubscribeOptions

// Registry holds the anchor types a core can instantiate and receive.
type Registry = registry.Registry

// LinkProfile configures a simulated network link.
type LinkProfile = netsim.LinkProfile

// Options configures a core.
type Options = core.Options

// ObsQuery selects the sections of a core's state that Core.ObsAtCtx fetches
// in one round-trip.
type ObsQuery = wire.ObsQuery

// Built-in profiling services and events (see §4 of the paper).
const (
	ServiceCompletLoad     = core.ServiceCompletLoad
	ServiceMemory          = core.ServiceMemory
	ServiceLatency         = core.ServiceLatency
	ServiceBandwidth       = core.ServiceBandwidth
	ServiceInvocationRate  = core.ServiceInvocationRate
	ServiceInvocationCount = core.ServiceInvocationCount
	ServiceCompletSize     = core.ServiceCompletSize
	ServiceCapacityFree    = core.ServiceCapacityFree

	EventCompletArrived    = core.EventCompletArrived
	EventCompletDeparted   = core.EventCompletDeparted
	EventCoreShutdown      = core.EventCoreShutdown
	EventCoreUnreachable   = core.EventCoreUnreachable
	EventCoreReachable     = core.EventCoreReachable
	EventChainRepaired     = core.EventChainRepaired
	EventHopBudgetExceeded = core.EventHopBudgetExceeded
)

// InvokeError is the typed failure of a context-first pipeline operation;
// its Cause distinguishes timeout, cancellation, a remote error verdict, an
// unreachable peer, and an exhausted hop budget.
type InvokeError = core.InvokeError

// Cause classifies an InvokeError.
type Cause = core.Cause

// InvokeError causes.
const (
	CauseTimeout     = core.CauseTimeout
	CauseCanceled    = core.CauseCanceled
	CauseRemote      = core.CauseRemote
	CauseUnreachable = core.CauseUnreachable
	CauseTooManyHops = core.CauseTooManyHops
)

// ErrTooManyHops is returned (wrapped in *InvokeError) when a tracker chain
// exhausts its hop budget.
var ErrTooManyHops = core.ErrTooManyHops

// InvokeOption tunes one context-first call; pass options to the ctx entry
// points (trailing args of Ref.InvokeCtx, or the opts parameters of
// Core.MoveCtx and friends).
type InvokeOption = ref.InvokeOption

// WithTimeout bounds the whole call — all tracker-chain hops and movement
// stages included — by d.
func WithTimeout(d time.Duration) InvokeOption { return ref.WithTimeout(d) }

// WithNoRetry disables transparent retries for the call.
func WithNoRetry() InvokeOption { return ref.WithNoRetry() }

// WithMaxAttempts overrides the retry attempt budget for the call.
func WithMaxAttempts(n int) InvokeOption { return ref.WithMaxAttempts(n) }

// RetryPolicy tunes transparent retries of idempotent inter-core requests
// (Options.Retry).
type RetryPolicy = core.RetryPolicy

// DefaultRetryPolicy returns the policy used when Options.Retry is zero.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// BreakerPolicy tunes the per-peer circuit breakers (Options.Breaker): after
// Threshold consecutive unreachable operations a peer's circuit opens and
// calls to it fail fast with ErrPeerSuspected until a probe (a heartbeat ping
// or a half-open trial after OpenFor) shows the peer answering again.
type BreakerPolicy = core.BreakerPolicy

// DefaultBreakerPolicy returns the policy used when Options.Breaker is zero.
func DefaultBreakerPolicy() BreakerPolicy { return core.DefaultBreakerPolicy() }

// ErrPeerSuspected is returned (wrapped in *InvokeError, cause unreachable)
// when a call is refused locally because the peer's circuit breaker is open.
var ErrPeerSuspected = core.ErrPeerSuspected

// ErrMoveInFlight is returned (match with errors.Is) when a move is refused
// because a travelling complet already has a journaled move whose outcome is
// unknown; Core.Recover resolves it once the destination answers.
var ErrMoveInFlight = core.ErrMoveInFlight

// RecoveryReport summarizes one Core.Recover run over the durable move
// journal (Options.JournalPath): moves completed or rolled back after the
// fact, stale copies released, complets re-installed from journaled bundles,
// and moves still unresolved.
type RecoveryReport = core.RecoveryReport

// MoveStep identifies a stage of the two-phase movement protocol
// (Core.SetMoveStepHook's crash-injection points for chaos testing).
type MoveStep = core.MoveStep

// FaultyTransport wraps any transport with per-peer fault injection — drop,
// delay, duplication, and hard partitions — for chaos and recovery testing.
// See Universe.NewCoreFaulty and transport.NewFaulty.
type FaultyTransport = transport.Faulty

// MoveContext gives user-defined relocators the facts of an ongoing move.
type MoveContext = ref.MoveContext

// Action is the movement behaviour a relocator selects.
type Action = ref.Action

// Relocator actions (§2).
const (
	ActionLink      = ref.ActionLink
	ActionPull      = ref.ActionPull
	ActionDuplicate = ref.ActionDuplicate
	ActionStamp     = ref.ActionStamp
)

// RegisterRelocator registers a user-defined relocator kind (see
// ref.RegisterRelocator).
func RegisterRelocator(kind string, decode func(data []byte) (Relocator, error)) error {
	return ref.RegisterRelocator(kind, decode)
}

// NewRegistry returns an empty anchor type registry.
func NewRegistry() *Registry { return registry.New() }

// Universe is a simulated deployment: a set of cores over an in-process
// network with configurable latency, bandwidth and failures. It is the
// substrate for examples, tests and experiments (see DESIGN.md
// substitutions); production deployments use ListenTCP instead.
type Universe struct {
	net   *netsim.Network
	reg   *registry.Registry
	cores map[ids.CoreID]*core.Core
}

// NewUniverse creates an empty simulated deployment. The seed drives link
// jitter, making runs reproducible.
func NewUniverse(seed int64) (*Universe, error) {
	return &Universe{
		net:   netsim.NewNetwork(seed),
		reg:   registry.New(),
		cores: make(map[ids.CoreID]*core.Core),
	}, nil
}

// Register adds an anchor type, shared by all cores of the universe.
// The prototype is a nil pointer of the anchor type: ("Message",
// (*Message)(nil)).
func (u *Universe) Register(name string, prototype any) error {
	return u.reg.Register(name, prototype)
}

// NewCore starts a core on the simulated network.
func (u *Universe) NewCore(name string, opts ...Options) (*Core, error) {
	var o Options
	if len(opts) > 1 {
		return nil, fmt.Errorf("fargo: at most one Options value")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	tr, err := transport.NewSim(u.net, ids.CoreID(name))
	if err != nil {
		return nil, err
	}
	c, err := core.New(tr, u.reg, o)
	if err != nil {
		return nil, err
	}
	u.cores[ids.CoreID(name)] = c
	return c, nil
}

// NewCoreFaulty starts a core on the simulated network with its transport
// wrapped in a fault injector. The returned FaultyTransport controls the
// faults the core's OUTBOUND messages suffer (partition, drop, delay,
// duplication); the seed makes probabilistic faults reproducible.
func (u *Universe) NewCoreFaulty(name string, seed int64, opts ...Options) (*Core, *FaultyTransport, error) {
	var o Options
	if len(opts) > 1 {
		return nil, nil, fmt.Errorf("fargo: at most one Options value")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	tr, err := transport.NewSim(u.net, ids.CoreID(name))
	if err != nil {
		return nil, nil, err
	}
	faulty := transport.NewFaulty(tr, seed)
	c, err := core.New(faulty, u.reg, o)
	if err != nil {
		_ = faulty.Close()
		return nil, nil, err
	}
	u.cores[ids.CoreID(name)] = c
	return c, faulty, nil
}

// Core returns a previously created core by name.
func (u *Universe) Core(name string) (*Core, bool) {
	c, ok := u.cores[ids.CoreID(name)]
	return c, ok
}

// SetLink configures both directions of the link between two cores.
func (u *Universe) SetLink(a, b string, p LinkProfile) error {
	return u.net.SetLink(a, b, p)
}

// Partition cuts (or heals) the link between two cores.
func (u *Universe) Partition(a, b string, cut bool) error {
	return u.net.SetPartition(a, b, cut)
}

// Network exposes the underlying simulator (experiment harness support:
// per-link message statistics, host failures).
func (u *Universe) Network() *netsim.Network { return u.net }

// RegistryHandle exposes the universe's shared type registry (for callers
// that register types through helper packages).
func (u *Universe) RegistryHandle() *Registry { return u.reg }

// Close shuts down every core, then the network.
func (u *Universe) Close() {
	for _, c := range u.cores {
		_ = c.Shutdown(0)
	}
	u.net.Close()
}

// ListenTCP starts a core listening on a real TCP address. peers seeds the
// address book (core name -> host:port); more peers are learned dynamically
// from connection handshakes. The returned address is the bound listen
// address (useful with ":0").
//
// When opts.HTTPAddr is non-empty, an ops plane (see StartOps) is started on
// that address and tied to the core's shutdown.
func ListenTCP(name, listenAddr string, peers map[string]string, reg *Registry, opts Options) (*Core, string, error) {
	seed := make(map[ids.CoreID]string, len(peers))
	for k, v := range peers {
		seed[ids.CoreID(k)] = v
	}
	tr, err := transport.NewTCP(ids.CoreID(name), listenAddr, transport.NewAddrBook(seed))
	if err != nil {
		return nil, "", err
	}
	c, err := core.New(tr, reg, opts)
	if err != nil {
		_ = tr.Close()
		return nil, "", err
	}
	for id := range seed {
		c.SeedPeers(id)
	}
	if opts.HTTPAddr != "" {
		if _, err := obs.Start(c, OpsOptions{Addr: opts.HTTPAddr}); err != nil {
			_ = c.Shutdown(0)
			return nil, "", err
		}
	}
	if opts.Planner != nil {
		pc := opts.Planner
		_, err := StartPlanner(c, PlannerOptions{
			Cores:            pc.Cores,
			Interval:         pc.Interval,
			DryRun:           pc.DryRun,
			MinGain:          pc.MinGain,
			Cooldown:         pc.Cooldown,
			MaxMovesPerRound: pc.MaxMovesPerRound,
		})
		if err != nil {
			_ = c.Shutdown(0)
			return nil, "", err
		}
	}
	if opts.Observatory != nil {
		oc := opts.Observatory
		_, err := StartObservatory(c, ObservatoryOptions{
			Cores:    oc.Cores,
			Interval: oc.Interval,
		})
		if err != nil {
			_ = c.Shutdown(0)
			return nil, "", err
		}
	}
	return c, tr.Addr(), nil
}

// Planner is a running autonomic layout planner (StartPlanner): a closed loop
// that collects the communication graph of a set of cores, proposes moves
// that co-locate chatty complets under capacity limits, and actuates them
// through the journaled movement protocol. See internal/plan and DESIGN.md
// §14.
type Planner = plan.Planner

// PlannerOptions configures a planner (StartPlanner).
type PlannerOptions = plan.Options

// PlannerConfig is the plain-data planner configuration carried by
// Options.Planner; ListenTCP starts a planner from it. Programs wanting the
// full option surface (pinning, logging) call StartPlanner directly.
type PlannerConfig = core.PlannerConfig

// PlannerStatus is a planner's introspection snapshot (Planner.Status, the
// /plan ops endpoint, shell `plan status`).
type PlannerStatus = plan.Status

// StartPlanner attaches an autonomic layout planner to the core. With a
// positive Interval the closed loop runs in the background until the core
// shuts down; with Interval zero, rounds run only on demand (Planner.RunOnce,
// shell `plan run`, the `plan` script action). A core has at most one
// planner.
func StartPlanner(c *Core, opts PlannerOptions) (*Planner, error) {
	return plan.Start(c, opts)
}

// Observatory is a running deployment observatory (StartObservatory): the
// cluster-wide aggregation layer that federates every member core's metrics,
// stitches cross-core traces into complete causal trees, and merges the
// members' flight recorders into one globally ordered layout timeline. Any
// core can host one; its endpoints appear under /cluster/ on that core's ops
// plane. See internal/observatory and DESIGN.md §15.
type Observatory = observatory.Observatory

// ObservatoryOptions configures an observatory (StartObservatory).
type ObservatoryOptions = observatory.Options

// ObservatoryConfig is the plain-data observatory configuration carried by
// Options.Observatory; ListenTCP starts an observatory from it.
type ObservatoryConfig = core.ObservatoryConfig

// StartObservatory attaches a deployment observatory to the core. With a
// positive Interval it refreshes its cluster model in the background until
// the core shuts down; with Interval zero every /cluster/ read refreshes on
// demand with bounded staleness. A core has at most one observatory.
func StartObservatory(c *Core, opts ObservatoryOptions) (*Observatory, error) {
	return observatory.Start(c, opts)
}

// AlertEngine is a running cluster alert engine (StartAlerts): a periodic
// evaluator of declarative SLO rules — thresholds, absence checks, and
// burn rates over latency histograms — against the core's local metrics and,
// through a co-hosted observatory, the cluster_-prefixed federated series.
// Transitions surface as alertFiring/alertResolved flight events (merged into
// /cluster/timeline), fire `on alert` script rules, and are served at /alerts
// and /cluster/alerts. See internal/alert and DESIGN.md §16.
type AlertEngine = alert.Engine

// AlertRule is one declarative alert rule (AlertOptions.Rules); build rules
// programmatically or parse them from the rules-file grammar with
// ParseAlertRules.
type AlertRule = alert.Rule

// AlertOptions configures an alert engine (StartAlerts).
type AlertOptions = alert.Options

// AlertEvent is a firing/resolution notification (AlertEngine.Subscribe).
type AlertEvent = alert.Event

// AlertRuleStatus is one rule's evaluation state (AlertEngine.Status, the
// /alerts ops endpoint, shell `alerts`).
type AlertRuleStatus = alert.RuleStatus

// ParseAlertRules parses the alert rules-file grammar (one rule per line;
// see internal/alert):
//
//	alert slow-echo burnrate invoke_latency_ns above 50ms > 0.2 window 1m for 10s
//	alert no-members absent cluster_members_up for 30s
func ParseAlertRules(src string) ([]AlertRule, error) { return alert.ParseRules(src) }

// StartAlerts attaches an alert engine to the core. With Interval zero rules
// evaluate every second; a negative Interval disables the loop (evaluation on
// demand via AlertEngine.EvalOnce). A core has at most one engine.
func StartAlerts(c *Core, opts AlertOptions) (*AlertEngine, error) {
	return alert.Start(c, opts)
}

// OpsServer is a running per-core ops plane: an embedded HTTP server exposing
// /metrics (Prometheus), /healthz, /readyz, /layout, /trace, /flight and
// /debug/pprof. See internal/obs for the endpoint contract and security note
// (hostless addresses bind loopback).
type OpsServer = obs.Server

// OpsOptions configures an ops plane (StartOps).
type OpsOptions = obs.Options

// StartOps starts the ops plane for a core. It is called automatically by
// ListenTCP when Options.HTTPAddr is set; call it directly to attach a
// layout view or to serve a simulated core. The server closes with the core.
func StartOps(c *Core, opts OpsOptions) (*OpsServer, error) {
	return obs.Start(c, opts)
}

// ScriptValue is a positional argument for layout scripts: string, float64
// or a list of values.
type ScriptValue = script.Value

// ScriptInstance is a running layout script; Close disarms its rules.
type ScriptInstance = script.Instance

// RunScript parses and activates a layout script (§4.3) on the given core.
// logf receives `log` action output and rule diagnostics (nil discards).
func RunScript(c *Core, src string, logf func(format string, args ...any), args ...ScriptValue) (*ScriptInstance, error) {
	rt, err := script.NewCoreRuntime(c, logf)
	if err != nil {
		return nil, err
	}
	return script.Run(src, rt, args...)
}

// ParseScript parses layout-script source without activating it (syntax
// checking, tooling).
func ParseScript(src string) (*script.Script, error) { return script.Parse(src) }

// LayoutView is a live model of which complets reside on which cores — the
// monitor's (Figure 4) data model.
type LayoutView = layoutview.View

// NewLayoutView builds and starts a layout view that watches the given cores
// through the observer core.
func NewLayoutView(observer *Core, cores []CoreID) (*LayoutView, error) {
	v := layoutview.New(observer, cores)
	if err := v.Start(); err != nil {
		return nil, err
	}
	return v, nil
}

// RegisterScriptAction registers an extension action callable from layout
// scripts as name(args...).
func RegisterScriptAction(name string, fn func(args []ScriptValue) error) error {
	return script.RegisterAction(name, func(_ script.Runtime, args []script.Value) error {
		return fn(args)
	})
}

// Movement callbacks (§3.3): anchors implement any subset.
type (
	// PreDeparture is invoked before movement at the sending core.
	PreDeparture = core.PreDeparture
	// PreArrival is invoked after decoding, before reference linking.
	PreArrival = core.PreArrival
	// PostArrival is invoked once the complet is fully installed.
	PostArrival = core.PostArrival
	// PostDeparture is invoked before the old copy is released.
	PostDeparture = core.PostDeparture
)

// CoreAware is implemented by anchors that need their hosting core (e.g. to
// move themselves). The runtime injects it at installation and after every
// migration.
type CoreAware = core.CoreAware

// DefaultGrace is a reasonable shutdown grace period allowing layout
// policies to evacuate complets.
const DefaultGrace = 2 * time.Second
