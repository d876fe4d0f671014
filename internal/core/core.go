// Package core implements the FarGo Core (§3, Figure 1): the stationary
// runtime that hosts complets and realizes complet references, invocation,
// movement, naming and monitoring. One Core runs per (real or simulated)
// process; complets migrate between Cores while the Cores themselves stay
// put.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"reflect"
	"sort"
	"sync"
	"time"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/journal"
	"fargo/internal/metrics"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/stats"
	"fargo/internal/trace"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

var (
	// ErrClosed is returned when using a core after Shutdown.
	ErrClosed = errors.New("core: shut down")
	// ErrUnknownComplet is returned when a complet cannot be located:
	// neither hosted here nor known to any tracker.
	ErrUnknownComplet = errors.New("core: unknown complet")
	// ErrTrackingLoop is returned when a tracker chain exceeds the hop
	// budget (a cycle or a very stale topology).
	ErrTrackingLoop = errors.New("core: tracking loop or chain too long")
)

// defaultRequestTimeout bounds inter-core requests issued on behalf of
// application calls.
const defaultRequestTimeout = 30 * time.Second

// complet is the repository entry for one hosted complet instance.
type complet struct {
	id       ids.CompletID
	typeName string
	anchor   any
	// t is the complet's tracker on this core; the entry is live while
	// t's record holds it (see live).
	t *tracker
	// moveMu orders invocation against movement: invocations hold R for
	// their whole execution, movement holds W. An invocation therefore
	// never observes a half-moved complet; one that blocked on moveMu
	// finds the entry no longer live and re-routes through the tracker.
	moveMu sync.RWMutex
	// meters is the complet's invocation accounting (meters.go); it travels
	// in the movement bundle and is released with the entry.
	meters meters
}

// Options configures a Core.
type Options struct {
	// RequestTimeout is the default end-to-end budget for pipeline
	// operations whose caller supplies no deadline of its own (the
	// context-free entry points, and ctx entry points called with a
	// deadline-free context). It bounds the whole operation — every
	// tracker-chain hop and movement stage deducts from it. Zero means a
	// 30s default.
	RequestTimeout time.Duration
	// Retry tunes transparent retries of idempotent inter-core requests;
	// zero fields take the DefaultRetryPolicy values.
	Retry RetryPolicy
	// Breaker tunes the per-peer circuit breakers that make calls to a
	// suspected-down peer fail fast with ErrPeerSuspected; zero fields take
	// the DefaultBreakerPolicy values. Set Breaker.Disable to turn circuit
	// breaking off.
	Breaker BreakerPolicy
	// Logf receives diagnostic output; nil means log.Printf. The logger is
	// also threaded into the transport when it supports redirection
	// (transport.LogfSetter).
	Logf func(format string, args ...any)
	// TraceSampleRate is the probability (0..1) that an operation entering
	// the pipeline at this core (InvokeCtx, MoveCtx, ...) starts a
	// distributed trace. Zero disables root sampling; the core still
	// records spans for traces sampled by peers, so chains stay intact.
	// Adjustable at runtime via Tracer().SetSampleRate.
	TraceSampleRate float64
	// TraceBufferSize caps completed spans retained by this core's
	// collector (0 = trace.DefaultBufferSize).
	TraceBufferSize int
	// HTTPAddr, when non-empty, asks the embedding layer (fargo.ListenTCP,
	// cmd/fargo-core) to serve the ops plane — /metrics, /healthz, pprof,
	// /layout, /flight — on this address. The core itself never opens the
	// listener (internal/obs does), so simulated cores pay nothing.
	HTTPAddr string
	// FlightRecorderSize caps the layout flight recorder's ring (0 =
	// flight.DefaultCapacity).
	FlightRecorderSize int
	// JournalPath, when non-empty, enables the durable move journal
	// (internal/journal) at that file path: the movement protocol becomes
	// two-phase (PREPARE/INSTALL/COMMIT, DESIGN.md §13) with every phase
	// fsync'd before it takes effect, and the recovery manager replays the
	// journal on construction so Recover can converge in-flight moves
	// after a crash. Empty disables journaling; the epoch-idempotence of
	// installs remains active either way.
	JournalPath string
	// Planner, when non-nil, asks the embedding layer (fargo.ListenTCP,
	// Universe.NewCore) to start the autonomic layout planner
	// (internal/plan) on this core with the given configuration. The core
	// itself never reads it — plan.Start does — so cores without a planner
	// pay nothing.
	Planner *PlannerConfig
	// Observatory, when non-nil, asks the embedding layer (fargo.ListenTCP)
	// to start the deployment observatory (internal/observatory) on this
	// core: metrics federation, cluster-wide trace stitching, and the merged
	// layout timeline served under /cluster/ on the ops plane. Plain data for
	// the same reason as Planner — core cannot import internal/observatory.
	Observatory *ObservatoryConfig
	// DisablePerMethodStats turns off the complet-granular per-method SLO
	// instruments (latency histogram, call/error counters, in-flight gauge
	// per hosted (complet, method)). They are on by default; the overhead
	// benchmark (BenchmarkPerMethodInstrumentOverhead) uses this switch to
	// measure their cost on the invoke hot path.
	DisablePerMethodStats bool
}

// ObservatoryConfig enables the deployment observatory on a core built
// through the facade (fargo.Options.Observatory). Mirrors observatory.Options;
// see there for field semantics.
type ObservatoryConfig struct {
	// Cores lists the member cores to observe. Empty means dynamic
	// membership: this core plus whatever peers it knows.
	Cores []ids.CoreID
	// Interval is the background refresh period (0 = refresh on demand only,
	// driven by HTTP reads).
	Interval time.Duration
}

// Core is a FarGo runtime instance.
type Core struct {
	id   ids.CoreID
	tr   transport.Transport
	reg  *registry.Registry
	mint *ids.CompletIDs
	opts Options

	mu sync.Mutex
	// trackers is the tracker table and, through the entries its records
	// hold, the repository (tracker.go); nHosted counts those entries.
	trackers map[ids.CompletID]*tracker
	nHosted  int
	byAnchor map[any]*complet
	names    map[string]*ref.Ref
	peers    map[ids.CoreID]struct{} // cores seen on the wire
	closed   bool
	// homeTracking enables the home-based location service (§7 future
	// work; E9 ablation).
	homeTracking bool
	// capacity is the admission-control complet budget (0 = unlimited;
	// see capacity.go).
	capacity int

	// moveOpMu serializes outgoing movement operations on this core,
	// which keeps multi-complet lock acquisition deadlock-free.
	moveOpMu sync.Mutex

	// breakerMu guards breakers and every breaker's fields. It is a leaf
	// lock: nothing else is acquired while it is held.
	breakerMu sync.Mutex
	breakers  map[ids.CoreID]*breaker

	mon   *Monitor
	homes homeTable

	// Observability (observe.go): the tracer owns sampling and the span
	// collector; the registry owns named instruments; met caches the
	// hot-path instruments so request paths never hit the registry map.
	tracer  *trace.Tracer
	metrics *metrics.Registry
	met     *coreMetrics

	// Ops plane state (health.go): the flight recorder rings recent layout
	// occurrences; suspects mirrors the heartbeat prober's down verdicts;
	// movesInFlight counts owner-side bundles currently being shipped; and
	// shutdownHooks run once when the core stops (obs server teardown).
	flight        *flight.Recorder
	healthMu      sync.Mutex
	suspects      map[ids.CoreID]bool
	movesInFlight int
	shutdownHooks []func()

	// Crash-safe movement state (recovery.go). jn is the durable move
	// journal (nil = journaling disabled). moveEpochs mints source-side
	// move epochs; recMu guards every protocol table below it. recMu is a
	// leaf-ish lock: journal appends happen under it (ordering protocol
	// bookkeeping with durability), but no other Core lock is taken while
	// it is held.
	jn         *journal.Journal
	moveEpochs ids.Sequencer
	recMu      sync.Mutex
	// pendingOut tracks source-side moves between PREPARE and
	// COMMIT/ABORT, by epoch; pendingByComplet indexes them by travelling
	// complet for the ErrMoveInFlight check.
	pendingOut       map[uint64]*pendingMove
	pendingByComplet map[ids.CompletID]uint64
	// installedIn caches the reply of every epoch-stamped bundle this core
	// installed (idempotent re-install); installOrder bounds it FIFO.
	// installing marks epochs mid-installation (duplicate deliveries wait
	// on installCond for the first delivery's verdict); refusedIn records
	// epochs durably refused to a recovery probe.
	installedIn  map[moveKey]wire.MoveReply
	installOrder []moveKey
	installing   map[moveKey]bool
	installCond  *sync.Cond
	refusedIn    map[moveKey]struct{}
	// installRecs / departedTo carry each complet's journal-final
	// disposition: the INSTALL record that last delivered it here (payload
	// included, for re-installation), or the destination its last COMMIT
	// shipped it to. Both are built at construction-time replay AND kept
	// current by the runtime protocol (journalInstall, settleMove), so a
	// Recover run at any time sees the journal's actual final word and
	// never resurrects a copy that has since committed away.
	installRecs map[ids.CompletID]installRec
	departedTo  map[ids.CompletID]ids.CoreID
	recovered   uint64 // moves completed by recovery
	rolledBack  uint64 // moves rolled back by recovery
	// moveHook is the chaos-test crash hook (SetMoveStepHook); crashed is
	// set when the hook simulates a crash, silencing further journaling.
	moveHook func(MoveStep, ids.CompletID) bool
	crashed  bool

	wg sync.WaitGroup
}

// pendingMove is one source-side move between PREPARE and COMMIT/ABORT.
type pendingMove struct {
	epoch    uint64
	dest     ids.CoreID
	root     ids.CompletID
	complets []ids.CompletID
	// resolving serializes finishResolvedMove between Recover and the
	// background resolver: the one that loses the settle returns only after
	// the winner has released the local copies.
	resolving sync.Mutex
}

// moveKey identifies one movement attempt globally.
type moveKey struct {
	source ids.CoreID
	epoch  uint64
}

// installRec pairs a journaled INSTALL record with its position in the
// journal, so Restore can order the arrival against a checkpoint's
// JournalSeq: whichever was written later holds the complet's fresher state.
type installRec struct {
	rec *journal.Record
	at  uint64 // 0-based index of the record in the journal
}

// New constructs a core on the given transport. The registry holds the anchor
// types this core can instantiate and receive.
func New(tr transport.Transport, reg *registry.Registry, opts Options) (*Core, error) {
	if tr == nil || reg == nil {
		return nil, fmt.Errorf("core: transport and registry are required")
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	opts.Retry = opts.Retry.normalize()
	opts.Breaker = opts.Breaker.normalize()
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	wire.RegisterWireTypes()
	c := &Core{
		id:       tr.Self(),
		tr:       tr,
		reg:      reg,
		mint:     ids.NewCompletIDs(tr.Self()),
		opts:     opts,
		trackers: make(map[ids.CompletID]*tracker),
		byAnchor: make(map[any]*complet),
		names:    make(map[string]*ref.Ref),
		peers:    make(map[ids.CoreID]struct{}),
		breakers: make(map[ids.CoreID]*breaker),
		flight:   flight.New(opts.FlightRecorderSize),
		suspects: make(map[ids.CoreID]bool),

		pendingOut:       make(map[uint64]*pendingMove),
		pendingByComplet: make(map[ids.CompletID]uint64),
		installedIn:      make(map[moveKey]wire.MoveReply),
		installing:       make(map[moveKey]bool),
		refusedIn:        make(map[moveKey]struct{}),
		installRecs:      make(map[ids.CompletID]installRec),
		departedTo:       make(map[ids.CompletID]ids.CoreID),
	}
	c.installCond = sync.NewCond(&c.recMu)
	c.mon = newMonitor(c)
	c.tracer = trace.New(c.id.String(), trace.Options{
		SampleRate: opts.TraceSampleRate,
		BufferSize: opts.TraceBufferSize,
	})
	c.metrics = metrics.NewRegistry()
	c.met = newCoreMetrics(c.metrics)
	if ls, ok := tr.(transport.LogfSetter); ok {
		ls.SetLogf(opts.Logf)
	}
	if ms, ok := tr.(transport.MetricsSetter); ok {
		ms.SetMetrics(c.metrics)
	}
	if opts.JournalPath != "" {
		jn, records, err := journal.Open(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("core: move journal: %w", err)
		}
		c.jn = jn
		c.replayJournal(records)
	}
	tr.SetHandler(c.handle)
	return c, nil
}

// ID returns the core's identity.
func (c *Core) ID() ids.CoreID { return c.id }

// Registry returns the core's anchor type registry.
func (c *Core) Registry() *registry.Registry { return c.reg }

// Monitor returns the core's monitoring facility (profiling and events).
func (c *Core) Monitor() *Monitor { return c.mon }

// Tracer returns the core's distributed tracer (sampling control and the
// completed-span collector).
func (c *Core) Tracer() *trace.Tracer { return c.tracer }

// Metrics returns the core's metrics registry.
func (c *Core) Metrics() *metrics.Registry { return c.metrics }

// Shutdown announces the shutdown to peers (firing the coreShutdown event so
// relocation policies can evacuate complets), waits grace time for resulting
// movement, then stops the core and its transport.
func (c *Core) Shutdown(grace time.Duration) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	peers := make([]ids.CoreID, 0, len(c.peers))
	for p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()

	// Fire the local built-in event and notify peers, so listeners (e.g.
	// the reliability rule of the example script) can evacuate complets
	// during the grace period. Notices are best-effort: peers that are
	// already gone themselves simply miss the news.
	c.mon.fireBuiltin(EventCoreShutdown, ids.CompletID{}, "")
	for _, p := range peers {
		_ = c.tr.Notify(p, wire.KindShutdownNotice, nil)
	}
	if grace > 0 {
		time.Sleep(grace)
	}

	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()

	c.mon.close()
	err := c.tr.Close()
	c.wg.Wait()
	c.runShutdownHooks()
	c.closeJournal()
	return err
}

// ShutdownAbrupt stops the core immediately — no shutdown event, no notices,
// no grace. It simulates a crash for failure-detection tests and experiments
// (peers find out through heartbeats, not announcements).
func (c *Core) ShutdownAbrupt() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.mon.close()
	err := c.tr.Close()
	c.wg.Wait()
	c.runShutdownHooks()
	c.closeJournal()
	return err
}

// isClosed reports whether the core has shut down.
func (c *Core) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// notePeer records a core seen on the wire (for shutdown notices and the
// monitor's peer list).
func (c *Core) notePeer(p ids.CoreID) {
	if p == c.id || p.Nil() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peers[p] = struct{}{}
}

// SeedPeers records cores known from configuration (an address book) before
// any wire contact, so surfaces that enumerate the deployment — the monitor's
// peer list, the planner's dynamic membership — span it from startup.
func (c *Core) SeedPeers(peers ...ids.CoreID) {
	for _, p := range peers {
		c.notePeer(p)
	}
}

// Peers lists cores this core has communicated with.
func (c *Core) Peers() []ids.CoreID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ids.CoreID, 0, len(c.peers))
	for p := range c.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CoreAware is implemented by anchors that need access to their hosting
// core — e.g. to move themselves (§3.3) or to use the monitoring API. The
// runtime calls SetCore when the complet is installed, and again on every
// core it migrates to. SetCore must only store the pointer.
type CoreAware interface {
	SetCore(c *Core)
}

// --- repository ------------------------------------------------------------

// install registers a complet hosted by this core: its tracker's record
// becomes the new entry. A complet arriving in a movement bundle (live or
// re-installed from the journal) passes that bundle, whose accounting seeds
// its meters before the entry becomes visible.
func (c *Core) install(id ids.CompletID, typeName string, anchor any, bundle *wire.MoveRequest) *complet {
	if ca, ok := anchor.(CoreAware); ok {
		ca.SetCore(c)
	}
	entry := &complet{id: id, typeName: typeName, anchor: anchor}
	entry.meters.rate = stats.MustRateMeter(rateWindow, 20)
	if bundle != nil {
		c.seedMeters(entry, bundle)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	entry.t = c.trackers[id]
	if entry.t == nil {
		// The first record of a new tracker is the entry itself.
		entry.t = &tracker{}
		c.trackers[id] = entry.t
		c.nHosted++
	} else if old := entry.t.rec.Load().entry; old != nil {
		delete(c.byAnchor, old.anchor)
	} else {
		c.nHosted++
	}
	c.byAnchor[anchor] = entry
	entry.t.rec.Store(&location{entry: entry})
	return entry
}

// lookup returns the repository entry for a locally hosted complet.
func (c *Core) lookup(id ids.CompletID) (*complet, bool) {
	c.mu.Lock()
	t := c.trackers[id]
	c.mu.Unlock()
	if t == nil {
		return nil, false
	}
	entry := t.rec.Load().entry
	return entry, entry != nil
}

// remove unregisters a complet after it moved away, pointing its tracker at
// the destination and releasing its meters. It is the one place a complet
// leaves a core; callers hold the live entry's W-lock, so a reader blocked on
// it wakes to a tracker that already forwards.
func (c *Core) remove(entry *complet, movedTo ids.CoreID) {
	c.mu.Lock()
	delete(c.byAnchor, entry.anchor)
	c.nHosted--
	entry.t.rec.Store(&location{next: movedTo})
	c.mu.Unlock()
	c.releaseMeters(entry)
}

// hosted snapshots the repository entries.
func (c *Core) hosted() []*complet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hostedLocked()
}

// hostedLocked is hosted for callers holding c.mu.
func (c *Core) hostedLocked() []*complet {
	out := make([]*complet, 0, c.nHosted)
	for _, t := range c.trackers {
		if entry := t.rec.Load().entry; entry != nil {
			out = append(out, entry)
		}
	}
	return out
}

// refOfAnchor returns a reference to the hosted complet whose anchor v is.
// Only pointers can be anchors; references and other values are not.
func (c *Core) refOfAnchor(v any) (*ref.Ref, bool) {
	if _, isRef := v.(*ref.Ref); isRef || v == nil || reflect.TypeOf(v).Kind() != reflect.Pointer {
		return nil, false
	}
	c.mu.Lock()
	entry, ok := c.byAnchor[v]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return ref.New(entry.id, entry.typeName, c.id, c.binder()), true
}

// CompletCount returns the number of complets hosted by this core (the
// completLoad profiling measure, §4.1).
func (c *Core) CompletCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nHosted
}

// Complets lists the complets hosted by this core.
func (c *Core) Complets() []wire.CompletInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.CompletInfo, 0, c.nHosted)
	for _, entry := range c.hostedLocked() {
		info := wire.CompletInfo{ID: entry.id, TypeName: entry.typeName}
		for name, r := range c.names {
			if r.Target() == entry.id {
				info.Names = append(info.Names, name)
			}
		}
		sort.Strings(info.Names)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.String() < out[j].ID.String() })
	return out
}

// --- instantiation ---------------------------------------------------------

// NewComplet instantiates a complet of a registered type on this core and
// returns a reference to it. Mirrors Figure 3's `msg = new Message_(...)`.
func (c *Core) NewComplet(typeName string, args ...any) (*ref.Ref, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	if err := c.admit(1); err != nil {
		return nil, fmt.Errorf("core: new %s: %w", typeName, err)
	}
	anchor, err := c.reg.Instantiate(typeName, args)
	if err != nil {
		return nil, err
	}
	id := c.mint.Next()
	c.install(id, typeName, anchor, nil)
	return ref.New(id, typeName, c.id, c.binder()), nil
}

// NewCompletAt instantiates a complet on the named core (remote complet
// instantiation, §3). Arguments are passed by value, like invocation
// parameters. The call is bounded by the core's default request budget; use
// NewCompletAtCtx to supply a deadline or cancellation of your own.
func (c *Core) NewCompletAt(dest ids.CoreID, typeName string, args ...any) (*ref.Ref, error) {
	return c.NewCompletAtCtx(context.Background(), dest, typeName, args...)
}

// NewCompletAtCtx is NewCompletAt bounded by the caller's context. Trailing
// ref.InvokeOption values may ride args; they tune the call and are not
// passed to the constructor. Instantiation is not idempotent, so it is never
// retried: on failure the returned *InvokeError cause tells the caller
// whether the constructor may have run (remote error: yes, it did and
// failed; unreachable: unknown).
func (c *Core) NewCompletAtCtx(ctx context.Context, dest ids.CoreID, typeName string, args ...any) (*ref.Ref, error) {
	args, opts := ref.SplitOptions(args)
	if dest == c.id {
		return c.NewComplet(typeName, args...)
	}
	argBytes, _, err := wire.EncodeArgs(args)
	if err != nil {
		return nil, err
	}
	reply, err := call[wire.NewRequest, wire.NewReply](ctx, c, dest, wire.KindNew,
		wire.NewRequest{TypeName: typeName, Args: argBytes}, opts, nil)
	if err != nil {
		return nil, invokeErr(fmt.Sprintf("new %s at %s", typeName, dest), ids.CompletID{}, dest, err)
	}
	if reply.Err != "" {
		return nil, &peerError{msg: fmt.Sprintf("core: new %s at %s: %s", typeName, dest, reply.Err)}
	}
	r, err := ref.FromDescriptor(reply.Desc)
	if err != nil {
		return nil, err
	}
	r.Bind(c.binder())
	return r, nil
}

// RefOf returns a reference to a locally hosted complet given its anchor.
// Complets use it to refer to themselves — e.g. to pass themselves to Move
// (§3.3: "a complet can move itself simply by passing its anchor").
func (c *Core) RefOf(anchor any) (*ref.Ref, error) {
	if r, ok := c.refOfAnchor(anchor); ok {
		return r, nil
	}
	return nil, fmt.Errorf("core: %w: anchor %T not hosted here", ErrUnknownComplet, anchor)
}

// NewRefTo constructs a bound reference to a complet from its identity and a
// location hint (used by shells, scripts and experiments that hold raw IDs;
// stale hints are corrected by the tracker machinery on first use).
func (c *Core) NewRefTo(id ids.CompletID, anchorType string, hint ids.CoreID) *ref.Ref {
	r := ref.New(id, anchorType, hint, c.binder())
	c.trackerFor(id, hint)
	return r
}

// LocateComplet resolves the core currently hosting a complet, following and
// shortening tracker chains (the ID-based counterpart of MetaRef.Location).
func (c *Core) LocateComplet(id ids.CompletID) (ids.CoreID, error) {
	return c.LocateCompletCtx(context.Background(), id)
}

// LocateCompletCtx is LocateComplet bounded by the caller's context.
// Location queries are idempotent and retried per the core's retry policy
// (overridable via opts) on transient transport failures.
func (c *Core) LocateCompletCtx(ctx context.Context, id ids.CompletID, opts ...ref.InvokeOption) (ids.CoreID, error) {
	if c.isClosed() {
		return "", ErrClosed
	}
	o := ref.BuildCallOptions(opts)
	ctx, cancel := c.withBudget(ctx, o.Timeout)
	defer cancel()
	loc, err := c.locate(ctx, id, "", 0, o)
	if err != nil {
		return "", invokeErr(fmt.Sprintf("locate %s", id), id, "", err)
	}
	return loc, nil
}
