package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/stats"
	"fargo/internal/wire"
)

// Built-in (non-measurable) event names (§4.2).
const (
	// EventCompletArrived fires at a core when a complet is installed.
	EventCompletArrived = "completArrived"
	// EventCompletDeparted fires at a core when a complet moves away.
	EventCompletDeparted = "completDeparted"
	// EventCoreShutdown fires when a core announces shutdown — locally at
	// the dying core (and via notices at its peers, with Source naming
	// the dying core).
	EventCoreShutdown = "coreShutdown"
	// EventHopBudgetExceeded fires at the core where an invocation, locate
	// or move command exhausted the tracker-chain hop budget (a tracking
	// loop or a badly stale topology); Detail carries the operation.
	EventHopBudgetExceeded = "hopBudgetExceeded"
)

// Profiling service names (§4.1). Services taking arguments receive them as
// strings (complet IDs render via CompletID.String; cores by name).
const (
	// ServiceCompletLoad counts the complets residing in this core.
	ServiceCompletLoad = "completLoad"
	// ServiceMemory measures heap bytes in use by this core's process.
	ServiceMemory = "memory"
	// ServiceLatency measures the round-trip time to a peer core, in
	// milliseconds. Args: peer core name.
	ServiceLatency = "latency"
	// ServiceBandwidth estimates the transfer rate to a peer core, in
	// bytes/second. Args: peer core name.
	ServiceBandwidth = "bandwidth"
	// ServiceInvocationRate measures invocations/second observed at this
	// core. Args: target complet ID, or source + target complet IDs for
	// a single reference's rate.
	ServiceInvocationRate = "invocationRate"
	// ServiceInvocationCount counts invocations observed at this core for
	// a target complet. Args: target complet ID.
	ServiceInvocationCount = "invocationCount"
	// ServiceCompletSize measures the marshaled closure size of a local
	// complet, in bytes (expensive; instant use recommended, §4.1).
	// Args: complet ID.
	ServiceCompletSize = "completSize"
)

// defaultAlpha is the smoothing factor of continuous profiles.
const defaultAlpha = 0.3

// instantCacheTTL bounds how long cached instant measurements are served
// without re-evaluation (§4.1: "the monitor caches recent results").
const instantCacheTTL = 500 * time.Millisecond

// rateWindow is the sliding window of invocation-rate estimation.
const rateWindow = 10 * time.Second

// Event is a monitoring event delivered to listeners.
type Event struct {
	// Name is the event name: a profiling service or a built-in event.
	Name string
	// Value is the measured value for profiled events.
	Value float64
	// Source is the core that fired the event.
	Source ids.CoreID
	// Complet identifies the complet involved in layout events.
	Complet ids.CompletID
	// Detail carries event-specific extra data (e.g. movement
	// destination).
	Detail string
	// At is the fire time at the source.
	At time.Time
}

// Listener consumes events. Listeners run on dedicated goroutines; they may
// block without stalling the measurement units (§5).
type Listener func(Event)

// ServiceFunc measures one resource instantly. Applications can register
// additional services with Monitor.RegisterService.
type ServiceFunc func(args []string) (float64, error)

// profKey identifies one profiled measurement stream.
type profKey struct {
	service string
	args    string // joined with '\x00'
}

func newProfKey(service string, args []string) profKey {
	return profKey{service: service, args: strings.Join(args, "\x00")}
}

// profEntry is an interest-counted continuous profile (§4.1: the core
// monitors only resources some application has interest in).
type profEntry struct {
	sampler  *stats.Sampler
	interest int
	// ready closes once the creator's Start has taken the first sample (or
	// failed with err), so a party that joins the profile never sees it
	// without a sample.
	ready chan struct{}
	err   error
}

// cacheEntry is one cached instant measurement.
type cacheEntry struct {
	value float64
	at    time.Time
}

// subscription is one event registration.
type subscription struct {
	token     string
	event     string
	args      []string
	threshold float64
	above     bool
	interval  time.Duration
	profiled  bool

	// Exactly one of these delivery paths is set.
	fn         Listener      // local function listener
	completRef *ref.Ref      // complet listener: delivered by invocation
	method     string        //   ... method name on the complet
	subscriber ids.CoreID    //   remote core listener (delivered by EventNotify)
	stop       chan struct{} // profiled subscriptions: checker goroutine stop
	done       chan struct{}
	// remoteEndpoint marks the local delivery end of a SubscribeAt: it
	// receives only token-routed notifications, never local fires.
	remoteEndpoint bool
}

// Monitor is the Core's monitoring facility (§4): profiling services with
// instant and continuous interfaces, threshold events, built-in layout
// events, and distributed event delivery.
type Monitor struct {
	c *Core

	mu        sync.Mutex
	services  map[string]ServiceFunc
	profiles  map[profKey]*profEntry
	cache     map[profKey]cacheEntry
	subs      map[string]*subscription
	rateByDst map[ids.CompletID]*stats.RateMeter
	pairs     map[pairKey]*pairMeter
	countBy   map[ids.CompletID]*stats.Counter
	bytesIn   stats.Counter
	seq       ids.Sequencer
	closed    bool

	// Per-method SLO instruments (methodstats.go). Guarded by their own
	// RWMutex: the invoke hot path takes only a read lock per call once a
	// meter exists, and never contends with the profiling mutex above.
	methodsMu  sync.RWMutex
	methods    map[methodKey]*methodMeter
	methodsOff bool

	wg sync.WaitGroup
}

// pairKey identifies one directed reference edge (source complet → target
// complet). Keying on complet identity — not on the observing core or any
// tracker-local state — is what lets pair accounting survive relocation: when
// the target moves, its meters travel in the movement bundle under the same
// key (exportMeters/importMeters).
type pairKey struct {
	src, dst ids.CompletID
}

// pairMeter is the per-edge accounting: a windowed invocation-rate meter and
// the cumulative argument bytes carried on the edge (the planner's cost model
// weighs both).
type pairMeter struct {
	rate  *stats.RateMeter
	bytes stats.Counter
}

func newMonitor(c *Core) *Monitor {
	m := &Monitor{
		c:         c,
		services:  make(map[string]ServiceFunc),
		profiles:  make(map[profKey]*profEntry),
		cache:     make(map[profKey]cacheEntry),
		subs:      make(map[string]*subscription),
		rateByDst: make(map[ids.CompletID]*stats.RateMeter),
		pairs:     make(map[pairKey]*pairMeter),
		countBy:   make(map[ids.CompletID]*stats.Counter),
		methods:   make(map[methodKey]*methodMeter),
	}
	m.methodsOff = c.opts.DisablePerMethodStats
	m.services[ServiceCompletLoad] = m.svcCompletLoad
	m.services[ServiceMemory] = m.svcMemory
	m.services[ServiceLatency] = m.svcLatency
	m.services[ServiceBandwidth] = m.svcBandwidth
	m.services[ServiceInvocationRate] = m.svcInvocationRate
	m.services[ServiceInvocationCount] = m.svcInvocationCount
	m.services[ServiceCompletSize] = m.svcCompletSize
	m.services[ServiceCapacityFree] = func([]string) (float64, error) {
		return float64(m.c.capacityFree()), nil
	}
	return m
}

func (m *Monitor) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	subs := make([]*subscription, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.subs = make(map[string]*subscription)
	profiles := m.profiles
	m.profiles = make(map[profKey]*profEntry)
	m.mu.Unlock()

	for _, s := range subs {
		if s.stop != nil {
			close(s.stop)
			<-s.done
		}
	}
	for _, p := range profiles {
		p.sampler.Stop()
	}
	m.wg.Wait()
}

// RegisterService adds an application-defined profiling service. Built-in
// service names cannot be replaced.
func (m *Monitor) RegisterService(name string, fn ServiceFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("monitor: service name and func required")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.services[name]; dup {
		return fmt.Errorf("monitor: service %q already registered", name)
	}
	m.services[name] = fn
	return nil
}

// Services lists the registered profiling services.
func (m *Monitor) Services() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.services))
	for s := range m.services {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// --- instant interface ------------------------------------------------------

// Instant measures a service right now, serving recent cached results without
// re-evaluation (§4.1).
func (m *Monitor) Instant(service string, args ...string) (float64, error) {
	key := newProfKey(service, args)
	m.mu.Lock()
	if e, ok := m.cache[key]; ok && time.Since(e.at) < instantCacheTTL {
		m.mu.Unlock()
		return e.value, nil
	}
	fn, ok := m.services[service]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("monitor: unknown service %q", service)
	}
	v, err := fn(args)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.cache[key] = cacheEntry{value: v, at: time.Now()}
	m.mu.Unlock()
	return v, nil
}

// InstantAt measures a service at a remote core.
func (m *Monitor) InstantAt(core ids.CoreID, service string, args ...string) (float64, error) {
	if core == m.c.id {
		return m.Instant(service, args...)
	}
	reply, err := call[wire.ProfileQuery, wire.ProfileQueryReply](context.Background(), m.c, core, wire.KindProfileQuery,
		wire.ProfileQuery{Service: service, Args: args}, ref.CallOptions{}, nil)
	if err != nil {
		return 0, fmt.Errorf("monitor: query %s: %w", service, err)
	}
	if reply.Err != "" {
		return 0, fmt.Errorf("monitor: query %s at %s: %s", service, core, reply.Err)
	}
	return reply.Value, nil
}

// serveProfileQuery answers a peer's instant measurement.
func (m *Monitor) serveProfileQuery(_ context.Context, req wire.ProfileQuery) (wire.ProfileQueryReply, error) {
	v, err := m.Instant(req.Service, req.Args...)
	if err != nil {
		return wire.ProfileQueryReply{Err: err.Error()}, nil
	}
	return wire.ProfileQueryReply{Value: v}, nil
}

// --- continuous interface ----------------------------------------------------

// Start begins (or joins) continuous profiling of a service at the given
// interval, returning an exponential average through Get. Interest is
// counted: the sampler stops only when every interested party called Stop
// (§4.1). Once Start returns nil, Get has a sample: a party joining a
// profile that is still starting waits for the creator's first sample, or
// receives its error.
func (m *Monitor) Start(interval time.Duration, service string, args ...string) error {
	if interval <= 0 {
		return fmt.Errorf("monitor: interval must be positive")
	}
	key := newProfKey(service, args)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if e, ok := m.profiles[key]; ok {
		e.interest++
		m.mu.Unlock()
		<-e.ready
		return e.err
	}
	fn, ok := m.services[service]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	argsCopy := append([]string(nil), args...)
	sampler, err := stats.NewSampler(func() (float64, error) { return fn(argsCopy) }, defaultAlpha)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	entry := &profEntry{sampler: sampler, interest: 1, ready: make(chan struct{})}
	m.profiles[key] = entry
	m.mu.Unlock()

	// The sampler takes a synchronous first sample, and service functions
	// may need the monitor mutex (e.g. invocationRate) — so it must start
	// outside the lock. Parties that joined meanwhile wait on ready.
	if entry.err = sampler.Start(interval); entry.err != nil {
		m.mu.Lock()
		if m.profiles[key] == entry {
			delete(m.profiles, key)
		}
		m.mu.Unlock()
	}
	close(entry.ready)
	return entry.err
}

// Get returns the current exponential average of a continuously profiled
// service. The service must have been started.
func (m *Monitor) Get(service string, args ...string) (float64, error) {
	key := newProfKey(service, args)
	m.mu.Lock()
	e, ok := m.profiles[key]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("monitor: service %q (args %v) is not being profiled", service, args)
	}
	v, has := e.sampler.Value()
	if !has {
		return 0, fmt.Errorf("monitor: service %q has no samples yet", service)
	}
	return v, nil
}

// Stop releases one interest in a continuous profile; the sampler terminates
// when no interest remains.
func (m *Monitor) Stop(service string, args ...string) {
	key := newProfKey(service, args)
	m.mu.Lock()
	e, ok := m.profiles[key]
	if ok {
		e.interest--
		if e.interest > 0 {
			m.mu.Unlock()
			return
		}
		delete(m.profiles, key)
	}
	m.mu.Unlock()
	if ok {
		e.sampler.Stop()
	}
}

// ProfiledCount reports how many continuous profiles are active (test
// support for interest counting).
func (m *Monitor) ProfiledCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.profiles)
}

// --- built-in service implementations ----------------------------------------

func (m *Monitor) svcCompletLoad([]string) (float64, error) {
	return float64(m.c.CompletCount()), nil
}

func (m *Monitor) svcMemory([]string) (float64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse), nil
}

func (m *Monitor) svcLatency(args []string) (float64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("monitor: latency takes one argument (peer core)")
	}
	rtt, err := m.pingRTT(ids.CoreID(args[0]), 16)
	if err != nil {
		return 0, err
	}
	return float64(rtt.Microseconds()) / 1000.0, nil // milliseconds
}

func (m *Monitor) svcBandwidth(args []string) (float64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("monitor: bandwidth takes one argument (peer core)")
	}
	peer := ids.CoreID(args[0])
	const (
		smallSize = 64
		largeSize = 256 << 10 // 256 KiB probe
	)
	small, err := m.pingRTT(peer, smallSize)
	if err != nil {
		return 0, err
	}
	large, err := m.pingRTT(peer, largeSize)
	if err != nil {
		return 0, err
	}
	delta := large - small
	if delta <= 0 {
		// Below measurement resolution: effectively unconstrained on
		// this probe size — report the probe moved within the small
		// RTT as a floor.
		delta = time.Microsecond
	}
	return float64(largeSize-smallSize) / delta.Seconds(), nil
}

// pingRTT measures one request/response round trip carrying n payload bytes.
func (m *Monitor) pingRTT(peer ids.CoreID, n int) (time.Duration, error) {
	payload, err := wire.EncodePayload(wire.Ping{Seq: m.seq.Next(), Payload: make([]byte, n)})
	if err != nil {
		return 0, err
	}
	// No retries here: a transparently retried probe would report the sum
	// of attempts as one RTT and corrupt the latency/bandwidth profile. The
	// clock covers the transport round trip only, not the payload codec.
	ctx, cancel := m.c.withBudget(context.Background(), 0)
	defer cancel()
	start := time.Now()
	if _, err := m.c.requestOpts(ctx, peer, wire.KindPing, payload, ref.CallOptions{NoRetry: true}); err != nil {
		return 0, fmt.Errorf("monitor: ping %s: %w", peer, err)
	}
	return time.Since(start), nil
}

func (m *Monitor) svcInvocationRate(args []string) (float64, error) {
	switch len(args) {
	case 1:
		m.mu.Lock()
		meter, ok := m.rateByDst[mustParseComplet(args[0])]
		m.mu.Unlock()
		if !ok {
			return 0, nil
		}
		return meter.Rate(), nil
	case 2:
		// Keyed on parsed complet identity (not the raw strings), so the
		// measurement is the same edge regardless of which core hosts the
		// target right now.
		key := pairKey{src: mustParseComplet(args[0]), dst: mustParseComplet(args[1])}
		m.mu.Lock()
		pm, ok := m.pairs[key]
		m.mu.Unlock()
		if !ok {
			return 0, nil
		}
		return pm.rate.Rate(), nil
	default:
		return 0, fmt.Errorf("monitor: invocationRate takes (target) or (source, target)")
	}
}

func (m *Monitor) svcInvocationCount(args []string) (float64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("monitor: invocationCount takes one argument (target)")
	}
	m.mu.Lock()
	ctr, ok := m.countBy[mustParseComplet(args[0])]
	m.mu.Unlock()
	if !ok {
		return 0, nil
	}
	return float64(ctr.Value()), nil
}

func (m *Monitor) svcCompletSize(args []string) (float64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("monitor: completSize takes one argument (complet)")
	}
	id := mustParseComplet(args[0])
	entry, ok := m.c.lookup(id)
	if !ok {
		return 0, fmt.Errorf("monitor: %w: %s", ErrUnknownComplet, id)
	}
	entry.moveMu.RLock()
	defer entry.moveMu.RUnlock()
	if entry.gone {
		return 0, fmt.Errorf("monitor: %w: %s", ErrUnknownComplet, id)
	}
	data, _, err := wire.EncodeArgs([]any{entry.anchor})
	if err != nil {
		return 0, err
	}
	return float64(len(data)), nil
}

// mustParseComplet parses a CompletID rendered by CompletID.String
// ("birth/#seq"); malformed strings yield the zero ID (which matches no
// meter).
func mustParseComplet(s string) ids.CompletID {
	i := strings.LastIndex(s, "/#")
	if i < 0 {
		return ids.CompletID{}
	}
	var seq uint64
	if _, err := fmt.Sscanf(s[i+2:], "%d", &seq); err != nil {
		return ids.CompletID{}
	}
	return ids.CompletID{Birth: ids.CoreID(s[:i]), Seq: seq}
}

// recordInvocation feeds the application-profiling meters (§4.1). It is on
// the invocation hot path; meters are created lazily.
func (m *Monitor) recordInvocation(source, target ids.CompletID, typeName, method string, argBytes int) {
	m.mu.Lock()
	meter, ok := m.rateByDst[target]
	if !ok {
		meter = stats.MustRateMeter(rateWindow, 20)
		m.rateByDst[target] = meter
	}
	ctr, ok := m.countBy[target]
	if !ok {
		ctr = &stats.Counter{}
		m.countBy[target] = ctr
	}
	var pm *pairMeter
	if !source.Nil() {
		key := pairKey{src: source, dst: target}
		pm, ok = m.pairs[key]
		if !ok {
			pm = &pairMeter{rate: stats.MustRateMeter(rateWindow, 20)}
			m.pairs[key] = pm
		}
	}
	m.mu.Unlock()

	meter.Mark(1)
	ctr.Inc()
	if pm != nil {
		pm.rate.Mark(1)
		pm.bytes.Add(uint64(argBytes))
	}
	m.bytesIn.Add(uint64(argBytes))
}

// InvocationBytes returns the cumulative argument bytes received by this
// core's invocation unit.
func (m *Monitor) InvocationBytes() uint64 { return m.bytesIn.Value() }

// --- planner support ---------------------------------------------------------

// PairStats snapshots every per-reference meter observed at this core as
// directed communication-graph edges, sorted deterministically. The layout
// planner's collector aggregates these across member cores (DESIGN.md §14).
func (m *Monitor) PairStats() []wire.PairStat {
	m.mu.Lock()
	keys := make([]pairKey, 0, len(m.pairs))
	meters := make([]*pairMeter, 0, len(m.pairs))
	for k, pm := range m.pairs {
		keys = append(keys, k)
		meters = append(meters, pm)
	}
	m.mu.Unlock()
	out := make([]wire.PairStat, 0, len(keys))
	for i, k := range keys {
		pm := meters[i]
		out = append(out, wire.PairStat{
			Src:   k.src,
			Dst:   k.dst,
			Rate:  pm.rate.Rate(),
			Count: pm.rate.Count(),
			Bytes: pm.bytes.Value(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src.String() < out[j].Src.String()
		}
		return out[i].Dst.String() < out[j].Dst.String()
	})
	return out
}

// exportMeters snapshots the invocation-accounting state of the given
// complets for shipment inside a movement bundle: their lifetime counts,
// windowed counts, and the per-source pair meters whose destination is a
// departing complet. Pair meters whose *source* departs stay put — they are
// recorded at the core hosting the destination, which is not moving.
func (m *Monitor) exportMeters(targets []ids.CompletID) []wire.MeterState {
	if len(targets) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wire.MeterState, 0, len(targets))
	for _, t := range targets {
		st := wire.MeterState{Target: t}
		if ctr, ok := m.countBy[t]; ok {
			st.Count = ctr.Value()
		}
		if meter, ok := m.rateByDst[t]; ok {
			st.Window = meter.Count()
		}
		for k, pm := range m.pairs {
			if k.dst != t {
				continue
			}
			st.Pairs = append(st.Pairs, wire.PairMeterState{
				Src:    k.src,
				Window: pm.rate.Count(),
				Bytes:  pm.bytes.Value(),
			})
		}
		if st.Count == 0 && st.Window == 0 && len(st.Pairs) == 0 {
			continue
		}
		sort.Slice(st.Pairs, func(i, j int) bool {
			return st.Pairs[i].Src.String() < st.Pairs[j].Src.String()
		})
		out = append(out, st)
	}
	return out
}

// importMeters merges meter state shipped with a movement bundle into this
// core's accounting, under the complets' unchanged identities. Windowed
// counts land in the current bucket — a coarse placement within the window,
// but the window total (what rates and the planner's edge weights read) is
// exact.
func (m *Monitor) importMeters(states []wire.MeterState) {
	for _, st := range states {
		m.mu.Lock()
		meter, ok := m.rateByDst[st.Target]
		if !ok {
			meter = stats.MustRateMeter(rateWindow, 20)
			m.rateByDst[st.Target] = meter
		}
		ctr, ok := m.countBy[st.Target]
		if !ok {
			ctr = &stats.Counter{}
			m.countBy[st.Target] = ctr
		}
		pms := make([]*pairMeter, len(st.Pairs))
		for i, p := range st.Pairs {
			key := pairKey{src: p.Src, dst: st.Target}
			pm, ok := m.pairs[key]
			if !ok {
				pm = &pairMeter{rate: stats.MustRateMeter(rateWindow, 20)}
				m.pairs[key] = pm
			}
			pms[i] = pm
		}
		m.mu.Unlock()

		if st.Window > 0 {
			meter.Mark(st.Window)
		}
		ctr.Add(st.Count)
		for i, p := range st.Pairs {
			if p.Window > 0 {
				pms[i].rate.Mark(p.Window)
			}
			pms[i].bytes.Add(p.Bytes)
		}
	}
}

// dropMeters discards the accounting of complets that moved away, so the
// departed state is counted at exactly one core (its new host).
func (m *Monitor) dropMeters(targets []ids.CompletID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range targets {
		delete(m.rateByDst, t)
		delete(m.countBy, t)
		for k := range m.pairs {
			if k.dst == t {
				delete(m.pairs, k)
			}
		}
	}
}
