package transport

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/stats"
	"fargo/internal/wire"
)

// ErrInjectedPartition is the failure delivered for requests and notifies to
// a peer the Faulty wrapper has hard-partitioned away. It models a connection
// refused / host unreachable error: the message never left this host.
var ErrInjectedPartition = errors.New("transport: injected partition")

// faultPlan is the per-peer fault configuration. The zero value injects
// nothing.
type faultPlan struct {
	// partition fails every send to the peer immediately.
	partition bool
	// drop is the probability (0..1) that a message is silently lost:
	// requests black-hole until their context expires (the peer never saw
	// them), notifies vanish without an error.
	drop float64
	// delay is added to every message before it is handed to the inner
	// transport.
	delay time.Duration
	// duplicate is the probability (0..1) that a message is delivered
	// twice, exercising the receiver's tolerance to redelivery.
	duplicate float64
}

// Faulty wraps any Transport — TCP included, not just the simulator — with
// per-peer fault injection: probabilistic message drop, added delay,
// duplication, and hard partitions. It is the harness chaos and
// failure-recovery tests run under; production code never constructs one.
//
// Faults apply to OUTBOUND traffic only (requests and notifies this side
// initiates). For a symmetric partition, wrap both peers' transports and cut
// both directions. All controls are safe for concurrent use and take effect
// for the next message.
type Faulty struct {
	inner Transport

	// Injection counters are always on (a chaos run must be able to report
	// what it actually injected) and mirrored into the core's metrics
	// registry when one is attached via SetMetrics.
	dropped     stats.Counter
	delayed     stats.Counter
	duplicated  stats.Counter
	partitioned stats.Counter
	met         atomic.Pointer[faultMetrics]

	mu    sync.Mutex
	rng   *rand.Rand
	plans map[ids.CoreID]faultPlan
	logf  func(format string, args ...any)
}

// faultMetrics caches the registry instruments mirroring the wrapper's own
// counters.
type faultMetrics struct {
	dropped     *stats.Counter
	delayed     *stats.Counter
	duplicated  *stats.Counter
	partitioned *stats.Counter
}

// FaultCounts reports how many faults the wrapper has injected since
// construction. Messages both delayed and duplicated count under each.
type FaultCounts struct {
	// Dropped messages were silently lost (requests black-holed, notifies
	// vanished).
	Dropped uint64
	// Delayed messages were shipped late by the configured per-peer delay.
	Delayed uint64
	// Duplicated messages were delivered twice.
	Duplicated uint64
	// Partitioned messages were refused outright (ErrInjectedPartition).
	Partitioned uint64
}

// Counts returns the injection totals. Chaos tests assert against these; the
// same numbers flow into the metrics registry as transport_fault_* counters.
func (f *Faulty) Counts() FaultCounts {
	return FaultCounts{
		Dropped:     f.dropped.Value(),
		Delayed:     f.delayed.Value(),
		Duplicated:  f.duplicated.Value(),
		Partitioned: f.partitioned.Value(),
	}
}

// SetMetrics implements MetricsSetter: injected faults become
// transport_fault_* counters, and the inner transport's traffic counters are
// wired up too.
func (f *Faulty) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		f.met.Store(nil)
	} else {
		f.met.Store(&faultMetrics{
			dropped:     reg.Counter("transport_fault_dropped_total"),
			delayed:     reg.Counter("transport_fault_delayed_total"),
			duplicated:  reg.Counter("transport_fault_duplicated_total"),
			partitioned: reg.Counter("transport_fault_partitioned_total"),
		})
	}
	if ms, ok := f.inner.(MetricsSetter); ok {
		ms.SetMetrics(reg)
	}
}

func (f *Faulty) countDrop() {
	f.dropped.Inc()
	if m := f.met.Load(); m != nil {
		m.dropped.Inc()
	}
}

func (f *Faulty) countDelay() {
	f.delayed.Inc()
	if m := f.met.Load(); m != nil {
		m.delayed.Inc()
	}
}

func (f *Faulty) countDup() {
	f.duplicated.Inc()
	if m := f.met.Load(); m != nil {
		m.duplicated.Inc()
	}
}

func (f *Faulty) countPartition() {
	f.partitioned.Inc()
	if m := f.met.Load(); m != nil {
		m.partitioned.Inc()
	}
}

var _ Transport = (*Faulty)(nil)

// NewFaulty wraps the inner transport. The seed drives the probabilistic
// faults, making chaos runs reproducible.
func NewFaulty(inner Transport, seed int64) *Faulty {
	return &Faulty{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		plans: make(map[ids.CoreID]faultPlan),
		logf:  log.Printf,
	}
}

// Inner returns the wrapped transport.
func (f *Faulty) Inner() Transport { return f.inner }

// SetLogf redirects the wrapper's fault diagnostics and threads the logger
// through to the inner transport when it supports redirection.
func (f *Faulty) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = log.Printf
	}
	f.mu.Lock()
	f.logf = logf
	f.mu.Unlock()
	if ls, ok := f.inner.(LogfSetter); ok {
		ls.SetLogf(logf)
	}
}

// Partition cuts (or heals) the outbound path to the peer.
func (f *Faulty) Partition(peer ids.CoreID, cut bool) {
	f.update(peer, func(p *faultPlan) { p.partition = cut })
}

// SetDrop sets the probability (0..1) that a message to the peer is lost.
func (f *Faulty) SetDrop(peer ids.CoreID, prob float64) {
	f.update(peer, func(p *faultPlan) { p.drop = clamp01(prob) })
}

// SetDelay adds a fixed delay to every message to the peer.
func (f *Faulty) SetDelay(peer ids.CoreID, d time.Duration) {
	f.update(peer, func(p *faultPlan) { p.delay = d })
}

// SetDuplicate sets the probability (0..1) that a message to the peer is
// delivered twice.
func (f *Faulty) SetDuplicate(peer ids.CoreID, prob float64) {
	f.update(peer, func(p *faultPlan) { p.duplicate = clamp01(prob) })
}

// Clear removes all injected faults for the peer.
func (f *Faulty) Clear(peer ids.CoreID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.plans, peer)
}

// ClearAll removes every injected fault.
func (f *Faulty) ClearAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plans = make(map[ids.CoreID]faultPlan)
}

func (f *Faulty) update(peer ids.CoreID, mut func(*faultPlan)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.plans[peer]
	mut(&p)
	f.plans[peer] = p
}

// decide reads the peer's plan and rolls the probabilistic faults once.
func (f *Faulty) decide(peer ids.CoreID) (p faultPlan, drop, dup bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = f.plans[peer]
	drop = p.drop > 0 && f.rng.Float64() < p.drop
	dup = p.duplicate > 0 && f.rng.Float64() < p.duplicate
	return p, drop, dup
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Self implements Transport.
func (f *Faulty) Self() ids.CoreID { return f.inner.Self() }

// SetHandler implements Transport.
func (f *Faulty) SetHandler(h Handler) { f.inner.SetHandler(h) }

// Close implements Transport.
func (f *Faulty) Close() error { return f.inner.Close() }

// Request implements Transport with fault injection. A partitioned peer fails
// immediately (the message never left); a dropped request black-holes until
// the caller's context expires, exactly like a request a dead peer swallowed;
// a duplicated request is delivered a second time in the background with its
// reply discarded, so the peer's handler runs twice.
func (f *Faulty) Request(ctx context.Context, to ids.CoreID, kind wire.Kind, payload []byte) (wire.Envelope, error) {
	plan, drop, dup := f.decide(to)
	if plan.partition {
		f.countPartition()
		return wire.Envelope{}, fmt.Errorf("faulty transport: request %s to %s: %w", kind, to, ErrInjectedPartition)
	}
	if plan.delay > 0 {
		f.countDelay()
		t := time.NewTimer(plan.delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return wire.Envelope{}, fmt.Errorf("faulty transport: request %s to %s: %w", kind, to, ctx.Err())
		}
	}
	if drop {
		f.countDrop()
		f.logfFn()("fargo faulty transport %s: dropping request %s to %s", f.Self(), kind, to)
		<-ctx.Done()
		return wire.Envelope{}, fmt.Errorf("faulty transport: request %s to %s dropped: %w", kind, to, ctx.Err())
	}
	if dup {
		f.countDup()
		f.logfFn()("fargo faulty transport %s: duplicating request %s to %s", f.Self(), kind, to)
		go func() {
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = f.inner.Request(dctx, to, kind, payload)
		}()
	}
	return f.inner.Request(ctx, to, kind, payload)
}

// Notify implements Transport with fault injection. Dropped notifies vanish
// silently (one-way messages carry no delivery guarantee); delayed notifies
// are shipped from a background goroutine so the caller is not stalled.
func (f *Faulty) Notify(to ids.CoreID, kind wire.Kind, payload []byte) error {
	plan, drop, dup := f.decide(to)
	if plan.partition {
		f.countPartition()
		return fmt.Errorf("faulty transport: notify %s to %s: %w", kind, to, ErrInjectedPartition)
	}
	if drop {
		f.countDrop()
		f.logfFn()("fargo faulty transport %s: dropping notify %s to %s", f.Self(), kind, to)
		return nil
	}
	sends := 1
	if dup {
		f.countDup()
		sends = 2
	}
	if plan.delay > 0 {
		f.countDelay()
		go func() {
			time.Sleep(plan.delay)
			for i := 0; i < sends; i++ {
				if err := f.inner.Notify(to, kind, payload); err != nil {
					f.logfFn()("fargo faulty transport %s: delayed notify %s to %s: %v", f.Self(), kind, to, err)
					return
				}
			}
		}()
		return nil
	}
	for i := 0; i < sends; i++ {
		if err := f.inner.Notify(to, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

func (f *Faulty) logfFn() func(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logf
}
