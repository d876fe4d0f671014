package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fargo/internal/core"
	"fargo/internal/ids"
	"fargo/internal/ref"
)

const (
	keysPerStore = 512  // preloaded keys per KVStore
	valueSize    = 64   // bytes per value
	valuePool    = 1024 // distinct values Put draws from
	warmOps      = 2000 // invocations per caller before timing starts
	moveEvery    = 64   // caller invocations per relocation (README.md)
	probeBlock   = 32   // probe moves after each block
	blockLen     = time.Second
	minBlockP99  = 1000 // ≥ 10 samples beyond each block's p99
	minBlockP50  = 20   // samples a block needs for its median to count
	recCap       = 1 << 19
)

// spec describes one workload: where its cores, complets, callers and
// mover sit. All complets are demo KVStores.
type spec struct {
	name    string
	cores   []string
	callers int
	stores  int
	// home is the core a store is created on; callers and the mover
	// always hold their references on core "a".
	home     func(store int) string
	storesOf func(caller int) []int
	// relocate: a mover relocates stores between pair during the window.
	// Otherwise the probe between blocks moves the last store, which no
	// caller uses, between pair, two cores other than the callers' core "a",
	// so every probed move has the same shape.
	relocate bool
	// race lets callers invoke the store the mover is relocating. Without
	// it the mover takes the store out of the callers' choice for the move,
	// and right after it issues one invocation through the callers' stale
	// reference (README.md, "Failures and the invoke/move race").
	race bool
	pair [2]string
}

var specs = []spec{
	{
		name:     "colocated_kv",
		cores:    []string{"a", "p", "q"},
		callers:  2,
		stores:   3,
		home:     func(s int) string { return []string{"a", "a", "p"}[s] },
		storesOf: func(c int) []int { return []int{c} },
		pair:     [2]string{"p", "q"},
	},
	{
		name:     "remote_kv",
		cores:    []string{"a", "b", "p"},
		callers:  2,
		stores:   3,
		home:     func(int) string { return "b" },
		storesOf: func(c int) []int { return []int{c} },
		pair:     [2]string{"b", "p"},
	},
	{
		name:     "relocate_kv",
		cores:    []string{"a", "b", "c"},
		callers:  1,
		stores:   4,
		home:     func(s int) string { return []string{"b", "c"}[s%2] },
		storesOf: func(int) []int { return []int{0, 1, 2, 3} },
		relocate: true,
		pair:     [2]string{"b", "c"},
	},
	{
		name:     "relocate_race",
		cores:    []string{"a", "b", "c"},
		callers:  1,
		stores:   4,
		home:     func(s int) string { return []string{"b", "c"}[s%2] },
		storesOf: func(int) []int { return []int{0, 1, 2, 3} },
		relocate: true,
		race:     true,
		pair:     [2]string{"b", "c"},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs are the generated keys and values every workload draws from; the
// same seed yields the same inputs.
type inputs struct {
	keys   []string
	values []string
}

func newInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{keys: make([]string, keysPerStore), values: make([]string, valuePool)}
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("k%03d", i)
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	buf := make([]byte, valueSize)
	for i := range in.values {
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		in.values[i] = string(buf)
	}
	return in
}

// cell is the model of one key: the values a Get may legitimately return.
// It holds one value, except after a failed Put, when the Put may or may
// not have taken effect until a later Get or Put settles it.
type cell []string

func (c cell) allows(v string) bool {
	for _, w := range c {
		if w == v {
			return true
		}
	}
	return false
}

// opRec is one timed invocation: start since the window origin, duration.
type opRec struct {
	start  int64
	dur    int32 // nanoseconds; an invocation over 2.1 s saturates
	failed bool
}

// moveRec is one timed relocation.
type moveRec struct {
	start, dur int64
	failed     bool
}

// caller is one closed-loop client: it issues its next invocation only
// after the previous one returns, and never retries a failed one.
type caller struct {
	idx    int
	rng    *rand.Rand
	stores []int        // indexes into env.refs; no other caller uses them
	owner  *mover       // the mover whose follow-up invocations this issues
	done   atomic.Int64 // invocations issued so far (the mover's clock)
	recs   []opRec
	spans  []span
	failed int64
	wrong  error
}

// env is one set-up instance of a workload, ready to run.
type env struct {
	sp     spec
	seed   int64
	in     inputs
	cl     *cluster
	ids    []ids.CompletID
	refs   []*ref.Ref // held on core "a", one per store
	models [][]cell
	// moving holds one lock per store when the mover must not overlap a
	// caller's invocation of the store it relocates: callers hold it shared
	// for an invocation, the mover exclusively for a move.
	moving  []sync.RWMutex
	callers []*caller
	mv      *mover
	workDir string
}

// setUp starts the cores, creates and preloads the complets and warms the
// path up. Everything here is fixed work for a given seed.
func setUp(sp spec, seed int64, in inputs, workDir string) (*env, error) {
	cl, err := newCluster(sp.cores)
	if err != nil {
		return nil, err
	}
	e := &env{sp: sp, seed: seed, in: in, cl: cl, workDir: workDir}
	a := cl.core("a")
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for s := 0; s < sp.stores; s++ {
		r, err := a.NewCompletAt(ids.CoreID(sp.home(s)), "KVStore")
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("create store %d: %w", s, err)
		}
		e.refs = append(e.refs, r)
		e.ids = append(e.ids, r.Target())
		model := make([]cell, keysPerStore)
		for k, key := range in.keys {
			v := in.values[rng.Intn(len(in.values))]
			if _, err := r.Invoke("Put", key, v); err != nil {
				cl.close()
				return nil, fmt.Errorf("preload store %d: %w", s, err)
			}
			model[k] = cell{v}
		}
		e.models = append(e.models, model)
	}
	for c := 0; c < sp.callers; c++ {
		e.callers = append(e.callers, &caller{
			idx:    c,
			rng:    rand.New(rand.NewSource(seed*7919 + int64(c))),
			stores: sp.storesOf(c),
			recs:   make([]opRec, 0, recCap),
		})
	}
	if sp.relocate {
		if !sp.race {
			e.moving = make([]sync.RWMutex, sp.stores)
		}
		e.mv = e.newMover(allStores(sp.stores))
	}
	if _, err := e.drive(warmOps, 0, false); err != nil {
		cl.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func allStores(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (e *env) close() { e.cl.close() }

// step issues one invocation from the seeded mix (80% Get, 20% Put) and
// checks a Get against the model. While the mover holds the drawn store, the
// invocation goes to the caller's next store instead.
func (e *env) step(c *caller, origin time.Time, record, traced bool) {
	i := c.rng.Intn(len(c.stores))
	k := c.rng.Intn(keysPerStore)
	put := c.rng.Intn(5) == 0
	var v string
	if put {
		v = e.in.values[c.rng.Intn(len(e.in.values))]
	}
	s := c.stores[i]
	if e.moving != nil && c.owner == nil {
		for !e.moving[s].TryRLock() {
			i = (i + 1) % len(c.stores)
			s = c.stores[i]
		}
		defer e.moving[s].RUnlock()
	}
	r := e.refs[s]
	key := e.in.keys[k]
	t0 := time.Now()
	var res []any
	var err error
	if put {
		_, err = r.Invoke("Put", key, v)
	} else {
		res, err = r.Invoke("Get", key)
	}
	t1 := time.Now()
	c.done.Add(1)
	model := e.models[s]
	switch {
	case err != nil:
		c.failed++
		if put {
			model[k] = append(model[k], v)
		}
	case put:
		model[k] = append(model[k][:0], v)
	default:
		got, ok := single[string](res)
		if !ok || !model[k].allows(got) {
			if c.wrong == nil {
				c.wrong = fmt.Errorf("caller %d: store %d Get(%s) = %v, want one of %q", c.idx, s, key, res, []string(model[k]))
			}
		} else if len(model[k]) > 1 {
			model[k] = cell{got}
		}
	}
	if !record {
		return
	}
	start, dur := t0.Sub(origin).Nanoseconds(), t1.Sub(t0).Nanoseconds()
	c.recs = append(c.recs, opRec{start: start, dur: int32(min(dur, math.MaxInt32)), failed: err != nil})
	if traced {
		name := spanGet
		if put {
			name = spanPut
		}
		c.spans = append(c.spans, span{name: name, op: uint64(c.idx)<<40 | uint64(len(c.recs)), parent: -1, start: start, end: start + dur})
	}
}

// window is what one timed stretch of the workload measured.
type window struct {
	origin    time.Time
	elapsed   time.Duration
	ops       []opRec
	moves     []moveRec
	after     []opRec    // the invocation right after each move, if paired
	bounds    []boundary // block boundaries, the first at the origin
	mallocs   uint64
	allocB    uint64
	numGC     uint32
	gcCPU     float64 // seconds of GC CPU
	totalCPU  float64 // seconds of all CPU, per runtime/metrics
	failedOps int64
	failedMv  int64
	spans     []span
}

// boundary is a block edge: time since the window origin and process CPU.
type boundary struct {
	at  int64
	cpu int64
}

// drive runs every caller (and the mover, if any) either for n invocations
// each (n > 0, untimed warm-up) or for duration d (timed window).
func (e *env) drive(n int, d time.Duration, tr bool) (*window, error) {
	record := n == 0
	w := &window{}
	for _, c := range e.callers {
		c.recs = c.recs[:0]
		c.spans = c.spans[:0]
		c.failed = 0
	}
	if e.mv != nil {
		e.mv.reset()
	}
	var ms0 runtime.MemStats
	if record {
		runtime.ReadMemStats(&ms0)
	}
	gc0, tot0 := cpuClasses()
	w.origin = time.Now()
	w.bounds = append(w.bounds, boundary{at: 0, cpu: processCPU()})
	wake := make(chan struct{}, 1)
	stop := make(chan struct{})
	var mwg sync.WaitGroup
	if e.mv != nil {
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			e.mv.run(e.callers[0], wake, stop, w.origin, tr)
		}()
	}
	var wg sync.WaitGroup
	for _, c := range e.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			next := blockLen
			for i := 0; ; i++ {
				if n > 0 && i >= n {
					return
				}
				e.step(c, w.origin, record, tr)
				if e.mv != nil && (i+1)%moveEvery == 0 {
					select {
					case wake <- struct{}{}:
					default:
					}
				}
				if n > 0 {
					continue
				}
				el := time.Since(w.origin)
				if c.idx == 0 && el >= next {
					w.bounds = append(w.bounds, boundary{at: el.Nanoseconds(), cpu: processCPU()})
					next += blockLen
				}
				if el >= d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	mwg.Wait()
	w.elapsed = time.Since(w.origin)
	gc1, tot1 := cpuClasses()
	w.gcCPU, w.totalCPU = gc1-gc0, tot1-tot0
	if record {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		w.mallocs = ms1.Mallocs - ms0.Mallocs
		w.allocB = ms1.TotalAlloc - ms0.TotalAlloc
		w.numGC = ms1.NumGC - ms0.NumGC
	}
	var errs []error
	for _, c := range e.callers {
		w.ops = append(w.ops, c.recs...)
		w.spans = append(w.spans, c.spans...)
		w.failedOps += c.failed
		if c.wrong != nil {
			errs = append(errs, c.wrong)
		}
	}
	if e.mv != nil {
		w.moves = append(w.moves, e.mv.recs...)
		w.spans = append(w.spans, e.mv.spans...)
		w.failedMv = e.mv.failed
		if f := e.mv.follow; f != nil {
			w.after = append(w.after, f.recs...)
			w.spans = append(w.spans, f.spans...)
			w.failedOps += f.failed
			if f.wrong != nil {
				errs = append(errs, f.wrong)
			}
		}
	}
	sort.Slice(w.ops, func(i, j int) bool { return w.ops[i].start < w.ops[j].start })
	return w, errors.Join(errs...)
}

// newProbe returns the mover of the relocation probe, for workloads whose
// window has no mover, so that every workload reports a relocation cost.
// The probe moves the last store, which no caller uses, between the spec's
// pair; the store is first brought into the pair, untimed.
func (e *env) newProbe() (*mover, error) {
	m := e.newMover([]int{e.sp.stores - 1})
	if m.at[0] != e.sp.pair[0] {
		w, err := e.probe(m, 1)
		if err != nil {
			return nil, err
		}
		if w.failedMv > 0 || w.failedOps > 0 {
			return nil, fmt.Errorf("probe: bringing store %d to core %s failed", e.sp.stores-1, e.sp.pair[0])
		}
	}
	return m, nil
}

// probe relocates the probe's store n times with m. It is sequential: after
// each move caller 0 issues one invocation to that store through its
// now-stale reference, and that invocation's latency is the stall (it walks
// the tracker chain the move left behind: a -> old host -> new host), as
// relocate_kv's mover measures it.
func (e *env) probe(m *mover, n int) (*window, error) {
	c := e.callers[0]
	saved := c.stores
	c.stores = []int{e.sp.stores - 1}
	defer func() { c.stores = saved }()
	w := &window{origin: time.Now()}
	m.recs, m.failed = m.recs[:0], 0
	c.recs, c.failed = c.recs[:0], 0
	for i := 0; i < n; i++ {
		m.moveOne(w.origin, false)
		e.step(c, w.origin, true, false)
	}
	w.after, w.moves = append([]opRec(nil), c.recs...), append([]moveRec(nil), m.recs...)
	w.failedOps, w.failedMv = c.failed, m.failed
	return w, c.wrong
}

// mover relocates stores round-robin between two cores, one move per
// moveEvery invocations of the caller it follows. Tying moves to caller
// progress, not wall time, keeps the invoke/move mix fixed however fast the
// host runs. When the env has store locks, the mover holds the store's lock
// for the move and, still holding it, issues one invocation to the store
// through the callers' stale reference with follow.
type mover struct {
	e      *env
	c      *core.Core
	stores []int
	refs   []*ref.Ref
	at     []string
	pair   [2]string
	next   int
	recs   []moveRec
	spans  []span
	failed int64
	follow *caller
}

func (e *env) newMover(stores []int) *mover {
	m := &mover{e: e, c: e.cl.core("a"), pair: e.sp.pair, stores: stores}
	for _, s := range stores {
		home := e.sp.home(s)
		m.refs = append(m.refs, m.c.NewRefTo(e.ids[s], "KVStore", ids.CoreID(home)))
		m.at = append(m.at, home)
	}
	if e.moving != nil {
		m.follow = &caller{
			idx:   e.sp.callers,
			rng:   rand.New(rand.NewSource(e.seed*7919 + int64(e.sp.callers))),
			owner: m,
			recs:  make([]opRec, 0, recCap/moveEvery),
		}
	}
	return m
}

func (m *mover) reset() {
	m.recs, m.spans, m.failed = m.recs[:0], m.spans[:0], 0
	if f := m.follow; f != nil {
		f.recs, f.spans, f.failed = f.recs[:0], f.spans[:0], 0
	}
}

// run moves until stop closes, catching up whenever follow's invocations
// outrun the moves.
func (m *mover) run(follow *caller, wake <-chan struct{}, stop <-chan struct{}, origin time.Time, traced bool) {
	base, moves := follow.done.Load(), 0
	for {
		select {
		case <-stop:
			return
		case <-wake:
		}
		for base+int64(moves+1)*moveEvery <= follow.done.Load() {
			select {
			case <-stop:
				return
			default:
			}
			m.moveOne(origin, traced)
			moves++
		}
	}
}

func (m *mover) moveOne(origin time.Time, traced bool) {
	i := m.next
	m.next = (m.next + 1) % len(m.refs)
	if f := m.follow; f != nil {
		s := m.stores[i]
		m.e.moving[s].Lock()
		defer m.e.moving[s].Unlock()
		f.stores = []int{s}
		defer m.e.step(f, origin, true, traced)
	}
	dest := m.pair[0]
	if m.at[i] == m.pair[0] {
		dest = m.pair[1]
	}
	t0 := time.Now()
	err := m.c.Move(m.refs[i], ids.CoreID(dest))
	t1 := time.Now()
	if err != nil {
		m.failed++
		if loc, lerr := m.c.LocateComplet(m.refs[i].Target()); lerr == nil {
			dest = string(loc)
		}
	}
	m.at[i] = dest
	start, dur := t0.Sub(origin).Nanoseconds(), t1.Sub(t0).Nanoseconds()
	m.recs = append(m.recs, moveRec{start: start, dur: dur, failed: err != nil})
	if traced {
		m.spans = append(m.spans, span{name: spanMove, op: 1<<62 | uint64(len(m.recs)), parent: -1, start: start, end: start + dur})
	}
}

// verify checks the paper's contract after a run: each store has exactly one
// live copy, every core reaches it, and its state is what the callers wrote.
func (e *env) verify() error {
	rng := rand.New(rand.NewSource(e.seed ^ 0xc4ec))
	for s, id := range e.ids {
		hosts := e.cl.hosts(id)
		if len(hosts) != 1 {
			return fmt.Errorf("store %d (%s): live copies on %v, want exactly one", s, id, hosts)
		}
		for _, from := range e.sp.cores {
			r := e.cl.refFrom(from, id, e.sp.home(s))
			res, err := r.Invoke("Len")
			if err != nil {
				return fmt.Errorf("store %d from core %s: Len: %w", s, from, err)
			}
			if n, ok := single[int](res); !ok || n != keysPerStore {
				return fmt.Errorf("store %d from core %s: Len = %v, want %d", s, from, res, keysPerStore)
			}
			for j := 0; j < 16; j++ {
				k := rng.Intn(keysPerStore)
				res, err := r.Invoke("Get", e.in.keys[k])
				if err != nil {
					return fmt.Errorf("store %d from core %s: Get: %w", s, from, err)
				}
				got, ok := single[string](res)
				if !ok || !e.models[s][k].allows(got) {
					return fmt.Errorf("store %d from core %s: Get(%s) = %q, want one of %q", s, from, e.in.keys[k], got, []string(e.models[s][k]))
				}
				e.models[s][k] = cell{got}
			}
		}
	}
	return nil
}

// single unpacks a result vector holding exactly one value of type T.
func single[T any](res []any) (T, bool) {
	var zero T
	if len(res) != 1 {
		return zero, false
	}
	v, ok := res[0].(T)
	return v, ok
}

// processCPU returns the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
