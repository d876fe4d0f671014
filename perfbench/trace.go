package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fargo/internal/demo"
	"fargo/internal/ids"
	"fargo/internal/journal"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

// spanName names a span: a workload operation or a call into one layer.
type spanName uint8

const (
	spanGet spanName = iota
	spanPut
	spanMove
	spanLadderInvoke
	spanLadderMove
	spanLadderEnvelope
	spanLadderJournal
	spanEncodeArgs
	spanDecodeArgs
	spanRegistryInvoke
	spanEncodePayload
	spanDecodePayload
	spanEnvelope
	spanRTT
	spanBundleRTT
	spanEncodeClosure
	spanDecodeClosure
	spanJournalPrepare
	spanJournalInstall
	spanJournalCommit
)

var spanNames = [...]string{
	spanGet:            "invoke.Get",
	spanPut:            "invoke.Put",
	spanMove:           "move",
	spanLadderInvoke:   "ladder.invoke",
	spanLadderMove:     "ladder.move",
	spanLadderEnvelope: "ladder.envelope",
	spanLadderJournal:  "ladder.journal",
	spanEncodeArgs:     "wire.EncodeArgs",
	spanDecodeArgs:     "wire.DecodeArgs",
	spanRegistryInvoke: "registry.Invoke",
	spanEncodePayload:  "wire.EncodePayload",
	spanDecodePayload:  "wire.DecodePayload",
	spanEnvelope:       "wire.Session.EncodeEnvelope+DecodeEnvelope",
	spanRTT:            "transport.TCP.Request",
	spanBundleRTT:      "transport.TCP.Request.bundle",
	spanEncodeClosure:  "wire.EncodeClosure",
	spanDecodeClosure:  "wire.DecodeClosure",
	spanJournalPrepare: "journal.Append.PREPARE",
	spanJournalInstall: "journal.Append.INSTALL",
	spanJournalCommit:  "journal.Append.COMMIT",
}

// span is one timed interval. Spans of one operation share op; parent is
// the index of the enclosing span in the same buffer, -1 for a root.
type span struct {
	name       spanName
	op         uint64
	parent     int32
	start, end int64 // nanoseconds since the buffer's origin
}

// writeSpans writes spans as JSON lines, one per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, "{\"i\":%d,\"name\":%q,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, spanNames[s.name], s.op, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder times calls into each layer's public functions, one span per call
// under a root span per operation.
type ladder struct {
	origin time.Time
	spans  []span
	next   uint64 // operation ID of the next root
}

func (l *ladder) now() int64 { return time.Since(l.origin).Nanoseconds() }

func (l *ladder) open(name spanName) int32 {
	l.next++
	l.spans = append(l.spans, span{name: name, op: 1<<61 | l.next, parent: -1, start: l.now()})
	return int32(len(l.spans) - 1)
}

func (l *ladder) close(i int32) { l.spans[i].end = l.now() }

// call times fn as a child of root.
func (l *ladder) call(name spanName, root int32, fn func() error) error {
	start := l.now()
	err := fn()
	l.spans = append(l.spans, span{name: name, op: l.spans[root].op, parent: root, start: start, end: l.now()})
	if err != nil {
		return fmt.Errorf("%s: %w", spanNames[name], err)
	}
	return nil
}

// layerCosts summarises a ladder: the durations of each span name and,
// keyed by root span name, the sum of each root's children.
type layerCosts struct {
	calls map[spanName][]float64 // ns
	sums  map[spanName][]float64 // ns
}

// summarise covers the spans from index from on; parents index all spans.
func summarise(spans []span, from int) layerCosts {
	lc := layerCosts{calls: map[spanName][]float64{}, sums: map[spanName][]float64{}}
	sums := map[int32]float64{}
	for _, s := range spans[from:] {
		lc.calls[s.name] = append(lc.calls[s.name], float64(s.end-s.start))
		if s.parent >= 0 {
			sums[s.parent] += float64(s.end - s.start)
		}
	}
	for i, v := range sums {
		lc.sums[spans[i].name] = append(lc.sums[spans[i].name], v)
	}
	return lc
}

const (
	ladderOps   = 200 // invocations replayed through the ladder per block
	ladderMoves = 10  // relocations replayed through the ladder per block
)

// invocation is one operation of the workload's mix with its real argument
// and result vectors.
type invocation struct {
	method string
	args   []any
}

// mix draws n operations from the same distribution the callers use.
func (e *env) mix(n int) []invocation {
	rng := rand.New(rand.NewSource(e.seed*7919 + 101))
	out := make([]invocation, n)
	for i := range out {
		k := e.in.keys[rng.Intn(keysPerStore)]
		if rng.Intn(5) == 0 {
			out[i] = invocation{"Put", []any{k, e.in.values[rng.Intn(len(e.in.values))]}}
		} else {
			out[i] = invocation{"Get", []any{k}}
		}
	}
	return out
}

// storeAnchor rebuilds store s's state as a plain anchor, outside any core.
func (e *env) storeAnchor(s int) *demo.KVStore {
	st := &demo.KVStore{Data: make(map[string]string, keysPerStore)}
	for k, c := range e.models[s] {
		st.Data[e.in.keys[k]] = c[0]
	}
	return st
}

// echoPair is two bare TCP transports on loopback whose second member echoes
// every request: the transport floor without a core on either side.
type echoPair struct{ a, b *transport.TCP }

func newEchoPair() (*echoPair, error) {
	book := transport.NewAddrBook(nil)
	a, err := transport.NewTCP("echo-a", "127.0.0.1:0", book)
	if err != nil {
		return nil, err
	}
	b, err := transport.NewTCP("echo-b", "127.0.0.1:0", book)
	if err != nil {
		a.Close()
		return nil, err
	}
	book.Set("echo-a", a.Addr())
	book.Set("echo-b", b.Addr())
	b.SetHandler(func(_ context.Context, env wire.Envelope) (wire.Kind, []byte, error) {
		return wire.KindPong, env.Payload, nil
	})
	return &echoPair{a: a, b: b}, nil
}

func (p *echoPair) rtt(payload []byte) error {
	_, err := p.a.Request(context.Background(), "echo-b", wire.KindPing, payload)
	return err
}

func (p *echoPair) close() {
	p.a.Close()
	p.b.Close()
}

// invokeLadder replays the mix through the layers an invocation crosses:
// the value codec and reflective dispatch always, and for a remote path the
// payload codec and a transport round trip carrying the request payload.
// The envelope codec runs inside that round trip, so it is timed under its
// own root and kept out of the ladder's sum.
func (e *env) invokeLadder(l *ladder, remote bool, echo *echoPair, mix []invocation) error {
	anchor := e.storeAnchor(0)
	target := e.ids[0]
	var stream bytes.Buffer
	sess := wire.Gob.NewSession(&stream)
	for _, inv := range mix {
		root := l.open(spanLadderInvoke)
		var argBytes, resBytes, reqPayload []byte
		var args, results []any
		err := l.call(spanEncodeArgs, root, func() (err error) {
			argBytes, _, err = wire.EncodeArgs(inv.args)
			return err
		})
		if err == nil && remote {
			err = l.call(spanEncodePayload, root, func() (err error) {
				reqPayload, err = wire.EncodePayload(wire.InvokeRequest{Target: target, Method: inv.method, Args: argBytes})
				return err
			})
			if err == nil {
				err = l.call(spanRTT, root, func() error { return echo.rtt(reqPayload) })
			}
			if err == nil {
				err = l.call(spanDecodePayload, root, func() error {
					var req wire.InvokeRequest
					return wire.DecodePayload(reqPayload, &req)
				})
			}
		}
		if err == nil {
			err = l.call(spanDecodeArgs, root, func() (err error) {
				args, _, err = wire.DecodeArgs(argBytes)
				return err
			})
		}
		if err == nil {
			err = l.call(spanRegistryInvoke, root, func() (err error) {
				results, err = registry.Invoke(anchor, inv.method, args)
				return err
			})
		}
		if err == nil {
			err = l.call(spanEncodeArgs, root, func() (err error) {
				resBytes, _, err = wire.EncodeArgs(results)
				return err
			})
		}
		if err == nil && remote {
			var replyPayload []byte
			err = l.call(spanEncodePayload, root, func() (err error) {
				replyPayload, err = wire.EncodePayload(wire.InvokeReply{Results: resBytes, Location: ids.CoreID(e.sp.home(0))})
				return err
			})
			if err == nil {
				err = l.call(spanDecodePayload, root, func() error {
					var reply wire.InvokeReply
					return wire.DecodePayload(replyPayload, &reply)
				})
			}
		}
		if err == nil {
			err = l.call(spanDecodeArgs, root, func() error {
				_, _, err := wire.DecodeArgs(resBytes)
				return err
			})
		}
		l.close(root)
		if err == nil && remote {
			envRoot := l.open(spanLadderEnvelope)
			err = l.call(spanEnvelope, envRoot, func() error {
				env := wire.Envelope{From: "a", Kind: wire.KindInvoke, Payload: reqPayload}
				if _, err := sess.EncodeEnvelope(&env); err != nil {
					return err
				}
				var got wire.Envelope
				_, err := sess.DecodeEnvelope(&got)
				return err
			})
			l.close(envRoot)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// moveLadder replays the layers a relocation crosses: closure encode and
// decode and one round trip carrying the bundle. The workload's moves are
// unjournaled, so the three journal appends a journaled move would add
// (PREPARE, INSTALL carrying the bundle, COMMIT) are timed under a root of
// their own in <workDir>/journal and kept out of the ladder's sum.
func (e *env) moveLadder(l *ladder, echo *echoPair, n int) (closureBytes int, err error) {
	jdir := filepath.Join(e.workDir, "journal")
	if err := freshDir(jdir); err != nil {
		return 0, err
	}
	jpath := filepath.Join(jdir, "ladder.journal")
	j, _, err := journal.Open(jpath)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		os.Remove(jpath)
	}()
	anchor := e.storeAnchor(0)
	id := e.ids[0]
	targetLocal := func(ids.CompletID) bool { return false }
	for i := 0; i < n; i++ {
		root := l.open(spanLadderMove)
		epoch := l.next
		var closure, bundle []byte
		err := l.call(spanEncodeClosure, root, func() (err error) {
			closure, _, err = wire.EncodeClosure(anchor, ref.MoveContext{Source: id, From: "b", To: "c"}, targetLocal)
			return err
		})
		if err == nil {
			bundle, err = wire.EncodePayload(wire.MoveRequest{
				Entries: []wire.BundleEntry{{ID: id, TypeName: "KVStore", Payload: closure}},
				Epoch:   epoch,
			})
		}
		if err == nil {
			err = l.call(spanBundleRTT, root, func() error { return echo.rtt(bundle) })
		}
		if err == nil {
			err = l.call(spanDecodeClosure, root, func() error {
				_, _, err := wire.DecodeClosure(closure)
				return err
			})
		}
		l.close(root)
		if err == nil {
			jroot := l.open(spanLadderJournal)
			rec := journal.Record{Epoch: epoch, Source: "b", Dest: "c", Root: id, Complets: []ids.CompletID{id}}
			for _, a := range []struct {
				name    spanName
				op      journal.Op
				payload []byte
			}{{spanJournalPrepare, journal.OpPrepare, nil}, {spanJournalInstall, journal.OpInstall, bundle}, {spanJournalCommit, journal.OpCommit, nil}} {
				if err == nil {
					err = l.call(a.name, jroot, func() error {
						r := rec
						r.Op, r.Payload = a.op, a.payload
						return j.Append(r)
					})
				}
			}
			l.close(jroot)
		}
		if err != nil {
			return 0, err
		}
		closureBytes = len(closure)
	}
	return closureBytes, nil
}

// argsAllocs measures heap allocations per value-codec call (EncodeArgs or
// DecodeArgs) over the mix's argument and result vectors.
func (e *env) argsAllocs() (float64, error) {
	anchor := e.storeAnchor(0)
	mix := e.mix(500)
	vectors := make([][]any, 0, 2*len(mix))
	for _, inv := range mix {
		res, err := registry.Invoke(anchor, inv.method, inv.args)
		if err != nil {
			return 0, err
		}
		vectors = append(vectors, inv.args, res)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, v := range vectors {
		b, _, err := wire.EncodeArgs(v)
		if err != nil {
			return 0, err
		}
		if _, _, err := wire.DecodeArgs(b); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(2*len(vectors)), nil
}
