// Package transport implements the peer interface layer (§3, Figure 1): the
// low-level core-to-core communication that everything above it — invocation
// forwarding, movement bundles, distributed events — rides on.
//
// Every link carries the same envelope record (wire.AppendEnvelope), and
// one endpoint (this file) correlates replies and serves requests. Two
// interchangeable implementations differ only in how the record's bytes
// travel:
//
//   - Sim: one netsim message per record, used by tests and the experiment
//     harness (deterministic latency/bandwidth).
//   - TCP: one length-prefixed frame per record over real TCP connections,
//     used by the fargo-core daemon.
//
// Both expose the same request/response surface with correlation IDs, so the
// core is oblivious to which one it runs on (the substitution for Java RMI;
// see DESIGN.md).
package transport

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/stats"
	"fargo/internal/trace"
	"fargo/internal/wire"
)

var (
	// ErrClosed is returned when using a transport after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrNoHandler is returned when a request arrives before SetHandler.
	ErrNoHandler = errors.New("transport: no handler installed")
)

// RemoteError carries an error message produced by a peer's handler.
type RemoteError struct {
	Peer ids.CoreID
	Msg  string
	// cause is the local sentinel the wire message maps back to (ErrConnLost,
	// ErrClosed), nil for application errors — it lets errors.Is see through
	// the string-typed wire crossing.
	cause error
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error from %s: %s", e.Peer, e.Msg)
}

// Unwrap exposes the sentinel a transport-produced error reply maps to, so
// errors.Is(err, ErrConnLost) works across the wire crossing.
func (e *RemoteError) Unwrap() error { return e.cause }

// Handler processes one incoming request envelope and returns the reply
// payload kind and bytes. Handlers run on their own goroutines; returning an
// error sends a KindError reply to the requester. The context carries the
// request's remaining end-to-end budget (derived from the envelope's wire
// deadline), so handlers that issue further requests deduct elapsed time
// instead of resetting the clock.
type Handler func(ctx context.Context, env wire.Envelope) (wire.Kind, []byte, error)

// handlerContext derives the serving context for an incoming request from
// its wire deadline (context.Background when the request carries none) and
// its trace context, so spans the handler opens parent under the sender's.
func handlerContext(env wire.Envelope) (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if env.TraceID != 0 && env.Sampled {
		ctx = trace.NewContext(ctx, trace.SpanContext{
			Trace:   trace.TraceID(env.TraceID),
			Span:    trace.SpanID(env.Span),
			Sampled: true,
		})
	}
	if env.Deadline > 0 {
		return context.WithDeadline(ctx, time.Unix(0, env.Deadline))
	}
	return context.WithCancel(ctx)
}

// stampDeadline records the context's deadline (if any) on an outgoing
// request envelope so it travels on the wire.
func stampDeadline(ctx context.Context, env *wire.Envelope) {
	if dl, ok := ctx.Deadline(); ok {
		env.Deadline = dl.UnixNano()
	}
}

// stampTrace records the context's sampled trace (if any) on an outgoing
// request envelope so the receiver joins the trace. Untraced contexts leave
// the envelope untouched — the common case costs one context lookup.
func stampTrace(ctx context.Context, env *wire.Envelope) {
	if sc, ok := trace.FromContext(ctx); ok && sc.Sampled {
		env.TraceID = uint64(sc.Trace)
		env.Span = uint64(sc.Span)
		env.Sampled = true
	}
}

// MetricsSetter is implemented by transports that can report traffic counters
// into a core's metrics registry. The core threads its registry through this
// hook at construction time, like Options.Logf via LogfSetter.
type MetricsSetter interface {
	SetMetrics(reg *metrics.Registry)
}

// txMetrics caches the registry's transport instruments so the per-message
// cost is an atomic pointer load plus counter bumps, never a map lookup.
type txMetrics struct {
	sentMsgs  *stats.Counter
	sentBytes *stats.Counter
	recvMsgs  *stats.Counter
	recvBytes *stats.Counter
}

func newTxMetrics(reg *metrics.Registry) *txMetrics {
	if reg == nil {
		return nil
	}
	return &txMetrics{
		sentMsgs:  reg.Counter("transport_sent_total"),
		sentBytes: reg.Counter("transport_sent_bytes_total"),
		recvMsgs:  reg.Counter("transport_recv_total"),
		recvBytes: reg.Counter("transport_recv_bytes_total"),
	}
}

func (m *txMetrics) sent(bytes int) {
	if m == nil {
		return
	}
	m.sentMsgs.Inc()
	m.sentBytes.Add(uint64(bytes))
}

func (m *txMetrics) recv(bytes int) {
	if m == nil {
		return
	}
	m.recvMsgs.Inc()
	m.recvBytes.Add(uint64(bytes))
}

// txMetricsHolder is the shared SetMetrics implementation, embedded in
// endpoint.
type txMetricsHolder struct {
	met atomic.Pointer[txMetrics]
}

// SetMetrics implements MetricsSetter.
func (h *txMetricsHolder) SetMetrics(reg *metrics.Registry) {
	h.met.Store(newTxMetrics(reg))
}

func (h *txMetricsHolder) metrics() *txMetrics { return h.met.Load() }

// endpoint is the part of a transport that does not depend on how bytes
// travel: the handler, the log sink, reply correlation and the goroutines
// that serve requests. Sim and TCP embed it and differ only in sending and
// receiving envelopes.
type endpoint struct {
	txMetricsHolder

	self    ids.CoreID
	pending *pending
	// reply sends one envelope to a peer and counts it; the embedding
	// transport sets it before any traffic.
	reply func(to ids.CoreID, env *wire.Envelope) error

	mu      sync.Mutex // guards handler, logf, closed and the embedder's own state
	handler Handler
	logf    func(format string, args ...any)
	closed  bool

	wg sync.WaitGroup // handler goroutines and the embedder's loops
}

func newEndpoint(self ids.CoreID) endpoint {
	return endpoint{self: self, pending: newPending(), logf: log.Printf}
}

// Self implements Transport.
func (e *endpoint) Self() ids.CoreID { return e.self }

// SetHandler implements Transport.
func (e *endpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// SetLogf implements LogfSetter.
func (e *endpoint) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = log.Printf
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logf = logf
}

func (e *endpoint) logfFn() func(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.logf
}

func (e *endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// dispatch routes one received envelope: a reply completes its waiter, a
// request or notification runs the handler on its own goroutine. A closed
// endpoint serves nothing.
func (e *endpoint) dispatch(env wire.Envelope) {
	if env.IsReply {
		e.pending.complete(env)
		return
	}
	e.mu.Lock()
	h := e.handler
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.serve(h, env)
	}()
}

// serve runs the handler for one request and sends the reply (for correlated
// requests only; notifications carry Req == 0). A handler error becomes a
// KindError reply.
func (e *endpoint) serve(h Handler, env wire.Envelope) {
	var (
		kind    wire.Kind
		payload []byte
		err     error
	)
	if h == nil {
		err = ErrNoHandler
	} else {
		ctx, cancel := handlerContext(env)
		kind, payload, err = h(ctx, env)
		cancel()
	}
	if env.Req == 0 {
		return // notification: nothing to reply to
	}
	if err != nil {
		kind = wire.KindError
		payload, _ = wire.EncodePayload(wire.ErrorReply{Msg: err.Error()})
	}
	reply := wire.Envelope{From: e.self, Req: env.Req, IsReply: true, Kind: kind, Payload: payload}
	if err := e.reply(env.From, &reply); err != nil && !e.isClosed() {
		e.logfFn()("fargo transport %s: reply to %s: %v", e.self, env.From, err)
	}
}

// LogfSetter is implemented by transports whose diagnostic output can be
// redirected. The core threads its Options.Logf through this hook at
// construction time so transport-level noise (undecodable envelopes, reply
// failures) lands in the same log as everything else. Passing nil restores
// the default standard-library logger.
type LogfSetter interface {
	SetLogf(logf func(format string, args ...any))
}

// Transport moves envelopes between cores.
type Transport interface {
	// Self returns the core ID this transport speaks for.
	Self() ids.CoreID
	// Request sends a request envelope and waits for the correlated reply.
	Request(ctx context.Context, to ids.CoreID, kind wire.Kind, payload []byte) (wire.Envelope, error)
	// Notify sends a one-way envelope (no reply expected).
	Notify(to ids.CoreID, kind wire.Kind, payload []byte) error
	// SetHandler installs the request handler. Must be called before the
	// first request arrives.
	SetHandler(h Handler)
	// Close shuts the transport down and waits for its goroutines.
	Close() error
}

// pending correlates outstanding requests with their replies.
type pending struct {
	mu   sync.Mutex
	seq  ids.Sequencer
	wait map[ids.RequestID]chan wire.Envelope
}

func newPending() *pending {
	return &pending{wait: make(map[ids.RequestID]chan wire.Envelope)}
}

// register allocates a request ID and a reply channel.
func (p *pending) register() (ids.RequestID, chan wire.Envelope) {
	id := ids.RequestID(p.seq.Next())
	ch := make(chan wire.Envelope, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wait[id] = ch
	return id, ch
}

// complete delivers a reply to its waiter, if any.
func (p *pending) complete(env wire.Envelope) {
	p.mu.Lock()
	ch, ok := p.wait[env.Req]
	if ok {
		delete(p.wait, env.Req)
	}
	p.mu.Unlock()
	if ok {
		ch <- env
	}
}

// cancel drops a waiter (request timed out or transport closing).
func (p *pending) cancel(id ids.RequestID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.wait, id)
}

// failAll unblocks every waiter with a closed-transport error envelope.
func (p *pending) failAll(self ids.CoreID) {
	p.mu.Lock()
	waiters := p.wait
	p.wait = make(map[ids.RequestID]chan wire.Envelope)
	p.mu.Unlock()
	if len(waiters) == 0 {
		return
	}
	payload, err := wire.EncodePayload(wire.ErrorReply{Msg: ErrClosed.Error()})
	if err != nil {
		payload = nil
	}
	for id, ch := range waiters {
		ch <- wire.Envelope{From: self, Req: id, IsReply: true, Kind: wire.KindError, Payload: payload}
	}
}

// decodeErrorReply turns a KindError envelope into a RemoteError. Messages
// the transport layer itself produces (a dropped connection, a closed
// transport) are mapped back to their sentinels so callers match them with
// errors.Is instead of string comparison.
func decodeErrorReply(env wire.Envelope) error {
	var er wire.ErrorReply
	if err := wire.DecodePayload(env.Payload, &er); err != nil {
		return &RemoteError{Peer: env.From, Msg: "undecodable error reply"}
	}
	re := &RemoteError{Peer: env.From, Msg: er.Msg}
	switch er.Msg {
	case ErrConnLost.Error():
		re.cause = ErrConnLost
	case ErrClosed.Error():
		re.cause = ErrClosed
	}
	return re
}

// CheckReply maps a reply envelope to an error when the peer's handler
// failed. Callers decode the payload only when CheckReply returns nil.
func CheckReply(env wire.Envelope) error {
	if env.Kind == wire.KindError {
		return decodeErrorReply(env)
	}
	return nil
}
