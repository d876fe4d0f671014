package transport

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/wire"
)

// Sim is a Transport over the netsim simulated network. One Sim wraps one
// netsim host; core IDs double as host names.
//
// Unlike TCP, Sim deliberately keeps SELF-FRAMED messages (each envelope
// carries its own codec state) instead of streaming sessions: netsim is
// message-granular, and hosts can be removed and re-added (core restarts)
// which would desync a streaming session's descriptor state. Send buffers
// come from the wire buffer pool — netsim copies payloads on Send, so the
// buffer is returned immediately and steady-state sends allocate nothing.
type Sim struct {
	txMetricsHolder

	self    ids.CoreID
	net     *netsim.Network
	host    *netsim.Host
	pending *pending

	mu      sync.Mutex
	handler Handler
	closed  bool
	logf    func(format string, args ...any)

	quit chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // handler goroutines
}

var _ Transport = (*Sim)(nil)

// NewSim attaches a transport for the named core to the simulated network,
// registering a host of the same name. Closing the transport unregisters the
// host, so a restarted core can reuse the name.
func NewSim(net *netsim.Network, self ids.CoreID) (*Sim, error) {
	host, err := net.AddHost(self.String())
	if err != nil {
		return nil, fmt.Errorf("sim transport: %w", err)
	}
	s := &Sim{
		self:    self,
		net:     net,
		host:    host,
		pending: newPending(),
		logf:    log.Printf,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.pump()
	return s, nil
}

// sendEnv marshals the envelope self-framed into a pooled buffer and hands
// it to the simulated host. netsim copies the payload, so the buffer is
// recycled before returning; the bytes shipped are reported for metrics.
func (s *Sim) sendEnv(to ids.CoreID, env *wire.Envelope) (int, error) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if err := wire.Gob.MarshalEnvelope(env, buf); err != nil {
		return 0, err
	}
	if err := s.host.Send(to.String(), buf.Bytes()); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// Self implements Transport.
func (s *Sim) Self() ids.CoreID { return s.self }

// SetHandler implements Transport.
func (s *Sim) SetHandler(h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// SetLogf implements LogfSetter.
func (s *Sim) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = log.Printf
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logf = logf
}

func (s *Sim) logfFn() func(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logf
}

// Request implements Transport.
func (s *Sim) Request(ctx context.Context, to ids.CoreID, kind wire.Kind, payload []byte) (wire.Envelope, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return wire.Envelope{}, ErrClosed
	}
	id, ch := s.pending.register()
	env := wire.Envelope{From: s.self, Req: id, Kind: kind, Payload: payload}
	stampDeadline(ctx, &env)
	stampTrace(ctx, &env)
	n, err := s.sendEnv(to, &env)
	if err != nil {
		s.pending.cancel(id)
		return wire.Envelope{}, fmt.Errorf("sim transport: send to %s: %w", to, err)
	}
	s.metrics().sent(n)
	select {
	case reply := <-ch:
		if err := CheckReply(reply); err != nil {
			return wire.Envelope{}, err
		}
		return reply, nil
	case <-ctx.Done():
		s.pending.cancel(id)
		return wire.Envelope{}, fmt.Errorf("sim transport: request %s to %s: %w", kind, to, ctx.Err())
	case <-s.quit:
		s.pending.cancel(id)
		return wire.Envelope{}, ErrClosed
	}
}

// Notify implements Transport.
func (s *Sim) Notify(to ids.CoreID, kind wire.Kind, payload []byte) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	env := wire.Envelope{From: s.self, Kind: kind, Payload: payload}
	n, err := s.sendEnv(to, &env)
	if err != nil {
		return fmt.Errorf("sim transport: notify %s: %w", to, err)
	}
	s.metrics().sent(n)
	return nil
}

// pump reads raw messages from the simulated host and dispatches them.
func (s *Sim) pump() {
	defer close(s.done)
	for {
		select {
		case msg := <-s.host.Recv():
			s.metrics().recv(len(msg.Payload))
			env, err := wire.Gob.UnmarshalEnvelope(msg.Payload)
			if err != nil {
				s.logfFn()("fargo sim transport %s: dropping undecodable message from %s: %v", s.self, msg.From, err)
				continue
			}
			s.dispatch(env)
		case <-s.quit:
			return
		}
	}
}

func (s *Sim) dispatch(env wire.Envelope) {
	if env.IsReply {
		s.pending.complete(env)
		return
	}
	s.mu.Lock()
	h := s.handler
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(h, env)
	}()
}

// serve runs the handler for one request and sends the reply (for correlated
// requests only; notifications carry Req == 0).
func (s *Sim) serve(h Handler, env wire.Envelope) {
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
	reply := wire.Envelope{From: s.self, Req: env.Req, IsReply: true, Kind: kind, Payload: payload}
	n, sendErr := s.sendEnv(env.From, &reply)
	if sendErr != nil {
		s.logfFn()("fargo sim transport %s: reply to %s: %v", s.self, env.From, sendErr)
		return
	}
	s.metrics().sent(n)
}

// Close implements Transport. It stops the pump, waits for in-flight handler
// goroutines, and fails any outstanding requests.
func (s *Sim) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.quit)
	<-s.done
	s.wg.Wait()
	s.pending.failAll(s.self)
	// Free the host name for a possible core restart.
	if err := s.net.RemoveHost(s.self.String()); err != nil && !errors.Is(err, netsim.ErrNoHost) {
		return err
	}
	return nil
}
