package transport

import (
	"context"
	"errors"
	"fmt"

	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/wire"
)

// Sim is a Transport over the netsim simulated network. One Sim wraps one
// netsim host; core IDs double as host names. Each envelope travels as one
// netsim message holding its record.
type Sim struct {
	endpoint

	net  *netsim.Network
	host *netsim.Host

	quit chan struct{}
	done chan struct{}
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
		endpoint: newEndpoint(self),
		net:      net,
		host:     host,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.reply = s.sendEnv
	go s.pump()
	return s, nil
}

// sendEnv builds the envelope's record in a pooled buffer and hands it to
// the simulated host, which copies it, so the buffer is recycled before
// returning.
func (s *Sim) sendEnv(to ids.CoreID, env *wire.Envelope) error {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	buf.Write(wire.AppendEnvelope(buf.AvailableBuffer(), env))
	if err := s.host.Send(to.String(), buf.Bytes()); err != nil {
		return err
	}
	s.metrics().sent(buf.Len())
	return nil
}

// Request implements Transport.
func (s *Sim) Request(ctx context.Context, to ids.CoreID, kind wire.Kind, payload []byte) (wire.Envelope, error) {
	if s.isClosed() {
		return wire.Envelope{}, ErrClosed
	}
	id, ch := s.pending.register()
	env := wire.Envelope{From: s.self, Req: id, Kind: kind, Payload: payload}
	stampDeadline(ctx, &env)
	stampTrace(ctx, &env)
	if err := s.sendEnv(to, &env); err != nil {
		s.pending.cancel(id)
		return wire.Envelope{}, fmt.Errorf("sim transport: send to %s: %w", to, err)
	}
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
	if s.isClosed() {
		return ErrClosed
	}
	env := wire.Envelope{From: s.self, Kind: kind, Payload: payload}
	if err := s.sendEnv(to, &env); err != nil {
		return fmt.Errorf("sim transport: notify %s: %w", to, err)
	}
	return nil
}

// pump reads raw messages from the simulated host and dispatches them.
func (s *Sim) pump() {
	defer close(s.done)
	for {
		select {
		case msg := <-s.host.Recv():
			s.metrics().recv(len(msg.Payload))
			env, err := wire.ReadEnvelope(msg.Payload)
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
