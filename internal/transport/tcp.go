package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"fargo/internal/ids"
	"fargo/internal/wire"
)

// wireMagic opens every TCP connection, followed by the wire-format byte
// (wire.GobCodecID). The preamble is read from the raw socket before any
// session exists, so a peer speaking another format — or not speaking fargo
// at all — is rejected before the first frame is parsed.
var wireMagic = [4]byte{'F', 'G', 'W', '1'}

// ErrUnknownPeer is returned when sending to a core with no known address.
var ErrUnknownPeer = errors.New("transport: unknown peer address")

// AddrBook maps core IDs to TCP addresses. Safe for concurrent use.
type AddrBook struct {
	mu    sync.RWMutex
	addrs map[ids.CoreID]string
}

// NewAddrBook returns an address book seeded with the given entries.
func NewAddrBook(seed map[ids.CoreID]string) *AddrBook {
	b := &AddrBook{addrs: make(map[ids.CoreID]string, len(seed))}
	for k, v := range seed {
		b.addrs[k] = v
	}
	return b
}

// Set records the address of a core.
func (b *AddrBook) Set(core ids.CoreID, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[core] = addr
}

// Get looks up the address of a core.
func (b *AddrBook) Get(core ids.CoreID) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.addrs[core]
	return a, ok
}

// Peers lists the cores with known addresses.
func (b *AddrBook) Peers() []ids.CoreID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]ids.CoreID, 0, len(b.addrs))
	for k := range b.addrs {
		out = append(out, k)
	}
	return out
}

// TCP is a Transport over real TCP connections with length-framed envelopes
// serialized by a streaming gob session per connection (wire.Session, so
// type descriptors cross the wire once per peer). Outbound connections are
// cached per peer; inbound connections open with a magic+format preamble
// and a hello envelope identifying the dialer, and learned addresses
// populate the address book.
type TCP struct {
	txMetricsHolder

	self    ids.CoreID
	book    *AddrBook
	ln      net.Listener
	pending *pending

	mu       sync.Mutex
	handler  Handler
	logf     func(format string, args ...any)
	conns    map[ids.CoreID]*tcpConn
	accepted map[net.Conn]struct{}
	// inflight tracks which connection each outstanding request was sent
	// on, so requests fail fast when that connection drops instead of
	// waiting for their context deadline.
	inflight map[*tcpConn]map[ids.RequestID]struct{}
	closed   bool

	wg sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// tcpConn is one outbound connection and its codec session, with a write
// lock (frames must not interleave).
type tcpConn struct {
	mu   sync.Mutex
	c    net.Conn
	sess *wire.Session
}

// writeEnv appends one envelope to the connection's session stream and
// returns the bytes written.
func (c *tcpConn) writeEnv(env *wire.Envelope) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess.EncodeEnvelope(env)
}

// NewTCP starts a TCP transport listening on listenAddr. The address peers
// should dial (the bound listen address) is sent in hello envelopes.
func NewTCP(self ids.CoreID, listenAddr string, book *AddrBook) (*TCP, error) {
	if book == nil {
		book = NewAddrBook(nil)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp transport: listen %s: %w", listenAddr, err)
	}
	t := &TCP{
		self:     self,
		book:     book,
		ln:       ln,
		pending:  newPending(),
		logf:     log.Printf,
		conns:    make(map[ids.CoreID]*tcpConn),
		accepted: make(map[net.Conn]struct{}),
		inflight: make(map[*tcpConn]map[ids.RequestID]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's listening address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Book returns the transport's address book.
func (t *TCP) Book() *AddrBook { return t.book }

// Self implements Transport.
func (t *TCP) Self() ids.CoreID { return t.self }

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// SetLogf implements LogfSetter.
func (t *TCP) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = log.Printf
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.logf = logf
}

func (t *TCP) logfFn() func(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.logf
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted[c] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(c)
	}
}

// hello is the payload of the KindHello envelope opening every connection,
// identifying the dialer.
type hello struct {
	From ids.CoreID
	Addr string // dialer's advertised listen address ("" if unknown)
}

// readLoop consumes envelopes from one inbound connection: preamble
// (magic + format byte), then a session whose first envelope must be the
// hello.
func (t *TCP) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
	}()

	var pre [5]byte
	if _, err := io.ReadFull(c, pre[:]); err != nil {
		return
	}
	if !bytes.Equal(pre[:4], wireMagic[:]) {
		t.logfFn()("fargo tcp %s: bad preamble from %s", t.self, c.RemoteAddr())
		return
	}
	if pre[4] != wire.GobCodecID {
		t.logfFn()("fargo tcp %s: unknown wire format %q from %s", t.self, pre[4], c.RemoteAddr())
		return
	}
	sess := wire.Gob.NewSession(c)

	var henv wire.Envelope
	if _, err := sess.DecodeEnvelope(&henv); err != nil {
		return
	}
	if henv.Kind != wire.KindHello {
		t.logfFn()("fargo tcp %s: expected hello from %s, got %s", t.self, c.RemoteAddr(), henv.Kind)
		return
	}
	var h hello
	if err := wire.DecodePayload(henv.Payload, &h); err != nil {
		t.logfFn()("fargo tcp %s: bad hello from %s: %v", t.self, c.RemoteAddr(), err)
		return
	}
	if h.Addr != "" {
		t.book.Set(h.From, h.Addr)
	}

	for {
		// Fresh envelope each message: gob does not clear fields absent
		// from the wire, so reuse would leak state across messages.
		var env wire.Envelope
		n, err := sess.DecodeEnvelope(&env)
		if err != nil {
			// A decode error leaves the session stream in an undefined
			// position, so the connection is dropped rather than resumed;
			// the dialer redials with a fresh session.
			if !errors.Is(err, io.EOF) && !t.isClosed() {
				t.logfFn()("fargo tcp %s: read from %s: %v", t.self, h.From, err)
			}
			return
		}
		t.metrics().recv(n)
		t.dispatch(env)
	}
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *TCP) dispatch(env wire.Envelope) {
	if env.IsReply {
		t.pending.complete(env)
		return
	}
	t.mu.Lock()
	h := t.handler
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.serve(h, env)
	}()
}

func (t *TCP) serve(h Handler, env wire.Envelope) {
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
		return
	}
	if err != nil {
		kind = wire.KindError
		payload, _ = wire.EncodePayload(wire.ErrorReply{Msg: err.Error()})
	}
	reply := wire.Envelope{From: t.self, Req: env.Req, IsReply: true, Kind: kind, Payload: payload}
	if _, err := t.send(env.From, reply); err != nil && !t.isClosed() {
		t.logfFn()("fargo tcp %s: reply to %s: %v", t.self, env.From, err)
	}
}

// ErrConnLost is delivered (wrapped in a *RemoteError, matched via
// errors.Is) to requests whose underlying connection dropped before a reply
// arrived. Callers may retry idempotent requests. Its message is what
// actually crosses the wire in the KindError payload; decodeErrorReply maps
// it back to this sentinel.
var ErrConnLost = errors.New("connection lost before reply")

// Request implements Transport.
func (t *TCP) Request(ctx context.Context, to ids.CoreID, kind wire.Kind, payload []byte) (wire.Envelope, error) {
	if t.isClosed() {
		return wire.Envelope{}, ErrClosed
	}
	id, ch := t.pending.register()
	env := wire.Envelope{From: t.self, Req: id, Kind: kind, Payload: payload}
	stampDeadline(ctx, &env)
	stampTrace(ctx, &env)
	conn, err := t.send(to, env)
	if err != nil {
		t.pending.cancel(id)
		return wire.Envelope{}, err
	}
	t.trackInflight(conn, id, true)
	defer t.trackInflight(conn, id, false)
	select {
	case reply := <-ch:
		if err := CheckReply(reply); err != nil {
			return wire.Envelope{}, err
		}
		return reply, nil
	case <-ctx.Done():
		t.pending.cancel(id)
		return wire.Envelope{}, fmt.Errorf("tcp transport: request %s to %s: %w", kind, to, ctx.Err())
	}
}

func (t *TCP) trackInflight(c *tcpConn, id ids.RequestID, add bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if add {
		set, ok := t.inflight[c]
		if !ok {
			set = make(map[ids.RequestID]struct{})
			t.inflight[c] = set
		}
		set[id] = struct{}{}
		return
	}
	if set, ok := t.inflight[c]; ok {
		delete(set, id)
		if len(set) == 0 {
			delete(t.inflight, c)
		}
	}
}

// Notify implements Transport.
func (t *TCP) Notify(to ids.CoreID, kind wire.Kind, payload []byte) error {
	if t.isClosed() {
		return ErrClosed
	}
	_, err := t.send(to, wire.Envelope{From: t.self, Kind: kind, Payload: payload})
	return err
}

// send writes an envelope to the peer over the cached (or freshly dialed)
// connection's session and returns the connection used. On a write error the
// connection is dropped and one redial is attempted (a fresh connection gets
// a fresh session), masking stale connections after a peer restart.
func (t *TCP) send(to ids.CoreID, env wire.Envelope) (*tcpConn, error) {
	conn, err := t.conn(to)
	if err != nil {
		return nil, err
	}
	n, werr := conn.writeEnv(&env)
	if werr != nil {
		t.dropConn(to, conn)
		conn, err2 := t.conn(to)
		if err2 != nil {
			return nil, fmt.Errorf("tcp transport: send to %s: %w", to, werr)
		}
		n, err2 = conn.writeEnv(&env)
		if err2 != nil {
			t.dropConn(to, conn)
			return nil, fmt.Errorf("tcp transport: send to %s after redial: %w", to, err2)
		}
		t.metrics().sent(n)
		return conn, nil
	}
	t.metrics().sent(n)
	return conn, nil
}

// conn returns the cached connection to the peer, dialing if needed.
func (t *TCP) conn(to ids.CoreID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	addr, ok := t.book.Get(to)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	raw, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("tcp transport: dial %s (%s): %w", to, addr, err)
	}

	// Preamble on the raw socket, then a codec session for everything else.
	pre := [5]byte{wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3], wire.GobCodecID}
	if _, err := raw.Write(pre[:]); err != nil {
		raw.Close()
		return nil, fmt.Errorf("tcp transport: preamble to %s: %w", to, err)
	}
	c := &tcpConn{c: raw, sess: wire.Gob.NewSession(raw)}

	// Identify ourselves and read replies arriving on this connection.
	helloBytes, err := wire.EncodePayload(hello{From: t.self, Addr: t.ln.Addr().String()})
	if err != nil {
		raw.Close()
		return nil, err
	}
	henv := wire.Envelope{From: t.self, Kind: wire.KindHello, Payload: helloBytes}
	if _, err := c.writeEnv(&henv); err != nil {
		raw.Close()
		return nil, fmt.Errorf("tcp transport: hello to %s: %w", to, err)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		raw.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		// Lost the dial race; use the winner.
		t.mu.Unlock()
		raw.Close()
		return existing, nil
	}
	t.conns[to] = c
	t.wg.Add(1)
	t.mu.Unlock()

	go func() {
		defer t.wg.Done()
		defer raw.Close()
		for {
			var env wire.Envelope
			n, err := c.sess.DecodeEnvelope(&env)
			if err != nil {
				// EOF or a desynced stream either way: drop the
				// connection and fail its in-flight requests fast.
				t.dropConn(to, c)
				return
			}
			t.metrics().recv(n)
			t.dispatch(env)
		}
	}()
	return c, nil
}

func (t *TCP) dropConn(to ids.CoreID, c *tcpConn) {
	t.mu.Lock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
	orphaned := t.inflight[c]
	delete(t.inflight, c)
	t.mu.Unlock()
	c.c.Close()
	// Fail requests that were awaiting replies on this connection so they
	// don't hang until their deadline.
	payload, err := wire.EncodePayload(wire.ErrorReply{Msg: ErrConnLost.Error()})
	if err != nil {
		payload = nil
	}
	for id := range orphaned {
		t.pending.complete(wire.Envelope{
			From: to, Req: id, IsReply: true, Kind: wire.KindError, Payload: payload,
		})
	}
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[ids.CoreID]*tcpConn)
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()

	t.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.wg.Wait()
	t.pending.failAll(t.self)
	return nil
}
