// The gob wire format of the transports has two regimes:
//
//   - Streaming sessions (Gob.NewSession) for connection-oriented transports
//     (TCP): one long-lived encoder/decoder pair per connection, so stream
//     state — gob's type wire descriptors — crosses the wire once per peer
//     instead of once per message. Envelopes travel as length-prefixed frames
//     written in a single pass and flushed explicitly.
//
//   - Self-contained envelopes (Gob.MarshalEnvelope/UnmarshalEnvelope) for
//     message-granular transports (netsim): each message carries its own
//     descriptors, because simulated hosts can be removed and re-added
//     (core restarts) and a streaming session would desync across that.

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxFrame bounds a single envelope frame (movement bundles can be large,
// but a corrupt length prefix must not trigger an unbounded allocation).
const MaxFrame = 256 << 20 // 256 MiB

// --- buffer pool ------------------------------------------------------------

// maxPooledBuffer caps the buffers the pool retains: a movement bundle can
// inflate a buffer to hundreds of megabytes, and keeping such a buffer alive
// for the next 100-byte payload would pin the memory forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty scratch buffer from the pool. Callers must copy
// any bytes they keep before PutBuffer — the buffer's memory is recycled.
func GetBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a buffer to the pool. Oversized buffers are dropped so a
// single large bundle does not pin its memory.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuffer {
		return
	}
	bufPool.Put(b)
}

// --- gob codec --------------------------------------------------------------

// GobCodecID is the byte naming the gob wire format in the TCP connection
// preamble; a TCP transport refuses connections that announce another.
const GobCodecID = 'g'

// Gob is the wire format: streaming gob with length-prefixed frames.
var Gob gobCodec

type gobCodec struct{}

// NewSession binds a streaming coder pair to a connection. The encoder half
// encodes into a persistent buffer through a persistent gob.Encoder
// (descriptors sent once per session), then writes the 4-byte big-endian
// length header and the buffer in one buffered pass with an explicit flush.
// The decoder half feeds a persistent gob.Decoder from a frameReader that
// strips headers and enforces MaxFrame, so steady-state decoding allocates
// no per-frame buffers.
func (gobCodec) NewSession(rw io.ReadWriter) *Session {
	RegisterWireTypes()
	s := &Session{
		w:  bufio.NewWriter(rw),
		fr: &frameReader{r: bufio.NewReader(rw)},
	}
	s.enc = gob.NewEncoder(&s.buf)
	s.dec = gob.NewDecoder(s.fr)
	return s
}

// MarshalEnvelope appends one self-contained envelope encoding, carrying its
// own type descriptors, to buf (the fresh gob.Encoder is deliberate — a
// pooled one would omit them and produce an undecodable message).
func (gobCodec) MarshalEnvelope(env *Envelope, buf *bytes.Buffer) error {
	if err := gob.NewEncoder(buf).Encode(env); err != nil {
		return fmt.Errorf("wire: encode envelope: %w", err)
	}
	return nil
}

// UnmarshalEnvelope decodes one self-contained envelope.
func (gobCodec) UnmarshalEnvelope(data []byte) (Envelope, error) {
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return Envelope{}, fmt.Errorf("wire: decode envelope: %w", err)
	}
	return env, nil
}

// Session is one connection's streaming envelope coder pair. The two halves
// are independent: one goroutine may decode while another encodes, but each
// half itself is not safe for concurrent use — callers serialize writers
// (frames must not interleave) and run a single read loop.
//
// Any error from either half leaves the session's stream state undefined
// (a partially written frame, a half-consumed message): callers must drop
// the connection and establish a fresh session rather than continue.
type Session struct {
	// encode half
	w   *bufio.Writer
	buf bytes.Buffer
	enc *gob.Encoder

	// decode half
	fr  *frameReader
	dec *gob.Decoder
}

// EncodeEnvelope appends one framed envelope to the stream and flushes it,
// returning the bytes written to the connection.
func (s *Session) EncodeEnvelope(env *Envelope) (int, error) {
	s.buf.Reset()
	if err := s.enc.Encode(env); err != nil {
		return 0, fmt.Errorf("wire: encode envelope: %w", err)
	}
	n := s.buf.Len()
	if n > MaxFrame {
		// The encoder has already advanced its descriptor state for bytes
		// the peer will never see; the session is desynced (callers drop
		// the connection on any session error).
		return 0, fmt.Errorf("wire: envelope of %d bytes exceeds %d byte frame limit", n, MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := s.w.Write(s.buf.Bytes()); err != nil {
		return 0, err
	}
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	return 4 + n, nil
}

// DecodeEnvelope reads the next envelope from the stream into env, returning
// the bytes consumed. env should be a fresh zero value: gob does not clear
// fields absent from the wire. A clean peer close at a frame boundary
// surfaces as io.EOF.
func (s *Session) DecodeEnvelope(env *Envelope) (int, error) {
	start := s.fr.consumed
	if err := s.dec.Decode(env); err != nil {
		n := int(s.fr.consumed - start)
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return n, io.EOF
		}
		return n, fmt.Errorf("wire: decode envelope: %w", err)
	}
	// The decoder reads ahead through its internal buffer, so the per-call
	// byte attribution is approximate; the running total is exact.
	return int(s.fr.consumed - start), nil
}

// frameReader adapts the length-prefixed frame stream to the contiguous byte
// stream gob expects: it serves the payload of the current frame and reads
// the next frame header transparently when one is exhausted, enforcing
// MaxFrame so a corrupt prefix cannot allocate unbounded memory. Because the
// frames of one session concatenate to a single gob stream, decoder read-
// ahead across a frame boundary is harmless.
type frameReader struct {
	r        *bufio.Reader
	remain   uint32 // unread payload bytes of the current frame
	consumed int64  // total connection bytes consumed, headers included
}

func (f *frameReader) Read(p []byte) (int, error) {
	for f.remain == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
			// io.EOF here is a clean close at a frame boundary.
			return 0, err
		}
		f.consumed += 4
		n := binary.BigEndian.Uint32(hdr[:])
		if n > MaxFrame {
			return 0, fmt.Errorf("wire: frame of %d bytes exceeds %d byte limit", n, MaxFrame)
		}
		f.remain = n
	}
	if len(p) > int(f.remain) {
		p = p[:f.remain]
	}
	n, err := f.r.Read(p)
	f.remain -= uint32(n)
	f.consumed += int64(n)
	if err == io.EOF && n == 0 {
		err = io.ErrUnexpectedEOF // connection died mid-frame
	}
	return n, err
}
