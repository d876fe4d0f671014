// The envelope wire format is one fixed-layout record, the same on every
// link:
//
//	flags    1 byte   bit 0 IsReply, bit 1 Sampled; other bits must be 0
//	kind     1 byte
//	req      uvarint
//	deadline varint (zig-zag)
//	trace    uvarint
//	span     uvarint
//	from     uvarint length, then that many bytes
//	payload  the rest of the record
//
// A record carries no state from earlier records, so a link may drop,
// reorder or restart without desyncing its peer. Message-granular links
// (netsim) ship the record as is; stream links (TCP) put a 4-byte big-endian
// length in front of it (Session).

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"fargo/internal/ids"
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

// --- envelope record --------------------------------------------------------

const (
	flagReply   = 1 << 0
	flagSampled = 1 << 1
)

// FormatID is the byte naming the envelope record format in the TCP
// connection preamble; a TCP transport refuses connections that announce
// another.
const FormatID = 'r'

// AppendEnvelope appends env's record to b and returns the extended slice.
func AppendEnvelope(b []byte, env *Envelope) []byte {
	var flags byte
	if env.IsReply {
		flags |= flagReply
	}
	if env.Sampled {
		flags |= flagSampled
	}
	b = append(b, flags, byte(env.Kind))
	b = binary.AppendUvarint(b, uint64(env.Req))
	b = binary.AppendVarint(b, env.Deadline)
	b = binary.AppendUvarint(b, env.TraceID)
	b = binary.AppendUvarint(b, env.Span)
	b = binary.AppendUvarint(b, uint64(len(env.From)))
	b = append(b, env.From...)
	return append(b, env.Payload...)
}

var errBadRecord = errors.New("wire: malformed envelope record")

// ReadEnvelope decodes one envelope record. The returned Payload aliases
// data (nil when empty), so callers hand it a buffer they no longer write.
func ReadEnvelope(data []byte) (Envelope, error) {
	if len(data) < 2 || data[0]&^(flagReply|flagSampled) != 0 {
		return Envelope{}, errBadRecord // too short, or a flag this format lacks
	}
	flags := data[0]
	var f [5]uint64 // req, deadline (zig-zag), trace, span, from length
	rest := data[2:]
	for i := range f {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return Envelope{}, errBadRecord
		}
		f[i], rest = v, rest[n:]
	}
	if f[4] > uint64(len(rest)) {
		return Envelope{}, errBadRecord
	}
	env := Envelope{
		From:     ids.CoreID(rest[:f[4]]),
		Req:      ids.RequestID(f[0]),
		IsReply:  flags&flagReply != 0,
		Kind:     Kind(data[1]),
		Deadline: int64(f[1]>>1) ^ -int64(f[1]&1), // binary.Varint's zig-zag
		TraceID:  f[2],
		Span:     f[3],
		Sampled:  flags&flagSampled != 0,
	}
	if payload := rest[f[4]:]; len(payload) > 0 {
		env.Payload = payload
	}
	return env, nil
}

// --- stream framing ---------------------------------------------------------

// Gob is the envelope framing for stream transports. Its name is historical:
// the frames once held a gob stream, and now each holds one envelope record.
var Gob gobCodec

type gobCodec struct{}

// NewSession binds length-prefixed envelope framing to a connection.
func (gobCodec) NewSession(rw io.ReadWriter) *Session {
	return &Session{w: rw, r: bufio.NewReader(rw)}
}

// Session frames envelope records over one connection. The two halves are
// independent: one goroutine may decode while another encodes, but each half
// itself is not safe for concurrent use — callers serialize writers (frames
// must not interleave) and run a single read loop.
//
// A frame does not depend on earlier frames, but a failed write or read
// leaves the stream at an unknown offset: callers drop the connection on any
// session error rather than continue.
type Session struct {
	w io.Writer
	r *bufio.Reader
}

// EncodeEnvelope writes one framed envelope (4-byte big-endian length, then
// the record) to the connection in a single Write, returning the bytes
// written.
func (s *Session) EncodeEnvelope(env *Envelope) (int, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	buf.Write([]byte{0, 0, 0, 0}) // the length, filled in below
	buf.Write(AppendEnvelope(buf.AvailableBuffer(), env))
	frame := buf.Bytes()
	n := len(frame) - 4
	if n > MaxFrame {
		return 0, fmt.Errorf("wire: envelope of %d bytes exceeds %d byte frame limit", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	if _, err := s.w.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// DecodeEnvelope reads the next framed envelope into env, returning the
// bytes consumed. A clean peer close at a frame boundary surfaces as io.EOF,
// a close inside a frame as io.ErrUnexpectedEOF.
func (s *Session) DecodeEnvelope(env *Envelope) (int, error) {
	var hdr [4]byte
	if n, err := io.ReadFull(s.r, hdr[:]); err != nil {
		return n, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxFrame {
		return 4, fmt.Errorf("wire: frame of %d bytes exceeds %d byte limit", size, MaxFrame)
	}
	body := make([]byte, size)
	if n, err := io.ReadFull(s.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 4 + n, fmt.Errorf("wire: decode envelope: %w", err)
	}
	e, err := ReadEnvelope(body)
	*env = e
	return 4 + len(body), err
}
