package wire

import (
	"bytes"
	"io"
	"testing"

	"fargo/internal/ids"
)

// rwPair glues a reader and a writer into the io.ReadWriter a codec session
// binds to (tests stand in for a net.Conn).
type rwPair struct {
	io.Reader
	io.Writer
}

func sessionOver(data []byte) *Session {
	return Gob.NewSession(rwPair{Reader: bytes.NewReader(data), Writer: io.Discard})
}

// FuzzEnvelopeRoundTrip drives the envelope record and its stream framing
// end to end: two envelopes through one session, the bare record pair, and
// the failure paths — truncated frames must error, and corrupted bytes must
// error or decode, never panic.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("core-a", uint64(1), false, byte(1), []byte("payload"), int64(0), uint64(0), uint64(0), false)
	f.Add("core-b", uint64(0), true, byte(24), []byte(nil), int64(-1), uint64(7), uint64(9), true)
	f.Add("", uint64(1<<63), true, byte(255), bytes.Repeat([]byte{0xfe}, 300), int64(1<<40), uint64(1), uint64(2), true)
	f.Fuzz(func(t *testing.T, from string, req uint64, isReply bool, kind byte, payload []byte, deadline int64, traceID, span uint64, sampled bool) {
		env := Envelope{
			From:     ids.CoreID(from),
			Req:      ids.RequestID(req),
			IsReply:  isReply,
			Kind:     Kind(kind),
			Deadline: deadline,
			TraceID:  traceID,
			Span:     span,
			Sampled:  sampled,
			Payload:  payload,
		}

		var stream bytes.Buffer
		sess := Gob.NewSession(&stream)
		n1, err := sess.EncodeEnvelope(&env)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		wireBytes := append([]byte(nil), stream.Bytes()...)
		n2, err := sess.EncodeEnvelope(&env)
		if err != nil {
			t.Fatalf("encode second: %v", err)
		}
		if n2 != n1 {
			t.Fatalf("the same envelope framed to %d then %d bytes", n1, n2)
		}
		for i := 0; i < 2; i++ {
			var got Envelope
			n, err := sess.DecodeEnvelope(&got)
			if err != nil {
				t.Fatalf("decode %d: %v", i, err)
			}
			if n != n1 {
				t.Fatalf("decode %d consumed %d bytes, frame is %d", i, n, n1)
			}
			requireSameEnvelope(t, env, got)
		}
		// The stream is drained: one more decode must report a clean EOF.
		var extra Envelope
		if _, err := sess.DecodeEnvelope(&extra); err != io.EOF {
			t.Fatalf("decode past end: %v, want io.EOF", err)
		}

		// The frame body is exactly the bare record.
		record := AppendEnvelope(nil, &env)
		if !bytes.Equal(wireBytes[4:], record) {
			t.Fatalf("frame body differs from the record")
		}
		got, err := ReadEnvelope(record)
		if err != nil {
			t.Fatalf("read record: %v", err)
		}
		requireSameEnvelope(t, env, got)

		// Every proper prefix of a single framed envelope must fail to
		// decode on a fresh session.
		for _, cut := range []int{0, 1, 3, 4, 5, len(wireBytes) / 2, len(wireBytes) - 1} {
			if cut < 0 || cut >= len(wireBytes) {
				continue
			}
			var got Envelope
			if _, err := sessionOver(wireBytes[:cut]).DecodeEnvelope(&got); err == nil {
				t.Fatalf("truncated stream of %d/%d bytes decoded", cut, len(wireBytes))
			}
		}

		// A flipped byte must never panic; it may error or, for bytes
		// outside the framing and the record's fixed fields, still yield
		// an envelope.
		bad := append([]byte(nil), wireBytes...)
		bad[req%uint64(len(bad))] ^= 0xff
		_, _ = sessionOver(bad).DecodeEnvelope(&got)
		_, _ = ReadEnvelope(bad[4:])
	})
}

func requireSameEnvelope(t *testing.T, want, got Envelope) {
	t.Helper()
	if got.From != want.From || got.Req != want.Req || got.IsReply != want.IsReply ||
		got.Kind != want.Kind || got.Deadline != want.Deadline ||
		got.TraceID != want.TraceID || got.Span != want.Span || got.Sampled != want.Sampled ||
		!bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("envelope mismatch:\n got %+v\nwant %+v", got, want)
	}
}
