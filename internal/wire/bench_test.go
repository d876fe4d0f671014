package wire

import (
	"bytes"
	"testing"

	"fargo/internal/ids"
)

func benchEnvelope() Envelope {
	return Envelope{
		From:    "core-a",
		Req:     42,
		Kind:    KindInvoke,
		Payload: bytes.Repeat([]byte{0xab}, 256),
	}
}

// BenchmarkSessionEnvelope measures the stream hot path: one framed
// envelope encoded and decoded per op.
func BenchmarkSessionEnvelope(b *testing.B) {
	env := benchEnvelope()
	var stream bytes.Buffer
	sess := Gob.NewSession(&stream)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.EncodeEnvelope(&env); err != nil {
			b.Fatal(err)
		}
		var got Envelope
		if _, err := sess.DecodeEnvelope(&got); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePayload(b *testing.B) {
	req := InvokeRequest{Target: ids.CompletID{Birth: "core-a", Seq: 7}, Method: "Print", Args: bytes.Repeat([]byte{1}, 128)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePayload(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeArgs(b *testing.B) {
	args := []any{42, "hello", 3.14, true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EncodeArgs(args); err != nil {
			b.Fatal(err)
		}
	}
}
