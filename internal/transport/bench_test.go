package transport

import (
	"context"
	"testing"

	"fargo/internal/ids"
	"fargo/internal/netsim"
	"fargo/internal/wire"
)

// benchEcho answers every request with its own payload.
func benchEcho(_ context.Context, env wire.Envelope) (wire.Kind, []byte, error) {
	return wire.KindPong, env.Payload, nil
}

// BenchmarkTCPRequestReply measures one full request/reply round trip over
// loopback TCP, one framed envelope record each way.
func BenchmarkTCPRequestReply(b *testing.B) {
	book := NewAddrBook(nil)
	ta, err := NewTCP("core-a", "127.0.0.1:0", book)
	if err != nil {
		b.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP("core-b", "127.0.0.1:0", book)
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	book.Set("core-a", ta.Addr())
	book.Set("core-b", tb.Addr())
	runRequestReply(b, ta, tb)
}

// BenchmarkSimRequestReply measures the same round trip over the simulated
// network, one envelope record per message.
func BenchmarkSimRequestReply(b *testing.B) {
	net := netsim.NewNetwork(1)
	defer net.Close()
	sa, err := NewSim(net, "core-a")
	if err != nil {
		b.Fatal(err)
	}
	defer sa.Close()
	sb, err := NewSim(net, "core-b")
	if err != nil {
		b.Fatal(err)
	}
	defer sb.Close()
	runRequestReply(b, sa, sb)
}

func runRequestReply(b *testing.B, a, peer Transport) {
	b.Helper()
	a.SetHandler(benchEcho)
	peer.SetHandler(benchEcho)
	payload := make([]byte, 128)
	ctx := context.Background()
	// Warm the connection outside the timed loop.
	if _, err := a.Request(ctx, ids.CoreID("core-b"), wire.KindPing, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Request(ctx, ids.CoreID("core-b"), wire.KindPing, payload); err != nil {
			b.Fatal(err)
		}
	}
}
