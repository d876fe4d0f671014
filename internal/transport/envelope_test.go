package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fargo/internal/netsim"
	"fargo/internal/wire"
)

// TestTCPPreambleGate dials a TCP transport with a raw socket, announces a
// preamble, then sends a hello and a request frame. Only the current magic
// and format byte open a session: for any other preamble the accept side
// must close the connection without parsing a frame, so the hello teaches
// it no address, the handler never runs and the request gets no reply.
func TestTCPPreambleGate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		preamble [5]byte
		accepted bool
	}{
		{"current format", [5]byte{'F', 'G', 'W', '1', wire.FormatID}, true},
		{"old gob format", [5]byte{'F', 'G', 'W', '1', 'g'}, false},
		{"bad magic", [5]byte{'F', 'G', 'W', '0', wire.FormatID}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			book := NewAddrBook(nil)
			b, err := NewTCP("core-b", "127.0.0.1:0", book)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var logMu sync.Mutex
			var logged strings.Builder
			b.SetLogf(func(format string, args ...any) {
				logMu.Lock()
				defer logMu.Unlock()
				fmt.Fprintf(&logged, format+"\n", args...)
			})
			var served atomic.Int32
			b.SetHandler(func(context.Context, wire.Envelope) (wire.Kind, []byte, error) {
				served.Add(1)
				return wire.KindPong, nil, nil
			})

			conn, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.preamble[:]); err != nil {
				t.Fatal(err)
			}
			sess := wire.Gob.NewSession(conn)
			helloBytes, err := wire.EncodePayload(hello{From: "core-a", Addr: "127.0.0.1:1"})
			if err != nil {
				t.Fatal(err)
			}
			// The accept side may already have closed the socket, so
			// write errors are expected for a refused preamble.
			_, _ = sess.EncodeEnvelope(&wire.Envelope{From: "core-a", Kind: wire.KindHello, Payload: helloBytes})
			_, _ = sess.EncodeEnvelope(&wire.Envelope{From: "core-a", Req: 1, Kind: wire.KindPing})

			if tc.accepted {
				waitUntil(t, func() bool { return served.Load() == 1 })
				if _, ok := book.Get("core-a"); !ok {
					t.Fatal("accepted connection did not learn the dialer's address")
				}
				return
			}
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			var got wire.Envelope
			if _, err := sess.DecodeEnvelope(&got); err == nil {
				t.Fatalf("refused connection answered with %+v", got)
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("accept side kept a refused connection open")
			}
			if n := served.Load(); n != 0 {
				t.Fatalf("handler ran %d times on a refused connection", n)
			}
			if _, ok := book.Get("core-a"); ok {
				t.Fatal("refused connection's hello was parsed")
			}
			logMu.Lock()
			defer logMu.Unlock()
			if !strings.Contains(logged.String(), "preamble") && !strings.Contains(logged.String(), "wire format") {
				t.Fatalf("refusal not logged; log: %q", logged.String())
			}
		})
	}
}

// TestOneEnvelopePath sends the same envelope over Sim and over TCP and
// captures what each puts on its link: the netsim message must equal the
// TCP frame body after its 4-byte length.
func TestOneEnvelopePath(t *testing.T) {
	payload := []byte("same bytes on every link")

	nw := netsim.NewNetwork(1)
	defer nw.Close()
	s, err := NewSim(nw, "core-a")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	probe, err := nw.AddHost("probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Notify("probe", wire.KindPing, payload); err != nil {
		t.Fatal(err)
	}
	var simRecord []byte
	select {
	case msg := <-probe.Recv():
		simRecord = msg.Payload
	case <-time.After(5 * time.Second):
		t.Fatal("no netsim message")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tcp, err := NewTCP("core-a", "127.0.0.1:0", NewAddrBook(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	tcp.Book().Set("probe", ln.Addr().String())
	if err := tcp.Notify("probe", wire.KindPing, payload); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var pre [5]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		t.Fatal(err)
	}
	if pre != [5]byte{'F', 'G', 'W', '1', wire.FormatID} {
		t.Fatalf("preamble %q", pre[:])
	}
	readFrame := func() []byte {
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	if env, err := wire.ReadEnvelope(readFrame()); err != nil || env.Kind != wire.KindHello {
		t.Fatalf("first frame: %+v, %v; want the hello", env, err)
	}
	tcpRecord := readFrame()

	if !bytes.Equal(simRecord, tcpRecord) {
		t.Fatalf("netsim message %x differs from TCP frame body %x", simRecord, tcpRecord)
	}
	env, err := wire.ReadEnvelope(tcpRecord)
	if err != nil {
		t.Fatal(err)
	}
	if env.From != "core-a" || env.Kind != wire.KindPing || !bytes.Equal(env.Payload, payload) {
		t.Fatalf("decoded %+v", env)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
