package core

import (
	"context"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

// TestObsQuerySections pins the one nil-destination rule and the section
// contract of the introspection query: for a nil, self and peer destination,
// every section is present exactly when it was requested, and nil answers
// for this core like self does.
func TestObsQuerySections(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a, b := cl.core("a"), cl.core("b")
	// Per-method rows on both cores, and one trace with spans on both.
	local, err := a.NewComplet("Msg", "here")
	if err != nil {
		t.Fatal(err)
	}
	invoke1(t, local, "Print")
	remote, err := a.NewCompletAt("b", "Msg", "there")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Core{a, b} {
		c.Tracer().SetSampleRate(1)
	}
	invoke1(t, remote, "Print")
	sums := a.traceSummaries(0)
	if len(sums) != 1 {
		t.Fatalf("want one trace rooted at a, got %+v", sums)
	}
	traced := sums[0].Trace

	sections := []struct {
		name    string
		query   wire.ObsQuery
		present func(wire.ObsQueryReply) bool
	}{
		{"stats", wire.ObsQuery{Stats: true}, func(r wire.ObsQueryReply) bool { return r.Stats != nil }},
		{"health", wire.ObsQuery{Health: true}, func(r wire.ObsQueryReply) bool { return r.Health != nil }},
		{"info", wire.ObsQuery{Info: true}, func(r wire.ObsQueryReply) bool { return r.Info != nil }},
		{"flight", wire.ObsQuery{Flight: true}, func(r wire.ObsQueryReply) bool { return r.Flight != nil }},
		{"traces", wire.ObsQuery{Traces: true}, func(r wire.ObsQueryReply) bool { return len(r.Traces) > 0 }},
		{"trace", wire.ObsQuery{Trace: uint64(traced)}, func(r wire.ObsQueryReply) bool { return len(r.Spans) > 0 }},
		{"methods", wire.ObsQuery{Methods: true}, func(r wire.ObsQueryReply) bool { return len(r.Methods) > 0 }},
		{"plan", wire.ObsQuery{Plan: true}, func(r wire.ObsQueryReply) bool { return r.Plan != nil }},
	}
	dests := []struct {
		name string
		dest ids.CoreID
		want ids.CoreID
	}{
		{"nil", "", "a"},
		{"self", "a", "a"},
		{"peer", "b", "b"},
	}
	for _, d := range dests {
		for _, asked := range sections {
			t.Run(d.name+"/"+asked.name, func(t *testing.T) {
				reply, err := a.ObsAtCtx(context.Background(), d.dest, asked.query)
				if err != nil {
					t.Fatal(err)
				}
				if reply.Core != d.want {
					t.Fatalf("answered by %q, want %q", reply.Core, d.want)
				}
				for _, s := range sections {
					if got, want := s.present(reply), s.name == asked.name; got != want {
						t.Errorf("section %s present = %v, want %v", s.name, got, want)
					}
				}
			})
		}
	}
}

// TestObsQueryRetriedAfterLostAttempt pins the retry rule of the
// introspection query: it is idempotent, so a first attempt lost to a
// transient fault is retried and the call still succeeds.
func TestObsQueryRetriedAfterLostAttempt(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")
	faulty := transport.NewFaulty(a.tr, 17)
	a.tr = faulty
	faulty.Partition("b", true)
	// Heal the link as soon as the first attempt has been lost; the retry
	// backoff (25 ms base) leaves ample time.
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		deadline := time.Now().Add(5 * time.Second)
		for faulty.Counts().Partitioned == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		faulty.Partition("b", false)
	}()
	reply, err := a.ObsAtCtx(context.Background(), "b", wire.ObsQuery{Health: true})
	<-healed
	if err != nil {
		t.Fatalf("obs query after one lost attempt: %v", err)
	}
	if reply.Core != "b" || reply.Health == nil {
		t.Fatalf("reply = %+v", reply)
	}
	if n := faulty.Counts().Partitioned; n != 1 {
		t.Fatalf("%d attempts lost, want exactly the first", n)
	}
}
