package main

import (
	"fmt"
	"os"

	"fargo/internal/core"
	"fargo/internal/demo"
	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/transport"
)

// flightCap sizes each core's flight recorder so a whole run's hop-budget
// trips stay countable; the ring's default (512) would overwrite them under
// a run's worth of move events.
const flightCap = 1 << 16

// cluster is a set of cores in this process, each on its own loopback TCP
// listener, all sharing one address book so any core can dial any other.
type cluster struct {
	cores map[string]*core.Core
	names []string
}

// newCluster starts one core per name. Moves are unjournaled: an fsync'd
// journal on a shared disk made move latency depend on the disk more than on
// the protocol (README.md, "Journal").
func newCluster(names []string) (*cluster, error) {
	book := transport.NewAddrBook(nil)
	trs := make([]*transport.TCP, 0, len(names))
	closeAll := func() {
		for _, t := range trs {
			_ = t.Close()
		}
	}
	for _, n := range names {
		t, err := transport.NewTCP(ids.CoreID(n), "127.0.0.1:0", book)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("listen %s: %w", n, err)
		}
		book.Set(ids.CoreID(n), t.Addr())
		trs = append(trs, t)
	}
	cl := &cluster{cores: map[string]*core.Core{}, names: names}
	for i, n := range names {
		reg := registry.New()
		if err := demo.Register(reg); err != nil {
			closeAll()
			cl.close()
			return nil, err
		}
		opts := core.Options{FlightRecorderSize: flightCap, Logf: func(string, ...any) {}}
		c, err := core.New(trs[i], reg, opts)
		if err != nil {
			for _, t := range trs[i:] {
				_ = t.Close()
			}
			cl.close()
			return nil, fmt.Errorf("core %s: %w", n, err)
		}
		cl.cores[n] = c
	}
	for _, n := range names {
		for _, p := range names {
			if p != n {
				cl.cores[n].SeedPeers(ids.CoreID(p))
			}
		}
	}
	return cl, nil
}

func (cl *cluster) core(name string) *core.Core { return cl.cores[name] }

func (cl *cluster) close() {
	for _, c := range cl.cores {
		_ = c.Shutdown(0)
	}
}

// counter sums one published counter over every core.
func (cl *cluster) counter(name string) float64 {
	var s uint64
	for _, c := range cl.cores {
		s += c.Metrics().Counter(name).Value()
	}
	return float64(s)
}

// flightEvents counts flight-recorder events of one kind over every core.
func (cl *cluster) flightEvents(kind string) int {
	n := 0
	for _, c := range cl.cores {
		for _, ev := range c.Flight().Snapshot(flightCap) {
			if ev.Kind == kind {
				n++
			}
		}
	}
	return n
}

// hosts lists the cores whose repository holds a live copy of the complet.
func (cl *cluster) hosts(id ids.CompletID) []string {
	var out []string
	for _, n := range cl.names {
		for _, ci := range cl.cores[n].Complets() {
			if ci.ID == id {
				out = append(out, n)
			}
		}
	}
	return out
}

// refFrom returns a fresh reference to a complet held by another core,
// hinted at that core, so a check through it walks whatever tracker chain
// the run left behind.
func (cl *cluster) refFrom(from string, id ids.CompletID, hint string) *ref.Ref {
	return cl.cores[from].NewRefTo(id, "KVStore", ids.CoreID(hint))
}

// freshDir empties and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
