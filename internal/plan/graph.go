package plan

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fargo/internal/ids"
	"fargo/internal/wire"
)

// uncappedFloor treats any reported free capacity at or above this value as
// effectively unlimited (core.capacityFree reports 1<<30 for uncapped cores).
const uncappedFloor = 1 << 20

// pair identifies one directed communication edge.
type pair struct {
	src, dst ids.CompletID
}

// Edge is one aggregated communication-graph edge: invocations from Src to
// Dst, wherever the two happen to be hosted right now. Edges are keyed on
// complet identity, so they survive moves (the meters live on the hosted
// complet and travel in its movement bundle).
type Edge struct {
	Src   ids.CompletID
	Dst   ids.CompletID
	Rate  float64 // invocations/second over the sliding window
	Count uint64  // windowed invocation count
	Bytes uint64  // cumulative argument bytes
}

// Graph is one collected snapshot of the planning domain: where every complet
// lives, how the complets talk to each other, and how loaded each core is.
type Graph struct {
	At        time.Time
	Cores     []ids.CoreID
	Placement map[ids.CompletID]ids.CoreID
	Edges     map[pair]*Edge
	Load      map[ids.CoreID]int
	Free      map[ids.CoreID]int
	// Missing lists member cores that did not answer the collector (their
	// complets are invisible this round; the heuristic never moves anything
	// toward or away from them).
	Missing []ids.CoreID
}

// CrossRate sums the rates of edges whose endpoints live on different cores —
// the quantity the planner tries to minimize.
func (g *Graph) CrossRate() float64 {
	var total float64
	for pr, e := range g.Edges {
		a, aOK := g.Placement[pr.src]
		b, bOK := g.Placement[pr.dst]
		if aOK && bOK && a != b {
			total += e.Rate
		}
	}
	return total
}

// collect queries every member core for its planner snapshot and aggregates
// the answers into one graph. Pair edges are accepted only from the core that
// the same snapshot places the edge's destination on (where they are
// recorded): members answer at slightly different instants, so a complet
// that moved between two answers can be reported by both its old and its
// new host.
func (p *Planner) collect(ctx context.Context) (*Graph, error) {
	members := p.members()
	g := &Graph{
		At:        time.Now(),
		Cores:     members,
		Placement: make(map[ids.CompletID]ids.CoreID),
		Edges:     make(map[pair]*Edge),
		Load:      make(map[ids.CoreID]int),
		Free:      make(map[ids.CoreID]int),
	}
	replies := make([]wire.PlanStatsReply, 0, len(members))
	for _, m := range members {
		obs, err := p.c.ObsAtCtx(ctx, m, wire.ObsQuery{Plan: true})
		if err != nil {
			g.Missing = append(g.Missing, m)
			p.logf("plan %s: collect from %s: %v", p.c.ID(), m, err)
			continue
		}
		rep := *obs.Plan
		g.Load[rep.Core] = rep.Load
		g.Free[rep.Core] = rep.CapacityFree
		for _, id := range rep.Complets {
			g.Placement[id] = rep.Core
		}
		replies = append(replies, rep)
	}
	if len(replies) == 0 {
		return nil, fmt.Errorf("plan: no member core answered the collector (%d queried)", len(members))
	}
	// Second pass now that placement is complete: accept each edge from the
	// core hosting its destination.
	for _, rep := range replies {
		for _, ps := range rep.Pairs {
			if g.Placement[ps.Dst] != rep.Core {
				continue // reported by a host the snapshot does not place it on
			}
			if ps.Count == 0 && ps.Rate == 0 {
				continue
			}
			key := pair{src: ps.Src, dst: ps.Dst}
			e, ok := g.Edges[key]
			if !ok {
				e = &Edge{Src: ps.Src, Dst: ps.Dst}
				g.Edges[key] = e
			}
			e.Rate += ps.Rate
			e.Count += ps.Count
			e.Bytes += ps.Bytes
		}
	}
	return g, nil
}

// Move is one proposed relocation with its estimated savings: the net
// cross-core invocations/second eliminated by moving Complet from From to To,
// given the (tentatively updated) placement at proposal time.
type Move struct {
	Complet ids.CompletID
	From    ids.CoreID
	To      ids.CoreID
	Gain    float64
}

// Proposal is the outcome of one planning pass over a graph.
type Proposal struct {
	At    time.Time
	Moves []Move
	// CrossRate is the graph's cross-core rate before the proposal;
	// Savings the total estimated gain of the proposed moves.
	CrossRate float64
	Savings   float64
}

// propose runs the placement heuristic: greedy edge contraction. Cross-core
// edges are visited heaviest-first; for each, the endpoint whose relocation
// nets the larger reduction in cross-core traffic is tentatively moved next
// to the other — provided the destination has capacity, the complet is not
// pinned, was not moved within the cooldown, and the net gain clears the
// min-gain threshold. Later edges see the updated placement, so chains of
// chatty complets contract onto one core in a single pass (a practical
// min-cut-style partitioner; DESIGN.md §14).
//
// The caller must hold p.mu (propose reads the cooldown map).
func (p *Planner) propose(g *Graph, now time.Time) Proposal {
	prop := Proposal{At: now, CrossRate: g.CrossRate()}

	// Undirected attraction weights between placed complets. Rates in the
	// two directions add: what matters for co-location is total chatter.
	neighbors := make(map[ids.CompletID]map[ids.CompletID]float64)
	addWeight := func(a, b ids.CompletID, w float64) {
		if neighbors[a] == nil {
			neighbors[a] = make(map[ids.CompletID]float64)
		}
		neighbors[a][b] += w
	}
	type ekey struct{ a, b ids.CompletID }
	weight := make(map[ekey]float64)
	for pr, e := range g.Edges {
		if pr.src == pr.dst || e.Rate <= 0 {
			continue
		}
		if _, ok := g.Placement[pr.src]; !ok {
			continue // source not hosted by a member (or its host is missing)
		}
		if _, ok := g.Placement[pr.dst]; !ok {
			continue
		}
		a, b := pr.src, pr.dst
		if b.String() < a.String() {
			a, b = b, a
		}
		weight[ekey{a, b}] += e.Rate
		addWeight(pr.src, pr.dst, e.Rate)
		addWeight(pr.dst, pr.src, e.Rate)
	}

	type cand struct {
		a, b ids.CompletID
		w    float64
		// tie-break on bytes so the heavier data edge contracts first
		bytes uint64
	}
	cands := make([]cand, 0, len(weight))
	for k, w := range weight {
		c := cand{a: k.a, b: k.b, w: w}
		if e, ok := g.Edges[pair{src: k.a, dst: k.b}]; ok {
			c.bytes += e.Bytes
		}
		if e, ok := g.Edges[pair{src: k.b, dst: k.a}]; ok {
			c.bytes += e.Bytes
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].bytes != cands[j].bytes {
			return cands[i].bytes > cands[j].bytes
		}
		if cands[i].a != cands[j].a {
			return cands[i].a.String() < cands[j].a.String()
		}
		return cands[i].b.String() < cands[j].b.String()
	})

	// Working copies the contraction updates as moves are chosen.
	place := make(map[ids.CompletID]ids.CoreID, len(g.Placement))
	for id, core := range g.Placement {
		place[id] = core
	}
	free := make(map[ids.CoreID]int, len(g.Free))
	for core, f := range g.Free {
		free[core] = f
	}
	moved := make(map[ids.CompletID]bool)

	attraction := func(x ids.CompletID, k ids.CoreID) float64 {
		var s float64
		for n, w := range neighbors[x] {
			if place[n] == k {
				s += w
			}
		}
		return s
	}
	movable := func(x ids.CompletID, to ids.CoreID) bool {
		switch {
		case moved[x], p.pinned[x]:
			return false
		case !p.lastMoved[x].IsZero() && now.Sub(p.lastMoved[x]) < p.opts.Cooldown:
			return false // hysteresis: recently moved complets settle first
		case free[to] <= 0:
			return false // uncapped cores report a huge sentinel, never 0
		}
		return true
	}

	for _, cd := range cands {
		if p.opts.MaxMovesPerRound > 0 && len(prop.Moves) >= p.opts.MaxMovesPerRound {
			break
		}
		ca, cb := place[cd.a], place[cd.b]
		if ca == cb || ca.Nil() || cb.Nil() {
			continue
		}
		best := Move{Gain: p.opts.MinGain - 1} // below any acceptable gain
		for _, opt := range []Move{
			{Complet: cd.a, From: ca, To: cb},
			{Complet: cd.b, From: cb, To: ca},
		} {
			if !movable(opt.Complet, opt.To) {
				continue
			}
			opt.Gain = attraction(opt.Complet, opt.To) - attraction(opt.Complet, opt.From)
			if opt.Gain > best.Gain {
				best = opt
			}
		}
		if best.Complet.Nil() || best.Gain < p.opts.MinGain {
			continue
		}
		place[best.Complet] = best.To
		if free[best.To] < uncappedFloor {
			free[best.To]--
		}
		if free[best.From] < uncappedFloor {
			free[best.From]++
		}
		moved[best.Complet] = true
		prop.Moves = append(prop.Moves, best)
		prop.Savings += best.Gain
	}
	return prop
}
