package core

import (
	"fmt"
	"sort"

	"fargo/internal/ids"
	"fargo/internal/ref"
)

// Resource negotiation and allocation — the last future-work direction the
// paper names (§7, "we are working on a security and resource negotiation
// models"; the acknowledgements credit adaptive resource negotiation and
// allocation schemes). The model implemented here is deliberately simple but
// end-to-end real:
//
//   - every core can declare a complet capacity; arrivals beyond it are
//     refused (admission control), and a refused move leaves the complet
//     fully usable at its source;
//   - free capacity is a profiling service, so policies and scripts can
//     measure it like any other resource;
//   - Negotiate queries a candidate set and picks the best destination
//     (most free capacity, ties broken by lowest latency), and MoveToBest
//     combines negotiation with movement.

// ServiceCapacityFree measures the remaining complet capacity of a core
// (+Inf is reported as a large sentinel when the core is uncapped).
const ServiceCapacityFree = "capacityFree"

// uncappedSentinel is the capacityFree value reported by cores without a
// configured capacity.
const uncappedSentinel = 1 << 30

// ErrAtCapacity is returned when an instantiation or arrival would exceed
// the core's declared complet capacity.
var ErrAtCapacity = fmt.Errorf("core: at capacity")

// SetCapacity declares how many complets this core accepts (0 = unlimited).
// Lowering the capacity below the current population does not evict anyone;
// it only blocks further arrivals.
func (c *Core) SetCapacity(maxComplets int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = maxComplets
}

// Capacity returns the declared capacity (0 = unlimited).
func (c *Core) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// capacityFree returns the free slots (uncappedSentinel when unlimited).
func (c *Core) capacityFree() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return uncappedSentinel
	}
	free := c.capacity - c.nHosted
	if free < 0 {
		free = 0
	}
	return free
}

// admit checks whether n more complets fit.
func (c *Core) admit(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return nil
	}
	if c.nHosted+n > c.capacity {
		return fmt.Errorf("%w: %d/%d used, %d arriving", ErrAtCapacity, c.nHosted, c.capacity, n)
	}
	return nil
}

// Candidate is one negotiation result.
type Candidate struct {
	Core ids.CoreID
	// Free is the candidate's free complet capacity.
	Free float64
	// LatencyMillis is the measured round-trip time to the candidate.
	LatencyMillis float64
	// Err records why a candidate was disqualified (nil when usable).
	Err error
}

// Negotiate queries the candidate cores for free capacity and latency, and
// returns them ranked: most free capacity first, latency as the tie-break.
// Candidates that cannot be measured are ranked last with their error
// recorded. need is the number of complets to place; candidates with less
// free capacity are disqualified.
func (c *Core) Negotiate(candidates []ids.CoreID, need int) ([]Candidate, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: negotiate: no candidates")
	}
	if need <= 0 {
		need = 1
	}
	out := make([]Candidate, 0, len(candidates))
	for _, cand := range candidates {
		entry := Candidate{Core: cand}
		free, err := c.mon.InstantAt(cand, ServiceCapacityFree)
		if err != nil {
			entry.Err = err
			out = append(out, entry)
			continue
		}
		entry.Free = free
		if free < float64(need) {
			entry.Err = fmt.Errorf("%w: %v free, need %d", ErrAtCapacity, free, need)
			out = append(out, entry)
			continue
		}
		if cand == c.id {
			entry.LatencyMillis = 0
		} else {
			lat, err := c.mon.InstantAt(c.id, ServiceLatency, cand.String())
			if err != nil {
				entry.Err = err
				out = append(out, entry)
				continue
			}
			entry.LatencyMillis = lat
		}
		out = append(out, entry)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case (a.Err == nil) != (b.Err == nil):
			return a.Err == nil
		case a.Free != b.Free:
			return a.Free > b.Free
		default:
			return a.LatencyMillis < b.LatencyMillis
		}
	})
	if out[0].Err != nil {
		return out, fmt.Errorf("core: negotiate: no candidate can host %d complet(s); best error: %v", need, out[0].Err)
	}
	return out, nil
}

// MoveToBest negotiates among the candidates and moves the complet to the
// winner, falling through the ranking when a move is refused (capacity can
// change between negotiation and arrival). It returns the chosen core.
func (c *Core) MoveToBest(r *ref.Ref, candidates []ids.CoreID) (ids.CoreID, error) {
	ranked, err := c.Negotiate(candidates, 1)
	if err != nil {
		return "", err
	}
	var lastErr error
	for _, cand := range ranked {
		if cand.Err != nil {
			break // disqualified candidates are sorted last
		}
		if err := c.Move(r, cand.Core); err != nil {
			lastErr = err
			continue
		}
		return cand.Core, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: no usable candidate")
	}
	return "", fmt.Errorf("core: move to best of %v: %w", candidates, lastErr)
}
