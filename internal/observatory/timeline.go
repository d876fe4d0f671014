package observatory

import (
	"sync"

	"fargo/internal/flight"
)

// The merged timeline. Each member's flight recorder already carries a
// per-core causal order (strictly monotonic Seq, stamped under the same lock
// as the wall clock, so At never regresses along Seq). A refresh pulls each
// member's unseen suffix and weaves the batches into one total order with a
// k-way merge: the earliest wall-clock head wins, ties break on core name,
// and events of one core are NEVER reordered relative to each other — the
// merge consumes each batch strictly in Seq order. The chosen total order is
// then stamped with a Lamport-style merge clock (Event.Merge), so consumers
// can refer to "the timeline as of merge N" stably even though wall clocks
// across machines are only loosely synchronized (the paper's LAN setting).
//
// Planner decisions interleave for free: the planner mirrors every verdict
// into its core's flight recorder (planApplied/planSkipped), which is just
// another member feed here.

// Event is one merged timeline entry: a flight-recorder event plus its
// origin core and merge stamp.
type Event struct {
	// Merge is the Lamport-style merge clock: the position of this event in
	// the observatory's total order (1-based, strictly monotonic).
	Merge uint64 `json:"merge"`
	// Core is the member the event happened on.
	Core string `json:"core"`
	// Event is the occurrence as the origin core recorded it: its Seq is
	// the per-core causal sequence number and At the wall-clock record time
	// there.
	flight.Event
}

// mergeBatches k-way merges per-member event batches (each Seq-ascending)
// into one slice ordered by (At, Core) without ever reordering a single
// member's events.
func mergeBatches(batches [][]Event) []Event {
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	heads := make([]int, len(batches))
	for len(out) < total {
		best := -1
		for i, b := range batches {
			if heads[i] >= len(b) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			h, bh := b[heads[i]], batches[best][heads[best]]
			if h.At.Before(bh.At) || (h.At.Equal(bh.At) && h.Core < bh.Core) {
				best = i
			}
		}
		out = append(out, batches[best][heads[best]])
		heads[best]++
	}
	return out
}

// Timeline returns the retained merged timeline, oldest first. max > 0
// limits the result to the newest max events.
func (o *Observatory) Timeline(max int) []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.timeline)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Event, n)
	copy(out, o.timeline[len(o.timeline)-n:])
	return out
}

// subscriber is one live timeline consumer. A Refresh fans out to a snapshot
// of the subs map taken under o.mu, so by the time it sends, a concurrent
// cancel (client disconnect) or Stop may already have removed the
// subscriber; the per-subscriber mutex and closed flag make that safe —
// every send and the (single) close happen under mu, so a send can never hit
// a closed channel.
type subscriber struct {
	mu     sync.Mutex
	ch     chan Event
	closed bool
}

// send delivers ev without blocking; a full buffer drops the event, a closed
// subscriber ignores it.
func (s *subscriber) send(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.ch <- ev:
	default:
	}
}

// close closes the channel exactly once; extra calls are no-ops.
func (s *subscriber) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// Subscribe registers a live timeline consumer: backlog is the retained
// timeline at subscription time (replayed so a late consumer sees history),
// and ch delivers every event merged afterwards. A consumer that falls
// behind its channel buffer loses events (delivery never blocks a refresh).
// cancel unregisters and closes ch; it is idempotent and safe to call
// concurrently with refreshes and Stop. The channel also closes when the
// observatory stops.
func (o *Observatory) Subscribe(buf int) (backlog []Event, ch <-chan Event, cancel func()) {
	if buf <= 0 {
		buf = 256
	}
	s := &subscriber{ch: make(chan Event, buf)}
	cancel = func() {
		o.mu.Lock()
		delete(o.subs, s)
		o.mu.Unlock()
		s.close()
	}
	o.mu.Lock()
	backlog = make([]Event, len(o.timeline))
	copy(backlog, o.timeline)
	if o.stopped {
		o.mu.Unlock()
		s.close()
		return backlog, s.ch, cancel
	}
	o.subs[s] = struct{}{}
	o.mu.Unlock()
	return backlog, s.ch, cancel
}
