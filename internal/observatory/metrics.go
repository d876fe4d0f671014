package observatory

import (
	"sort"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/stats"
)

// Metrics federation. One /cluster/metrics page carries three strata:
//
//  1. per-core series: every member series re-exposed under its original
//     family name with a core="<id>" label added (existing labels kept);
//  2. merged families: cluster_<name> series summed across members —
//     counters and gauges add, histograms merge bucket-wise via
//     stats.MergeHistogramSnapshots (same log-bucket layout on every core);
//  3. derived deployment gauges: membership and reachability
//     (cluster_members, cluster_member_up{core=...}), the cross-core
//     invocation rate derived from successive refreshes of the summed
//     forwarded-invocation counter, moves in flight, and the suspect count.
//
// Everything is computed from the model of the last refresh — a scrape never
// fans out on its own, so a slow member cannot slow Prometheus down.

// ClusterSnapshot renders the federated model as one metrics.Snapshot
// (WritePrometheus turns it into the exposition page).
func (o *Observatory) ClusterSnapshot() metrics.Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()

	out := metrics.Snapshot{
		At:         o.lastRefresh,
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]stats.HistogramSnapshot),
	}
	if out.At.IsZero() {
		out.At = time.Now()
	}

	mergedCounters := make(map[string]uint64)
	mergedGauges := make(map[string]float64)
	mergedHists := make(map[string][]stats.HistogramSnapshot)

	var members, up, complets int
	var movesInFlight, suspects int

	keys := memberKeys(o.members)
	for _, id := range keys {
		m := o.members[id]
		members++
		coreLabel := id.String()
		if m.reachable {
			up++
		}
		upv := 0.0
		if m.reachable {
			upv = 1.0
		}
		if labeled, err := metrics.WithLabel("cluster_member_up", "core", coreLabel); err == nil {
			out.Gauges[labeled] = upv
		}
		if h := m.health; h != nil {
			complets += h.Complets
			movesInFlight += h.MovesInFlight
			for _, p := range h.Peers {
				if p.Suspect {
					suspects++
				}
			}
		}
		if m.stats == nil {
			continue
		}
		for name, v := range m.stats.Counters {
			if labeled, err := metrics.WithLabel(name, "core", coreLabel); err == nil {
				out.Counters[labeled] = v
			}
			if merged, err := mergedName(name); err == nil {
				mergedCounters[merged] += v
			}
		}
		for name, v := range m.stats.Gauges {
			if labeled, err := metrics.WithLabel(name, "core", coreLabel); err == nil {
				out.Gauges[labeled] = v
			}
			if merged, err := mergedName(name); err == nil {
				mergedGauges[merged] += v
			}
		}
		for name, h := range m.stats.Histograms {
			// Exemplars ride along, so a federated bucket still points at a
			// trace some member can resolve via /cluster/trace/{id}.
			if labeled, err := metrics.WithLabel(name, "core", coreLabel); err == nil {
				out.Histograms[labeled] = h
			}
			if merged, err := mergedName(name); err == nil {
				mergedHists[merged] = append(mergedHists[merged], h)
			}
		}
	}

	for name, v := range mergedCounters {
		out.Counters[name] = v
	}
	for name, v := range mergedGauges {
		out.Gauges[name] = v
	}
	for name, parts := range mergedHists {
		out.Histograms[name] = stats.MergeHistogramSnapshots(parts)
	}

	out.Gauges["cluster_members"] = float64(members)
	out.Gauges["cluster_members_up"] = float64(up)
	out.Gauges["cluster_complets"] = float64(complets)
	out.Gauges["cluster_moves_in_flight"] = float64(movesInFlight)
	out.Gauges["cluster_suspects"] = float64(suspects)
	out.Gauges["cluster_cross_core_invoke_rate"] = o.crossRate
	return out
}

// mergedName maps a member series name to its cluster_ family: the base name
// gains the prefix, original labels are kept (so per-label series of one
// family merge label-set-wise across cores).
func mergedName(full string) (string, error) {
	base, labels, err := metrics.SplitName(full)
	if err != nil {
		return "", err
	}
	return metrics.JoinLabels("cluster_"+base, labels), nil
}

// memberKeys returns the member IDs sorted for deterministic iteration.
func memberKeys(m map[ids.CoreID]*member) []ids.CoreID {
	keys := make([]ids.CoreID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
