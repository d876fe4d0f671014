package wire

import (
	"reflect"
	"testing"
	"time"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/stats"
	"fargo/internal/trace"
)

// latencySnapshot is a histogram snapshot with every field the wire carries:
// quantiles, the bucket layout and one exemplar (the other slots empty).
func latencySnapshot() stats.HistogramSnapshot {
	return stats.HistogramSnapshot{
		Count: 3, Sum: 7000, P50: 2000, P95: 3800, P99: 3960,
		Bounds:    []float64{1000, 2000, 4000},
		Buckets:   []uint64{1, 1, 1},
		Exemplars: []stats.Exemplar{{}, {}, {Value: 3500, TraceID: "00000000000000ab", UnixNanos: 1_700_000_000_000_000_000}},
	}
}

// TestObsQueryReplyRoundtrip gob-encodes a reply with every section
// populated and checks that it decodes to exactly the input: the domain
// types that serve the sections lose nothing on the wire.
func TestObsQueryReplyRoundtrip(t *testing.T) {
	at := time.Unix(1_700_000_000, 123_456_789).UTC()
	peer := ids.CompletID{Birth: "b", Seq: 2}
	in := ObsQueryReply{
		Core: "a",
		Stats: &metrics.Snapshot{
			At:         at,
			Counters:   map[string]uint64{"moves_total": 4},
			Gauges:     map[string]float64{"peers_down": 1},
			Histograms: map[string]stats.HistogramSnapshot{"invoke_latency_ns": latencySnapshot()},
		},
		Health: &Health{
			Core: "a", Live: true, Closed: false, MovesInFlight: 1, Complets: 3,
			Peers:          []PeerHealth{{Core: "b", Breaker: "open", Suspect: true}},
			JournalEnabled: true, JournalRecords: 9, PendingMoves: 1,
			MovesRecovered: 2, MovesRolledBack: 1,
		},
		Info: &CoreInfoReply{
			Core:     "a",
			Complets: []CompletInfo{{ID: cid(1), TypeName: "Msg", Names: []string{"m"}}},
			Peers:    []ids.CoreID{"b"},
		},
		Flight: &FlightQueryReply{
			Core:  "a",
			Total: 12,
			Events: []flight.Event{{
				Seq: 12, At: at, Kind: flight.KindMove, Complet: cid(1).String(), Peer: "b",
				Detail: "1 complet(s)", DurationNanos: 5000, Bytes: 300, Err: "",
			}},
		},
		Traces: []trace.Summary{{Trace: 0xab, Root: "invoke Msg.Print", Spans: 3, Start: at, Duration: 4 * time.Millisecond}},
		Spans: []trace.Span{{
			Trace: 0xab, ID: 0xcd, Parent: 0xef, Name: "serve Msg.Print", Core: "a",
			Start: at, Duration: time.Millisecond, Err: "boom",
			Attrs: []trace.Attr{{Key: "hops", Value: "1"}, {Key: "method", Value: "Print"}},
		}},
		Methods: []MethodStat{{
			Complet: cid(1), TypeName: "Msg", Method: "Print",
			Calls: 3, Errors: 1, InFlight: 2, Latency: latencySnapshot(),
		}},
		Plan: &PlanStatsReply{
			Core:     "a",
			Complets: []ids.CompletID{cid(1)},
			Pairs:    []PairStat{{Src: peer, Dst: cid(1), Rate: 2.5, Count: 5, Bytes: 640}},
			Load:     1, CapacityFree: 7,
		},
	}
	data, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ObsQueryReply
	if err := DecodePayload(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

// legacyHistogramStat is the shape MethodMeterState.Latency had before the
// stats snapshot became the wire type: exemplars as three parallel slices.
type legacyHistogramStat struct {
	Count          uint64
	Sum            float64
	P50            float64
	P95            float64
	P99            float64
	Bounds         []float64
	Buckets        []uint64
	ExemplarValues []float64
	ExemplarTraces []string
	ExemplarNanos  []int64
}

type legacyMethodMeterState struct {
	Target   ids.CompletID
	TypeName string
	Method   string
	Calls    uint64
	Errors   uint64
	Latency  legacyHistogramStat
}

type legacyMoveRequest struct {
	Entries      []BundleEntry
	Epoch        uint64
	MethodMeters []legacyMethodMeterState
}

// TestMoveRequestDecodesLegacyMethodMeters decodes a bundle whose method
// meters were encoded in the old histogram shape, as INSTALL records in a
// move journal written before the upgrade store it: counts, quantiles and
// buckets survive; the exemplars, kept under field names the snapshot does
// not have, are dropped.
func TestMoveRequestDecodesLegacyMethodMeters(t *testing.T) {
	old := legacyMoveRequest{
		Entries: []BundleEntry{{ID: cid(1), TypeName: "Msg", Payload: []byte("p")}},
		Epoch:   7,
		MethodMeters: []legacyMethodMeterState{{
			Target: cid(1), TypeName: "Msg", Method: "Print", Calls: 3, Errors: 1,
			Latency: legacyHistogramStat{
				Count: 3, Sum: 7000, P50: 2000, P95: 3800, P99: 3960,
				Bounds:         []float64{1000, 2000, 4000},
				Buckets:        []uint64{1, 1, 1},
				ExemplarValues: []float64{0, 0, 3500},
				ExemplarTraces: []string{"", "", "00000000000000ab"},
				ExemplarNanos:  []int64{0, 0, 1_700_000_000_000_000_000},
			},
		}},
	}
	data, err := EncodePayload(old)
	if err != nil {
		t.Fatal(err)
	}
	var req MoveRequest
	if err := DecodePayload(data, &req); err != nil {
		t.Fatalf("legacy bundle no longer decodes: %v", err)
	}
	if req.Epoch != 7 || len(req.Entries) != 1 || len(req.MethodMeters) != 1 {
		t.Fatalf("decoded bundle = %+v", req)
	}
	want := MethodMeterState{
		Target: cid(1), TypeName: "Msg", Method: "Print", Calls: 3, Errors: 1,
		Latency: stats.HistogramSnapshot{
			Count: 3, Sum: 7000, P50: 2000, P95: 3800, P99: 3960,
			Bounds:  []float64{1000, 2000, 4000},
			Buckets: []uint64{1, 1, 1},
		},
	}
	if got := req.MethodMeters[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy method meter decoded as %+v, want %+v", got, want)
	}
}
