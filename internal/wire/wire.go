// Package wire defines the messages cores exchange (the payloads of the peer
// interface layer) and the codecs for parameter passing and complet movement.
// It is the substitution for Java Serialization + RMI marshaling in the
// original system: gob-encoded envelopes with reference-aware argument and
// closure encoding (see DESIGN.md).
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"fargo/internal/ids"
	"fargo/internal/ref"
)

// Kind discriminates envelope payloads.
type Kind uint8

// Envelope kinds. Each request kind has a corresponding payload struct; reply
// envelopes reuse the request's correlation ID. The values are wire format
// between cores of one build only: no Kind is stored in the move journal or
// in checkpoints, so removing a kind may renumber the ones after it.
const (
	KindInvoke Kind = iota + 1
	KindInvokeReply
	KindMove
	KindMoveReply
	KindLocate
	KindLocateReply
	KindNew
	KindNewReply
	KindNameSet
	KindNameSetReply
	KindNameLookup
	KindNameLookupReply
	KindSubscribe
	KindSubscribeReply
	KindUnsubscribe
	KindUnsubscribeReply
	KindEventNotify
	KindPing
	KindPong
	KindShutdownNotice
	KindProfileQuery
	KindProfileQueryReply
	KindError
	KindMoveCmd
	KindMoveCmdReply
	KindClone
	KindCloneReply
	KindHomeUpdate
	KindHomeQuery
	KindHomeQueryReply
	KindCheckpoint
	KindCheckpointReply
	// KindHello is the first envelope of every TCP connection, identifying
	// the dialer (payload: the transport's hello struct).
	KindHello
	// KindMoveProbe asks a move destination whether a given move epoch
	// installed (crash recovery, DESIGN.md §13). A destination that answers
	// "not installed" durably refuses the epoch, so the verdict is final.
	KindMoveProbe
	KindMoveProbeReply
	// KindObsQuery is the one introspection query: it batches the selected
	// sections of a core's state (stats, health, core info, flight ring,
	// traces, per-method telemetry, planner statistics) into one round-trip,
	// so the shell, the planner (DESIGN.md §14) and the deployment
	// observatory (DESIGN.md §15) all read a core through one endpoint.
	KindObsQuery
	KindObsQueryReply

	// kindEnd bounds the defined kinds (for the name table and its test).
	kindEnd
)

// ErrorReply is the payload of a KindError envelope: a request failed in the
// peer's handler before a typed reply could be produced.
type ErrorReply struct {
	Msg string
}

// kindNames is the short name of every defined kind.
var kindNames = [kindEnd]string{
	KindInvoke: "invoke", KindInvokeReply: "invoke-reply",
	KindMove: "move", KindMoveReply: "move-reply",
	KindLocate: "locate", KindLocateReply: "locate-reply",
	KindNew: "new", KindNewReply: "new-reply",
	KindNameSet: "name-set", KindNameSetReply: "name-set-reply",
	KindNameLookup: "name-lookup", KindNameLookupReply: "name-lookup-reply",
	KindSubscribe: "subscribe", KindSubscribeReply: "subscribe-reply",
	KindUnsubscribe: "unsubscribe", KindUnsubscribeReply: "unsubscribe-reply",
	KindEventNotify: "event-notify",
	KindPing:        "ping", KindPong: "pong",
	KindShutdownNotice: "shutdown-notice",
	KindProfileQuery:   "profile-query", KindProfileQueryReply: "profile-query-reply",
	KindError:   "error",
	KindMoveCmd: "move-cmd", KindMoveCmdReply: "move-cmd-reply",
	KindClone: "clone", KindCloneReply: "clone-reply",
	KindHomeUpdate: "home-update",
	KindHomeQuery:  "home-query", KindHomeQueryReply: "home-query-reply",
	KindCheckpoint: "checkpoint", KindCheckpointReply: "checkpoint-reply",
	KindHello:     "hello",
	KindMoveProbe: "move-probe", KindMoveProbeReply: "move-probe-reply",
	KindObsQuery: "obs-query", KindObsQueryReply: "obs-query-reply",
}

// String returns a short name for the kind.
func (k Kind) String() string {
	if k < kindEnd && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Envelope is the unit of core-to-core communication. The payload is an
// independently gob-encoded per-kind struct, so envelope decoding never needs
// application types.
type Envelope struct {
	From    ids.CoreID
	Req     ids.RequestID
	IsReply bool
	Kind    Kind
	// Deadline is the absolute end-to-end deadline of the request in Unix
	// nanoseconds (0 = none). It travels with the request so that every
	// forwarding hop of a tracker chain deducts the time already spent
	// instead of restarting the clock (§3.1 chains with bounded calls).
	// Cores on one host (netsim) share a clock; TCP deployments assume
	// the loosely synchronized clocks of a LAN, the paper's setting.
	Deadline int64
	// TraceID/Span/Sampled carry the distributed-tracing context
	// (internal/trace) of the request: the receiving core parents its
	// spans under the sender's Span, so one trace follows the operation
	// across every tracker-chain hop. All zero when the operation is
	// untraced.
	TraceID uint64
	Span    uint64
	Sampled bool
	Payload []byte
}

// --- payload structs -------------------------------------------------------

// InvokeRequest asks the receiving core to execute a method on a complet it
// hosts (or to forward the request along its tracker chain).
type InvokeRequest struct {
	Target ids.CompletID
	Method string
	// Source identifies the complet owning the invoking reference (zero
	// when the caller is not a complet); it feeds per-reference
	// invocation-rate profiling (§4.1).
	Source ids.CompletID
	// Args is an argument vector encoded by EncodeArgs.
	Args []byte
	// Hops counts tracker-chain forwards so far (diagnostics and E2).
	Hops int
}

// InvokeReply carries the results of an invocation back to the caller — and,
// crucially for chain shortening (§3.1), the authoritative current location
// of the target, which every tracker on the path uses to repoint itself.
type InvokeReply struct {
	// Results is a result vector encoded by EncodeArgs.
	Results []byte
	Err     string
	// ErrCause carries the serving core's failure classification
	// (core.Cause) alongside Err, so a caller several chain hops away can
	// distinguish an application error from a timeout or unreachable tail
	// further down the chain. Zero means unclassified.
	ErrCause int
	// Location is where the target actually executed.
	Location ids.CoreID
	// Hops echoes the total chain length the request traversed.
	Hops int
}

// BundleEntry is one complet travelling in a movement bundle: its identity,
// anchor type, and closure encoded under a ModeMove collector.
type BundleEntry struct {
	ID       ids.CompletID
	TypeName string
	Payload  []byte
	// Dup marks a duplicated complet: the receiver instantiates it under
	// a fresh identity instead of transferring the original's.
	Dup bool
}

// MoveRequest transfers one or more complets to the receiving core in a
// single message (§3.3: all complets that move due to one movement request
// share one inter-core message).
type MoveRequest struct {
	Entries []BundleEntry
	// ContinuationMethod, if set, is invoked on the first entry's anchor
	// after arrival (weak-mobility continuation, §3.3).
	ContinuationMethod string
	ContinuationArgs   []byte
	// Names carries naming-service entries for moved complets so the
	// destination's naming service resolves them too (name -> index into
	// Entries).
	Names map[string]int
	// PreDup maps complet IDs that were duplicated ahead of this bundle
	// (remote duplicate targets cloned by their owners) to the IDs of the
	// installed copies, so Dup-flagged references bind to them.
	PreDup map[ids.CompletID]ids.CompletID
	// Epoch is the move epoch minted by the source: (sender, Epoch)
	// identifies this movement attempt, making duplicate installs no-ops
	// and letting a recovering source probe for the outcome. Zero for
	// clone-only bundles (copies get fresh identities; replays are
	// harmless there) and bundles from cores predating the move journal.
	Epoch uint64
	// Meters carries the source core's invocation-accounting state for the
	// moved complets, so rates and counts keyed on complet identity survive
	// relocation (the planner's graph edges must not reset on every move).
	// The destination merges them into its monitor at install time; empty
	// for bundles from cores predating the planner.
	Meters []MeterState
	// MethodMeters carries the per-method SLO instruments (latency
	// histograms, call/error counts) of the moved complets, so method-level
	// telemetry keyed on complet identity survives relocation the same way
	// pair meters do. Empty for bundles from cores predating per-method
	// instruments.
	MethodMeters []MethodMeterState
}

// MeterState is the portable invocation-accounting state of one moved
// complet: its lifetime invocation count, the invocations inside the current
// rate window, and the same per source complet (the per-reference meters).
type MeterState struct {
	Target ids.CompletID
	Count  uint64
	Window uint64
	Pairs  []PairMeterState
}

// PairMeterState is the windowed state of one (source → moved target)
// reference meter.
type PairMeterState struct {
	Src    ids.CompletID
	Window uint64
	Bytes  uint64
}

// MethodMeterState is the portable per-method telemetry of one moved complet
// and one of its methods: lifetime call and error counts plus the full
// latency distribution (with exemplars). The in-flight gauge does not travel
// — in-flight invocations drain at the source before the bundle departs.
type MethodMeterState struct {
	Target   ids.CompletID
	TypeName string
	Method   string
	Calls    uint64
	Errors   uint64
	Latency  HistogramStat
}

// MoveCommand asks the core owning Target to move it to Dest. Like
// invocations, the command is routed along tracker chains until it reaches
// the owner.
type MoveCommand struct {
	Target             ids.CompletID
	Dest               ids.CoreID
	ContinuationMethod string
	ContinuationArgs   []byte
	Hops               int
}

// MoveCommandReply acknowledges a MoveCommand.
type MoveCommandReply struct {
	Err string
}

// CloneCommand asks the core owning Target to install a copy of it at Dest
// (used for duplicate references whose target is not co-located with the
// moving source).
type CloneCommand struct {
	Target ids.CompletID
	Dest   ids.CoreID
	Hops   int
}

// CloneCommandReply returns the identity of the installed copy.
type CloneCommandReply struct {
	NewID ids.CompletID
	Err   string
}

// HomeUpdate informs a complet's birth ("home") core of its new location —
// the location-independent naming scheme the paper lists as future work
// (§7), implemented here as the E9 ablation alternative to tracker chains.
type HomeUpdate struct {
	Target   ids.CompletID
	Location ids.CoreID
}

// HomeQuery asks a home core for a complet's current location.
type HomeQuery struct {
	Target ids.CompletID
}

// HomeQueryReply answers a HomeQuery.
type HomeQueryReply struct {
	Location ids.CoreID
	Found    bool
}

// CheckpointRequest asks the receiving core to checkpoint itself to a local
// file path on ITS host (administration support for the persistence model).
type CheckpointRequest struct {
	Path string
}

// CheckpointReply acknowledges a checkpoint.
type CheckpointReply struct {
	Complets int
	Err      string
}

// MoveReply acknowledges installation of a bundle.
type MoveReply struct {
	// Installed lists the complet IDs now hosted by the receiver (fresh
	// IDs for duplicates).
	Installed []ids.CompletID
	// DupMap maps original complet IDs to the fresh IDs assigned to their
	// copies.
	DupMap map[ids.CompletID]ids.CompletID
	Err    string
}

// MoveProbe asks a destination core whether the (Source, Epoch) move
// installed. The recovery manager sends it to resolve an in-flight PREPARE
// after a crash or a lost acknowledgement (DESIGN.md §13).
type MoveProbe struct {
	// Source is the core that initiated the move (the prober, or the core
	// a restarted prober recovered the journal of).
	Source ids.CoreID
	Epoch  uint64
	// Root is the moved complet, for diagnostics and the Hosted answer.
	Root ids.CompletID
}

// MoveProbeReply answers a MoveProbe. Exactly one of Installed /
// InProgress / neither holds: Installed means the epoch's bundle activated
// here (the source must commit); InProgress means installation is running
// right now (the source must ask again); otherwise the destination has
// durably refused the epoch — it will never install — and the source must
// roll back.
type MoveProbeReply struct {
	Installed  bool
	InProgress bool
	// Hosted reports whether Root currently lives at the answering core
	// (diagnostics; Installed is the protocol verdict).
	Hosted bool
	Err    string
}

// LocateRequest resolves the current location of a complet, following the
// receiver's tracker if the complet has moved on.
type LocateRequest struct {
	Target ids.CompletID
	Hops   int
}

// LocateReply answers a LocateRequest.
type LocateReply struct {
	Location ids.CoreID
	Err      string
}

// NewRequest instantiates a complet of a registered type on the receiving
// core (remote complet instantiation, §3).
type NewRequest struct {
	TypeName string
	Args     []byte
}

// NewReply returns the descriptor of the freshly created complet.
type NewReply struct {
	Desc ref.Descriptor
	Err  string
}

// NameSet binds a logical name to a complet reference in the receiving
// core's naming service.
type NameSet struct {
	Name string
	Desc ref.Descriptor
}

// NameSetReply acknowledges a NameSet.
type NameSetReply struct {
	Err string
}

// NameLookup resolves a logical name at the receiving core.
type NameLookup struct {
	Name string
}

// NameLookupReply answers a NameLookup.
type NameLookupReply struct {
	Desc  ref.Descriptor
	Found bool
	Err   string
}

// Subscribe registers the sender for an event fired by the receiving core
// (distributed events, §4.2).
type Subscribe struct {
	// Event is the event name (a profiling service name or a built-in
	// event such as "completArrived").
	Event string
	// Threshold triggers profiled events when crossed; unused for
	// built-in events.
	Threshold float64
	// Above selects the crossing direction: value >= threshold when
	// true, value <= threshold when false.
	Above bool
	// IntervalMillis is the continuous-profiling period backing the
	// event.
	IntervalMillis int64
	// Token identifies the subscription for Unsubscribe and delivery.
	Token string
	// Subscriber is the core to deliver notifications to.
	Subscriber ids.CoreID
	// ServiceArgs parameterizes the profiled service (e.g. the two
	// complets of an invocation-rate measurement).
	ServiceArgs []string
}

// SubscribeReply acknowledges a subscription.
type SubscribeReply struct {
	Err string
}

// Unsubscribe cancels a subscription by token.
type Unsubscribe struct {
	Token string
}

// UnsubscribeReply acknowledges an Unsubscribe.
type UnsubscribeReply struct {
	Err string
}

// EventNotify delivers a fired event to a subscriber core.
type EventNotify struct {
	Token string
	Event string
	// Value is the measured value for profiled events.
	Value float64
	// Source is the core that fired the event.
	Source ids.CoreID
	// Complet identifies the complet involved in built-in layout events.
	Complet ids.CompletID
	// Detail carries event-specific extra data (e.g. the destination of
	// a movement).
	Detail string
	// UnixNanos is the fire time at the source.
	UnixNanos int64
}

// Ping measures liveness and round-trip time; Payload pads the message for
// bandwidth probes.
type Ping struct {
	Seq     uint64
	Payload []byte
}

// Pong answers a Ping, echoing its sequence number.
type Pong struct {
	Seq uint64
}

// CompletInfo describes one hosted complet.
type CompletInfo struct {
	ID       ids.CompletID
	TypeName string
	Names    []string
}

// CoreInfoReply is the core-info section of an ObsQueryReply: the hosted
// complets and known peers (used by the shell and the layout monitor).
type CoreInfoReply struct {
	Core     ids.CoreID
	Complets []CompletInfo
	Peers    []ids.CoreID
}

// ShutdownNotice announces that the sending core is about to stop.
type ShutdownNotice struct{}

// ProfileQuery asks a core for an instant profiling measurement.
type ProfileQuery struct {
	Service string
	Args    []string
}

// ProfileQueryReply answers a ProfileQuery.
type ProfileQueryReply struct {
	Value float64
	Err   string
}

// HistogramStat is one histogram's snapshot in a StatsQueryReply (a plain
// mirror of stats.HistogramSnapshot so wire stays free of stats types).
type HistogramStat struct {
	Count uint64
	Sum   float64
	P50   float64
	P95   float64
	P99   float64
	// Bounds/Buckets carry the log-scale bucket layout (parallel slices,
	// non-cumulative counts) so aggregators can merge histograms bucket-wise
	// instead of averaging quantiles. Empty when the sender predates the
	// observatory (gob leaves absent fields zero).
	Bounds  []float64
	Buckets []uint64
	// ExemplarValues/ExemplarTraces/ExemplarNanos ship per-bucket exemplars
	// (parallel to Buckets; empty TraceID = no exemplar for that bucket), so
	// the metric→trace link survives federation. Empty when the sender
	// predates exemplars.
	ExemplarValues []float64
	ExemplarTraces []string
	ExemplarNanos  []int64
}

// StatsQueryReply is the stats section of an ObsQueryReply: one core's
// metrics snapshot.
type StatsQueryReply struct {
	Core       ids.CoreID
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramStat
}

// TraceSummary describes one trace retained at the queried core.
type TraceSummary struct {
	Trace uint64
	// Root is the root span's name when the queried core holds it ("" when
	// the trace was rooted elsewhere).
	Root           string
	Spans          int
	StartUnixNanos int64
	DurationNanos  int64
}

// TraceSpan is one completed span shipped to a querier. Attributes travel as
// parallel key/value slices (gob-friendly, order-preserving).
type TraceSpan struct {
	Trace          uint64
	Span           uint64
	Parent         uint64
	Name           string
	Core           ids.CoreID
	StartUnixNanos int64
	DurationNanos  int64
	Err            string
	AttrKeys       []string
	AttrVals       []string
}

// TraceQueryReply is the traces section of an ObsQueryReply: the recent
// trace summaries retained at a core.
type TraceQueryReply struct {
	Summaries []TraceSummary
}

// PeerHealth describes one peer as seen from the queried core: its circuit
// state and whether the heartbeat prober currently declares it suspect.
type PeerHealth struct {
	Core    ids.CoreID
	Breaker string // "closed" | "open" | "half-open"
	Suspect bool
}

// HealthQueryReply is the health section of an ObsQueryReply: a core's
// liveness/readiness verdict (the wire counterpart of the ops plane's
// /healthz and /readyz endpoints, so shells reach the same state over the
// fargo protocol).
type HealthQueryReply struct {
	Core ids.CoreID
	// Live is false when the core is shut down, or when every
	// heartbeat-monitored peer is suspect (the core is isolated).
	Live bool
	// Ready is false while the core should not take new work: shut down,
	// any suspect peer, any open breaker, or a movement in flight.
	Ready         bool
	Closed        bool
	MovesInFlight int
	Complets      int
	Peers         []PeerHealth
	// JournalEnabled reports whether the core runs with a durable move
	// journal; JournalRecords counts its records.
	JournalEnabled bool
	JournalRecords uint64
	// PendingMoves counts journaled moves whose outcome is still unknown
	// (PREPARE without COMMIT/ABORT); a core is not Ready while any remain.
	PendingMoves int
	// MovesRecovered / MovesRolledBack count moves the recovery manager
	// completed or rolled back since the core started.
	MovesRecovered  uint64
	MovesRolledBack uint64
}

// FlightEvent is one flight-recorder occurrence shipped to a querier (a
// plain mirror of flight.Event so wire stays free of flight types).
type FlightEvent struct {
	Seq           uint64
	UnixNanos     int64
	Kind          string
	Complet       string
	Peer          string
	Detail        string
	DurationNanos int64
	Bytes         int
	Err           string
}

// FlightQueryReply is the flight section of an ObsQueryReply: the retained
// flight-recorder occurrences, oldest first.
type FlightQueryReply struct {
	Core   ids.CoreID
	Total  uint64 // occurrences ever recorded (ring may have evicted some)
	Events []FlightEvent
}

// PairStat is one directed communication-graph edge as observed at the core
// hosting Dst: invocations from Src to Dst in the current rate window.
type PairStat struct {
	Src  ids.CompletID
	Dst  ids.CompletID
	Rate float64 // invocations/second over the sliding window
	// Count is the windowed invocation count backing Rate.
	Count uint64
	// Bytes is the cumulative argument bytes carried on this edge.
	Bytes uint64
}

// PlanStatsQueryReply is the plan section of an ObsQueryReply: everything
// the layout planner's collector needs from one member core.
type PlanStatsQueryReply struct {
	Core     ids.CoreID
	Complets []ids.CompletID
	Pairs    []PairStat
	// Load is the number of hosted complets; CapacityFree is the remaining
	// admission capacity (a large sentinel when the core is uncapped).
	Load         int
	CapacityFree int
}

// ObsQuery is the one introspection query a core answers. Each selector asks
// for one section of the core's state; the reply carries a pointer per
// selected section (nil when not requested), so a caller — shell, planner,
// observatory — reads exactly what it needs in a single round-trip.
type ObsQuery struct {
	Stats  bool
	Health bool
	Info   bool
	Flight bool
	// FlightMax caps returned flight events (0 = everything retained).
	FlightMax int
	// FlightAfterSeq skips events with Seq <= this value, so incremental
	// timeline pulls ship only what the collector has not seen yet.
	FlightAfterSeq uint64
	Traces         bool
	// TraceMax caps returned trace summaries (0 = server default).
	TraceMax int
	// Trace, when nonzero, additionally fetches that trace's retained spans
	// (for cluster-wide trace stitching).
	Trace uint64
	// Methods asks for the per-method telemetry table (complet-granular SLO
	// instruments). False from queriers predating per-method instruments.
	Methods bool
	// Plan asks for the planner statistics snapshot (the layout planner's
	// communication-graph input, DESIGN.md §14).
	Plan bool
}

// MethodStat is one row of a core's per-method telemetry table: the live SLO
// view of (complet, method) as served to shells (`top`) and the observatory.
type MethodStat struct {
	Complet  ids.CompletID
	TypeName string
	Method   string
	Calls    uint64
	Errors   uint64
	InFlight int64
	Latency  HistogramStat
}

// ObsQueryReply answers an ObsQuery. Sections the query did not select are
// nil; Spans carries the single-trace fetch when ObsQuery.Trace was set.
type ObsQueryReply struct {
	Core   ids.CoreID
	Stats  *StatsQueryReply
	Health *HealthQueryReply
	Info   *CoreInfoReply
	Flight *FlightQueryReply
	Traces *TraceQueryReply
	Spans  []TraceSpan
	// Methods is the per-method telemetry table when ObsQuery.Methods was
	// set (nil otherwise), sorted by descending call count.
	Methods []MethodStat
	Plan    *PlanStatsQueryReply
}

// --- codec ------------------------------------------------------------------

var registerOnce sync.Once

// RegisterWireTypes registers the types needed inside argument vectors with
// gob. Idempotent; called by the runtime during core construction.
func RegisterWireTypes() {
	registerOnce.Do(func() {
		gob.Register(&ref.Ref{})
	})
}

// EncodePayload gob-encodes a per-kind payload struct (no complet references
// inside). Scratch space comes from the buffer pool; only an exact-size copy
// of the result is allocated.
func EncodePayload(v any) ([]byte, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: encode payload %T: %w", v, err)
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// DecodePayload decodes a payload encoded by EncodePayload.
func DecodePayload(data []byte, into any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(into); err != nil {
		return fmt.Errorf("wire: decode payload %T: %w", into, err)
	}
	return nil
}

// EncodeArgs encodes an argument (or result) vector for parameter passing:
// ordinary values by value, complet references as degraded link descriptors
// (§3.1). It returns the encoded bytes and the references encountered during
// traversal (the invocation unit profiles and validates them).
func EncodeArgs(args []any) ([]byte, []*ref.Ref, error) {
	RegisterWireTypes()
	c := &ref.Collector{Mode: ref.ModeParam}
	buf := GetBuffer()
	defer PutBuffer(buf)
	err := ref.WithCollector(c, func() error {
		return gob.NewEncoder(buf).Encode(argsVector{Args: args})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wire: encode args: %w", err)
	}
	return append([]byte(nil), buf.Bytes()...), c.Encountered, nil
}

// DecodeArgs decodes an argument vector, returning the values and the
// references materialized during decoding so the runtime can bind them.
func DecodeArgs(data []byte) ([]any, []*ref.Ref, error) {
	RegisterWireTypes()
	c := &ref.Collector{Mode: ref.ModeParam}
	var v argsVector
	err := ref.WithCollector(c, func() error {
		return gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wire: decode args: %w", err)
	}
	return v.Args, c.Decoded, nil
}

// argsVector wraps the []any so gob has a concrete top-level type.
type argsVector struct {
	Args []any
}

// DeepCopyArgs copies an argument vector by value, preserving the paper's
// invocation semantics between co-located complets: complets are always
// remote to each other with respect to parameter passing (§2), so even a
// local invocation receives deep copies. References survive the copy (and
// are returned for re-binding by the caller).
func DeepCopyArgs(args []any) ([]any, []*ref.Ref, error) {
	data, _, err := EncodeArgs(args)
	if err != nil {
		return nil, nil, err
	}
	return DecodeArgs(data)
}

// EncodeClosure encodes a complet anchor's object graph for movement, under
// a ModeMove collector built from the given context. It returns the bytes
// and the collector (holding scheduled pulls/duplicates and encountered
// references).
func EncodeClosure(anchor any, move ref.MoveContext, targetLocal func(ids.CompletID) bool) ([]byte, *ref.Collector, error) {
	RegisterWireTypes()
	c := &ref.Collector{Mode: ref.ModeMove, Move: move, TargetLocal: targetLocal}
	buf := GetBuffer()
	defer PutBuffer(buf)
	err := ref.WithCollector(c, func() error {
		return gob.NewEncoder(buf).Encode(closureBox{Anchor: anchor})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wire: encode closure of %s: %w", move.Source, err)
	}
	return append([]byte(nil), buf.Bytes()...), c, nil
}

// DecodeClosure decodes a complet closure at the receiving core. It returns
// the anchor and the references that must be bound.
func DecodeClosure(data []byte) (any, []*ref.Ref, error) {
	RegisterWireTypes()
	c := &ref.Collector{Mode: ref.ModeParam}
	var box closureBox
	err := ref.WithCollector(c, func() error {
		return gob.NewDecoder(bytes.NewReader(data)).Decode(&box)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wire: decode closure: %w", err)
	}
	return box.Anchor, c.Decoded, nil
}

// closureBox wraps the anchor so gob transmits its dynamic type.
type closureBox struct {
	Anchor any
}
