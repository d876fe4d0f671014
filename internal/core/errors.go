package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/transport"
)

// ErrTooManyHops is returned when an invocation, locate, move or clone command
// exhausts the tracker-chain hop budget. It wraps ErrTrackingLoop, so
// errors.Is(err, ErrTrackingLoop) continues to hold for callers that predate
// the typed error.
var ErrTooManyHops = fmt.Errorf("core: hop budget exceeded: %w", ErrTrackingLoop)

// ErrMoveInFlight is returned when a move of a complet is requested while a
// previous move of the same complet has not committed or aborted yet — either
// still shipping, or stranded by an unreachable destination until the
// recovery manager resolves its outcome. Matched via errors.Is through the
// returned *InvokeError.
var ErrMoveInFlight = errors.New("core: move already in flight")

// Cause classifies why a context-first pipeline operation failed.
type Cause int

const (
	// CauseUnknown is the zero Cause; it never appears on a returned
	// *InvokeError.
	CauseUnknown Cause = iota
	// CauseTimeout: the end-to-end deadline expired (locally or at a hop).
	CauseTimeout
	// CauseCanceled: the caller's context was canceled.
	CauseCanceled
	// CauseRemote: a peer's handler executed and reported an error.
	CauseRemote
	// CauseUnreachable: the peer could not be reached (host down, network
	// partition, transport closed, dial failure) and retries — if the
	// request kind was eligible for them — were exhausted.
	CauseUnreachable
	// CauseTooManyHops: the tracker-chain hop budget was exceeded.
	CauseTooManyHops
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseTimeout:
		return "timeout"
	case CauseCanceled:
		return "canceled"
	case CauseRemote:
		return "remote error"
	case CauseUnreachable:
		return "unreachable"
	case CauseTooManyHops:
		return "too many hops"
	default:
		return "unknown"
	}
}

// InvokeError is the typed failure of a context-first pipeline operation
// (invoke, move, locate, remote instantiation, naming). It distinguishes a
// deadline that expired from a caller that canceled from a peer that answered
// with an application error from a peer that never answered at all — the
// distinctions a retrying or failing-over caller needs.
type InvokeError struct {
	// Op names the failed operation ("invoke Message.Print", "move", …).
	Op string
	// Target is the complet the operation addressed (zero when the
	// operation addressed a core, e.g. remote instantiation).
	Target ids.CompletID
	// Peer is the core the failing request was sent to (empty for
	// failures local to the calling core).
	Peer ids.CoreID
	// Cause classifies the failure.
	Cause Cause
	// Attempts counts transport attempts made (≥1; >1 only after retries).
	Attempts int
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *InvokeError) Error() string {
	if e.Peer != "" {
		return fmt.Sprintf("fargo: %s via %s: %s (%s, %d attempt(s))", e.Op, e.Peer, e.Err, e.Cause, e.Attempts)
	}
	return fmt.Sprintf("fargo: %s: %s (%s)", e.Op, e.Err, e.Cause)
}

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *InvokeError) Unwrap() error { return e.Err }

// Timeout reports whether the failure was a deadline expiry (net.Error
// convention).
func (e *InvokeError) Timeout() bool { return e.Cause == CauseTimeout }

// methodError marks an error returned by the application method itself: the
// invocation did execute, the verdict came from the complet, not from the
// pipeline. It unwraps to the method's error so application sentinels stay
// matchable with errors.Is through the *InvokeError.
type methodError struct{ err error }

func (e *methodError) Error() string { return e.err.Error() }
func (e *methodError) Unwrap() error { return e.err }

// peerError is an error a peer reported in a reply payload after it served
// (part of) the request. The peer did answer, so by default this classifies
// as CauseRemote; when the peer also shipped its own classification (the
// invoke path does, so a chain hop's timeout or unreachable tail is not
// mistaken for an application error), that cause wins.
type peerError struct {
	msg   string
	cause Cause
}

func (e *peerError) Error() string { return e.msg }

// Unwrap resurfaces the runtime sentinel behind a peer's verdict, so
// errors.Is(err, ErrTooManyHops) and errors.Is(err, ErrMoveInFlight) hold for
// routed operations as they do locally. A shipped cause is the peer's own
// classification and wins; a reply without one (locate, move, clone) is
// matched on the sentinel's text.
func (e *peerError) Unwrap() error {
	switch {
	case e.cause == CauseTooManyHops:
		return ErrTooManyHops
	case e.cause != CauseUnknown:
		return nil
	case strings.Contains(e.msg, ErrTooManyHops.Error()):
		return ErrTooManyHops
	case strings.Contains(e.msg, ErrMoveInFlight.Error()):
		return ErrMoveInFlight
	}
	return nil
}

// classifyCause maps an underlying error to its Cause.
func classifyCause(err error) Cause {
	if err == nil {
		return CauseUnknown
	}
	// A method's own error return is checked first: whatever it wraps
	// (even a context error) is the application's verdict, not the
	// pipeline's.
	var me *methodError
	if errors.As(err, &me) {
		return CauseRemote
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return CauseTimeout
	case errors.Is(err, context.Canceled):
		return CauseCanceled
	case errors.Is(err, ErrTooManyHops):
		return CauseTooManyHops
	case errors.Is(err, ErrMoveInFlight):
		// The owning core refused to start a second move; the request was
		// served and answered, so this is a verdict, not unreachability.
		return CauseRemote
	}
	var pe *peerError
	if errors.As(err, &pe) {
		if pe.cause != CauseUnknown {
			return pe.cause
		}
		return CauseRemote
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		// A lost connection means the peer may never have seen the
		// request: that is unreachability, not a remote verdict.
		if errors.Is(err, transport.ErrConnLost) {
			return CauseUnreachable
		}
		return CauseRemote
	}
	return CauseUnreachable
}

// tripHopBudget reports one hop-budget exhaustion: it fires the
// EventHopBudgetExceeded monitor event at this core and returns the typed
// error.
func (c *Core) tripHopBudget(op string, target ids.CompletID) error {
	c.flight.Record(flight.Event{Kind: flight.KindHopBudget, Complet: target.String(), Detail: op})
	c.mon.fireBuiltin(EventHopBudgetExceeded, target, op)
	return fmt.Errorf("%w: %s", ErrTooManyHops, op)
}

// invokeErr wraps err as a *InvokeError unless it already is one (the inner
// classification from a deeper pipeline stage wins — it is closer to the
// fault). The attempt count, when the retry layer recorded one, is surfaced.
func invokeErr(op string, target ids.CompletID, peer ids.CoreID, err error) error {
	if err == nil {
		return nil
	}
	var ie *InvokeError
	if errors.As(err, &ie) {
		return err
	}
	attempts := 1
	var ae *attemptsErr
	if errors.As(err, &ae) {
		attempts = ae.n
	}
	return &InvokeError{Op: op, Target: target, Peer: peer, Cause: classifyCause(err), Attempts: attempts, Err: err}
}
