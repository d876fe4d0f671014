package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/transport"
	"fargo/internal/wire"
)

// RetryPolicy tunes transparent retries of idempotent inter-core requests
// (location queries, name lookups, monitor queries, liveness probes). Retries
// use jittered exponential backoff and always respect the caller's context:
// the end-to-end deadline bounds the attempts plus their backoff sleeps, it
// is never reset between attempts. Non-idempotent kinds — invocations,
// movement bundles, complet instantiation — are never retried by the runtime;
// the application decides, armed with the *InvokeError cause.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Zero or one disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff.
	MaxDelay time.Duration
	// Multiplier grows the backoff between attempts (≥1).
	Multiplier float64
	// Jitter is the fraction of each backoff randomized away (0..1), so
	// a flapping link does not see synchronized retry storms.
	Jitter float64
}

// DefaultRetryPolicy returns the policy used when Options.Retry is zero.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// normalize fills zero fields from the default policy.
func (p RetryPolicy) normalize() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = def.Multiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = def.Jitter
	}
	return p
}

// idempotentKind reports whether a request kind is safe to retry: re-sending
// it cannot double-apply an effect. Invocations, moves, clones, remote
// instantiation and name registration mutate state at the peer and are
// excluded — a retry after a lost reply could execute them twice.
func idempotentKind(kind wire.Kind) bool {
	switch kind {
	case wire.KindLocate, wire.KindNameLookup, wire.KindProfileQuery,
		wire.KindPing, wire.KindHomeQuery, wire.KindObsQuery, wire.KindMoveProbe:
		return true
	}
	return false
}

// transientFailure reports whether a request failure may heal on retry.
// Context expiry/cancellation is final (the budget is gone), a transport
// closed locally is final, and a peer handler that executed and answered
// with an error is a verdict, not a glitch. Everything else — host down,
// network partition, dial failure, connection lost before the reply — is
// the kind of fault a flapping network produces, and is worth retrying.
func transientFailure(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return false
	case errors.Is(err, transport.ErrClosed):
		return false
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return errors.Is(err, transport.ErrConnLost)
	}
	return true
}

// attemptsErr annotates a failure with how many transport attempts were made,
// so the *InvokeError built further up reports it.
type attemptsErr struct {
	n   int
	err error
}

func (e *attemptsErr) Error() string {
	return fmt.Sprintf("%v (after %d attempts)", e.err, e.n)
}

func (e *attemptsErr) Unwrap() error { return e.err }

// sleepCtx sleeps for d or until the context ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jittered randomizes a backoff delay by the policy's jitter fraction.
func jittered(d time.Duration, jitter float64) time.Duration {
	if jitter <= 0 || d <= 0 {
		return d
	}
	spread := float64(d) * jitter
	return time.Duration(float64(d) - spread/2 + rand.Float64()*spread)
}

// requestOpts issues one inter-core request under the caller's context. The
// context's deadline is stamped on the wire envelope, so the peer serves the
// request under the same remaining budget. Idempotent kinds are retried on
// transient failures with jittered exponential backoff (opts may override the
// attempt budget or disable retries); all other kinds get exactly one
// attempt.
func (c *Core) requestOpts(ctx context.Context, to ids.CoreID, kind wire.Kind, payload []byte, opts ref.CallOptions) (wire.Envelope, error) {
	// Circuit breaker: fail fast when the peer is suspected down. Pings are
	// exempt — they are the probes that close the circuit again — and so are
	// move probes: recovery must be able to ask a just-restarted destination
	// for a move's outcome while the breaker still remembers it as down. The
	// breaker is fed the operation's final outcome (below), not per-attempt
	// results, so one flapping-link operation that retries its way to success
	// counts as a single success.
	if kind != wire.KindPing && kind != wire.KindMoveProbe {
		if err := c.breakerAllow(to); err != nil {
			return wire.Envelope{}, err
		}
	}
	pol := c.opts.Retry
	budget := 1
	if idempotentKind(kind) && !opts.NoRetry {
		budget = pol.MaxAttempts
		if opts.MaxAttempts > 0 {
			budget = opts.MaxAttempts
		}
	}
	if budget < 1 {
		budget = 1
	}
	delay := pol.BaseDelay
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, jittered(delay, pol.Jitter)); err != nil {
				// The budget ran out while backing off; report the
				// transient fault that put us here, not the sleep.
				break
			}
			c.met.retries.Inc()
			c.flight.Record(flight.Event{
				Kind:   flight.KindRetry,
				Peer:   to.String(),
				Detail: fmt.Sprintf("%s attempt %d", kind, attempt+1),
			})
			delay = time.Duration(float64(delay) * pol.Multiplier)
			if delay > pol.MaxDelay {
				delay = pol.MaxDelay
			}
		}
		attempts++
		env, err := c.tr.Request(ctx, to, kind, payload)
		if err == nil {
			c.notePeer(to)
			c.breakerReport(to, nil)
			return env, nil
		}
		lastErr = err
		if !transientFailure(err) {
			break
		}
	}
	c.breakerReport(to, lastErr)
	if attempts > 1 {
		lastErr = &attemptsErr{n: attempts, err: lastErr}
	}
	return wire.Envelope{}, lastErr
}

// withBudget derives the working context for one pipeline entry point: an
// explicit per-call timeout always applies (tightening any caller deadline);
// otherwise a context that carries no deadline of its own gets the core's
// RequestTimeout as the end-to-end default, and one that does is used as is.
// The resulting deadline travels on the wire, so tracker-chain hops and
// movement stages deduct elapsed time from one shared budget instead of
// restarting the clock per hop.
func (c *Core) withBudget(ctx context.Context, override time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if override > 0 {
		return context.WithTimeout(ctx, override)
	}
	if _, ok := ctx.Deadline(); !ok {
		return context.WithTimeout(ctx, c.opts.RequestTimeout)
	}
	return ctx, func() {}
}
