package core

import (
	"context"
	"fmt"

	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// Every request/reply exchange between cores is one typed call on the asking
// side and one typed serve on the answering side. Only one-way notices (event
// delivery, home updates), the ping probes that time the raw transport, and
// journal records touch the payload codec directly.

// call asks dest one kind request and returns its typed reply. A nil or self
// destination is answered by local without touching the transport (an
// exchange with no self form passes a nil local). Otherwise the request is
// sent under ctx — given the core's default budget when it carries no
// deadline of its own, or opts.Timeout when set — and retried per
// requestOpts. A transport failure comes back as
// "core: <kind> to <dest>: <cause>"; a reply that reports a failure in one of
// its own fields is the caller's to check.
func call[Req, Resp any](ctx context.Context, c *Core, dest ids.CoreID, kind wire.Kind, req Req, opts ref.CallOptions, local func() (Resp, error)) (Resp, error) {
	var reply Resp
	if local != nil && (dest.Nil() || dest == c.id) {
		return local()
	}
	if c.isClosed() {
		return reply, ErrClosed
	}
	payload, err := wire.EncodePayload(req)
	if err != nil {
		return reply, err
	}
	ctx, cancel := c.withBudget(ctx, opts.Timeout)
	defer cancel()
	env, err := c.requestOpts(ctx, dest, kind, payload, opts)
	if err != nil {
		return reply, fmt.Errorf("core: %s to %s: %w", kind, dest, err)
	}
	err = wire.DecodePayload(env.Payload, &reply)
	return reply, err
}

// serve answers one request: it decodes the payload as a Req, runs the
// owning unit's fn and encodes the result as a replyKind envelope. An error
// from fn or the codec fails the request as a whole; the transport answers
// it with KindError.
func serve[Req, Resp any](ctx context.Context, env wire.Envelope, replyKind wire.Kind, fn func(context.Context, Req) (Resp, error)) (wire.Kind, []byte, error) {
	var req Req
	if err := wire.DecodePayload(env.Payload, &req); err != nil {
		return 0, nil, err
	}
	reply, err := fn(ctx, req)
	if err != nil {
		return 0, nil, err
	}
	out, err := wire.EncodePayload(reply)
	if err != nil {
		return 0, nil, err
	}
	return replyKind, out, nil
}
