package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/trace"
	"fargo/internal/wire"
)

// binderImpl adapts the core to the ref.Binder interface the stubs delegate
// to. It is a separate type (rather than methods on Core) so the Binder
// surface stays minimal.
type binderImpl struct {
	c *Core
}

var _ ref.Binder = binderImpl{}

func (c *Core) binder() ref.Binder { return binderImpl{c: c} }

// InvokeRef implements ref.Binder.
func (b binderImpl) InvokeRef(ctx context.Context, r *ref.Ref, method string, args []any, opts ref.CallOptions) ([]any, error) {
	return b.c.invokeRef(ctx, r, method, args, opts)
}

// Locate implements ref.Binder.
func (b binderImpl) Locate(ctx context.Context, r *ref.Ref) (ids.CoreID, error) {
	ctx, cancel := b.c.withBudget(ctx, 0)
	defer cancel()
	loc, err := b.c.locate(ctx, r.Target(), r.Hint(), 0, ref.CallOptions{})
	if err == nil {
		r.SetHint(loc)
		return loc, nil
	}
	return loc, invokeErr(fmt.Sprintf("locate %s", r.Target()), r.Target(), "", err)
}

// BinderCore implements ref.Binder.
func (b binderImpl) BinderCore() ids.CoreID { return b.c.id }

// bindDecoded attaches freshly decoded references to this core.
func (c *Core) bindDecoded(refs []*ref.Ref) {
	for _, r := range refs {
		r.Bind(c.binder())
		// Materialize the shared tracker for the target so future
		// invocations have a starting point.
		c.trackerFor(r.Target(), r.Hint())
	}
}

// invokeRef routes one invocation from a local stub to its target (§3.1).
// Arguments travel by value; the reply's authoritative location shortens the
// caller's tracker and refreshes the stub's hint. The context carries the
// end-to-end budget: it is stamped on every forwarded envelope, so each hop
// of the tracker chain serves under the same remaining deadline.
func (c *Core) invokeRef(ctx context.Context, r *ref.Ref, method string, args []any, opts ref.CallOptions) ([]any, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	target := r.Target()
	// Untyped references (raw IDs from the shell or scripts) name the op by
	// target so traces and errors stay readable.
	subject := r.AnchorType()
	if subject == "" {
		subject = target.String()
	}
	op := fmt.Sprintf("invoke %s.%s", subject, method)
	ctx, cancel := c.withBudget(ctx, opts.Timeout)
	defer cancel()
	ctx, sp := c.tracer.StartSpan(ctx, op)
	defer sp.Finish()
	start := time.Now()
	args = c.anchorsToRefs(args)
	argBytes, _, err := wire.EncodeArgs(args)
	if err != nil {
		err = fmt.Errorf("core: encode args of %s: %w", op, err)
		sp.SetError(err)
		c.met.invokeErrs.Inc()
		return nil, err
	}
	resBytes, loc, err := c.deliverInvoke(ctx, target, r.Hint(), r.Owner(), method, argBytes, 0, opts)
	if err != nil {
		err = invokeErr(op, target, "", err)
		sp.SetError(err)
		c.met.invokeErrs.Inc()
		return nil, err
	}
	r.SetHint(loc)
	results, decoded, err := wire.DecodeArgs(resBytes)
	if err != nil {
		sp.SetError(err)
		c.met.invokeErrs.Inc()
		return nil, err
	}
	c.bindDecoded(decoded)
	// A sampled caller stamps the latency bucket with its trace ID, so a
	// slow bucket on /metrics points straight at a resolvable trace.
	var traceID string
	if sc, ok := trace.FromContext(ctx); ok && sc.Sampled {
		traceID = sc.Trace.String()
	}
	c.met.invokeLatency.ObserveExemplar(float64(time.Since(start).Nanoseconds()), traceID)
	return results, nil
}

// deliverInvoke delivers an encoded invocation to the complet, executing it
// here or forwarding it along the tracker chain (walk). It returns the
// encoded results and the authoritative location of the target.
func (c *Core) deliverInvoke(ctx context.Context, target ids.CompletID, hint ids.CoreID, source ids.CompletID, method string, argBytes []byte, hops int, opts ref.CallOptions) ([]byte, ids.CoreID, error) {
	return walk(ctx, c, target, hint, hops, "invoke", method,
		func(entry *complet) ([]byte, error) {
			return c.invokeLocalFrom(ctx, entry, source, method, argBytes)
		},
		func(next ids.CoreID, hops int) ([]byte, ids.CoreID, error) {
			return c.forwardInvoke(ctx, next, target, source, method, argBytes, hops, opts)
		})
}

// anchorsToRefs replaces top-level arguments that are locally hosted anchors
// with references to them: complets are always passed by (complet) reference,
// never by value (§2). Other values pass through untouched.
func (c *Core) anchorsToRefs(args []any) []any {
	out := args
	copied := false
	for i, arg := range args {
		r, isAnchor := c.refOfAnchor(arg)
		if !isAnchor {
			continue
		}
		if !copied {
			out = append([]any(nil), args...)
			copied = true
		}
		out[i] = r
	}
	return out
}

// errStaleLocal signals that a tracker said "local" but the complet had
// already moved on; the caller retries through the updated tracker.
var errStaleLocal = fmt.Errorf("core: complet moved during dispatch")

// invokeLocalFrom executes an invocation on a complet hosted by this core,
// or reports errStaleLocal when the entry moved away first. The argument
// bytes are decoded here, which realizes by-value passing for both remote and
// co-located callers. The context only feeds tracing (the "exec" span of a
// traced operation); execution itself is not interruptible.
func (c *Core) invokeLocalFrom(ctx context.Context, entry *complet, source ids.CompletID, method string, argBytes []byte) ([]byte, error) {
	entry.moveMu.RLock()
	defer entry.moveMu.RUnlock()
	if !entry.live() {
		return nil, errStaleLocal
	}

	var sp *trace.Span
	var sampledTrace string
	if sc, ok := trace.FromContext(ctx); ok && sc.Sampled {
		_, sp = c.tracer.ChildSpan(ctx, "exec "+entry.typeName+"."+method)
		sampledTrace = sc.Trace.String()
	}
	args, decoded, err := wire.DecodeArgs(argBytes)
	if err != nil {
		sp.SetError(err)
		sp.Finish()
		return nil, err
	}
	c.bindDecoded(decoded)
	// Anchors passed as arguments arrive as references already (the
	// encoder rejects raw anchors; see EncodeArgs callers), so args are
	// ready for dispatch.
	mm := c.methodMeter(entry, method)
	var execStart time.Time
	if mm != nil {
		mm.begin()
		execStart = time.Now()
	}
	results, err := registry.Invoke(entry.anchor, method, args)
	if mm != nil {
		mm.end(time.Since(execStart), sampledTrace, err != nil)
	}
	entry.meters.record(source, len(argBytes))
	c.met.invokeLocal.Inc()
	if err != nil {
		err = &methodError{err: fmt.Errorf("core: %s.%s: %w", entry.typeName, method, err)}
		sp.SetError(err)
		sp.Finish()
		return nil, err
	}
	sp.Finish()
	// Replace returned local anchors with references (complets are passed
	// by reference, §2). Only pointer results can be anchors.
	for i, res := range results {
		if r, isAnchor := c.refOfAnchor(res); isAnchor {
			results[i] = r
		}
	}
	resBytes, _, err := wire.EncodeArgs(results)
	if err != nil {
		return nil, fmt.Errorf("core: encode results of %s.%s: %w", entry.typeName, method, err)
	}
	return resBytes, nil
}

// forwardInvoke sends the invocation one hop down the tracker chain. The
// context's remaining deadline rides the envelope, so the next core serves
// under the same budget instead of a fresh one.
func (c *Core) forwardInvoke(ctx context.Context, next ids.CoreID, target, source ids.CompletID, method string, argBytes []byte, hops int, opts ref.CallOptions) ([]byte, ids.CoreID, error) {
	c.met.invokeFwd.Inc()
	reply, err := call[wire.InvokeRequest, wire.InvokeReply](ctx, c, next, wire.KindInvoke, wire.InvokeRequest{
		Target: target,
		Method: method,
		Source: source,
		Args:   argBytes,
		Hops:   hops,
	}, opts, nil)
	if err != nil {
		return nil, "", err
	}
	if reply.Err != "" {
		// reply.Err was formatted by the serving core (it already carries
		// its own "core:" context), so it travels verbatim.
		return nil, "", &peerError{msg: reply.Err, cause: Cause(reply.ErrCause)}
	}
	return reply.Results, reply.Location, nil
}

// serveInvoke serves an invocation arriving from a peer: execute locally or
// forward further along the chain, then report the authoritative location so
// every tracker on the path shortens (§3.1). The context carries the
// request's remaining end-to-end budget, reconstructed by the transport from
// the envelope's wire deadline.
func (c *Core) serveInvoke(ctx context.Context, req wire.InvokeRequest) (wire.InvokeReply, error) {
	var sp *trace.Span
	if trace.Sampled(ctx) {
		ctx2, s := c.tracer.ChildSpan(ctx, "serve invoke "+req.Method)
		ctx, sp = ctx2, s
		sp.SetAttr("target", req.Target.String())
		sp.SetAttr("hops", strconv.Itoa(req.Hops))
	}
	defer sp.Finish()
	reply := wire.InvokeReply{Hops: req.Hops}
	resBytes, loc, err := c.deliverInvoke(ctx, req.Target, "", req.Source, req.Method, req.Args, req.Hops, ref.CallOptions{})
	if err != nil {
		sp.SetError(err)
		reply.Err = err.Error()
		// Ship our classification so the caller, hops away, still tells
		// a downstream timeout or partition apart from an application
		// error.
		reply.ErrCause = int(classifyCause(err))
		reply.Location = c.id
	} else {
		reply.Results = resBytes
		reply.Location = loc
	}
	return reply, nil
}

// locate resolves the current location of a complet, following and
// shortening tracker chains (used by MetaRef.Location and the movement
// protocol). hops counts the chain hops the query has already travelled.
func (c *Core) locate(ctx context.Context, target ids.CompletID, hint ids.CoreID, hops int, opts ref.CallOptions) (ids.CoreID, error) {
	// walk's repair through the home core recovers a dead hop, as for move
	// and clone; only a caller's own attempt budget retries it first.
	if opts.MaxAttempts == 0 {
		opts.NoRetry = true
	}
	_, loc, err := walk(ctx, c, target, hint, hops, "locate", "",
		func(*complet) (struct{}, error) { return struct{}{}, nil },
		func(next ids.CoreID, hops int) (struct{}, ids.CoreID, error) {
			reply, err := call[wire.LocateRequest, wire.LocateReply](ctx, c, next, wire.KindLocate,
				wire.LocateRequest{Target: target, Hops: hops}, opts, nil)
			if err != nil {
				return struct{}{}, "", err
			}
			if reply.Err != "" {
				return struct{}{}, "", &peerError{msg: reply.Err}
			}
			return struct{}{}, reply.Location, nil
		})
	return loc, err
}

// serveLocate serves a location query from a peer.
func (c *Core) serveLocate(ctx context.Context, req wire.LocateRequest) (wire.LocateReply, error) {
	loc, err := c.locate(ctx, req.Target, "", req.Hops, ref.CallOptions{})
	if err != nil {
		return wire.LocateReply{Err: err.Error()}, nil
	}
	return wire.LocateReply{Location: loc}, nil
}
