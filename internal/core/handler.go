package core

import (
	"context"
	"fmt"

	"fargo/internal/wire"
)

// handle is the transport request handler: it dispatches incoming envelopes
// to the owning unit. Each request runs on its own goroutine (the transport
// spawns one per request, mirroring the original's thread-per-invocation
// model, §5). The context carries the requester's remaining end-to-end
// budget (reconstructed by the transport from the envelope's wire deadline);
// handlers that issue further requests — forwarding along a tracker chain,
// routing a move — pass it on, so the clock never restarts mid-pipeline.
func (c *Core) handle(ctx context.Context, env wire.Envelope) (wire.Kind, []byte, error) {
	c.notePeer(env.From)
	switch env.Kind {
	case wire.KindInvoke:
		return serve(ctx, env, wire.KindInvokeReply, c.serveInvoke)
	case wire.KindLocate:
		return serve(ctx, env, wire.KindLocateReply, c.serveLocate)
	case wire.KindMove:
		return c.handleMove(ctx, env)
	case wire.KindMoveCmd:
		return serve(ctx, env, wire.KindMoveCmdReply, c.serveMoveCmd)
	case wire.KindMoveProbe:
		return serve(ctx, env, wire.KindMoveProbeReply, c.serveMoveProbe)
	case wire.KindClone:
		return serve(ctx, env, wire.KindCloneReply, c.serveClone)
	case wire.KindNew:
		return serve(ctx, env, wire.KindNewReply, c.serveNew)
	case wire.KindNameSet:
		return serve(ctx, env, wire.KindNameSetReply, c.serveNameSet)
	case wire.KindNameLookup:
		return serve(ctx, env, wire.KindNameLookupReply, c.serveNameLookup)
	case wire.KindPing:
		return serve(ctx, env, wire.KindPong, servePing)
	case wire.KindSubscribe:
		return serve(ctx, env, wire.KindSubscribeReply, c.mon.serveSubscribe)
	case wire.KindUnsubscribe:
		return serve(ctx, env, wire.KindUnsubscribeReply, c.mon.serveUnsubscribe)
	case wire.KindEventNotify:
		c.mon.handleEventNotify(env)
		return wire.KindEventNotify, nil, nil
	case wire.KindShutdownNotice:
		c.mon.handleRemoteShutdown(env.From)
		return wire.KindShutdownNotice, nil, nil
	case wire.KindProfileQuery:
		return serve(ctx, env, wire.KindProfileQueryReply, c.mon.serveProfileQuery)
	case wire.KindHomeUpdate:
		return c.handleHomeUpdate(env)
	case wire.KindHomeQuery:
		return serve(ctx, env, wire.KindHomeQueryReply, c.serveHomeQuery)
	case wire.KindCheckpoint:
		return serve(ctx, env, wire.KindCheckpointReply, c.serveCheckpoint)
	case wire.KindObsQuery:
		return serve(ctx, env, wire.KindObsQueryReply, c.serveObsQuery)
	default:
		return 0, nil, fmt.Errorf("core %s: unhandled envelope kind %s", c.id, env.Kind)
	}
}

// serveNew serves remote complet instantiation.
func (c *Core) serveNew(_ context.Context, req wire.NewRequest) (wire.NewReply, error) {
	reply := wire.NewReply{}
	args, decoded, err := wire.DecodeArgs(req.Args)
	if err != nil {
		reply.Err = err.Error()
		return reply, nil
	}
	c.bindDecoded(decoded)
	r, err := c.NewComplet(req.TypeName, args...)
	if err == nil {
		reply.Desc, err = r.Descriptor()
	}
	if err != nil {
		reply.Err = err.Error()
	}
	return reply, nil
}

// servePing answers liveness and bandwidth probes.
func servePing(_ context.Context, req wire.Ping) (wire.Pong, error) {
	return wire.Pong{Seq: req.Seq}, nil
}
