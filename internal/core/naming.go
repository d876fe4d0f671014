package core

import (
	"context"
	"fmt"
	"sort"

	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// The naming service (§3, Figure 1) maps logical names to complet references
// per core. Because the stored values are tracking references, names keep
// resolving as their targets migrate.

// Name binds a logical name to the referenced complet in this core's naming
// service. Rebinding an existing name replaces it.
func (c *Core) Name(name string, r *ref.Ref) error {
	if c.isClosed() {
		return ErrClosed
	}
	if name == "" {
		return fmt.Errorf("core: empty name")
	}
	if r == nil {
		return fmt.Errorf("core: nil reference for name %q", name)
	}
	// Store a private tracking copy so later relocator changes on the
	// caller's stub don't alter naming behaviour.
	stored := ref.New(r.Target(), r.AnchorType(), r.Hint(), c.binder())
	c.enrichAnchorType(stored)
	c.setLocalName(name, stored)
	return nil
}

// enrichAnchorType fills in a reference's anchor type from the local
// repository when the caller did not know it (e.g. shell-made references
// built from bare IDs).
func (c *Core) enrichAnchorType(r *ref.Ref) {
	if r.AnchorType() != "" {
		return
	}
	if entry, ok := c.lookup(r.Target()); ok {
		r.Retarget(r.Target(), entry.typeName, r.Hint())
	}
}

func (c *Core) setLocalName(name string, r *ref.Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.names[name] = r
}

// Unname removes a name binding.
func (c *Core) Unname(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.names, name)
}

// Lookup resolves a name in this core's naming service, returning a fresh
// reference for the caller.
func (c *Core) Lookup(name string) (*ref.Ref, bool) {
	c.mu.Lock()
	r, ok := c.names[name]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return ref.New(r.Target(), r.AnchorType(), r.Hint(), c.binder()), true
}

// Names lists this core's name bindings in sorted order.
func (c *Core) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.names))
	for n := range c.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NameAt binds a name in a remote core's naming service.
func (c *Core) NameAt(dest ids.CoreID, name string, r *ref.Ref) error {
	return c.NameAtCtx(context.Background(), dest, name, r)
}

// NameAtCtx is NameAt bounded by the caller's context. Name registration
// replaces any previous binding, so a retry could not double-apply an
// effect; it is still excluded from transparent retries because a replayed
// stale registration can overwrite a newer one.
func (c *Core) NameAtCtx(ctx context.Context, dest ids.CoreID, name string, r *ref.Ref, opts ...ref.InvokeOption) error {
	if dest == c.id {
		return c.Name(name, r)
	}
	desc, err := r.Descriptor()
	if err != nil {
		return err
	}
	reply, err := call[wire.NameSet, wire.NameSetReply](ctx, c, dest, wire.KindNameSet,
		wire.NameSet{Name: name, Desc: desc}, ref.BuildCallOptions(opts), nil)
	if err != nil {
		return invokeErr(fmt.Sprintf("name %q at %s", name, dest), r.Target(), dest, err)
	}
	if reply.Err != "" {
		return &peerError{msg: fmt.Sprintf("core: name %q at %s: %s", name, dest, reply.Err)}
	}
	return nil
}

// LookupAt resolves a name in a remote core's naming service.
func (c *Core) LookupAt(dest ids.CoreID, name string) (*ref.Ref, bool, error) {
	return c.LookupAtCtx(context.Background(), dest, name)
}

// LookupAtCtx is LookupAt bounded by the caller's context. Lookups are
// idempotent and retried per the core's retry policy on transient transport
// failures.
func (c *Core) LookupAtCtx(ctx context.Context, dest ids.CoreID, name string, opts ...ref.InvokeOption) (*ref.Ref, bool, error) {
	if dest == c.id {
		r, ok := c.Lookup(name)
		return r, ok, nil
	}
	reply, err := call[wire.NameLookup, wire.NameLookupReply](ctx, c, dest, wire.KindNameLookup,
		wire.NameLookup{Name: name}, ref.BuildCallOptions(opts), nil)
	if err != nil {
		return nil, false, invokeErr(fmt.Sprintf("lookup %q at %s", name, dest), ids.CompletID{}, dest, err)
	}
	if reply.Err != "" {
		return nil, false, &peerError{msg: fmt.Sprintf("core: lookup %q at %s: %s", name, dest, reply.Err)}
	}
	if !reply.Found {
		return nil, false, nil
	}
	r, err := ref.FromDescriptor(reply.Desc)
	if err != nil {
		return nil, false, err
	}
	r.Bind(c.binder())
	c.trackerFor(r.Target(), r.Hint())
	return r, true, nil
}

func (c *Core) serveNameSet(_ context.Context, req wire.NameSet) (wire.NameSetReply, error) {
	reply := wire.NameSetReply{}
	r, err := ref.FromDescriptor(req.Desc)
	if err != nil {
		reply.Err = err.Error()
	} else if req.Name == "" {
		reply.Err = "empty name"
	} else {
		r.Bind(c.binder())
		c.enrichAnchorType(r)
		c.setLocalName(req.Name, r)
	}
	return reply, nil
}

func (c *Core) serveNameLookup(_ context.Context, req wire.NameLookup) (wire.NameLookupReply, error) {
	reply := wire.NameLookupReply{}
	if r, ok := c.Lookup(req.Name); ok {
		desc, err := r.Descriptor()
		if err != nil {
			reply.Err = err.Error()
		} else {
			reply.Desc, reply.Found = desc, true
		}
	}
	return reply, nil
}
