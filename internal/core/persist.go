package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// Checkpoint/Restore implement core persistence — the first of the paper's
// future-work directions ("we plan to develop persistence and mobility-aware
// transactional models", §7). A checkpoint captures every complet hosted by
// this core — closures with their outgoing references' relocation semantics
// preserved — plus the core's name bindings. Restoring into a fresh core of
// the SAME name brings the complets back under their original identities, so
// references held elsewhere keep resolving (their trackers still point at
// this core's name).

// checkpointMagic guards against restoring garbage.
const checkpointMagic = "fargo-checkpoint-v1"

// checkpointFile is the on-disk format.
type checkpointFile struct {
	Magic string
	Core  ids.CoreID
	// MaxSeq is the highest complet sequence number minted by this core,
	// so a restored core never re-issues an ID.
	MaxSeq uint64
	// Entries hold closures encoded under ModeSnapshot. Checkpoints written
	// before entries were bundle entries stored the same fields, and their
	// closures in a box of the same shape, so they still decode.
	Entries []wire.BundleEntry
	Names   map[string]ref.Descriptor
	// JournalSeq is the move journal's record count when the checkpoint was
	// taken (0 with journaling off). Restore uses it to order the
	// checkpoint against journaled INSTALL records: an arrival journaled at
	// or after this count is newer than the checkpoint, so the journal's
	// payload — not the checkpoint entry — re-creates the complet.
	JournalSeq uint64
}

// Checkpoint serializes all hosted complets and name bindings to w. Each
// complet is briefly read-locked, so a checkpoint taken during live traffic
// is internally consistent per complet (not globally transactional — the
// transactional model remains future work here too).
func (c *Core) Checkpoint(w io.Writer) error {
	if c.isClosed() {
		return ErrClosed
	}
	c.mu.Lock()
	entries := c.hostedLocked()
	names := make(map[string]ref.Descriptor, len(c.names))
	for name, r := range c.names {
		desc, err := r.Descriptor()
		if err != nil {
			c.mu.Unlock()
			return fmt.Errorf("core: checkpoint name %q: %w", name, err)
		}
		names[name] = desc
	}
	c.mu.Unlock()

	file := checkpointFile{
		Magic: checkpointMagic,
		Core:  c.id,
		Names: names,
	}
	if enabled, records, _, _, _ := c.recoverySnapshot(); enabled {
		file.JournalSeq = records
	}
	for _, e := range entries {
		snap, err := c.encodeEntry(e, ref.ModeSnapshot, false)
		if err == errStaleLocal {
			continue // moved away mid-checkpoint
		}
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", e.id, err)
		}
		file.Entries = append(file.Entries, snap)
		if e.id.Birth == c.id && e.id.Seq > file.MaxSeq {
			file.MaxSeq = e.id.Seq
		}
	}
	c.mu.Lock()
	if minted := c.mint.Current(); minted > file.MaxSeq {
		file.MaxSeq = minted
	}
	c.mu.Unlock()

	if err := gob.NewEncoder(w).Encode(file); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// CheckpointFile checkpoints to a file path, atomically: the checkpoint is
// written to a temp file in the same directory, fsync'd, and renamed over the
// target. A crash mid-checkpoint therefore leaves the previous checkpoint
// intact — there is never a moment where path holds a torn file.
func (c *Core) CheckpointFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: checkpoint file: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := c.Checkpoint(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("core: sync checkpoint: %w", err))
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("core: close checkpoint: %w", err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: publish checkpoint: %w", err)
	}
	// Persist the rename itself (the directory entry).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Restore installs the complets and names of a checkpoint into this core.
// The core must have the same name the checkpoint was taken on (identities
// embed the birth core) and must not already host complets with the same
// IDs. Returns the number of complets restored.
//
// Restore is all-or-nothing: every entry and name binding is decoded and
// validated before anything is installed, so a truncated or corrupted
// checkpoint (a bad body after a valid header included) leaves the core
// exactly as it was.
func (c *Core) Restore(r io.Reader) (int, error) {
	if c.isClosed() {
		return 0, ErrClosed
	}
	var file checkpointFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return 0, fmt.Errorf("core: read checkpoint: %w", err)
	}
	if file.Magic != checkpointMagic {
		return 0, fmt.Errorf("core: not a fargo checkpoint")
	}
	if file.Core != c.id {
		return 0, fmt.Errorf("core: checkpoint belongs to core %q, this core is %q", file.Core, c.id)
	}

	// Phase 1: decode everything without touching the repository.
	pending := make([]wire.BundleEntry, 0, len(file.Entries))
	for _, entry := range file.Entries {
		at, journaled := c.journaledArrival(entry.ID)
		if _, exists := c.lookup(entry.ID); exists {
			// A recovery probe (or the runtime protocol) may have installed
			// this complet from a journaled INSTALL record before the
			// checkpoint was restored (recovery.go); that live copy stays,
			// the checkpoint entry is skipped. Anything else hosted under
			// the same ID is a real conflict.
			if journaled {
				continue
			}
			return 0, fmt.Errorf("core: restore: complet %s already hosted", entry.ID)
		}
		// The complet is absent, but if the journal recorded its arrival
		// at or AFTER the point this checkpoint was taken, the journaled
		// bundle is the fresher state: skip the entry and let Recover
		// re-install it.
		if journaled && at >= file.JournalSeq {
			continue
		}
		pending = append(pending, entry)
	}
	arrived, err := decodeArrivals(pending)
	if err != nil {
		return 0, fmt.Errorf("core: restore: %w", err)
	}
	names := make(map[string]*ref.Ref, len(file.Names))
	for name, desc := range file.Names {
		nr, err := ref.FromDescriptor(desc)
		if err != nil {
			return 0, fmt.Errorf("core: restore name %q: %w", name, err)
		}
		names[name] = nr
	}

	// Phase 2: the checkpoint is sound; install it.
	// Never mint an ID the checkpointed core may have issued.
	c.mint.Advance(file.MaxSeq)
	c.arrive(arrived, nil)
	for _, a := range arrived {
		c.mon.fireBuiltin(EventCompletArrived, a.id, "restore")
	}
	for name, nr := range names {
		nr.Bind(c.binder())
		c.setLocalName(name, nr)
	}

	// With a move journal attached, reconcile the restored repository with
	// the journal's more recent word — re-install arrivals the checkpoint
	// missed, release copies whose move already committed, and try to
	// resolve moves that were in flight when the core died. Unresolved moves
	// (destination unreachable) stay pending; a later Recover call can
	// finish them.
	if c.jn != nil {
		rep, err := c.Recover(context.Background())
		if err != nil {
			c.opts.Logf("fargo core %s: post-restore recovery: %v", c.id, err)
		} else if !rep.Empty() {
			c.opts.Logf("fargo core %s: post-restore recovery: %s", c.id, rep)
		}
	}
	return len(arrived), nil
}

// RestoreFile restores from a file path.
func (c *Core) RestoreFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("core: restore file: %w", err)
	}
	defer f.Close()
	return c.Restore(f)
}

// CheckpointRemote asks a peer core to checkpoint itself to a file path on
// ITS host, returning the number of complets captured. It is a thin
// context.Background wrapper over CheckpointRemoteCtx, running under the
// core's default request budget; prefer the ctx form.
func (c *Core) CheckpointRemote(dest ids.CoreID, path string) (int, error) {
	return c.CheckpointRemoteCtx(context.Background(), dest, path)
}

// CheckpointRemoteCtx asks a peer core to checkpoint itself under the
// caller's context.
func (c *Core) CheckpointRemoteCtx(ctx context.Context, dest ids.CoreID, path string) (int, error) {
	req := wire.CheckpointRequest{Path: path}
	reply, err := call(ctx, c, dest, wire.KindCheckpoint, req, ref.CallOptions{},
		func() (wire.CheckpointReply, error) { return c.serveCheckpoint(ctx, req) })
	if err != nil {
		return 0, err
	}
	if reply.Err != "" {
		return 0, fmt.Errorf("core: checkpoint %s: %s", dest, reply.Err)
	}
	return reply.Complets, nil
}

// serveCheckpoint checkpoints this core to a path on its own host.
func (c *Core) serveCheckpoint(_ context.Context, req wire.CheckpointRequest) (wire.CheckpointReply, error) {
	if req.Path == "" {
		return wire.CheckpointReply{Err: "empty checkpoint path"}, nil
	}
	if err := c.CheckpointFile(req.Path); err != nil {
		return wire.CheckpointReply{Err: err.Error()}, nil
	}
	return wire.CheckpointReply{Complets: c.CompletCount()}, nil
}
