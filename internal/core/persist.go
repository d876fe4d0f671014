package core

import (
	"bytes"
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

// checkpointEntry is one persisted complet.
type checkpointEntry struct {
	ID       ids.CompletID
	TypeName string
	Payload  []byte // closure encoded under ModeSnapshot
}

// checkpointFile is the on-disk format.
type checkpointFile struct {
	Magic string
	Core  ids.CoreID
	// MaxSeq is the highest complet sequence number minted by this core,
	// so a restored core never re-issues an ID.
	MaxSeq  uint64
	Entries []checkpointEntry
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
	entries := make([]*complet, 0, len(c.complets))
	for _, e := range c.complets {
		entries = append(entries, e)
	}
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
		payload, err := c.snapshotComplet(e)
		if err != nil {
			return fmt.Errorf("core: checkpoint %s: %w", e.id, err)
		}
		if payload == nil {
			continue // moved away mid-checkpoint
		}
		file.Entries = append(file.Entries, checkpointEntry{
			ID:       e.id,
			TypeName: e.typeName,
			Payload:  payload,
		})
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

// snapshotComplet encodes one complet's closure under ModeSnapshot.
func (c *Core) snapshotComplet(e *complet) ([]byte, error) {
	e.moveMu.RLock()
	defer e.moveMu.RUnlock()
	if e.gone {
		return nil, nil
	}
	wire.RegisterWireTypes()
	coll := &ref.Collector{Mode: ref.ModeSnapshot}
	var buf bytes.Buffer
	err := ref.WithCollector(coll, func() error {
		return gob.NewEncoder(&buf).Encode(snapshotBox{Anchor: e.anchor})
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// snapshotBox wraps the anchor so gob records its dynamic type.
type snapshotBox struct {
	Anchor any
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
	type restoredComplet struct {
		entry   checkpointEntry
		anchor  any
		decoded []*ref.Ref
	}
	pending := make([]restoredComplet, 0, len(file.Entries))
	for _, entry := range file.Entries {
		if _, exists := c.lookup(entry.ID); exists {
			// A recovery probe (or the runtime protocol) may have installed
			// this complet from a journaled INSTALL record before the
			// checkpoint was restored (recovery.go); that live copy stays,
			// the checkpoint entry is skipped. Anything else hosted under
			// the same ID is a real conflict.
			if c.hasInstallRec(entry.ID) {
				continue
			}
			return 0, fmt.Errorf("core: restore: complet %s already hosted", entry.ID)
		}
		// The complet is absent, but if the journal recorded its arrival
		// AFTER this checkpoint was taken, the journaled bundle is the
		// fresher state: skip the entry and let Recover re-install it.
		if c.installRecSupersedes(entry.ID, file.JournalSeq) {
			continue
		}
		anchor, decoded, err := decodeSnapshot(entry.Payload)
		if err != nil {
			return 0, fmt.Errorf("core: restore %s: %w", entry.ID, err)
		}
		pending = append(pending, restoredComplet{entry: entry, anchor: anchor, decoded: decoded})
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
	for _, rc := range pending {
		for _, dr := range rc.decoded {
			dr.SetOwner(rc.entry.ID)
		}
		c.bindDecoded(rc.decoded)
		c.install(rc.entry.ID, rc.entry.TypeName, rc.anchor)
		c.mon.fireBuiltin(EventCompletArrived, rc.entry.ID, "restore")
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
	return len(pending), nil
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

// decodeSnapshot decodes a ModeSnapshot closure.
func decodeSnapshot(data []byte) (any, []*ref.Ref, error) {
	wire.RegisterWireTypes()
	coll := &ref.Collector{Mode: ref.ModeSnapshot}
	var box snapshotBox
	err := ref.WithCollector(coll, func() error {
		return gob.NewDecoder(bytes.NewReader(data)).Decode(&box)
	})
	if err != nil {
		return nil, nil, err
	}
	return box.Anchor, coll.Decoded, nil
}
