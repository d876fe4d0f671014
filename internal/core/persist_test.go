package core

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/registry"
	"fargo/internal/transport"
)

// restartCore simulates a crash/restart: shut the core down and bring up a
// fresh one with the same name on the same simulated network.
func restartCore(t *testing.T, cl *cluster, name string) *Core {
	t.Helper()
	old := cl.core(name)
	if err := old.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	tr, err := transport.NewSim(cl.net, old.ID())
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	registerTestTypes(t, reg)
	fresh, err := New(tr, reg, Options{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cl.cores[old.ID()] = fresh // cluster cleanup shuts it down
	return fresh
}

func TestCheckpointRestoreRoundtrip(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a := cl.core("a")

	// State: a message (invoked once), a holder with a PULL reference to
	// it, and a name binding.
	msgRef, err := a.NewComplet("Msg", "persisted")
	if err != nil {
		t.Fatal(err)
	}
	invoke1(t, msgRef, "Print") // Count = 1
	h, err := a.NewComplet("Holder", "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke("SetOut", msgRef); err != nil {
		t.Fatal(err)
	}
	entry, _ := a.lookup(h.Target())
	if err := entry.anchor.(*holder).Out.Meta().SetRelocator(ref.Pull{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Name("the-msg", msgRef); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	a2 := restartCore(t, cl, "a")
	n, err := a2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d complets, want 2", n)
	}

	// State survived: counter continues from 1.
	restored, ok := a2.Lookup("the-msg")
	if !ok {
		t.Fatal("name binding lost")
	}
	if got := invoke1(t, restored, "Calls"); got != 1 {
		t.Fatalf("Calls = %v, want 1 (state lost)", got)
	}
	// Identity survived: the old stub (rebuilt against the new core via
	// ID) reaches the same complet.
	viaID := a2.NewRefTo(msgRef.Target(), "Msg", "a")
	if got := invoke1(t, viaID, "Print"); got != "persisted" {
		t.Fatalf("Print = %v", got)
	}
	// Relocator semantics survived: moving the holder pulls the message.
	h2 := a2.NewRefTo(h.Target(), "Holder", "a")
	if err := a2.Move(h2, "b"); err != nil {
		t.Fatal(err)
	}
	if got := cl.core("b").CompletCount(); got != 2 {
		t.Fatalf("b hosts %d complets, want 2 (pull preserved across restore)", got)
	}
	// Fresh IDs don't collide with restored ones.
	fresh, err := a2.NewComplet("Msg", "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Target() == msgRef.Target() || fresh.Target() == h.Target() {
		t.Fatalf("fresh ID %v collides with a restored identity", fresh.Target())
	}
}

func TestCheckpointFileRoundtrip(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	if _, err := a.NewComplet("Msg", "on-disk"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "core-a.ckpt")
	if err := a.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	a2 := restartCore(t, cl, "a")
	n, err := a2.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || a2.CompletCount() != 1 {
		t.Fatalf("restored %d, hosting %d", n, a2.CompletCount())
	}
}

func TestRestoreValidation(t *testing.T) {
	cl := newCluster(t, "a", "b")
	a, b := cl.core("a"), cl.core("b")
	if _, err := a.NewComplet("Msg", "x"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong core name.
	if _, err := b.Restore(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "belongs to core") {
		t.Fatalf("cross-core restore: %v", err)
	}
	// Garbage.
	if _, err := a.Restore(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage restore should fail")
	}
	// Duplicate restore into the SAME live core (complets still hosted).
	if _, err := a.Restore(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "already hosted") {
		t.Fatalf("duplicate restore: %v", err)
	}
}

func TestCheckpointRemote(t *testing.T) {
	cl := newCluster(t, "admin", "worker")
	admin := cl.core("admin")
	if _, err := admin.NewCompletAt("worker", "Msg", "remote-persisted"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "worker.ckpt")
	n, err := admin.CheckpointRemote("worker", path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("checkpointed %d complets, want 1", n)
	}
	// The file is readable and restores into a restarted worker.
	w2 := restartCore(t, cl, "worker")
	restored, err := w2.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d", restored)
	}
	// Self-targeted remote checkpoint takes the local path.
	path2 := filepath.Join(t.TempDir(), "self.ckpt")
	if _, err := admin.CheckpointRemote("admin", path2); err != nil {
		t.Fatal(err)
	}
	// Error path: bad remote path.
	if _, err := admin.CheckpointRemote("worker", ""); err == nil {
		t.Fatal("empty remote path should fail")
	}
}

func TestRestoredRefsAreOwnedAndBound(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	target, err := a.NewComplet("Msg", "t")
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.NewComplet("Holder", "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke("SetOut", target); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	a2 := restartCore(t, cl, "a")
	if _, err := a2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	// The holder's restored outgoing ref must be bound: CallOut works.
	h2 := a2.NewRefTo(h.Target(), "Holder", "a")
	if got := invoke1(t, h2, "CallOut"); got != "t" {
		t.Fatalf("CallOut after restore = %v", got)
	}
	// And owned by the holder (per-reference profiling key).
	entry, okE := a2.lookup(h.Target())
	if !okE {
		t.Fatal("holder not restored")
	}
	if owner := entry.anchor.(*holder).Out.Owner(); owner != h.Target() {
		t.Fatalf("restored ref owner = %v, want %v", owner, h.Target())
	}
}

// TestRestoreCorruptedCheckpoint feeds Restore broken inputs: a truncated
// stream (crash mid-write), pure garbage, and byte-flipped content. Every case
// must return an error — never panic — and must leave the core empty, so a
// later restore from the pristine checkpoint still works.
func TestRestoreCorruptedCheckpoint(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	for _, text := range []string{"one", "two"} {
		if _, err := a.NewComplet("Msg", text); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	for i := len(flipped) / 2; i < len(flipped)/2+16 && i < len(flipped); i++ {
		flipped[i] ^= 0xff
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated early", good[:8]},
		{"truncated midway", good[:len(good)/2]},
		{"garbage", []byte("this is definitely not a fargo checkpoint")},
		{"byte-flipped", flipped},
	}

	a2 := restartCore(t, cl, "a")
	for _, tc := range cases {
		n, err := a2.Restore(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s: Restore accepted corrupted input", tc.name)
		}
		if n != 0 {
			t.Fatalf("%s: Restore reported %d complets on error", tc.name, n)
		}
		if got := a2.CompletCount(); got != 0 {
			t.Fatalf("%s: %d complets partially registered after failed restore", tc.name, got)
		}
	}

	// The failures left no residue: the pristine checkpoint still restores.
	n, err := a2.Restore(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("pristine restore after failed attempts: %v", err)
	}
	if n != 2 {
		t.Fatalf("restored %d complets, want 2", n)
	}
}

// TestRestoreBadEntryIsAtomic builds a checkpoint whose outer structure is
// valid (magic, core, names) but whose SECOND entry carries an undecodable
// closure. Restore must reject the whole file and install nothing — a half
// restored core would serve calls on complets its checkpoint never finished
// validating.
func TestRestoreBadEntryIsAtomic(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	for _, text := range []string{"one", "two"} {
		if _, err := a.NewComplet("Msg", text); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	var file checkpointFile
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Entries) != 2 {
		t.Fatalf("checkpoint has %d entries, want 2", len(file.Entries))
	}
	file.Entries[1].Payload = []byte("corrupted closure bytes")
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(file); err != nil {
		t.Fatal(err)
	}

	a2 := restartCore(t, cl, "a")
	n, err := a2.Restore(&bad)
	if err == nil {
		t.Fatal("Restore accepted a checkpoint with an undecodable entry")
	}
	if n != 0 {
		t.Fatalf("Restore reported %d complets on error", n)
	}
	if got := a2.CompletCount(); got != 0 {
		t.Fatalf("%d complets installed from a rejected checkpoint (not atomic)", got)
	}
	if _, ok := a2.Lookup("the-msg"); ok {
		t.Fatal("name binding installed from a rejected checkpoint")
	}
}

// The checkpoint shapes written before checkpoint entries became bundle
// entries and snapshots used the closure box: the file's entries were
// oldCheckpointEntry, each closure an oldSnapshotBox.
type (
	oldCheckpointEntry struct {
		ID       ids.CompletID
		TypeName string
		Payload  []byte
	}
	oldSnapshotBox struct {
		Anchor any
	}
	oldCheckpointFile struct {
		Magic      string
		Core       ids.CoreID
		MaxSeq     uint64
		Entries    []oldCheckpointEntry
		Names      map[string]ref.Descriptor
		JournalSeq uint64
	}
)

// TestRestoreReadsOldCheckpointShape restores a checkpoint written in the
// old shapes: state, relocator, owner and names all survive.
func TestRestoreReadsOldCheckpointShape(t *testing.T) {
	cl := newCluster(t, "a")
	a := cl.core("a")
	msgRef, err := a.NewComplet("Msg", "old")
	if err != nil {
		t.Fatal(err)
	}
	invoke1(t, msgRef, "Print") // Count = 1
	h, err := a.NewComplet("Holder", "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke("SetOut", msgRef); err != nil {
		t.Fatal(err)
	}
	setRelocator(t, a, h, ref.Pull{})
	desc, err := msgRef.Descriptor()
	if err != nil {
		t.Fatal(err)
	}
	file := oldCheckpointFile{
		Magic:  checkpointMagic,
		Core:   a.ID(),
		MaxSeq: 2,
		Names:  map[string]ref.Descriptor{"the-msg": desc},
	}
	for _, e := range a.hosted() {
		var payload bytes.Buffer
		err := ref.WithCollector(&ref.Collector{Mode: ref.ModeSnapshot}, func() error {
			return gob.NewEncoder(&payload).Encode(oldSnapshotBox{Anchor: e.anchor})
		})
		if err != nil {
			t.Fatal(err)
		}
		file.Entries = append(file.Entries, oldCheckpointEntry{ID: e.id, TypeName: e.typeName, Payload: payload.Bytes()})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(file); err != nil {
		t.Fatal(err)
	}

	a2 := restartCore(t, cl, "a")
	n, err := a2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d complets, want 2", n)
	}
	restored, ok := a2.Lookup("the-msg")
	if !ok {
		t.Fatal("name binding lost")
	}
	if got := invoke1(t, restored, "Calls"); got != 1 {
		t.Fatalf("Calls = %v, want 1", got)
	}
	entry, ok := a2.lookup(h.Target())
	if !ok {
		t.Fatal("holder not restored")
	}
	out := entry.anchor.(*holder).Out
	if kind := out.Meta().Relocator().Kind(); kind != "pull" {
		t.Fatalf("relocator = %q, want pull", kind)
	}
	if owner := out.Owner(); owner != h.Target() {
		t.Fatalf("owner = %v, want %v", owner, h.Target())
	}
}
