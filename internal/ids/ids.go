// Package ids provides unique identifiers for cores, complets, references
// and requests. Identifiers are small, comparable values suitable for use as
// map keys and for transmission on the wire.
//
// A CompletID embeds the ID of the core that created the complet together
// with a per-core sequence number, so IDs are globally unique without any
// coordination between cores, and remain stable as the complet migrates.
package ids

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// CoreID identifies a core (a stationary runtime instance). Cores are named
// by the administrator (e.g. "accadia" in the paper); the name doubles as the
// identifier because cores are stationary.
type CoreID string

// Nil reports whether the CoreID is the zero value.
func (c CoreID) Nil() bool { return c == "" }

// String returns the core name.
func (c CoreID) String() string { return string(c) }

// CompletID uniquely identifies a complet instance across the whole
// deployment. The Birth core is where the complet was instantiated; it never
// changes as the complet moves.
type CompletID struct {
	Birth CoreID
	Seq   uint64
}

// Nil reports whether the CompletID is the zero value.
func (c CompletID) Nil() bool { return c.Birth.Nil() && c.Seq == 0 }

// String renders the ID as "<birth-core>/#<seq>".
func (c CompletID) String() string {
	return fmt.Sprintf("%s/#%d", c.Birth, c.Seq)
}

// ParseCompletID parses the form String renders: a non-empty birth core,
// "/#", and a positive decimal sequence number with nothing after it.
func ParseCompletID(s string) (CompletID, bool) {
	i := strings.LastIndex(s, "/#")
	if i <= 0 {
		return CompletID{}, false
	}
	seq, err := strconv.ParseUint(s[i+2:], 10, 64)
	if err != nil || seq == 0 {
		return CompletID{}, false
	}
	return CompletID{Birth: CoreID(s[:i]), Seq: seq}, true
}

// RequestID correlates an RPC request with its response.
type RequestID uint64

// Sequencer produces monotonically increasing sequence numbers. The zero
// value is ready to use and safe for concurrent use.
type Sequencer struct {
	n atomic.Uint64
}

// Next returns the next sequence number, starting at 1.
func (s *Sequencer) Next() uint64 { return s.n.Add(1) }

// Current returns the most recently issued sequence number (0 if none).
func (s *Sequencer) Current() uint64 { return s.n.Load() }

// Advance raises the sequence so that future Next calls return numbers
// strictly greater than to. Used when restoring persisted identities.
func (s *Sequencer) Advance(to uint64) {
	for {
		cur := s.n.Load()
		if cur >= to {
			return
		}
		if s.n.CompareAndSwap(cur, to) {
			return
		}
	}
}

// CompletIDs mints CompletIDs for a single core.
type CompletIDs struct {
	core CoreID
	seq  Sequencer
}

// NewCompletIDs returns a minter for complets born on the given core.
func NewCompletIDs(core CoreID) *CompletIDs {
	return &CompletIDs{core: core}
}

// Next mints a fresh CompletID.
func (m *CompletIDs) Next() CompletID {
	return CompletID{Birth: m.core, Seq: m.seq.Next()}
}

// Current returns the most recently minted sequence number (0 if none).
func (m *CompletIDs) Current() uint64 { return m.seq.Current() }

// Advance ensures future IDs use sequence numbers beyond to (restore
// support: never re-issue a persisted identity).
func (m *CompletIDs) Advance(to uint64) { m.seq.Advance(to) }

// RandomToken returns a hex-encoded random token of 2n characters. It is used
// where an unguessable identifier is preferable to a sequential one (e.g.
// listener registrations that outlive reconnects).
func RandomToken(n int) (string, error) {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		return "", fmt.Errorf("random token: %w", err)
	}
	return hex.EncodeToString(buf), nil
}

// EncodeCompletID packs a CompletID into a byte slice (for wire use where a
// fixed binary form is convenient). The layout is:
//
//	[2-byte big-endian name length][name bytes][8-byte big-endian seq]
func EncodeCompletID(id CompletID) []byte {
	name := []byte(id.Birth)
	out := make([]byte, 2+len(name)+8)
	binary.BigEndian.PutUint16(out, uint16(len(name)))
	copy(out[2:], name)
	binary.BigEndian.PutUint64(out[2+len(name):], id.Seq)
	return out
}

// DecodeCompletID unpacks a CompletID encoded by EncodeCompletID.
func DecodeCompletID(b []byte) (CompletID, error) {
	if len(b) < 2 {
		return CompletID{}, fmt.Errorf("decode complet id: short buffer (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) != 2+n+8 {
		return CompletID{}, fmt.Errorf("decode complet id: want %d bytes, have %d", 2+n+8, len(b))
	}
	return CompletID{
		Birth: CoreID(b[2 : 2+n]),
		Seq:   binary.BigEndian.Uint64(b[2+n:]),
	}, nil
}
