package ids

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCompletIDsUnique(t *testing.T) {
	m := NewCompletIDs("alpha")
	seen := make(map[CompletID]bool)
	for i := 0; i < 1000; i++ {
		id := m.Next()
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
		if id.Birth != "alpha" {
			t.Fatalf("birth core = %q, want alpha", id.Birth)
		}
	}
}

func TestCompletIDsConcurrent(t *testing.T) {
	m := NewCompletIDs("alpha")
	const (
		goroutines = 8
		perG       = 500
	)
	var (
		mu   sync.Mutex
		seen = make(map[CompletID]bool, goroutines*perG)
		wg   sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]CompletID, 0, perG)
			for i := 0; i < perG; i++ {
				local = append(local, m.Next())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate id %v", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d unique ids, want %d", len(seen), goroutines*perG)
	}
}

func TestSequencerStartsAtOne(t *testing.T) {
	var s Sequencer
	if got := s.Next(); got != 1 {
		t.Fatalf("first Next() = %d, want 1", got)
	}
	if got := s.Next(); got != 2 {
		t.Fatalf("second Next() = %d, want 2", got)
	}
}

func TestSequencerAdvance(t *testing.T) {
	var s Sequencer
	s.Advance(10)
	if got := s.Next(); got != 11 {
		t.Fatalf("Next after Advance(10) = %d, want 11", got)
	}
	s.Advance(5) // never goes backwards
	if got := s.Next(); got != 12 {
		t.Fatalf("Next after backwards Advance = %d, want 12", got)
	}
	if got := s.Current(); got != 12 {
		t.Fatalf("Current = %d, want 12", got)
	}
}

func TestCompletIDsAdvance(t *testing.T) {
	m := NewCompletIDs("core")
	m.Advance(7)
	if got := m.Next(); got.Seq != 8 {
		t.Fatalf("Seq after Advance(7) = %d, want 8", got.Seq)
	}
	if m.Current() != 8 {
		t.Fatalf("Current = %d", m.Current())
	}
}

func TestCompletIDString(t *testing.T) {
	id := CompletID{Birth: "core-1", Seq: 42}
	if got, want := id.String(), "core-1/#42"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestParseCompletID round-trips String output through ParseCompletID and
// rejects everything String cannot produce.
func TestParseCompletID(t *testing.T) {
	for _, id := range []CompletID{
		{Birth: "core-1", Seq: 42},
		{Birth: "a", Seq: 1},
		{Birth: "odd/#name", Seq: 7},
		{Birth: "max", Seq: ^uint64(0)},
	} {
		got, ok := ParseCompletID(id.String())
		if !ok || got != id {
			t.Errorf("ParseCompletID(%q) = %v, %v; want %v", id.String(), got, ok, id)
		}
	}
	for _, bad := range []string{"", "x", "/#1", "a/#0", "a/#x", "a/#12x", "a/#+5", "a/# 5", "a/#-1"} {
		if _, ok := ParseCompletID(bad); ok {
			t.Errorf("ParseCompletID(%q) accepted", bad)
		}
	}
}

func TestNil(t *testing.T) {
	if !(CompletID{}).Nil() {
		t.Error("zero CompletID should be Nil")
	}
	if (CompletID{Birth: "x"}).Nil() {
		t.Error("non-zero CompletID should not be Nil")
	}
	if !CoreID("").Nil() {
		t.Error("empty CoreID should be Nil")
	}
	if CoreID("a").Nil() {
		t.Error("non-empty CoreID should not be Nil")
	}
}

func TestEncodeDecodeCompletID(t *testing.T) {
	roundtrip := func(name string, seq uint64) bool {
		id := CompletID{Birth: CoreID(name), Seq: seq}
		got, err := DecodeCompletID(EncodeCompletID(id))
		return err == nil && got == id
	}
	if err := quick.Check(roundtrip, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCompletIDErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0, 5, 'a'},                            // claims 5-byte name, truncated
		{0, 1, 'a', 0, 0, 0, 0, 0, 0, 0},       // 7-byte seq
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf}, // trailing garbage
	}
	for i, b := range cases {
		if _, err := DecodeCompletID(b); err == nil {
			t.Errorf("case %d: expected error for %v", i, b)
		}
	}
}

func TestRandomToken(t *testing.T) {
	a, err := RandomToken(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomToken(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("token lengths = %d, %d; want 32", len(a), len(b))
	}
	if a == b {
		t.Fatal("two random tokens collided")
	}
}
