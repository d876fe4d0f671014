package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fargo/internal/ids"
	"fargo/internal/ref"
)

type testBinder struct{ core ids.CoreID }

func (b *testBinder) InvokeRef(context.Context, *ref.Ref, string, []any, ref.CallOptions) ([]any, error) {
	return nil, nil
}
func (b *testBinder) Locate(context.Context, *ref.Ref) (ids.CoreID, error) { return b.core, nil }
func (b *testBinder) BinderCore() ids.CoreID                               { return b.core }

func cid(seq uint64) ids.CompletID { return ids.CompletID{Birth: "a", Seq: seq} }

func TestEnvelopeRoundtrip(t *testing.T) {
	prop := func(from string, req uint64, isReply bool, kind uint8, payload []byte) bool {
		env := Envelope{
			From:    ids.CoreID(from),
			Req:     ids.RequestID(req),
			IsReply: isReply,
			Kind:    Kind(kind),
			Payload: payload,
		}
		var buf bytes.Buffer
		if err := Gob.MarshalEnvelope(&env, &buf); err != nil {
			return false
		}
		got, err := Gob.UnmarshalEnvelope(buf.Bytes())
		if err != nil {
			return false
		}
		if len(got.Payload) == 0 && len(env.Payload) == 0 {
			got.Payload, env.Payload = nil, nil
		}
		return got.From == env.From && got.Req == env.Req &&
			got.IsReply == env.IsReply && got.Kind == env.Kind &&
			string(got.Payload) == string(env.Payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEnvelopeGarbage(t *testing.T) {
	if _, err := Gob.UnmarshalEnvelope([]byte("not gob")); err == nil {
		t.Fatal("garbage should not decode")
	}
}

func TestKindString(t *testing.T) {
	if KindInvoke.String() != "invoke" {
		t.Errorf("KindInvoke = %q", KindInvoke.String())
	}
	seen := map[string]Kind{}
	for k := KindInvoke; k < kindEnd; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Errorf("defined kind %d renders no name", uint8(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", uint8(prev), uint8(k), name)
		}
		seen[name] = k
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Errorf("unknown kind renders as %q", Kind(200).String())
	}
}

func TestPayloadRoundtrip(t *testing.T) {
	in := InvokeRequest{Target: cid(7), Method: "Print", Args: []byte{1, 2}, Hops: 3}
	data, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	var out InvokeRequest
	if err := DecodePayload(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Target != in.Target || out.Method != in.Method || out.Hops != 3 || len(out.Args) != 2 {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
}

func TestMoveRequestRoundtrip(t *testing.T) {
	in := MoveRequest{
		Entries: []BundleEntry{
			{ID: cid(1), TypeName: "Agent", Payload: []byte("p1")},
			{ID: cid(2), TypeName: "Data", Payload: []byte("p2"), Dup: true},
		},
		ContinuationMethod: "Start",
		ContinuationArgs:   []byte("args"),
		Names:              map[string]int{"agent": 0},
	}
	data, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	var out MoveRequest
	if err := DecodePayload(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 2 || !out.Entries[1].Dup || out.ContinuationMethod != "Start" {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	if out.Names["agent"] != 0 {
		t.Fatalf("names lost: %+v", out.Names)
	}
}

type payloadPoint struct {
	X, Y int
}

type payloadNested struct {
	Label  string
	Point  payloadPoint
	Values []float64
	Table  map[string]int
}

var registerTestTypes = sync.OnceFunc(func() {
	gob.Register(payloadNested{})
	gob.Register(payloadPoint{})
	gob.Register(holder{})
})

func TestEncodeDecodeArgsPlainValues(t *testing.T) {
	registerTestTypes()
	args := []any{
		42, "hello", 3.14, true,
		payloadNested{
			Label:  "n",
			Point:  payloadPoint{X: 1, Y: 2},
			Values: []float64{1, 2, 3},
			Table:  map[string]int{"a": 1},
		},
	}
	data, refs, err := EncodeArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("plain args produced %d refs", len(refs))
	}
	out, decoded, err := DecodeArgs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 0 {
		t.Fatalf("plain args decoded %d refs", len(decoded))
	}
	if len(out) != len(args) {
		t.Fatalf("arg count %d, want %d", len(out), len(args))
	}
	if out[0] != 42 || out[1] != "hello" || out[2] != 3.14 || out[3] != true {
		t.Fatalf("scalars corrupted: %v", out[:4])
	}
	n, ok := out[4].(payloadNested)
	if !ok {
		t.Fatalf("nested arg type %T", out[4])
	}
	if n.Label != "n" || n.Point.X != 1 || len(n.Values) != 3 || n.Table["a"] != 1 {
		t.Fatalf("nested corrupted: %+v", n)
	}
}

func TestEncodeArgsWithRef(t *testing.T) {
	registerTestTypes()
	b := &testBinder{core: "core-a"}
	r := ref.New(cid(9), "Svc", "core-a", b)
	if err := r.Meta().SetRelocator(ref.Pull{}); err != nil {
		t.Fatal(err)
	}

	data, encountered, err := EncodeArgs([]any{"msg", r})
	if err != nil {
		t.Fatal(err)
	}
	if len(encountered) != 1 || encountered[0] != r {
		t.Fatalf("encountered = %v", encountered)
	}
	out, decoded, err := DecodeArgs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d refs, want 1", len(decoded))
	}
	got, ok := out[1].(*ref.Ref)
	if !ok {
		t.Fatalf("arg 1 type %T", out[1])
	}
	if got.Target() != cid(9) {
		t.Fatalf("target %v", got.Target())
	}
	// Degrade rule: receiver always sees link.
	if kind := got.Meta().Relocator().Kind(); kind != "link" {
		t.Fatalf("relocator %q, want link", kind)
	}
	if got.Bound() {
		t.Fatal("decoded ref must be unbound")
	}
}

// holder embeds a ref inside a regular by-value struct, exercising the
// "object graph copied with embedded complet references degraded but not the
// complets themselves" rule (§3.1).
type holder struct {
	Note string
	R    *ref.Ref
}

func TestEncodeArgsRefInsideStruct(t *testing.T) {
	registerTestTypes()
	b := &testBinder{core: "core-a"}
	r := ref.New(cid(3), "Inner", "core-a", b)
	data, encountered, err := EncodeArgs([]any{holder{Note: "deep", R: r}})
	if err != nil {
		t.Fatal(err)
	}
	if len(encountered) != 1 {
		t.Fatalf("encountered %d refs, want 1", len(encountered))
	}
	out, decoded, err := DecodeArgs(data)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := out[0].(holder)
	if !ok {
		t.Fatalf("type %T", out[0])
	}
	if h.R == nil || h.R.Target() != cid(3) {
		t.Fatalf("inner ref: %v", h.R)
	}
	if len(decoded) != 1 || decoded[0] != h.R {
		t.Fatal("decoded list should contain the inner ref")
	}
}

func TestDeepCopyArgsIsolation(t *testing.T) {
	registerTestTypes()
	orig := payloadNested{Label: "orig", Values: []float64{1, 2}, Table: map[string]int{"k": 1}}
	copies, refs, err := DeepCopyArgs([]any{orig})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("unexpected refs: %v", refs)
	}
	got, ok := copies[0].(payloadNested)
	if !ok {
		t.Fatalf("type %T", copies[0])
	}
	got.Values[0] = 99
	got.Table["k"] = 99
	if orig.Values[0] != 1 || orig.Table["k"] != 1 {
		t.Fatal("deep copy aliased the original")
	}
}

func TestDeepCopyDoesNotCopyComplets(t *testing.T) {
	registerTestTypes()
	// A ref inside a copied graph must still point at the same complet —
	// the complet itself must not be duplicated by parameter passing.
	b := &testBinder{core: "core-a"}
	r := ref.New(cid(5), "Shared", "core-a", b)
	copies, decoded, err := DeepCopyArgs([]any{holder{R: r}})
	if err != nil {
		t.Fatal(err)
	}
	h := copies[0].(holder)
	if h.R.Target() != r.Target() {
		t.Fatal("copied ref must keep the same target complet")
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d refs", len(decoded))
	}
}

func TestEncodeArgsUnregisteredType(t *testing.T) {
	type secret struct{ X int }
	if _, _, err := EncodeArgs([]any{secret{X: 1}}); err == nil {
		t.Fatal("encoding unregistered concrete type inside any should fail")
	}
}

func TestEmptyArgs(t *testing.T) {
	data, _, err := EncodeArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeArgs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d args from empty vector", len(out))
	}
}

type moveAnchor struct {
	State int
	Out   *ref.Ref
}

func TestEncodeDecodeClosure(t *testing.T) {
	registerTestTypes()
	gob.Register(&moveAnchor{})
	b := &testBinder{core: "core-a"}
	out := ref.New(cid(11), "Helper", "core-a", b)
	if err := out.Meta().SetRelocator(ref.Pull{}); err != nil {
		t.Fatal(err)
	}
	anchor := &moveAnchor{State: 7, Out: out}

	move := ref.MoveContext{Source: cid(10), From: "core-a", To: "core-b"}
	data, coll, err := EncodeClosure(anchor, move, func(ids.CompletID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(coll.Pulls) != 1 || coll.Pulls[0] != cid(11) {
		t.Fatalf("pulls = %v", coll.Pulls)
	}

	got, decoded, err := DecodeClosure(data)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := got.(*moveAnchor)
	if !ok {
		t.Fatalf("anchor type %T", got)
	}
	if a.State != 7 || a.Out == nil || a.Out.Target() != cid(11) {
		t.Fatalf("anchor corrupted: %+v", a)
	}
	if len(decoded) != 1 || decoded[0] != a.Out {
		t.Fatal("decoded refs should list the anchor's outgoing ref")
	}
	// Move mode preserves the pull relocator across the wire.
	if kind := a.Out.Meta().Relocator().Kind(); kind != "pull" {
		t.Fatalf("moved relocator %q, want pull", kind)
	}
}

func TestConcurrentEncodeArgs(t *testing.T) {
	registerTestTypes()
	b := &testBinder{core: "core-a"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := ref.New(cid(uint64(g)), "T", "core-a", b)
			for i := 0; i < 100; i++ {
				data, _, err := EncodeArgs([]any{g, r})
				if err != nil {
					t.Error(err)
					return
				}
				out, decoded, err := DecodeArgs(data)
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) != 2 || len(decoded) != 1 {
					t.Errorf("goroutine %d: out=%d decoded=%d", g, len(out), len(decoded))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
