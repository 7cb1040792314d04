package wire

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
	"drbac/internal/graph"
)

// hotBodies returns one representative value per hand-rolled binary body
// shape, built around a real signed three-delegation proof chain so the
// encoders see every field populated the way production traffic does.
func hotBodies(t *testing.T) []struct {
	t    MsgType
	body any
	into func() any
} {
	t.Helper()
	p, _, now := fixtureProof(t)
	d := p.Steps[0].Delegation
	sup := p.Steps[0].Support
	return []struct {
		t    MsgType
		body any
		into func() any
	}{
		{TQueryDirect, QueryReq{
			Subject: core.Subject{Entity: d.Subject.Entity},
			Object:  d.Object,
			Constraints: []core.Constraint{{
				Attr:    core.AttributeRef{Namespace: d.Object.Namespace, Name: "quota"},
				Base:    100,
				Minimum: 10,
			}},
			Direction: graph.Forward,
			TraceID:   "trace-1",
			SpanID:    "span-9",
		}, func() any { return &QueryReq{} }},
		{TQuerySubject, QueryReq{Subject: core.Subject{Role: d.Object}}, func() any { return &QueryReq{} }},
		{TProof, ProofResp{Proof: p}, func() any { return &ProofResp{} }},
		{TProof, ProofResp{}, func() any { return &ProofResp{} }},
		{TProofs, ProofsResp{Proofs: []*core.Proof{p, sup[0]}}, func() any { return &ProofsResp{} }},
		{TPublish, PublishReq{Delegation: d, Support: sup, TTLSeconds: 300, ShardEpoch: 7}, func() any { return &PublishReq{} }},
		{TRevoke, RevokeReq{Delegation: d.ID(), ShardEpoch: 3}, func() any { return &RevokeReq{} }},
		{TNotify, NotifyPush{Delegation: d.ID(), Kind: "revoked", At: now, Seq: 12}, func() any { return &NotifyPush{} }},
		{TNotify, NotifyPush{
			Delegation: d.ID(), Kind: "published", At: now, Seq: 13,
			Bundle: &SyncBundle{Delegation: d, Support: sup},
		}, func() any { return &NotifyPush{} }},
		{TSubscribe, SubscribeReq{Delegation: d.ID()}, func() any { return &SubscribeReq{} }},
		{THas, HasReq{Delegation: d.ID()}, func() any { return &HasReq{} }},
		{TOK, HasResp{Present: true}, func() any { return &HasResp{} }},
		{TOK, SyncResp{
			Seq:     44,
			Bundles: []SyncBundle{{Delegation: d, Support: sup}},
			Revoked: []core.DelegationID{"dead-1", "dead-2"},
		}, func() any { return &SyncResp{} }},
		{TOK, SubscribeAllResp{Seq: 9}, func() any { return &SubscribeAllResp{} }},
		{TSyncSegments, SyncSegmentsReq{AfterSeq: 5}, func() any { return &SyncSegmentsReq{} }},
		{TOK, SyncSegmentsResp{
			Seq:      80,
			Segments: []Segment{{Name: "seg-000001", Sealed: true, Records: []byte("r1\nr2\n")}},
		}, func() any { return &SyncSegmentsResp{} }},
		{TProveRole, ProveRoleReq{Role: d.Object}, func() any { return &ProveRoleReq{} }},
	}
}

// TestBinaryRoundTripHotBodies drives every hand-rolled body shape through
// encode → decode → DecodeBody and requires the result to be field-for-field
// identical (JSON re-marshal equality) with the original.
func TestBinaryRoundTripHotBodies(t *testing.T) {
	for _, c := range hotBodies(t) {
		frame, err := binaryCodecInst.Encode(c.t, 7, c.body)
		if err != nil {
			t.Fatalf("%s %T: encode: %v", c.t, c.body, err)
		}
		env, err := binaryCodecInst.Decode(frame)
		if err != nil {
			t.Fatalf("%s %T: decode: %v", c.t, c.body, err)
		}
		if env.Type != c.t || env.ID != 7 {
			t.Fatalf("%s: envelope = %q id %d", c.t, env.Type, env.ID)
		}
		out := c.into()
		if err := DecodeBody(env, out); err != nil {
			t.Fatalf("%s %T: decode body: %v", c.t, c.body, err)
		}
		want, _ := json.Marshal(c.body)
		got, _ := json.Marshal(out)
		if !bytes.Equal(want, got) {
			t.Errorf("%s %T: round trip diverged\nwant %s\ngot  %s", c.t, c.body, want, got)
		}
	}
}

// TestCrossCodecByteIdentical is the compatibility invariant the CI
// cross-codec job leans on: the same body decoded off a JSON frame and off
// a binary frame must re-marshal to byte-identical JSON — a proof fetched
// through a binary peer is indistinguishable from one fetched through a
// JSON peer.
func TestCrossCodecByteIdentical(t *testing.T) {
	for _, c := range hotBodies(t) {
		jf, err := jsonCodecInst.Encode(c.t, 3, c.body)
		if err != nil {
			t.Fatalf("%s: json encode: %v", c.t, err)
		}
		bf, err := binaryCodecInst.Encode(c.t, 3, c.body)
		if err != nil {
			t.Fatalf("%s: binary encode: %v", c.t, err)
		}
		je, err := jsonCodecInst.Decode(jf)
		if err != nil {
			t.Fatalf("%s: json decode: %v", c.t, err)
		}
		be, err := binaryCodecInst.Decode(bf)
		if err != nil {
			t.Fatalf("%s: binary decode: %v", c.t, err)
		}
		jo, bo := c.into(), c.into()
		if err := DecodeBody(je, jo); err != nil {
			t.Fatalf("%s: json decode body: %v", c.t, err)
		}
		if err := DecodeBody(be, bo); err != nil {
			t.Fatalf("%s: binary decode body: %v", c.t, err)
		}
		j, _ := json.Marshal(jo)
		b, _ := json.Marshal(bo)
		if !bytes.Equal(j, b) {
			t.Errorf("%s %T: codecs disagree\njson   %s\nbinary %s", c.t, c.body, j, b)
		}
	}
}

// TestBinaryColdBodiesFallBackToJSON checks that body types without a
// hand-rolled layout ride as JSON inside the binary envelope.
func TestBinaryColdBodiesFallBackToJSON(t *testing.T) {
	body := ErrorResp{Message: "boom", NoProof: true}
	frame, err := binaryCodecInst.Encode(TError, 5, body)
	if err != nil {
		t.Fatal(err)
	}
	env, err := binaryCodecInst.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var out ErrorResp
	if err := DecodeBody(env, &out); err != nil {
		t.Fatal(err)
	}
	if out != body {
		t.Fatalf("round trip = %+v, want %+v", out, body)
	}
}

// TestBinaryUnknownTypeEscape checks the type-string escape: message types
// added after this build still frame and round-trip.
func TestBinaryUnknownTypeEscape(t *testing.T) {
	frame, err := binaryCodecInst.Encode(MsgType("future-msg"), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := binaryCodecInst.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != "future-msg" || env.ID != 9 {
		t.Fatalf("env = %+v", env)
	}
}

// TestBinaryDecodeRejections nails down the decoder's protocol-violation
// errors: wrong magic (including a JSON frame sent down a binary
// connection), bad version, unknown type code, unknown body kind, trailing
// garbage, and a body-kind/type mismatch at DecodeBody time.
func TestBinaryDecodeRejections(t *testing.T) {
	if _, err := binaryCodecInst.Decode([]byte(`{"type":"ping","id":1}`)); err == nil {
		t.Error("JSON frame accepted by the binary codec")
	}
	if _, err := binaryCodecInst.Decode([]byte{0xAA, 1, 10, 1, 0}); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := binaryCodecInst.Decode([]byte{binMagic, 99, 10, 1, 0}); err == nil {
		t.Error("future version accepted")
	}
	if _, err := binaryCodecInst.Decode([]byte{binMagic, 1, 250, 1, 0}); err == nil {
		t.Error("unknown type code accepted")
	}
	if _, err := binaryCodecInst.Decode([]byte{binMagic, 1, 10, 1, 200}); err == nil {
		t.Error("unknown body kind accepted")
	}
	if _, err := binaryCodecInst.Decode([]byte{binMagic, 1, 10, 1, bkNone, 0xFF}); err == nil {
		t.Error("trailing bytes after empty body accepted")
	}
	if _, err := binaryCodecInst.Decode([]byte{binMagic, 1}); err == nil {
		t.Error("truncated frame accepted")
	}

	// A HasResp body decoded into a QueryReq is a kind mismatch, caught
	// before any field is read.
	frame, err := binaryCodecInst.Encode(TOK, 1, HasResp{Present: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := binaryCodecInst.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var q QueryReq
	if err := DecodeBody(env, &q); err == nil {
		t.Error("body-kind mismatch accepted")
	}
}

// TestBinaryInterningSharesAllocations checks that repeated principals in
// one frame decode to shared values: the point of the intern table.
func TestBinaryInterningSharesAllocations(t *testing.T) {
	p, _, _ := fixtureProof(t)
	frame, err := binaryCodecInst.Encode(TProof, 1, ProofResp{Proof: p})
	if err != nil {
		t.Fatal(err)
	}
	env, err := binaryCodecInst.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var out ProofResp
	if err := DecodeBody(env, &out); err != nil {
		t.Fatal(err)
	}
	// The chain's delegations share an issuer; decoded keys must share one
	// backing array.
	var keys [][]byte
	for _, st := range out.Proof.Steps {
		keys = append(keys, st.Delegation.Issuer.Key)
		for _, sp := range st.Support {
			for _, sst := range sp.Steps {
				keys = append(keys, sst.Delegation.Issuer.Key)
			}
		}
	}
	shared := false
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if bytes.Equal(keys[i], keys[j]) && &keys[i][0] == &keys[j][0] {
				shared = true
			}
		}
	}
	if !shared {
		t.Error("no decoded issuer keys share a backing array; interning is not engaged")
	}
}

// TestBinaryProofDepthBounded checks the recursion guard: a frame nesting
// support proofs past maxProofDepth is rejected, not stack-overflowed.
func TestBinaryProofDepthBounded(t *testing.T) {
	// Build a proof nested maxProofDepth+2 deep by hand-encoding: each
	// level is a proof with one step whose support holds the next level.
	var w bwriter
	var openProof func(depth int)
	openProof = func(depth int) {
		w.bool(true)        // proof present
		w.bool(true)        // subject: entity
		w.str("e")          // entity id
		w.role(core.Role{}) // object
		if depth == 0 {
			w.uvarint(0) // no steps
			return
		}
		w.uvarint(1)  // one step
		w.bool(false) // nil delegation
		w.uvarint(1)  // one support proof
		openProof(depth - 1)
	}
	openProof(maxProofDepth + 2)
	r := breader{buf: w.buf}
	r.proof(0)
	if r.err == nil {
		t.Fatal("proof nested past maxProofDepth accepted")
	}
}

// FuzzBinaryCodecRoundTrip fuzzes the full typed path: any frame the binary
// decoder accepts must decode into its body type and survive re-encode →
// re-decode with identical JSON re-marshals — the same stability contract
// the JSON fuzzers enforce, so neither codec can smuggle state the other
// would drop.
func FuzzBinaryCodecRoundTrip(f *testing.F) {
	seedBodies := []struct {
		t    MsgType
		body any
	}{
		{TQueryDirect, QueryReq{Subject: core.Subject{Entity: "e1"}, Direction: graph.Forward}},
		{TOK, HasResp{Present: true}},
		{TOK, SyncResp{Seq: 3, Revoked: []core.DelegationID{"x"}}},
		{TNotify, NotifyPush{Delegation: "d", Kind: "revoked", At: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}},
		{TRevoke, RevokeReq{Delegation: "d-1", ShardEpoch: 2}},
		{TProof, ProofResp{}},
		{TOK, SyncSegmentsResp{Seq: 1, Segments: []Segment{{Name: "s", Records: []byte{1, 2}}}}},
	}
	for _, s := range seedBodies {
		frame, err := binaryCodecInst.Encode(s.t, 1, s.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), frame...))
		bufpool.Put(frame)
	}
	intoFor := map[byte]func() any{
		bkQueryReq:         func() any { return &QueryReq{} },
		bkProofResp:        func() any { return &ProofResp{} },
		bkProofsResp:       func() any { return &ProofsResp{} },
		bkPublishReq:       func() any { return &PublishReq{} },
		bkRevokeReq:        func() any { return &RevokeReq{} },
		bkNotifyPush:       func() any { return &NotifyPush{} },
		bkSubscribeReq:     func() any { return &SubscribeReq{} },
		bkHasReq:           func() any { return &HasReq{} },
		bkHasResp:          func() any { return &HasResp{} },
		bkSyncResp:         func() any { return &SyncResp{} },
		bkSubscribeAllResp: func() any { return &SubscribeAllResp{} },
		bkSyncSegmentsReq:  func() any { return &SyncSegmentsReq{} },
		bkSyncSegmentsResp: func() any { return &SyncSegmentsResp{} },
		bkProveRoleReq:     func() any { return &ProveRoleReq{} },
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		env, err := binaryCodecInst.Decode(frame)
		if err != nil || env.binKind == 0 {
			return
		}
		mk := intoFor[env.binKind]
		out := mk()
		if DecodeBody(env, out) != nil {
			return
		}
		// Re-encode the decoded value (Encode switches on value types).
		body := derefBody(out)
		frame2, err := binaryCodecInst.Encode(env.Type, env.ID, body)
		if err != nil {
			t.Fatalf("re-encode accepted %s body: %v", env.Type, err)
		}
		env2, err := binaryCodecInst.Decode(frame2)
		if err != nil {
			t.Fatalf("re-decode %s envelope: %v", env.Type, err)
		}
		out2 := mk()
		if err := DecodeBody(env2, out2); err != nil {
			t.Fatalf("re-decode %s body: %v", env.Type, err)
		}
		a, _ := json.Marshal(out)
		b, _ := json.Marshal(out2)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s body not stable across round trip:\n1st: %s\n2nd: %s", env.Type, a, b)
		}
	})
}

// derefBody unwraps the decode-target pointer into the value type the
// encoder's switch expects.
func derefBody(out any) any {
	switch v := out.(type) {
	case *QueryReq:
		return *v
	case *ProofResp:
		return *v
	case *ProofsResp:
		return *v
	case *PublishReq:
		return *v
	case *RevokeReq:
		return *v
	case *NotifyPush:
		return *v
	case *SubscribeReq:
		return *v
	case *HasReq:
		return *v
	case *HasResp:
		return *v
	case *SyncResp:
		return *v
	case *SubscribeAllResp:
		return *v
	case *SyncSegmentsReq:
		return *v
	case *SyncSegmentsResp:
		return *v
	case *ProveRoleReq:
		return *v
	default:
		return out
	}
}

// FuzzBinaryFrameDecode hammers the raw decoder with adversarial bytes: it
// must never panic, and every length/count it trusts is bounded by the
// frame itself, so a small hostile frame cannot drive a large allocation.
func FuzzBinaryFrameDecode(f *testing.F) {
	f.Add([]byte{binMagic, binVersion, 10, 1, bkNone})
	f.Add([]byte{binMagic, binVersion, 0, 4, 'p', 'i', 'n', 'g', 1, bkNone})
	// A count field claiming 2^32 elements in a five-byte body.
	f.Add([]byte{binMagic, binVersion, 2, 1, bkQueryReq, 0x80, 0x80, 0x80, 0x80, 0x10})
	p, _, _ := fixtureProof(f)
	frame, err := binaryCodecInst.Encode(TProof, 1, ProofResp{Proof: p})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), frame...))
	bufpool.Put(frame)
	f.Fuzz(func(t *testing.T, frame []byte) {
		env, err := binaryCodecInst.Decode(frame)
		if err != nil {
			return
		}
		// Try every typed target: wrong kinds must error cleanly, the right
		// kind must decode without panicking or over-reading.
		for _, out := range []any{
			&QueryReq{}, &ProofResp{}, &ProofsResp{}, &PublishReq{}, &RevokeReq{},
			&NotifyPush{}, &SubscribeReq{}, &HasReq{}, &HasResp{}, &SyncResp{},
			&SubscribeAllResp{}, &SyncSegmentsReq{}, &SyncSegmentsResp{}, &ProveRoleReq{},
		} {
			_ = DecodeBody(env, out)
		}
	})
}

// The encoder starts every frame at encodeStart and grows through the pool:
// a frame of any size — past each class boundary, past MaxRetain — must
// round-trip intact, and once the classes are warm,
// re-encoding the same messages must be served by recycled buffers rather
// than fresh allocations.
func TestBinaryEncodeGrowsThroughPool(t *testing.T) {
	codec := CodecFor(CodecBinary)
	for _, n := range []int{0, 200, encodeStart - 8, encodeStart, 5000, bufpool.MaxRetain - 64, bufpool.MaxRetain + 1, 1 << 20} {
		records := make([]byte, n)
		for i := range records {
			records[i] = byte(i * 7)
		}
		in := SyncSegmentsResp{Seq: uint64(n), Segments: []Segment{{Name: "seg", Sealed: true, Records: records}}}
		frame, err := codec.Encode(TOK, 9, in)
		if err != nil {
			t.Fatalf("encode %d-byte segment: %v", n, err)
		}
		env, err := codec.Decode(frame)
		if err != nil {
			t.Fatalf("decode %d-byte segment: %v", n, err)
		}
		var out SyncSegmentsResp
		if err := DecodeBody(env, &out); err != nil {
			t.Fatalf("decode body of %d-byte segment: %v", n, err)
		}
		bufpool.Put(frame)
		if out.Seq != in.Seq || len(out.Segments) != 1 || !bytes.Equal(out.Segments[0].Records, records) {
			t.Fatalf("%d-byte segment did not round-trip", n)
		}
	}

	p, _, _ := fixtureProof(t)
	encode := func(rounds int) {
		for i := 0; i < rounds; i++ {
			frame, err := codec.Encode(TProof, uint64(i), ProofResp{Proof: p})
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Put(frame)
		}
	}
	encode(16) // warm every class the proof grows through
	before := bufpool.Snapshot()
	encode(256)
	after := bufpool.Snapshot()
	gets, news := after.Gets-before.Gets, after.News-before.News
	// sync.Pool may drop entries (it does so at random under -race), so the
	// bar is "mostly recycled", not "never allocates".
	if gets < 2*256 || news > gets/2 {
		t.Fatalf("256 proof encodes: %d pool gets, %d fresh allocations", gets, news)
	}
}
