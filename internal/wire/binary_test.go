package wire

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"drbac/internal/bufpool"
	"drbac/internal/core"
)

// TestBinaryUnknownTypeEscape checks the type-string escape: message types
// added after this build still frame and round-trip.
func TestBinaryUnknownTypeEscape(t *testing.T) {
	frame, err := (Codec{}).Encode(MsgType("future-msg"), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != "future-msg" || env.ID != 9 {
		t.Fatalf("env = %+v", env)
	}
}

// TestBinaryDecodeRejections nails down the decoder's protocol-violation
// errors: wrong magic (including a JSON envelope from a build that still
// spoke the retired JSON codec), bad version, unknown type code, unknown body
// kind, trailing garbage, and a body-kind/type mismatch at DecodeBody time.
func TestBinaryDecodeRejections(t *testing.T) {
	if _, err := (Codec{}).Decode([]byte(`{"type":"ping","id":1}`)); err == nil {
		t.Error("JSON envelope accepted")
	}
	if _, err := (Codec{}).Decode([]byte{0xAA, 1, 10, 1, 0}); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := (Codec{}).Decode([]byte{binMagic, 99, 10, 1, 0}); err == nil {
		t.Error("future version accepted")
	}
	if _, err := (Codec{}).Decode([]byte{binMagic, 1, 250, 1, 0}); err == nil {
		t.Error("unknown type code accepted")
	}
	if _, err := (Codec{}).Decode([]byte{binMagic, 1, 10, 1, 200}); err == nil {
		t.Error("unknown body kind accepted")
	}
	if _, err := (Codec{}).Decode([]byte{binMagic, 1, 10, 1, bkNone, 0xFF}); err == nil {
		t.Error("trailing bytes after empty body accepted")
	}
	if _, err := (Codec{}).Decode([]byte{binMagic, 1}); err == nil {
		t.Error("truncated frame accepted")
	}

	// A HasResp body decoded into a QueryReq is a kind mismatch, caught
	// before any field is read.
	frame, err := (Codec{}).Encode(TOK, 1, HasResp{Present: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := (Codec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var q QueryReq
	if err := DecodeBody(env, &q); err == nil {
		t.Error("body-kind mismatch accepted")
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
	if r.err == nil || !strings.Contains(r.err.Error(), "nesting") {
		t.Fatalf("proof nested past maxProofDepth: err = %v, want the nesting bound", r.err)
	}
}

// TestBinaryProofStepNeedsDelegation: a proof step without a delegation is
// refused at decode, wherever it sits — the primary chain or a nested
// support proof — so nothing past the wire sees one.
func TestBinaryProofStepNeedsDelegation(t *testing.T) {
	p, _, _ := fixtureProof(t)
	sup := *p.Steps[0].Support[0]
	sup.Steps = append([]core.ProofStep(nil), sup.Steps...)
	sup.Steps[0].Delegation = nil
	nested := *p
	nested.Steps = append([]core.ProofStep(nil), p.Steps...)
	nested.Steps[0].Support = []*core.Proof{&sup}
	top := *p
	top.Steps = []core.ProofStep{{Support: p.Steps[0].Support}}
	for name, bad := range map[string]*core.Proof{"chain": &top, "support": &nested} {
		frame, err := (Codec{}).Encode(TProof, 1, ProofResp{Proof: bad})
		if err != nil {
			t.Fatal(err)
		}
		env, err := (Codec{}).Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		var out ProofResp
		if err := DecodeBody(env, &out); err == nil || !strings.Contains(err.Error(), "no delegation") {
			t.Errorf("%s step without a delegation: err = %v, want refused", name, err)
		}
	}
}

// The encoder starts every frame at encodeStart and grows through the pool:
// a frame of any size — past each class boundary, past MaxRetain — must
// round-trip intact, and once the classes are warm,
// re-encoding the same messages must be served by recycled buffers rather
// than fresh allocations.
func TestBinaryEncodeGrowsThroughPool(t *testing.T) {
	codec := CodecFor(CodecBinary)
	for _, n := range []int{0, 200, encodeStart - 8, encodeStart, 5000, bufpool.MaxRetain - 64, bufpool.MaxRetain + 1, 1 << 20} {
		id := make([]byte, n)
		for i := range id {
			id[i] = byte(i * 7)
		}
		in := SyncResp{Seq: uint64(n), Revoked: []core.DelegationID{core.DelegationID(id)}}
		frame, err := codec.Encode(TOK, 9, in)
		if err != nil {
			t.Fatalf("encode %d-byte body: %v", n, err)
		}
		env, err := codec.Decode(frame)
		if err != nil {
			t.Fatalf("decode %d-byte body: %v", n, err)
		}
		var out SyncResp
		if err := DecodeBody(env, &out); err != nil {
			t.Fatalf("decode %d-byte body: %v", n, err)
		}
		bufpool.Put(frame)
		if out.Seq != in.Seq || len(out.Revoked) != 1 || out.Revoked[0] != in.Revoked[0] {
			t.Fatalf("%d-byte body did not round-trip", n)
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

// TestDecodeRetainsNoLongNames checks that the decoder and the fingerprint
// memo keep no value of whatever length a peer sends: 64 queries naming
// 1 MiB roles and 64 publishes signed under 1 MiB issuer keys must leave
// nothing behind once decoded and fingerprinted. Those publishes' spans run
// past tableMaxSpan, so the short names kept from them must not pin their
// frames either.
func TestDecodeRetainsNoLongNames(t *testing.T) {
	const n, size = 64, 1 << 20
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	roundTrip := func(typ MsgType, in, out any) {
		frame, err := (Codec{}).Encode(typ, 1, in)
		if err != nil {
			t.Fatal(err)
		}
		env, err := (Codec{}).Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeBody(env, out); err != nil {
			t.Fatal(err)
		}
	}
	p, _, _ := fixtureProof(t)
	base := p.Steps[0].Delegation
	before := live()
	var kept []string
	for i := 0; i < n; i++ {
		name := strings.Repeat(string(rune('a'+i%26)), size-1) + string(rune('A'+i/26))
		var q QueryReq
		roundTrip(TQueryDirect, QueryReq{Subject: base.Subject, Object: core.Role{Namespace: base.Object.Namespace, Name: name}}, &q)
		if len(q.Object.Name) != size {
			t.Fatalf("role name decoded to %d bytes", len(q.Object.Name))
		}

		d := cloneDelegation(t, base)
		d.Issuer.Key = bytes.Repeat([]byte{byte(i)}, size)
		var pub PublishReq
		roundTrip(TPublish, PublishReq{Delegation: d}, &pub)
		if got := pub.Delegation.Issuer.ID(); got != d.Issuer.ID() {
			t.Fatalf("fingerprint of a long key: %s, want %s", got, d.Issuer.ID())
		}
		kept = append(kept, pub.Delegation.Issuer.Name, pub.Delegation.Object.Name)
	}
	if retained := live() - before; retained >= 1<<20 {
		t.Fatalf("%d MiB of long names and keys retained after decoding and GC", retained>>20)
	}
	runtime.KeepAlive(kept)
}

// A delegation decoded outside the table costs one string allocation for
// all seven of its names, a copy of its span. The fixture's first step also
// carries a subject entity and an attribute, so the rest is the struct, the
// entity, the attribute slice and the three byte fields: subject key,
// issuer key and signature.
func TestPlainDelegationDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p, _, _ := fixtureProof(t)
	d := p.Steps[0].Delegation
	var w bwriter
	w.delegation(d)
	frame := w.buf
	var got *core.Delegation
	n := testing.AllocsPerRun(100, func() {
		r := breader{buf: frame}
		got = r.delegation()
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
	})
	if marshal(t, got) != marshal(t, d) {
		t.Fatalf("decoded %s, want %s", marshal(t, got), marshal(t, d))
	}
	if n != 7 {
		t.Errorf("plain delegation decode allocates %v times, want 7: struct, names, entity, attributes, two keys, signature", n)
	}
}
