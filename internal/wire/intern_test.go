package wire

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"drbac/internal/core"
)

// The intern tables and the fingerprint memo hold names and keys, not
// whatever length a peer sends: 64 queries naming 1 MiB roles and 64
// publishes signed under 1 MiB issuer keys must leave nothing behind once
// decoded and fingerprinted.
func TestInternBoundsLength(t *testing.T) {
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
	}
	if retained := live() - before; retained >= 1<<20 {
		t.Fatalf("%d MiB of long names and keys retained after decoding and GC", retained>>20)
	}
}
