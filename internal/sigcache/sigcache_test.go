package sigcache

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
)

// signed returns a fresh keypair and a valid signature over msg.
func signed(t testing.TB, msg []byte) (ed25519.PublicKey, []byte) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, ed25519.Sign(priv, msg)
}

func TestVerifyMemoizesSuccess(t *testing.T) {
	c := New(0)
	msg := []byte("delegation bytes")
	pub, sig := signed(t, msg)

	if !c.VerifySig(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if !c.VerifySig(pub, msg, sig) {
		t.Fatal("valid signature rejected on second pass")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
}

func TestFailuresAreNotMemoized(t *testing.T) {
	c := New(0)
	msg := []byte("msg")
	pub, sig := signed(t, msg)
	bad := append([]byte(nil), sig...)
	bad[0] ^= 1

	for i := 0; i < 3; i++ {
		if c.VerifySig(pub, msg, bad) {
			t.Fatal("tampered signature accepted")
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Size != 0 {
		t.Errorf("stats = %+v, want 3 misses and size 0 (failures never stored)", st)
	}
}

// TestTamperNeverServedFromCache is the negative satellite test: warming the
// cache with a valid triple must not let any perturbed triple (flipped
// signature, message, or key byte) ride the memo — each perturbation digests
// to a different key, misses, and fails real verification.
func TestTamperNeverServedFromCache(t *testing.T) {
	c := New(0)
	msg := []byte("the exact signed bytes")
	pub, sig := signed(t, msg)
	if !c.VerifySig(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}

	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i%len(out)] ^= 0x40
		return out
	}
	cases := map[string][3][]byte{
		"sig":     {pub, msg, flip(sig, 7)},
		"sig-end": {pub, msg, flip(sig, len(sig)-1)},
		"msg":     {pub, flip(msg, 3), sig},
		"pub":     {flip(pub, 5), msg, sig},
	}
	for name, tr := range cases {
		before := c.Stats().Hits
		if c.VerifySig(tr[0], tr[1], tr[2]) {
			t.Errorf("%s: tampered triple verified", name)
		}
		if c.Stats().Hits != before {
			t.Errorf("%s: tampered triple served from cache", name)
		}
	}
	// The original still hits.
	if !c.VerifySig(pub, msg, sig) {
		t.Fatal("original triple no longer verifies")
	}
}

func TestLRUBoundEnforced(t *testing.T) {
	const capacity = NumShards * 4 // 4 entries per shard
	c := New(capacity)
	msg := []byte("m")
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.Public().(ed25519.PublicKey)

	// Distinct messages yield distinct digests spread across shards.
	n := capacity * 3
	for i := 0; i < n; i++ {
		m := append([]byte(fmt.Sprintf("%06d:", i)), msg...)
		if !c.VerifySig(pub, m, ed25519.Sign(priv, m)) {
			t.Fatalf("entry %d rejected", i)
		}
	}
	st := c.Stats()
	if st.Size > int64(capacity) {
		t.Errorf("size %d exceeds capacity %d", st.Size, capacity)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite 3x-capacity insertions")
	}
	if got := st.Size + st.Evictions; got != int64(n) {
		t.Errorf("size+evictions = %d, want %d (every success stored exactly once)", got, n)
	}
	// Per-shard bound, not just the total.
	for i := range c.shards {
		if l := c.shards[i].order.Len(); l > c.perShard {
			t.Errorf("shard %d holds %d entries, per-shard bound is %d", i, l, c.perShard)
		}
		if len(c.shards[i].entries) != c.shards[i].order.Len() {
			t.Errorf("shard %d map/list diverge: %d vs %d", i, len(c.shards[i].entries), c.shards[i].order.Len())
		}
	}
}

// TestConcurrentStorm hammers one cache from many goroutines with a mix of
// valid and tampered triples (run under -race by make check). Every call
// must agree with ground-truth Ed25519 — concurrent misses on the same key
// may both verify, but results never diverge and the memo converges to one
// entry per valid triple.
func TestConcurrentStorm(t *testing.T) {
	c := New(NumShards * 8) // small: storms through the eviction path too
	type triple struct {
		pub, msg, sig []byte
		want          bool
	}
	var triples []triple
	for i := 0; i < 64; i++ {
		msg := []byte(fmt.Sprintf("storm message %d", i))
		pub, sig := signed(t, msg)
		triples = append(triples, triple{pub, msg, sig, true})
		bad := append([]byte(nil), sig...)
		bad[i%len(bad)] ^= 1
		triples = append(triples, triple{pub, msg, bad, false})
	}

	const goroutines = 16
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tr := triples[(g*7+r)%len(triples)]
				if got := c.VerifySig(tr.pub, tr.msg, tr.sig); got != tr.want {
					select {
					case errs <- fmt.Sprintf("goroutine %d round %d: VerifySig = %v, want %v", g, r, got, tr.want):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := c.Stats()
	if st.Size > int64(c.Capacity()) {
		t.Errorf("size %d exceeds capacity %d after storm", st.Size, c.Capacity())
	}
	if st.Hits == 0 {
		t.Error("storm produced no cache hits")
	}
}

func TestSharedIsSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared returned distinct caches")
	}
	if Shared().Capacity() != DefaultCapacity {
		t.Errorf("shared capacity = %d, want %d", Shared().Capacity(), DefaultCapacity)
	}
}

func TestCapacityRounding(t *testing.T) {
	c := New(1) // rounds up to one entry per shard
	if c.Capacity() != NumShards {
		t.Errorf("capacity = %d, want %d", c.Capacity(), NumShards)
	}
}

func BenchmarkVerifySig(b *testing.B) {
	msg := []byte("benchmark delegation signing bytes, roughly realistic length padding padding")
	pub, sig := signed(b, msg)
	b.Run("warm", func(b *testing.B) {
		c := New(0)
		c.VerifySig(pub, msg, sig)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.VerifySig(pub, msg, sig) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := New(0)
			if !c.VerifySig(pub, msg, sig) {
				b.Fatal("rejected")
			}
		}
	})
}
