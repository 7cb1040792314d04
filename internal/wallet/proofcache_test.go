package wallet

import (
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
)

func TestCacheKeyNormalizesConstraints(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	subject := e.subject("Maria")
	object := e.role("BigISP.member")
	c1 := core.Constraint{Attr: core.AttributeRef{Namespace: e.id("BigISP").ID(), Name: "bw"}, Base: 100, Minimum: 50}
	c2 := core.Constraint{Attr: core.AttributeRef{Namespace: e.id("BigISP").ID(), Name: "gb"}, Base: 30, Minimum: 10}

	a := cacheKey(subject, object, []core.Constraint{c1, c2})
	b := cacheKey(subject, object, []core.Constraint{c2, c1})
	if a != b {
		t.Fatalf("constraint order changed the key:\n%q\n%q", a, b)
	}
	if a == cacheKey(subject, object, []core.Constraint{c1}) {
		t.Fatal("dropping a constraint did not change the key")
	}
	if a == cacheKey(subject, object, nil) {
		t.Fatal("unconstrained key collides with constrained key")
	}
	if cacheKey(subject, object, nil) == cacheKey(subject, e.role("BigISP.member'"), nil) {
		t.Fatal("distinct objects share a key")
	}
}

func TestProofCacheHitMissNegative(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	p, err := core.NewProof(core.ProofStep{Delegation: d})
	if err != nil {
		t.Fatal(err)
	}
	c := newProofCache(DefaultProofCacheLimit)
	now := e.clk.Now()

	if _, _, ok := c.Lookup("k", now, nil); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("k", p)
	got, negative, ok := c.Lookup("k", now, nil)
	if !ok || negative || got != p {
		t.Fatalf("Lookup = (%v, %v, %v)", got, negative, ok)
	}
	c.PutNegative("n")
	if _, negative, ok := c.Lookup("n", now, nil); !ok || !negative {
		t.Fatalf("negative Lookup = (negative=%v, ok=%v)", negative, ok)
	}
	// PutNegative must not shadow an existing positive entry.
	c.PutNegative("k")
	if got, negative, ok := c.Lookup("k", now, nil); !ok || negative || got != p {
		t.Fatal("PutNegative clobbered a positive entry")
	}

	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 1 || st.Negatives != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProofCacheLookupRechecksExpiryAndRevocation(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	p, err := core.NewProof(core.ProofStep{Delegation: d})
	if err != nil {
		t.Fatal(err)
	}
	now := e.clk.Now()

	c := newProofCache(DefaultProofCacheLimit)
	c.Put("k", p)
	revoked := func(id core.DelegationID) bool { return id == d.ID() }
	if _, _, ok := c.Lookup("k", now, revoked); ok {
		t.Fatal("revoked proof served from cache")
	}
	if _, _, ok := c.Lookup("k", now, nil); ok {
		t.Fatal("entry not dropped after failed recheck")
	}
	if st := c.Stats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v, want an invalidation", st)
	}

	// Expiry recheck: an expired delegation's proof must not be served.
	exp := e.deleg("[Maria -> BigISP.member] BigISP <expiry:2026-07-06T12:01:00Z>")
	pe, err := core.NewProof(core.ProofStep{Delegation: exp})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newProofCache(DefaultProofCacheLimit)
	c2.Put("k", pe)
	if _, _, ok := c2.Lookup("k", now.Add(2*time.Minute), nil); ok {
		t.Fatal("expired proof served from cache")
	}
}

func TestProofCacheInvalidateDelegation(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	d1 := e.deleg("[Maria -> BigISP.member] BigISP")
	d2 := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	p1, _ := core.NewProof(core.ProofStep{Delegation: d1})
	p2, _ := core.NewProof(core.ProofStep{Delegation: d2})
	c := newProofCache(DefaultProofCacheLimit)
	c.Put("a", p1)
	c.Put("b", p2)
	c.PutNegative("n")

	c.InvalidateDelegation(d1.ID())
	now := e.clk.Now()
	if _, _, ok := c.Lookup("a", now, nil); ok {
		t.Fatal("invalidated entry still served")
	}
	if _, _, ok := c.Lookup("b", now, nil); !ok {
		t.Fatal("unrelated entry dropped")
	}

	c.InvalidateNegatives()
	if _, _, ok := c.Lookup("n", now, nil); ok {
		t.Fatal("negative entry survived InvalidateNegatives")
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
}

func TestProofCacheEviction(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	p, _ := core.NewProof(core.ProofStep{Delegation: d})
	c := newProofCache(4)
	for i := 0; i < 64; i++ {
		c.Put(string(rune('a'+i)), p)
	}
	if st := c.Stats(); st.Entries+st.Negatives > 4 {
		t.Fatalf("cache grew past its limit: %+v", st)
	}
	// The delegation index must shrink with evictions, not leak keys.
	c.InvalidateDelegation(d.ID())
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries after full invalidation = %d", st.Entries)
	}
}

// table1Proof is Table 1's third-party grant as a one-step proof whose step
// carries a two-step support proof, so the cache's in-place walk recurses.
func (e *env) table1Proof() *core.Proof {
	e.t.Helper()
	d1 := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	d2 := e.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		e.t.Fatal(err)
	}
	p, err := core.NewProof(core.ProofStep{Delegation: e.deleg("[Maria -> BigISP.member] Mark"), Support: []*core.Proof{sup}})
	if err != nil {
		e.t.Fatal(err)
	}
	return p
}

// Hits take the lock shared and count atomically: eight readers hammering
// the same entries (positive, negative and absent) must be race-clean and
// the counters must come out exact, not approximately right.
func TestProofCacheConcurrentReadersCountExactly(t *testing.T) {
	const readers, rounds = 8, 2000
	e := newEnv(t, "BigISP", "Mark", "Maria")
	p := e.table1Proof()
	c := newProofCache(DefaultProofCacheLimit)
	c.Put("pos", p)
	c.PutNegative("neg")
	now := e.clk.Now()
	revoked := func(core.DelegationID) bool { return false }

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if got, negative, ok := c.Lookup("pos", now, revoked); !ok || negative || got != p {
					t.Errorf("positive Lookup = (%v, %v, %v)", got, negative, ok)
					return
				}
				if _, negative, ok := c.Lookup("neg", now, revoked); !ok || !negative {
					t.Errorf("negative Lookup = (negative=%v, ok=%v)", negative, ok)
					return
				}
				if _, _, ok := c.Lookup("absent", now, revoked); ok {
					t.Error("absent key reported a hit")
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits != 2*readers*rounds || st.Misses != readers*rounds || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want exactly %d hits, %d misses, 0 invalidations",
			st, 2*readers*rounds, readers*rounds)
	}
}

// A hit must not allocate: the usability walk goes through the proof in
// place, support proofs included.
func TestProofCacheHitDoesNotAllocate(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	p := e.table1Proof()
	c := newProofCache(DefaultProofCacheLimit)
	c.Put("k", p)
	now := e.clk.Now()
	revoked := func(core.DelegationID) bool { return false }
	if allocs := testing.AllocsPerRun(200, func() { c.Lookup("k", now, revoked) }); allocs != 0 {
		t.Fatalf("a proof-cache hit allocated %.1f times", allocs)
	}
}
