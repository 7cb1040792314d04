package wallet

import (
	"fmt"
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
	c.Put("k", p, c.gen())
	got, negative, ok := c.Lookup("k", now, nil)
	if !ok || negative || got != p {
		t.Fatalf("Lookup = (%v, %v, %v)", got, negative, ok)
	}
	c.PutNegative("n", c.gen())
	if _, negative, ok := c.Lookup("n", now, nil); !ok || !negative {
		t.Fatalf("negative Lookup = (negative=%v, ok=%v)", negative, ok)
	}
	// PutNegative must not shadow an existing positive entry.
	c.PutNegative("k", c.gen())
	if got, negative, ok := c.Lookup("k", now, nil); !ok || negative || got != p {
		t.Fatal("PutNegative clobbered a positive entry")
	}

	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 1 || st.Negatives != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// From a removal's start to its drop no positive answer is served: a reader
// that already misses the removed edge must not be handed a proof resting on
// it, which a stale or expiry drop, unlike a revocation, leaves usable.
func TestProofCacheServesNothingWhileRemoving(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	p, err := core.NewProof(core.ProofStep{Delegation: d})
	if err != nil {
		t.Fatal(err)
	}
	c := newProofCache(DefaultProofCacheLimit)
	now := e.clk.Now()
	c.Put("k", p, c.gen())
	removed := c.remove(d.ID(), func() bool {
		if got, _, ok := c.Lookup("k", now, nil); ok {
			t.Errorf("served %v while its delegation was being removed", got)
		}
		return true
	})
	if !removed {
		t.Fatal("remove did not report the removal")
	}
	if got, _, ok := c.Lookup("k", now, nil); ok {
		t.Fatalf("served %v after its delegation was removed", got)
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
	c.Put("k", p, c.gen())
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
	c2.Put("k", pe, c2.gen())
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
	c.Put("a", p1, c.gen())
	c.Put("b", p2, c.gen())
	c.PutNegative("n", c.gen())

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

// chainProofs issues the chain Maria ⇒ BigISP.r0 ⇒ … ⇒ BigISP.r5 and
// returns its six prefixes as proofs, one to six steps long, all sharing the
// first delegation, followed by Table 1's third-party proof with its support.
func (e *env) chainProofs() (chain []*core.Delegation, proofs []*core.Proof) {
	e.t.Helper()
	chain = []*core.Delegation{e.deleg("[Maria -> BigISP.r0] BigISP")}
	for i := 0; i < 5; i++ {
		chain = append(chain, e.deleg(fmt.Sprintf("[BigISP.r%d -> BigISP.r%d] BigISP", i, i+1)))
	}
	var steps []core.ProofStep
	for _, d := range chain {
		steps = append(steps, core.ProofStep{Delegation: d})
		p, err := core.NewProof(steps...)
		if err != nil {
			e.t.Fatal(err)
		}
		proofs = append(proofs, p)
	}
	return chain, append(proofs, e.table1Proof())
}

// indexCounts walks c's delegation index: every slot, the slots whose entry
// is live, and the slots listed under id.
func indexCounts(c *ProofCache, id core.DelegationID) (listed, live, underID int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for d, l := range c.byDelegation {
		for _, e := range *l {
			listed++
			if e.proof != nil {
				live++
			}
			if d.ID() == id {
				underID++
			}
		}
	}
	return listed, live, underID
}

// listedUnder reports whether e is in a list of a delegation with id.
func listedUnder(c *ProofCache, id core.DelegationID, e *cacheEntry) bool {
	for _, d := range c.aliases[id] {
		for _, x := range *c.byDelegation[d] {
			if x == e {
				return true
			}
		}
	}
	return false
}

func usesDelegation(p *core.Proof, id core.DelegationID) bool {
	for _, d := range p.Delegations() {
		if d.ID() == id {
			return true
		}
	}
	return false
}

func TestProofCacheEviction(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	chain, proofs := e.chainProofs()
	const limit = 16
	c := newProofCache(limit)
	// Churn a hundred times the limit over rotating keys whose proofs share
	// delegations, so every Put evicts or replaces.
	for i := 0; i < 100*limit; i++ {
		c.Put(fmt.Sprintf("k%d", i%(3*limit)), proofs[i%len(proofs)], c.gen())
		if st := c.Stats(); st.Entries+st.Negatives > limit {
			t.Fatalf("cache grew past its limit: %+v", st)
		}
		// The delegation index must shrink with evictions, not leak: after
		// every Put it holds at most four slots per live one.
		listed, live, _ := indexCounts(c, "")
		if listed != c.listed || live != c.live {
			t.Fatalf("Put %d: index walk finds %d slots, %d live; counters say %d, %d", i, listed, live, c.listed, c.live)
		}
		if listed > 4*live {
			t.Fatalf("Put %d: index lists %d slots for %d live ones, want at most four times", i, listed, live)
		}
	}

	// A refused recheck drops an entry and unlinks nothing: its slot under
	// the shared delegation stays, dead.
	id := chain[0].ID()
	for key, en := range c.pos {
		if usesDelegation(en.proof, id) {
			c.Lookup(key, e.clk.Now(), func(core.DelegationID) bool { return true })
			break
		}
	}
	want := 0
	for _, en := range c.pos {
		if usesDelegation(en.proof, id) {
			want++
		}
	}
	if _, _, slots := indexCounts(c, id); slots <= want {
		t.Fatalf("%d slots listed under the shared delegation for %d live entries, want a dead one too", slots, want)
	}
	before := c.Stats().Invalidations
	c.InvalidateDelegation(id)
	if got := c.Stats().Invalidations - before; got != int64(want) {
		t.Fatalf("InvalidateDelegation counted %d invalidations, want the %d live entries using it", got, want)
	}
	for key, en := range c.pos {
		if usesDelegation(en.proof, id) {
			t.Fatalf("%s survived the invalidation of a delegation it uses", key)
		}
	}

	// Invalidating every delegation empties the cache and its index.
	for _, p := range proofs {
		for _, d := range p.Delegations() {
			c.InvalidateDelegation(d.ID())
		}
	}
	if st := c.Stats(); st.Entries != 0 || len(c.byDelegation) != 0 || len(c.aliases) != 0 || c.listed != 0 || c.live != 0 {
		t.Fatalf("after full invalidation: %+v, %d lists, %d IDs, %d slots, %d live", st, len(c.byDelegation), len(c.aliases), c.listed, c.live)
	}
}

// An answer computed across an invalidation of its kind is not memoized:
// a denial searched before a publish lands after the publish's flush, or a
// proof searched before a revocation lands after its invalidation. Each
// generation guards only its own kind, so a publish costs no positive
// memo and a revocation no negative one.
func TestProofCachePutAfterInvalidateDropped(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	chain, proofs := e.chainProofs()
	now := e.clk.Now()
	c := newProofCache(DefaultProofCacheLimit)

	g := c.gen()
	c.InvalidateNegatives()
	c.PutNegative("n", g)
	if _, _, ok := c.Lookup("n", now, nil); ok {
		t.Fatal("a denial computed before a publish was memoized after it")
	}
	g = c.gen()
	c.InvalidateDelegation(chain[5].ID())
	c.Put("p", proofs[0], g)
	if _, _, ok := c.Lookup("p", now, nil); ok {
		t.Fatal("a proof computed before an invalidation was memoized after it")
	}

	g = c.gen()
	c.InvalidateNegatives()
	c.Put("p", proofs[0], g)
	if got, _, ok := c.Lookup("p", now, nil); !ok || got != proofs[0] {
		t.Fatal("a publish cost a positive memo")
	}
	g = c.gen()
	c.InvalidateDelegation(chain[5].ID())
	c.PutNegative("n", g)
	if _, negative, ok := c.Lookup("n", now, nil); !ok || !negative {
		t.Fatal("a revocation cost a negative memo")
	}

	g = c.gen()
	c.Flush()
	c.Put("q", proofs[1], g)
	c.PutNegative("m", g)
	if st := c.Stats(); st.Entries != 0 || st.Negatives != 0 {
		t.Fatalf("answers computed before a Flush were memoized after it: %+v", st)
	}
}

// Puts, refused rechecks and invalidations from several goroutines at once:
// under -race the index is only touched under the lock, and afterwards its
// counters match a walk of it and every live entry is listed under each
// delegation its proof uses.
func TestProofCacheConcurrentChurnKeepsIndex(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	chain, proofs := e.chainProofs()
	c := newProofCache(16)
	now := e.clk.Now()
	const workers, rounds = 4, 1500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := w*rounds + i
				key := fmt.Sprintf("k%d", n%48)
				switch n % 10 {
				case 0:
					c.InvalidateDelegation(chain[n%len(chain)].ID())
				case 1:
					c.Lookup(key, now, func(id core.DelegationID) bool { return id == chain[2].ID() })
				case 2:
					c.PutNegative(key, c.gen())
				default:
					c.Put(key, proofs[n%len(proofs)], c.gen())
				}
			}
		}()
	}
	wg.Wait()

	listed, live, _ := indexCounts(c, "")
	if listed != c.listed || live != c.live {
		t.Fatalf("index walk finds %d slots, %d live; counters say %d, %d", listed, live, c.listed, c.live)
	}
	slots := 0
	for key, en := range c.pos {
		if en.key != key || en.proof == nil {
			t.Fatalf("pos[%s] holds a dead entry", key)
		}
		for _, d := range en.proof.Delegations() {
			if !listedUnder(c, d.ID(), en) {
				t.Fatalf("%s is not listed under a delegation its proof uses", key)
			}
		}
		slots += en.slots
	}
	if slots != live {
		t.Fatalf("live entries own %d slots, the index counts %d live", slots, live)
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
	c.Put("pos", p, c.gen())
	c.PutNegative("neg", c.gen())
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
	c.Put("k", p, c.gen())
	now := e.clk.Now()
	revoked := func(core.DelegationID) bool { return false }
	if allocs := testing.AllocsPerRun(200, func() { c.Lookup("k", now, revoked) }); allocs != 0 {
		t.Fatalf("a proof-cache hit allocated %.1f times", allocs)
	}
}
