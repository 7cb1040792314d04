package wallet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/graph"
)

// TestConcurrentPublishRevokeQuery hammers one wallet with parallel
// publishers, revokers, and queriers. Run under -race it exercises the
// sharded graph, the store, and the proof cache concurrently; the only
// assertions are invariants every interleaving must keep — a returned proof
// validates, and the final state is consistent.
func TestConcurrentPublishRevokeQuery(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	org := e.id("BigISP")

	// A stable base chain queries can always hit.
	base := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(base); err != nil {
		t.Fatal(err)
	}

	const (
		publishers = 4
		revokers   = 2
		queriers   = 8
		perWorker  = 50
	)
	// Pre-issue churn delegations outside the goroutines (issuing signs with
	// the identity; the wallet is the system under test here).
	churn := make([][]*core.Delegation, publishers)
	for i := range churn {
		churn[i] = make([]*core.Delegation, perWorker)
		for j := range churn[i] {
			churn[i][j] = e.deleg(fmt.Sprintf("[Maria -> BigISP.role%dx%d] BigISP", i, j))
		}
	}

	var revoked atomic.Int64
	toRevoke := make(chan core.DelegationID, publishers*perWorker)
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(mine []*core.Delegation) {
			defer wg.Done()
			for _, d := range mine {
				if err := w.Publish(d); err != nil {
					// Losing a publish/revoke race on the same ID is legal;
					// anything else is a bug.
					if !errors.Is(err, core.ErrNoProof) {
						var re *core.RevokedError
						if !errors.As(err, &re) {
							t.Errorf("publish: %v", err)
							return
						}
					}
				}
				toRevoke <- d.ID()
			}
		}(churn[i])
	}
	for i := 0; i < revokers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < publishers*perWorker/revokers; j++ {
				id := <-toRevoke
				if err := w.Revoke(id, org.ID()); err == nil {
					revoked.Add(1)
				}
			}
		}()
	}
	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func(withStats bool) {
			defer wg.Done()
			vopts := core.ValidateOptions{Revoked: w.IsRevoked}
			for j := 0; j < perWorker; j++ {
				qq := q
				if withStats {
					qq.Stats = &graph.Stats{} // exercise the cache-bypass path
				}
				p, err := w.QueryDirect(qq)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				vopts.At = w.Now()
				if err := p.Validate(vopts); err != nil {
					t.Errorf("returned proof does not validate: %v", err)
					return
				}
				w.QuerySubject(qq.Subject, nil)
				w.QueryObject(qq.Object, nil)
			}
		}(i%2 == 0)
	}
	wg.Wait()

	if got := int64(len(w.RevokedIDs())); got != revoked.Load() {
		t.Fatalf("revoked set = %d, want %d", got, revoked.Load())
	}
	// Every revoked delegation must be gone from graph and queries.
	for _, id := range w.RevokedIDs() {
		if w.Contains(id) {
			t.Fatalf("revoked delegation %s still stored", id.Short())
		}
	}
	st := w.Stats()
	if st.Delegations != w.Len() || st.Revoked != len(w.RevokedIDs()) {
		t.Fatalf("stats disagree with wallet: %+v", st)
	}
}

// TestCacheCoherenceOnRevocation pins the tentpole coherence guarantee: a
// revocation push invalidates the memoized proof before the next query
// returns — the answer after Revoke is never the cached one.
func TestCacheCoherenceOnRevocation(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	w := e.wallet(Config{})
	_, _, d3 := e.publishTable1(w)

	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	p1, err := w.QueryDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	// Second query must be a cache hit returning the same proof.
	p2, err := w.QueryDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second query did not hit the cache")
	}
	st := w.Stats()
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st.Cache)
	}

	// d3 is the only path Maria ⇒ member: revoking it must invalidate the
	// cached proof synchronously.
	if err := w.Revoke(d3.ID(), e.id("Mark").ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("query after revocation = %v, want ErrNoProof", err)
	}
	if got := w.Stats().Cache.Invalidations; got == 0 {
		t.Fatal("revocation recorded no cache invalidation")
	}
}

// TestCacheCoherenceOnPublish pins the negative-entry side: once a query is
// memoized as unprovable, publishing the missing credential must flush the
// negative answer before the next query returns.
func TestCacheCoherenceOnPublish(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})

	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	if _, err := w.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("err = %v, want ErrNoProof", err)
	}
	// Memoized negative: a second miss must be a hit on the negative entry.
	if _, err := w.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("err = %v, want ErrNoProof", err)
	}
	if st := w.Stats().Cache; st.Hits == 0 || st.Negatives == 0 {
		t.Fatalf("negative answer not memoized: %+v", st)
	}

	if err := w.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.QueryDirect(q); err != nil {
		t.Fatalf("query after publish = %v, want proof", err)
	}
}

// TestCacheCoherenceOnStaleTTL pins TTL-lapse invalidation: when a cached
// remote credential goes stale, memoized proofs using it die with it.
func TestCacheCoherenceOnStaleTTL(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.InsertCached(d, nil, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	if _, err := w.QueryDirect(q); err != nil {
		t.Fatal(err)
	}

	e.clk.Advance(time.Minute) // TTL lapses
	if n := w.SweepStaleCache(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if _, err := w.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("query after staleness = %v, want ErrNoProof", err)
	}
}

// sweepingClock is a fake clock that runs fire inside its n-th Now after
// arm, so a stale sweep can land at one exact point inside a query.
type sweepingClock struct {
	*clock.Fake
	mu   sync.Mutex
	left int
	fire func()
}

func (c *sweepingClock) arm(n int, fire func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left, c.fire = n, fire
}

func (c *sweepingClock) Now() time.Time {
	c.mu.Lock()
	c.left--
	fire := c.fire
	if c.left != 0 {
		fire = nil
	}
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
	return c.Fake.Now()
}

// TestQueryRacesStaleSweep lands a stale sweep inside one QueryDirect,
// after its search found a TTL copy and before its proof is memoized. The
// query may return that proof — it was true when found — but must not
// memoize it: the sweep's invalidation has already run, so the memo would
// be served over a copy the wallet no longer holds until evicted.
func TestQueryRacesStaleSweep(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	clk := &sweepingClock{Fake: e.clk}
	w := e.wallet(Config{Clock: clk})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.InsertCached(d, nil, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	q := Query{Subject: e.subject("Maria"), Object: e.role("BigISP.member")}
	swept := 0
	// QueryDirect reads the clock for the cache recheck, the search and the
	// validation, in that order: the third read falls between the search
	// and the Put.
	clk.arm(3, func() {
		e.clk.Advance(time.Minute)
		swept = w.SweepStaleCache()
	})
	if _, err := w.QueryDirect(q); err != nil {
		t.Fatalf("racing query = %v, want the proof its search found before the sweep", err)
	}
	if swept != 1 || w.Contains(d.ID()) {
		t.Fatalf("the sweep inside the query removed %d copies (held after: %v), want the TTL copy gone", swept, w.Contains(d.ID()))
	}
	if p, err := w.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("query after the sweep = (%v, %v), want ErrNoProof; cache %+v", p, err, w.Stats().Cache)
	}
}

// TestCacheCoherenceContainsThenQuery: a reader that sees a new delegation
// held (Contains) and then queries what it proves gets the proof, never a
// no-proof answer memoized before the insert. The readers memoize that
// answer while they wait, so every insert lands beside one to flush.
func TestCacheCoherenceContainsThenQuery(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{})
	const n, readers = 300, 4
	ds := make([]*core.Delegation, n)
	qs := make([]Query, n)
	for i := range ds {
		ds[i] = e.deleg(fmt.Sprintf("[BigISP.s%d -> BigISP.r%d] BigISP", i, i))
		qs[i] = Query{Subject: e.subject(fmt.Sprintf("BigISP.s%d", i)), Object: e.role(fmt.Sprintf("BigISP.r%d", i))}
	}
	errs := make(chan error, readers+1)
	go func() {
		for _, d := range ds {
			if err := w.Publish(d); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for range readers {
		go func() {
			for i, d := range ds {
				for !w.Contains(d.ID()) {
					_, _ = w.QueryDirect(qs[i])
				}
				if _, err := w.QueryDirect(qs[i]); err != nil {
					errs <- fmt.Errorf("delegation %d held, but its query answered %w", i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range readers + 1 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
