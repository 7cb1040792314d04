package wallet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
