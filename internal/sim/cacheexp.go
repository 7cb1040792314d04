package sim

import (
	"errors"
	"fmt"
	"time"

	"drbac/internal/core"
	"drbac/internal/wallet"
)

// CachePoint is one row of EXP-S6 (§6 coherent caching of validation
// results): repeated direct-query latency with the proof cache on versus
// off over one delegation chain, plus a coherence probe — after revoking a
// mid-chain delegation the very next query must not see the memoized proof.
type CachePoint struct {
	Chain   int // delegation-chain length
	Queries int // repeated identical queries measured

	// ColdNanos / HotNanos: mean per-query latency with the cache disabled
	// (every query re-runs the graph search) versus enabled (memoized).
	ColdNanos int64
	HotNanos  int64

	// Cache counters from the hot run, after the coherence probe.
	Hits          int64
	Misses        int64
	Invalidations int64

	// CoherentAfterRevoke: the query issued immediately after a mid-chain
	// revocation returned no proof instead of the cached one.
	CoherentAfterRevoke bool
}

// RunCacheCoherence measures EXP-S6 for one chain length. Both wallets hold
// the same chain User ⇒ Org.r0 ⇒ … ⇒ Org.r<chain>; the workload repeats the
// same end-to-end direct query.
func RunCacheCoherence(chain, queries int) (CachePoint, error) {
	if chain < 1 || queries < 1 {
		return CachePoint{}, fmt.Errorf("sim: chain and queries must be positive")
	}
	pt := CachePoint{Chain: chain, Queries: queries}

	w := NewWorld()
	defer w.Close()
	w.Ensure("Org", "User")

	delegs := []*core.Delegation{w.MustIssue("[User -> Org.r0] Org")}
	for i := 1; i <= chain; i++ {
		delegs = append(delegs, w.MustIssue(fmt.Sprintf("[Org.r%d -> Org.r%d] Org", i-1, i)))
	}

	q, err := w.query("User", fmt.Sprintf("Org.r%d", chain))
	if err != nil {
		return CachePoint{}, err
	}

	populate := func(wal *wallet.Wallet) error {
		for _, d := range delegs {
			if err := wal.Publish(d); err != nil {
				return err
			}
		}
		return nil
	}

	cold := wallet.New(wallet.Config{Clock: w.Clock, Directory: w.Dir, DisableProofCache: true})
	if err := populate(cold); err != nil {
		return CachePoint{}, err
	}
	start := time.Now()
	for i := 0; i < queries; i++ {
		if _, err := cold.QueryDirect(q); err != nil {
			return CachePoint{}, fmt.Errorf("cold query: %w", err)
		}
	}
	pt.ColdNanos = time.Since(start).Nanoseconds() / int64(queries)

	hot := wallet.New(wallet.Config{Clock: w.Clock, Directory: w.Dir})
	if err := populate(hot); err != nil {
		return CachePoint{}, err
	}
	if _, err := hot.QueryDirect(q); err != nil { // prime the cache
		return CachePoint{}, fmt.Errorf("priming query: %w", err)
	}
	start = time.Now()
	for i := 0; i < queries; i++ {
		if _, err := hot.QueryDirect(q); err != nil {
			return CachePoint{}, fmt.Errorf("hot query: %w", err)
		}
	}
	pt.HotNanos = time.Since(start).Nanoseconds() / int64(queries)

	// Coherence probe: revoke a mid-chain delegation; the push must have
	// killed the memoized proof before the next query returns.
	mid := delegs[len(delegs)/2]
	if err := hot.Revoke(mid.ID(), w.Identity("Org").ID()); err != nil {
		return CachePoint{}, err
	}
	_, err = hot.QueryDirect(q)
	pt.CoherentAfterRevoke = errors.Is(err, core.ErrNoProof)

	st := hot.Stats()
	pt.Hits = st.Cache.Hits
	pt.Misses = st.Cache.Misses
	pt.Invalidations = st.Cache.Invalidations
	return pt, nil
}

func cacheReport(r *Report) error {
	r.printf("%6s %12s %12s %8s %6s %7s %7s %9s",
		"chain", "cold ns/op", "hot ns/op", "speedup", "hits", "misses", "invals", "coherent")
	for _, chain := range []int{2, 4, 8, 16} {
		pt, err := RunCacheCoherence(chain, 2000)
		if err != nil {
			return err
		}
		r.printf("%6d %12d %12d %7.1fx %6d %7d %7d %9v",
			pt.Chain, timed{pt.ColdNanos}, timed{pt.HotNanos}, timed{float64(pt.ColdNanos) / float64(pt.HotNanos)},
			pt.Hits, pt.Misses, pt.Invalidations, pt.CoherentAfterRevoke)
	}
	r.printf("memoized answers amortize the graph search; a mid-chain revocation push")
	r.printf("kills the cached proof before the next query returns.")
	return nil
}
