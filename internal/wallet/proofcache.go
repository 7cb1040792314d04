package wallet

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drbac/internal/core"
)

// DefaultProofCacheLimit bounds the number of memoized answers (positive
// and negative combined) a ProofCache holds before it starts evicting.
const DefaultProofCacheLimit = 8192

// CacheStats is a point-in-time snapshot of proof-cache effectiveness.
type CacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits int64
	// Misses counts lookups that fell through to a graph search.
	Misses int64
	// Invalidations counts entries dropped by status pushes (revocation,
	// expiry, TTL lapse) or by expiry checks on the hit path.
	Invalidations int64
	// Entries is the current number of memoized proofs.
	Entries int
	// Negatives is the current number of memoized no-proof answers.
	Negatives int
}

// ProofCache memoizes direct-query answers keyed by (subject, object,
// constraints) — the §6 "coherent caching of validation results" made
// concrete. Positive entries are indexed by every delegation their proof
// uses so a single status push invalidates exactly the answers it affects;
// negative entries are flushed wholesale whenever a new delegation is
// published. Both wallets and pull-through proxies embed one.
//
// Coherence is event-driven, not polled: the owner wires InvalidateDelegation
// and InvalidateNegatives to a subscription push channel (subs.Registry).
// As a second line of defense, Lookup re-checks expiry and revocation per
// step at the caller's clock, so an entry can never outlive the credentials
// it is built from even between pushes.
//
// A hit takes mu only shared, and only for the map read: the usability walk
// runs outside it and the counters are atomic, so concurrent readers never
// serialize on one another. Only mutations (Put, invalidation, dropping a
// stale entry) take mu exclusively.
type ProofCache struct {
	mu    sync.RWMutex
	limit int
	pos   map[string]*core.Proof
	neg   map[string]struct{}
	// byDelegation maps each delegation to the positive keys whose proofs
	// use it.
	byDelegation map[core.DelegationID]map[string]struct{}

	hits, misses, invalidations atomic.Int64
}

// newProofCache returns an empty cache holding at most limit entries.
func newProofCache(limit int) *ProofCache {
	return &ProofCache{
		limit:        limit,
		pos:          make(map[string]*core.Proof),
		neg:          make(map[string]struct{}),
		byDelegation: make(map[core.DelegationID]map[string]struct{}),
	}
}

// cacheKey derives the memoization key for a direct query. Constraints are
// order-normalized so semantically identical queries share an entry. The
// search direction is deliberately excluded: any valid proof answers the
// question regardless of the strategy that would have found it.
func cacheKey(subject core.Subject, object core.Role, constraints []core.Constraint) string {
	var b strings.Builder
	// One allocation for the common, unconstrained key: the names plus the
	// separators, ticks and operator digits.
	b.Grow(len(subject.Entity) + len(subject.Role.Namespace) + len(subject.Role.Name) +
		len(object.Namespace) + len(object.Name) + 16)
	b.WriteString(string(subject.Entity))
	b.WriteByte(0x1f)
	writeRoleKey(&b, subject.Role)
	b.WriteByte(0x1f)
	writeRoleKey(&b, object)
	if len(constraints) > 0 {
		cs := make([]core.Constraint, len(constraints))
		copy(cs, constraints)
		sort.Slice(cs, func(i, j int) bool {
			a, z := cs[i], cs[j]
			if a.Attr.Namespace != z.Attr.Namespace {
				return a.Attr.Namespace < z.Attr.Namespace
			}
			if a.Attr.Name != z.Attr.Name {
				return a.Attr.Name < z.Attr.Name
			}
			if a.Base != z.Base {
				return a.Base < z.Base
			}
			return a.Minimum < z.Minimum
		})
		for _, c := range cs {
			b.WriteByte(0x1f)
			b.WriteString(string(c.Attr.Namespace))
			b.WriteByte('.')
			b.WriteString(c.Attr.Name)
			b.WriteByte(0x1f)
			b.WriteString(strconv.FormatFloat(c.Base, 'g', -1, 64))
			b.WriteByte(0x1f)
			b.WriteString(strconv.FormatFloat(c.Minimum, 'g', -1, 64))
		}
	}
	return b.String()
}

func writeRoleKey(b *strings.Builder, r core.Role) {
	b.WriteString(string(r.Namespace))
	b.WriteByte('.')
	b.WriteString(r.Name)
	b.WriteByte('\'')
	b.WriteString(strconv.Itoa(r.Tick))
	if r.Attr {
		b.WriteByte('a')
		b.WriteString(strconv.Itoa(int(r.Op)))
	}
}

// Lookup consults the cache. A positive hit returns (proof, false, true);
// a negative hit — the query is memoized as unprovable — returns
// (nil, true, true); a miss returns ok == false. Positive entries are
// re-checked against expiry and revocation at now before being served, and
// dropped (counted as invalidations) when the check fails.
func (c *ProofCache) Lookup(key string, now time.Time, revoked func(core.DelegationID) bool) (p *core.Proof, negative, ok bool) {
	c.mu.RLock()
	proof, pok := c.pos[key]
	_, nok := c.neg[key]
	c.mu.RUnlock()

	if pok {
		if proofUsable(proof, now, revoked) {
			c.hits.Add(1)
			return proof, false, true
		}
		c.mu.Lock()
		if cur, still := c.pos[key]; still && cur == proof {
			c.removeKeyLocked(key)
			c.invalidations.Add(1)
		}
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false, false
	}
	if nok {
		c.hits.Add(1)
		return nil, true, true
	}
	c.misses.Add(1)
	return nil, false, false
}

// proofUsable reports whether every delegation p depends on — chain steps
// and support-proof chains alike — is unexpired and unrevoked. It walks the
// proof in place (a delegation shared by two support proofs is checked
// twice, which is cheaper than deduplicating), so a hit allocates nothing.
func proofUsable(p *core.Proof, now time.Time, revoked func(core.DelegationID) bool) bool {
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Delegation.Expired(now) {
			return false
		}
		if revoked != nil && revoked(st.Delegation.ID()) {
			return false
		}
		for _, sup := range st.Support {
			if !proofUsable(sup, now, revoked) {
				return false
			}
		}
	}
	return true
}

// Put memoizes a validated proof under key.
func (c *ProofCache) Put(key string, p *core.Proof) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	if _, ok := c.pos[key]; ok {
		c.removeKeyLocked(key)
	}
	delete(c.neg, key)
	c.pos[key] = p
	for _, d := range p.Delegations() {
		id := d.ID()
		keys, ok := c.byDelegation[id]
		if !ok {
			keys = make(map[string]struct{})
			c.byDelegation[id] = keys
		}
		keys[key] = struct{}{}
	}
}

// PutNegative memoizes key as currently unprovable.
func (c *ProofCache) PutNegative(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pos[key]; ok {
		return
	}
	c.evictLocked()
	c.neg[key] = struct{}{}
}

// evictLocked makes room for one insertion by dropping arbitrary entries
// while the cache is at its limit. Map iteration order makes the victim
// pseudo-random, which is adequate for a memoization cache.
func (c *ProofCache) evictLocked() {
	for len(c.pos)+len(c.neg) >= c.limit {
		evicted := false
		for key := range c.neg {
			delete(c.neg, key)
			evicted = true
			break
		}
		if !evicted {
			for key := range c.pos {
				c.removeKeyLocked(key)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// removeKeyLocked drops one positive entry and unlinks it from the
// delegation index. Callers hold c.mu.
func (c *ProofCache) removeKeyLocked(key string) {
	p, ok := c.pos[key]
	if !ok {
		return
	}
	delete(c.pos, key)
	for _, d := range p.Delegations() {
		id := d.ID()
		if keys, ok := c.byDelegation[id]; ok {
			delete(keys, key)
			if len(keys) == 0 {
				delete(c.byDelegation, id)
			}
		}
	}
}

// InvalidateDelegation drops every memoized proof that uses id. Wired to
// Revoked, Expired, and Stale pushes.
func (c *ProofCache) InvalidateDelegation(id core.DelegationID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byDelegation[id]
	for key := range keys {
		c.removeKeyLocked(key)
		c.invalidations.Add(1)
	}
}

// InvalidateNegatives flushes every memoized no-proof answer. Wired to
// Published pushes: a new credential may make a previously unprovable
// query provable.
func (c *ProofCache) InvalidateNegatives() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.neg) == 0 {
		return
	}
	c.invalidations.Add(int64(len(c.neg)))
	c.neg = make(map[string]struct{})
}

// Flush empties the cache entirely, counting dropped entries as
// invalidations.
func (c *ProofCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations.Add(int64(len(c.pos) + len(c.neg)))
	c.pos = make(map[string]*core.Proof)
	c.neg = make(map[string]struct{})
	c.byDelegation = make(map[core.DelegationID]map[string]struct{})
}

// Stats returns a snapshot of cache effectiveness counters.
func (c *ProofCache) Stats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       len(c.pos),
		Negatives:     len(c.neg),
	}
}
