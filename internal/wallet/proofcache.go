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
// published. Wallets embed one; the pull-through proxy serves repeats from
// its local wallet's.
//
// Coherence is event-driven, not polled: the owner wires InvalidateDelegation
// to a subscription push channel (subs.Registry), and admits each new
// delegation to its graph through admit, which flushes negative answers.
// As a second line of defense, Lookup re-checks expiry and revocation per
// step at the caller's clock, so an entry can never outlive the credentials
// it is built from even between pushes. An answer computed while a push ran
// is not memoized: the caller reads gen before its Lookup, and Put or
// PutNegative drops an insert whose generation has moved since.
//
// The delegation index is one list of entry pointers per delegation (per
// in-memory copy of it, reached from its ID through aliases). A Put
// appends its entry once per proof step, support proofs included; dropping
// an entry — eviction, replacement, a refused recheck — deletes its key and
// marks it dead, and unlinks nothing. A list is compacted when it fills and
// doubles only when more than half of it is live, and the whole index is
// swept when it outgrows four times its live slots, so a Put stays
// amortized O(steps) and the index within a constant factor of live
// memberships.
//
// A hit takes mu only shared, and only for the map read: the usability walk
// runs outside it and the counters are atomic, so concurrent readers never
// serialize on one another. Only mutations (Put, invalidation, dropping a
// stale entry) take mu exclusively.
type ProofCache struct {
	mu    sync.RWMutex
	limit int
	pos   map[string]*cacheEntry
	neg   map[string]struct{}
	// byDelegation lists, per delegation, the positive entries whose proofs
	// use it, one slot per use, dead entries included until compaction. It
	// is keyed by the proof step's *core.Delegation, which hashes and
	// compares as one word where the 64-hex ID does not; aliases maps each
	// ID to the copies byDelegation holds, one per decoded or stored
	// instance of the delegation.
	byDelegation map[*core.Delegation]*[]*cacheEntry
	aliases      map[core.DelegationID][]*core.Delegation
	// listed counts every slot in byDelegation; live, the slots of entries
	// still in pos.
	listed, live int

	// posGen moves on every InvalidateDelegation, negGen on every
	// InvalidateNegatives, both on Flush. Written under mu.
	posGen, negGen atomic.Uint64
	// admitting is set while admit runs, removing while remove runs; each
	// is cleared under mu.
	admitting, removing atomic.Bool

	hits, misses, invalidations atomic.Int64
}

// cacheEntry is one memoized proof. Dropping it nils proof and key; the
// delegation lists keep pointing at it, and skip it, until compacted.
type cacheEntry struct {
	key   string
	proof *core.Proof
	slots int // delegation-list slots that point at it
}

// cacheGen is the pair of generations an answer was computed under.
type cacheGen struct{ pos, neg uint64 }

// newProofCache returns an empty cache holding at most limit entries.
func newProofCache(limit int) *ProofCache {
	return &ProofCache{
		limit:        limit,
		pos:          make(map[string]*cacheEntry),
		neg:          make(map[string]struct{}),
		byDelegation: make(map[*core.Delegation]*[]*cacheEntry),
		aliases:      make(map[core.DelegationID][]*core.Delegation),
	}
}

// cacheKey derives the memoization key for a direct query. Constraints are
// order-normalized so semantically identical queries share an entry. The
// search direction is deliberately excluded: any valid proof answers the
// question regardless of the strategy that would have found it.
func cacheKey(subject core.Subject, object core.Role, constraints []core.Constraint) string {
	var b strings.Builder
	// One allocation: the names plus the separators, ticks and operator
	// digits, and each constraint's names plus room for its two numbers.
	n := len(subject.Entity) + len(subject.Role.Namespace) + len(subject.Role.Name) +
		len(object.Namespace) + len(object.Name) + 16
	for _, c := range constraints {
		n += len(c.Attr.Namespace) + len(c.Attr.Name) + 2*floatKeyLen + 4
	}
	b.Grow(n)
	b.WriteString(string(subject.Entity))
	b.WriteByte(0x1f)
	writeRoleKey(&b, subject.Role)
	b.WriteByte(0x1f)
	writeRoleKey(&b, object)
	cs := constraints
	if len(cs) > 1 {
		cs = make([]core.Constraint, len(constraints))
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
	}
	var num [floatKeyLen]byte
	for _, c := range cs {
		b.WriteByte(0x1f)
		b.WriteString(string(c.Attr.Namespace))
		b.WriteByte('.')
		b.WriteString(c.Attr.Name)
		b.WriteByte(0x1f)
		b.Write(strconv.AppendFloat(num[:0], c.Base, 'g', -1, 64))
		b.WriteByte(0x1f)
		b.Write(strconv.AppendFloat(num[:0], c.Minimum, 'g', -1, 64))
	}
	return b.String()
}

// floatKeyLen is the longest a float64 runs in shortest 'g' form:
// "-2.2250738585072014e-308" is 24 bytes.
const floatKeyLen = 24

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

// gen reads the generations an answer computed from now on is checked
// against. Read it before Lookup, and hand it to Put or PutNegative.
func (c *ProofCache) gen() cacheGen {
	return cacheGen{pos: c.posGen.Load(), neg: c.negGen.Load()}
}

// Lookup consults the cache. A positive hit returns (proof, false, true);
// a negative hit — the query is memoized as unprovable — returns
// (nil, true, true); a miss returns ok == false. Positive entries are
// re-checked against expiry and revocation at now before being served, and
// dropped (counted as invalidations) when the check fails.
func (c *ProofCache) Lookup(key string, now time.Time, revoked func(core.DelegationID) bool) (p *core.Proof, negative, ok bool) {
	c.mu.RLock()
	e := c.pos[key]
	var proof *core.Proof
	if e != nil && !c.removing.Load() { // read under mu: no drop lands between
		proof = e.proof
	}
	_, nok := c.neg[key]
	nok = nok && !c.admitting.Load() // read under mu: no flush lands between
	c.mu.RUnlock()

	if proof != nil {
		if proofUsable(proof, now, revoked) {
			c.hits.Add(1)
			return proof, false, true
		}
		c.mu.Lock()
		if c.pos[key] == e {
			c.dropLocked(e)
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

// Put memoizes a validated proof under key, unless a delegation was
// invalidated since g was read: the proof may rest on it.
func (c *ProofCache) Put(key string, p *core.Proof, g cacheGen) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.posGen.Load() != g.pos {
		return
	}
	c.evictLocked()
	if old, ok := c.pos[key]; ok {
		c.dropLocked(old)
	}
	delete(c.neg, key)
	e := &cacheEntry{key: key, proof: p}
	c.pos[key] = e
	e.slots = c.linkLocked(e, p)
	c.live += e.slots
	if c.listed > 4*c.live {
		c.sweepLocked()
	}
}

// PutNegative memoizes key as currently unprovable, unless a delegation was
// published since g was read: it may prove key.
func (c *ProofCache) PutNegative(key string, g cacheGen) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pos[key]; ok || c.negGen.Load() != g.neg {
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
			for _, e := range c.pos {
				c.dropLocked(e)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// dropLocked removes a live entry from pos and marks it dead; its list
// slots stay until compaction. Callers hold c.mu.
func (c *ProofCache) dropLocked(e *cacheEntry) {
	delete(c.pos, e.key)
	c.live -= e.slots
	e.key, e.proof = "", nil
}

// linkLocked appends e to the list of every delegation p uses, walking the
// proof in place as proofUsable does, and returns the slots it appended.
// Callers hold c.mu.
func (c *ProofCache) linkLocked(e *cacheEntry, p *core.Proof) int {
	n := len(p.Steps)
	for i := range p.Steps {
		st := &p.Steps[i]
		d := st.Delegation
		l := c.byDelegation[d]
		if l == nil {
			l = new([]*cacheEntry)
			c.byDelegation[d] = l
			id := d.ID()
			c.aliases[id] = append(c.aliases[id], d)
		} else if len(*l) == cap(*l) {
			// A full list doubles only when more than half of it is live,
			// so at least half a capacity of appends separates two
			// compactions of one list.
			s := c.compactLocked(*l)
			if 2*len(s) > cap(s) {
				s = append(make([]*cacheEntry, 0, 2*cap(s)), s...)
			}
			*l = s
		}
		*l = append(*l, e)
		for _, sup := range st.Support {
			n += c.linkLocked(e, sup)
		}
	}
	c.listed += len(p.Steps)
	return n
}

// compactLocked drops the dead slots of a list in place. Callers hold c.mu.
func (c *ProofCache) compactLocked(s []*cacheEntry) []*cacheEntry {
	n := 0
	for _, e := range s {
		if e.proof != nil {
			s[n] = e
			n++
		}
	}
	clear(s[n:])
	c.listed -= len(s) - n
	return s[:n]
}

// sweepLocked compacts every list and deletes the empty ones: the lists
// no Put appends to any more keep their dead slots until it runs. It
// touches at most four slots per live one and leaves only live ones, so
// its cost is paid by the appends that made the dead. Callers hold c.mu.
func (c *ProofCache) sweepLocked() {
	for id, ds := range c.aliases {
		kept := ds[:0]
		for _, d := range ds {
			l := c.byDelegation[d]
			if *l = c.compactLocked(*l); len(*l) > 0 {
				kept = append(kept, d)
			} else {
				delete(c.byDelegation, d)
			}
		}
		clear(ds[len(kept):])
		if len(kept) == 0 {
			delete(c.aliases, id)
		} else {
			c.aliases[id] = kept
		}
	}
}

// InvalidateDelegation drops every memoized proof that uses id. Wired to
// Revoked, Expired, and Stale pushes.
func (c *ProofCache) InvalidateDelegation(id core.DelegationID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateLocked(id)
}

func (c *ProofCache) invalidateLocked(id core.DelegationID) {
	c.posGen.Add(1)
	for _, d := range c.aliases[id] {
		l := c.byDelegation[d]
		for _, e := range *l {
			if e.proof != nil {
				c.dropLocked(e)
				c.invalidations.Add(1)
			}
		}
		c.listed -= len(*l)
		delete(c.byDelegation, d)
	}
	delete(c.aliases, id)
}

// InvalidateNegatives flushes every memoized no-proof answer: a new
// credential may make a previously unprovable query provable.
func (c *ProofCache) InvalidateNegatives() { c.admit(func() {}) }

// admit runs add, the graph insert of a newly published delegation, then
// flushes every memoized no-proof answer. From add's start to the flush no
// negative answer is served, so a reader that sees the new edge finds none it
// may refute; one whose search missed the edge memoizes nothing: the flush
// moves its generation.
func (c *ProofCache) admit(add func()) {
	c.admitting.Store(true)
	add()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admitting.Store(false)
	c.negGen.Add(1)
	if len(c.neg) == 0 {
		return
	}
	c.invalidations.Add(int64(len(c.neg)))
	c.neg = make(map[string]struct{})
}

// remove runs del, the graph removal of delegation id, then drops every
// memoized proof resting on id, and reports del's result. From del's start to
// the drop no positive answer is served, so a reader that no longer sees the
// edge finds no proof resting on it; a revocation needs none of this, since
// the revoked set refuses such proofs before the edge goes.
func (c *ProofCache) remove(id core.DelegationID, del func() bool) bool {
	c.removing.Store(true)
	removed := del()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removing.Store(false)
	c.invalidateLocked(id)
	return removed
}

// Flush empties the cache entirely, counting dropped entries as
// invalidations.
func (c *ProofCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.posGen.Add(1)
	c.negGen.Add(1)
	c.invalidations.Add(int64(len(c.pos) + len(c.neg)))
	c.pos = make(map[string]*cacheEntry)
	c.neg = make(map[string]struct{})
	c.byDelegation = make(map[*core.Delegation]*[]*cacheEntry)
	c.aliases = make(map[core.DelegationID][]*core.Delegation)
	c.listed, c.live = 0, 0
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
