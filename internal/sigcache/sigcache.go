// Package sigcache memoizes successful Ed25519 signature verifications.
//
// Every dRBAC proof check re-verifies the issuer signature of every
// delegation in the chain and its recursive support proofs, yet delegations
// are immutable: a (public key, message, signature) triple that verified
// once verifies forever. The cache exploits that — it is keyed by the
// SHA-256 digest of the full triple, so a hit is cryptographically bound to
// the exact bytes that were verified and needs no invalidation, ever. A
// tampered signature, message, or key produces a different digest, misses,
// and falls through to a real Ed25519 verification.
//
// Only successes are stored. Failures are not memoized: they are the
// attack/corruption path, re-verifying them costs nothing we care about,
// and an attacker must not be able to fill the cache with garbage.
//
// The cache is sharded 16 ways (shard chosen by FNV-1a over the digest) so
// concurrent proof validations — a wallet serving parallel queries, a
// replica applying a snapshot — do not serialize on one mutex. Each shard
// is an independent bounded LRU; hit/miss/eviction counters are atomic and
// process-wide.
package sigcache

import (
	"container/list"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// NumShards is the fixed shard count. 16 keeps per-shard mutex pressure
// negligible at wallet concurrency levels while the FNV spread stays even.
const NumShards = 16

// DefaultCapacity bounds the cache when New is given capacity 0: total
// entries across all shards. Each entry is a 32-byte digest plus list/map
// overhead (~100 B), so the default costs ~1.6 MB fully populated.
const DefaultCapacity = 16384

// key is the SHA-256 digest of the length-framed (pub, msg, sig) triple.
type key [sha256.Size]byte

// digest computes the cache key. Fields are length-prefixed so no two
// distinct triples collide by concatenation ambiguity.
func digest(pub, msg, sig []byte) key {
	h := sha256.New()
	var n [4]byte
	for _, part := range [][]byte{pub, msg, sig} {
		binary.BigEndian.PutUint32(n[:], uint32(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	var k key
	h.Sum(k[:0])
	return k
}

// shardIndex spreads digests across shards with FNV-1a.
func shardIndex(k key) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range k {
		h ^= uint32(b)
		h *= prime32
	}
	return int(h % NumShards)
}

// shard is one bounded LRU of verified-signature digests.
type shard struct {
	mu      sync.Mutex
	entries map[key]*list.Element
	order   *list.List // front = most recently used; values are key
}

// Cache is a concurrency-safe, sharded, bounded memo of verified
// signatures. The zero value is not usable; construct with New or use the
// process-wide Shared instance.
type Cache struct {
	shards   [NumShards]shard
	perShard int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	size      atomic.Int64
}

// New returns a cache bounded to capacity total entries (rounded up to a
// multiple of NumShards); capacity 0 means DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	perShard := (capacity + NumShards - 1) / NumShards
	c := &Cache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

var (
	sharedOnce sync.Once
	shared     *Cache
)

// Shared returns the process-wide cache every wallet, discovery agent,
// proxy, and replica uses by default. Signatures are immutable, so sharing
// across trust domains is safe: a hit only ever asserts "these exact bytes
// verified under this exact key".
func Shared() *Cache {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}

// VerifySig reports whether sig is a valid Ed25519 signature over msg by
// pub, serving memoized successes and verifying (then memoizing) on a miss.
// It implements core.SigVerifier.
func (c *Cache) VerifySig(pub, msg, sig []byte) bool {
	k := digest(pub, msg, sig)
	sh := &c.shards[shardIndex(k)]
	sh.mu.Lock()
	if el, ok := sh.entries[k]; ok {
		sh.order.MoveToFront(el)
		sh.mu.Unlock()
		c.hits.Add(1)
		return true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	if len(pub) != ed25519.PublicKeySize || !ed25519.Verify(ed25519.PublicKey(pub), msg, sig) {
		return false
	}
	sh.mu.Lock()
	if _, ok := sh.entries[k]; !ok { // lost a race with a concurrent verifier: same result either way
		sh.entries[k] = sh.order.PushFront(k)
		c.size.Add(1)
		if sh.order.Len() > c.perShard {
			oldest := sh.order.Back()
			sh.order.Remove(oldest)
			delete(sh.entries, oldest.Value.(key))
			c.size.Add(-1)
			c.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	return true
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts verifications served from the memo.
	Hits int64
	// Misses counts verifications that ran real Ed25519 checks (including
	// every failed verification — failures are never memoized).
	Misses int64
	// Evictions counts entries dropped by the per-shard LRU bound.
	Evictions int64
	// Size is the current number of memoized signatures.
	Size int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.size.Load(),
	}
}

// Capacity returns the total entry bound (per-shard bound × NumShards).
func (c *Cache) Capacity() int { return c.perShard * NumShards }
