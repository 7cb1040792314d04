package wire

import (
	"encoding/binary"
	"sync/atomic"

	"drbac/internal/core"
)

// The delegation table: decode a repeated delegation once.
//
// A resource server asks its wallet the same direct question over and over,
// and every answer (a ProofResp, the reply to QueryDirect and ProveRole)
// re-carries the same few delegations byte for byte. The table maps a
// delegation's exact encoded bytes — its span — to one shared decoded
// *core.Delegation, so a repeated step costs a compare instead of a decode.
// Only ProofResp consults it: the enumerations, publishes, pushes and
// snapshots carry what is mostly read once, and decode each delegation from
// a copy of its own span instead (breader.delegation).
//
// It is sound by construction. Identical bytes decode to identical values,
// and a decoded delegation is immutable (core.Delegation's ID memo rests on
// the same rule), so sharing one is indistinguishable from decoding it
// again. The table caches decoding, never validity: every answer still comes
// from the server and is checked as before. A hostile peer can only evict
// entries.
//
// Sets and ways are fixed and every slot is an atomic pointer to an
// immutable entry: a hit takes no lock, no map and no allocation, and a
// store is two atomic stores.
const (
	tableSets = 512
	tableWays = 4
	// tableMaxSpan is the longest span the table holds, and the longest a
	// decoded delegation's strings are cut from; longer ones (many
	// attributes or acting-as roles, a long key) decode field by field.
	tableMaxSpan = 2 << 10
)

// tableSet is 64 bytes, a cache line: each way's entry and the last 8 bytes
// of its span. A lookup compares the tails first, so a way holding another
// delegation is passed over without touching its entry, which lies
// elsewhere in the heap. A tail and its entry are stored one after the
// other, so a reader may pair one way's tail with another entry: a hit is
// decided by the entry's key alone, and a mismatched tail costs only a miss.
type tableSet struct {
	tails [tableWays]atomic.Uint64
	ways  [tableWays]atomic.Pointer[tableEntry]
}

type tableEntry struct {
	// key is the span. Every string field of d is a substring of it.
	key string
	d   *core.Delegation
}

var delegationTable [tableSets]tableSet

// tableStats counts table lookups; a ProofResp decode adds its own once.
var tableStats struct {
	hits, misses atomic.Uint64
}

// sharedDelegation reads an optional delegation through the table. The set
// is picked by the span's last 8 bytes, the tail of the signature, which is
// uniform for a genuine one, so no hashing is needed. Every span is longer
// than 8 bytes: the layout's fixed fields alone take 20.
func (r *breader) sharedDelegation() *core.Delegation {
	if !r.bool() {
		return nil
	}
	start := r.off
	r.skipDelegation()
	if r.err != nil {
		return nil
	}
	span := r.buf[start:r.off]
	if len(span) > tableMaxSpan {
		r.off = start
		return r.delegationBody()
	}
	tail := binary.LittleEndian.Uint64(span[len(span)-8:])
	set := &delegationTable[tail%tableSets]
	for i := range set.ways {
		if set.tails[i].Load() != tail {
			continue
		}
		if e := set.ways[i].Load(); e != nil && e.key == string(span) {
			r.hits++
			return e.d
		}
	}
	r.misses++
	// Decode in place, so errors keep their body offsets, with every string
	// cut from the entry's key rather than copied.
	e := &tableEntry{key: string(span)}
	e.d = r.delegationIn(e.key, start)
	if e.d == nil {
		return nil
	}
	// An empty way, or else the one the signature's next bits pick. Two
	// stores racing for one way leave either entry: both are sound.
	way := int((tail / tableSets) % tableWays)
	for i := range set.ways {
		if set.ways[i].Load() == nil {
			way = i
			break
		}
	}
	set.ways[way].Store(e)
	set.tails[way].Store(tail)
	return e.d
}

// skipDelegation moves past a present delegation's layout with the
// decoder's own primitives and allocates nothing. It fails where
// delegationBody would, and ends where it ends.
func (r *breader) skipDelegation() {
	// Subject, subject entity, object, issuer.
	r.skipSubject()
	if r.bool() {
		r.raw()
		r.raw()
	}
	r.skipRole()
	r.raw()
	r.raw()
	// Attributes.
	for n := r.count(); n > 0 && r.err == nil; n-- {
		r.raw()
		r.raw()
		r.uvarint()
		r.f64()
	}
	// Issued, expiry, nonce, then the subject, object and issuer tags.
	r.time()
	r.time()
	r.uvarint()
	for range 3 {
		if r.bool() {
			r.raw()
			r.skipRole()
			r.svarint()
			r.svarint()
			r.svarint()
		}
	}
	// Acting-as roles, depth limit, signature.
	for n := r.count(); n > 0 && r.err == nil; n-- {
		r.skipRole()
	}
	r.svarint()
	r.raw()
}

func (r *breader) skipSubject() {
	if r.bool() {
		r.raw()
	} else {
		r.skipRole()
	}
}

func (r *breader) skipRole() {
	r.raw()
	r.raw()
	r.uvarint()
	r.bool()
	r.uvarint()
}
