package wire

import (
	"crypto/ed25519"
	"sync"
	"sync/atomic"
)

// Entity interning for the binary decode path.
//
// Proof chains repeat principals heavily: every delegation re-carries its
// issuer's 32-byte ed25519 key and the 64-hex-char entity fingerprints of
// every role namespace. JSON decoding allocates a fresh copy of each
// occurrence; the binary decoder instead resolves them through a
// process-wide memo (the same shared-memo treatment the signature cache
// gives verification results), so a delegation chain quoting one issuer ten
// times decodes to one shared allocation.
//
// Interned values MUST be treated as immutable — keys are by convention
// (they are public key material), strings are by language. The table is
// bounded in entries and in entry size: at capacity it is reset wholesale,
// which only costs future lookups a miss, never correctness, and a value no
// principal name or key is that long is copied, never kept, so a peer that
// sends megabyte role names cannot pin them.

// internCap bounds each intern table. Coalitions have bounded principal
// populations; 4096 distinct keys/fingerprints covers far beyond the paper's
// scenarios while capping worst-case memory at a few hundred KiB.
const internCap = 4096

// internMaxString is the longest string interned: twice a 64-hex entity
// fingerprint, room for any name a coalition gives a role or a principal.
const internMaxString = 128

type internTables struct {
	mu      sync.RWMutex
	strings map[string]string
	keys    map[string]ed25519.PublicKey

	hits   atomic.Uint64
	misses atomic.Uint64
}

var interns = internTables{
	strings: make(map[string]string),
	keys:    make(map[string]ed25519.PublicKey),
}

// internString returns a shared string equal to string(b), memoizing new
// values up to the table cap. Strings longer than internMaxString are
// copied.
func internString(b []byte) string {
	if len(b) > internMaxString {
		return string(b)
	}
	t := &interns
	t.mu.RLock()
	s, ok := t.strings[string(b)] // compiler avoids allocating for the lookup key
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
		return s
	}
	t.misses.Add(1)
	s = string(b)
	t.mu.Lock()
	if len(t.strings) >= internCap {
		t.strings = make(map[string]string)
	}
	t.strings[s] = s
	t.mu.Unlock()
	return s
}

// internKey returns a shared ed25519 public key equal to b. Only keys of an
// ed25519 key's length are interned; any other length, which no signature
// verifies under, is copied.
func internKey(b []byte) ed25519.PublicKey {
	if len(b) == 0 {
		return nil
	}
	if len(b) != ed25519.PublicKeySize {
		return ed25519.PublicKey(append([]byte(nil), b...))
	}
	t := &interns
	t.mu.RLock()
	k, ok := t.keys[string(b)]
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
		return k
	}
	t.misses.Add(1)
	k = ed25519.PublicKey(append([]byte(nil), b...))
	t.mu.Lock()
	if len(t.keys) >= internCap {
		t.keys = make(map[string]ed25519.PublicKey)
	}
	t.keys[string(k)] = k
	t.mu.Unlock()
	return k
}
