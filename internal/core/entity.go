// Package core implements the dRBAC trust-management model: PKI entities,
// roles, delegations with valued attributes, and proofs.
//
// The model follows Freudenthal et al., "dRBAC: Distributed Role-based
// Access Control for Dynamic Coalition Environments" (ICDCS 2002).
// Entities are public keys that define namespaces; roles are names inside a
// namespace; delegations are signed certificates of the form
// [Subject → Object] Issuer that grant the subject the permissions of the
// object role; proofs are delegation chains, with recursive support proofs
// authorizing third-party delegations.
package core

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// EntityID is the stable identity of an entity: the lowercase hex SHA-256
// fingerprint of its ed25519 public key. Names are informational only; two
// entities are the same if and only if their IDs are equal.
type EntityID string

// Short returns an abbreviated fingerprint for display.
func (id EntityID) Short() string {
	if len(id) <= 8 {
		return string(id)
	}
	return string(id[:8])
}

// Valid reports whether id has the shape of a fingerprint.
func (id EntityID) Valid() bool {
	if len(id) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// Entity is a principal or resource: a public key plus a human-readable
// name. dRBAC does not distinguish resource owners from principals (§2).
type Entity struct {
	// Name is a human-readable label. It carries no authority.
	Name string
	// Key is the entity's ed25519 public key and is its real identity.
	Key ed25519.PublicKey
}

// idMemoCap bounds the process-wide fingerprint memo; a coalition touches
// far fewer distinct keys than this, and a pathological flood of principals
// resets the table wholesale rather than growing without bound.
const idMemoCap = 4096

// idMemo caches key → fingerprint. Hashing is deterministic, so the memo is
// sound; it exists because Entity.ID sits on every wallet hot path (graph
// inserts, admission checks, audit records) and the sha256+hex pair costs an
// allocation and real time per call.
var idMemo = struct {
	sync.RWMutex
	m map[string]EntityID
}{m: make(map[string]EntityID, 256)}

// ID returns the entity's fingerprint, memoized process-wide by key. Only
// ed25519-sized keys are memoized: a key of any other length verifies no
// signature, and memoizing it would let a peer pin arbitrarily long ones.
func (e Entity) ID() EntityID {
	if len(e.Key) != ed25519.PublicKeySize {
		return EntityID(hashHex(e.Key))
	}
	idMemo.RLock()
	id, ok := idMemo.m[string(e.Key)]
	idMemo.RUnlock()
	if ok {
		return id
	}
	id = EntityID(hashHex(e.Key))
	idMemo.Lock()
	if len(idMemo.m) >= idMemoCap {
		idMemo.m = make(map[string]EntityID, 256)
	}
	idMemo.m[string(e.Key)] = id
	idMemo.Unlock()
	return id
}

// String renders the entity as name(shortid).
func (e Entity) String() string {
	return fmt.Sprintf("%s(%s)", e.Name, e.ID().Short())
}

// Equal reports whether two entities have the same key.
func (e Entity) Equal(other Entity) bool {
	return e.ID() == other.ID()
}

// Identity is an entity together with its private key. It is the only type
// able to issue (sign) delegations or answer authentication challenges.
type Identity struct {
	entity Entity
	key    ed25519.PrivateKey
}

// NewIdentity generates a fresh identity with the given human-readable name.
func NewIdentity(name string) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate key: %w", err)
	}
	return &Identity{
		entity: Entity{Name: name, Key: pub},
		key:    priv,
	}, nil
}

// IdentityFromSeed derives a deterministic identity from a 32-byte seed.
// It is intended for tests and reproducible simulations.
func IdentityFromSeed(name string, seed []byte) (*Identity, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("identity seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		return nil, errors.New("identity: unexpected public key type")
	}
	return &Identity{
		entity: Entity{Name: name, Key: pub},
		key:    priv,
	}, nil
}

// Entity returns the public half of the identity.
func (id *Identity) Entity() Entity { return id.entity }

// ID returns the identity's fingerprint.
func (id *Identity) ID() EntityID { return id.entity.ID() }

// Name returns the identity's human-readable name.
func (id *Identity) Name() string { return id.entity.Name }

// SignBytes signs arbitrary bytes with the identity's private key. It is
// used both for delegation issuance and for transport authentication.
func (id *Identity) SignBytes(msg []byte) []byte {
	return ed25519.Sign(id.key, msg)
}

// VerifyBytes checks sig over msg against the entity's public key.
func VerifyBytes(e Entity, msg, sig []byte) bool {
	if len(e.Key) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(e.Key, msg, sig)
}
