package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Kind classifies a delegation by the relationship between its issuer and
// its object role's namespace (§3.1).
type Kind int

const (
	// KindSelfCertified: the object role lives in the issuer's namespace.
	// Such delegations need no further authorization; all valid dRBAC
	// proofs are rooted in them.
	KindSelfCertified Kind = iota + 1
	// KindThirdParty: the issuer delegates a role from another entity's
	// namespace and must be accompanied by a support proof showing the
	// issuer holds the object's right-of-assignment role.
	KindThirdParty
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case KindSelfCertified:
		return "self-certified"
	case KindThirdParty:
		return "third-party"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DelegationID is the stable content hash of a delegation.
type DelegationID string

// Short abbreviates the ID for display.
func (id DelegationID) Short() string {
	if len(id) <= 10 {
		return string(id)
	}
	return string(id[:10])
}

// Delegation is a signed certificate [Subject → Object] Issuer granting the
// subject the permissions of the object role (§2, §3). The zero value is
// not usable; build one with Issue or by deserializing a published
// delegation.
type Delegation struct {
	// Subject is the grantee: an entity or a role.
	Subject Subject `json:"subject"`
	// SubjectEntity carries the key material of an entity subject so the
	// grantee can later be authenticated; nil for role subjects.
	SubjectEntity *Entity `json:"subjectEntity,omitempty"`
	// Object is the granted role (possibly a right-of-assignment or
	// attribute-assignment role).
	Object Role `json:"object"`
	// Issuer signed the delegation; its key verifies Signature.
	Issuer Entity `json:"issuer"`
	// Attributes is the "with" clause (§3.2.1): zero or more valued
	// attribute settings applied alongside the role grant.
	Attributes []AttributeSetting `json:"attributes,omitempty"`
	// IssuedAt is the issuance instant.
	IssuedAt time.Time `json:"issuedAt"`
	// Expiry, if nonzero, is the instant after which the delegation is
	// invalid (Table 2).
	Expiry time.Time `json:"expiry,omitempty"`
	// Nonce uniquifies otherwise identical delegations.
	Nonce uint64 `json:"nonce"`
	// SubjectTag, ObjectTag, and IssuerTag are the discovery tags (§4.2.1).
	SubjectTag *DiscoveryTag `json:"subjectTag,omitempty"`
	ObjectTag  *DiscoveryTag `json:"objectTag,omitempty"`
	IssuerTag  *DiscoveryTag `json:"issuerTag,omitempty"`
	// ActingAs enumerates the assignment roles the issuer relies on for a
	// third-party delegation supporting remote discovery (§4.2.1).
	ActingAs []Role `json:"actingAs,omitempty"`
	// DepthLimit, when positive, bounds transitive trust (the §6 extension
	// the paper sketches): at most DepthLimit further delegations may
	// follow this one in a proof's primary chain. Zero means unlimited.
	DepthLimit int `json:"depthLimit,omitempty"`
	// Signature is the issuer's ed25519 signature over SigningBytes.
	Signature []byte `json:"signature"`

	// id memoizes the content hash. A delegation is immutable once issued
	// or decoded, so the hash is computed at most once; wallets call ID
	// many times per operation (admission, store, graph, events, audit).
	// Code that copies a delegation by value to tamper with it (tests do)
	// must do so before the first ID call, or the copy inherits the memo.
	id atomic.Value
}

// Template carries the caller-controlled fields of a new delegation; Issue
// fills in the issuer, timestamps, nonce, and signature.
type Template struct {
	Subject       Subject
	SubjectEntity *Entity
	Object        Role
	Attributes    []AttributeSetting
	Expiry        time.Time
	SubjectTag    *DiscoveryTag
	ObjectTag     *DiscoveryTag
	IssuerTag     *DiscoveryTag
	ActingAs      []Role
	DepthLimit    int
}

// Issue creates and signs a delegation from issuer.
func Issue(issuer *Identity, tmpl Template, now time.Time) (*Delegation, error) {
	var nonceBuf [8]byte
	if _, err := rand.Read(nonceBuf[:]); err != nil {
		return nil, fmt.Errorf("issue delegation: nonce: %w", err)
	}
	d := &Delegation{
		Subject:       tmpl.Subject,
		SubjectEntity: tmpl.SubjectEntity,
		Object:        tmpl.Object,
		Issuer:        issuer.Entity(),
		Attributes:    append([]AttributeSetting(nil), tmpl.Attributes...),
		IssuedAt:      now.UTC().Truncate(time.Microsecond),
		Expiry:        tmpl.Expiry,
		Nonce:         binary.BigEndian.Uint64(nonceBuf[:]),
		SubjectTag:    tmpl.SubjectTag,
		ObjectTag:     tmpl.ObjectTag,
		IssuerTag:     tmpl.IssuerTag,
		ActingAs:      append([]Role(nil), tmpl.ActingAs...),
		DepthLimit:    tmpl.DepthLimit,
	}
	if !d.Expiry.IsZero() {
		d.Expiry = d.Expiry.UTC().Truncate(time.Microsecond)
	}
	if err := d.ValidateStructure(); err != nil {
		return nil, fmt.Errorf("issue delegation: %w", err)
	}
	d.Signature = issuer.SignBytes(d.SigningBytes())
	return d, nil
}

// Kind classifies the delegation (§3.1.1): self-certified when the object
// role's namespace is the issuer itself, third-party otherwise.
func (d *Delegation) Kind() Kind {
	if d.Object.Namespace == d.Issuer.ID() {
		return KindSelfCertified
	}
	return KindThirdParty
}

// IsAssignment reports whether the delegation grants a right-of-assignment
// role (its object carries a tick, §3.1.2).
func (d *Delegation) IsAssignment() bool { return d.Object.IsAssignment() }

// ID returns the delegation's content hash. The hash covers the signing
// bytes, which include every semantic field. The result is memoized; a
// concurrent first call recomputes the same value harmlessly.
func (d *Delegation) ID() DelegationID {
	if v := d.id.Load(); v != nil {
		return v.(DelegationID)
	}
	var stack [signingStack]byte
	return d.idFrom(d.appendSigning(stack[:0]))
}

// idFrom memoizes the ID hashed from msg, the delegation's signing bytes.
func (d *Delegation) idFrom(msg []byte) DelegationID {
	id := DelegationID(hashHex(msg))
	d.id.Store(id)
	return id
}

// ValidateStructure checks well-formedness without verifying the signature.
func (d *Delegation) ValidateStructure() error {
	if err := d.Subject.Validate(); err != nil {
		return fmt.Errorf("subject: %w", err)
	}
	if err := d.Object.Validate(); err != nil {
		return fmt.Errorf("object: %w", err)
	}
	if len(d.Issuer.Key) == 0 {
		return fmt.Errorf("issuer: missing public key")
	}
	if d.Subject.IsEntity() {
		if d.SubjectEntity != nil && d.SubjectEntity.ID() != d.Subject.Entity {
			return fmt.Errorf("subject entity key does not match subject fingerprint")
		}
	} else if d.SubjectEntity != nil {
		return fmt.Errorf("subject entity key attached to role subject")
	}
	// A delegation must not be trivially circular.
	if !d.Subject.IsEntity() && d.Subject.Role == d.Object {
		return fmt.Errorf("subject and object are the same role %s", d.Object)
	}
	for _, s := range d.Attributes {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("attribute setting: %w", err)
		}
	}
	if !d.Expiry.IsZero() && !d.IssuedAt.IsZero() && d.Expiry.Before(d.IssuedAt) {
		return fmt.Errorf("expiry %v precedes issuance %v", d.Expiry, d.IssuedAt)
	}
	for _, tag := range []*DiscoveryTag{d.SubjectTag, d.ObjectTag, d.IssuerTag} {
		if tag == nil {
			continue
		}
		if err := tag.Validate(); err != nil {
			return err
		}
	}
	for _, r := range d.ActingAs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("acting-as role: %w", err)
		}
		if !r.IsAssignment() {
			return fmt.Errorf("acting-as role %s is not an assignment role", r)
		}
	}
	if d.DepthLimit < 0 {
		return fmt.Errorf("negative depth limit %d", d.DepthLimit)
	}
	return nil
}

// Verify checks structure and the issuer's signature. A failure is a
// *StructureError (malformed) or a *SignatureError (bad signature), so
// callers can triage the two.
func (d *Delegation) Verify() error { return d.VerifyWith(nil) }

// VerifyWith is Verify with signature checks routed through v, typically a
// process-wide verified-signature memo (internal/sigcache). A nil v
// verifies directly.
func (d *Delegation) VerifyWith(v SigVerifier) error {
	if err := d.ValidateStructure(); err != nil {
		return &StructureError{ID: d.ID(), Err: err}
	}
	msg := d.SigningBytes()
	// The bytes just encoded are the ID's too: the first verify seeds the
	// memo so no later ID call encodes them again.
	if d.id.Load() == nil {
		d.idFrom(msg)
	}
	ok := false
	if v != nil {
		ok = v.VerifySig(d.Issuer.Key, msg, d.Signature)
	} else {
		ok = VerifyBytes(d.Issuer, msg, d.Signature)
	}
	if !ok {
		return &SignatureError{ID: d.ID(), Issuer: d.Issuer}
	}
	return nil
}

// Expired reports whether the delegation's expiry has passed at instant at.
func (d *Delegation) Expired(at time.Time) bool {
	return !d.Expiry.IsZero() && at.After(d.Expiry)
}

// RequiredSupport lists the roles the issuer must provably hold for this
// delegation to be authorized beyond its signature:
//
//   - for a third-party delegation, the object's right-of-assignment role
//     (§3.1.2);
//   - for every attribute setting outside the issuer's namespace, the
//     attribute's assignment role (Table 2), when strict attribute checking
//     is enabled.
func (d *Delegation) RequiredSupport(strictAttributes bool) []Role {
	var need []Role
	if d.Kind() == KindThirdParty {
		need = append(need, d.Object.Assignment())
	}
	if strictAttributes {
		issuer := d.Issuer.ID()
		for _, s := range d.Attributes {
			if s.Attr.Namespace != issuer {
				need = append(need, s.Attr.AssignmentRole(s.Op))
			}
		}
	}
	return need
}

// String renders the delegation with abbreviated fingerprints. Use Printer
// for name-resolved output.
func (d *Delegation) String() string { return d.Format(nil) }
