package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"
)

// Canonical signing encoding.
//
// Delegations are signed over a deterministic, versioned binary encoding so
// that signature validity never depends on JSON field ordering or float
// formatting. The encoding is length-prefixed throughout and therefore
// unambiguous: no two distinct delegations produce the same bytes.
//
// It is built by append-style functions, so the only memory it writes is
// the buffer its caller hands in: a stack array, for the ID and for the
// bytes SigningBytes copies out.

// signingMagic versions the canonical encoding. Bump on any change.
const signingMagic = "dRBAC/2\n"

// signingStack sizes the stack array an encoding is built in; nearly every
// delegation's fits, and a longer one grows onto the heap.
const signingStack = 1 << 10

func appendBytes(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTimestamp(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return appendU64(b, 0)
	}
	return appendU64(b, uint64(t.UnixMicro()))
}

func appendRole(b []byte, r Role) []byte {
	b = appendStr(b, string(r.Namespace))
	b = appendStr(b, r.Name)
	b = appendU64(b, uint64(r.Tick))
	b = appendBool(b, r.Attr)
	return appendU64(b, uint64(r.Op))
}

func appendSubject(b []byte, s Subject) []byte {
	b = appendBool(b, s.IsEntity())
	if s.IsEntity() {
		return appendStr(b, string(s.Entity))
	}
	return appendRole(b, s.Role)
}

func appendSetting(b []byte, s AttributeSetting) []byte {
	b = appendStr(b, string(s.Attr.Namespace))
	b = appendStr(b, s.Attr.Name)
	b = appendU64(b, uint64(s.Op))
	return appendU64(b, math.Float64bits(s.Value))
}

func appendTag(b []byte, t *DiscoveryTag) []byte {
	if t == nil {
		return appendBool(b, false)
	}
	b = appendBool(b, true)
	n := t.Normalize()
	b = appendStr(b, n.Home)
	b = appendRole(b, n.AuthRole)
	b = appendU64(b, uint64(n.TTL))
	b = appendU64(b, uint64(n.Subject))
	return appendU64(b, uint64(n.Object))
}

// appendSigning appends the canonical encoding of d to b.
func (d *Delegation) appendSigning(b []byte) []byte {
	b = append(b, signingMagic...)
	b = appendSubject(b, d.Subject)
	if d.SubjectEntity != nil {
		b = appendBool(b, true)
		b = appendStr(b, d.SubjectEntity.Name)
		b = appendBytes(b, d.SubjectEntity.Key)
	} else {
		b = appendBool(b, false)
	}
	b = appendRole(b, d.Object)
	b = appendStr(b, d.Issuer.Name)
	b = appendBytes(b, d.Issuer.Key)
	b = appendU64(b, uint64(len(d.Attributes)))
	for _, s := range d.Attributes {
		b = appendSetting(b, s)
	}
	b = appendTimestamp(b, d.IssuedAt)
	b = appendTimestamp(b, d.Expiry)
	b = appendU64(b, d.Nonce)
	b = appendTag(b, d.SubjectTag)
	b = appendTag(b, d.ObjectTag)
	b = appendTag(b, d.IssuerTag)
	b = appendU64(b, uint64(len(d.ActingAs)))
	for _, r := range d.ActingAs {
		b = appendRole(b, r)
	}
	return appendU64(b, uint64(d.DepthLimit))
}

// SigningBytes returns the canonical byte encoding the issuer signs. Every
// semantic field of the delegation participates. It is one allocation, of
// the encoding's exact size, for any encoding that fits signingStack.
func (d *Delegation) SigningBytes() []byte {
	var stack [signingStack]byte
	msg := d.appendSigning(stack[:0])
	return append(make([]byte, 0, len(msg)), msg...)
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
