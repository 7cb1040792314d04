package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// legacyEncoder is the canonical encoder as it was before SigningBytes sized
// one buffer exactly: a 256-byte start regrown by append, each string copied
// through []byte. It stays here as the reference the live encoder must match
// byte for byte.
type legacyEncoder struct{ buf []byte }

func (e *legacyEncoder) bytes(b []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	e.buf = append(e.buf, n[:]...)
	e.buf = append(e.buf, b...)
}

func (e *legacyEncoder) str(s string) { e.bytes([]byte(s)) }

func (e *legacyEncoder) u64(v uint64) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], v)
	e.buf = append(e.buf, n[:]...)
}

func (e *legacyEncoder) i64(v int64) { e.u64(uint64(v)) }

func (e *legacyEncoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *legacyEncoder) timestamp(t time.Time) {
	if t.IsZero() {
		e.i64(0)
		return
	}
	e.i64(t.UnixMicro())
}

func (e *legacyEncoder) role(r Role) {
	e.str(string(r.Namespace))
	e.str(r.Name)
	e.u64(uint64(r.Tick))
	e.bool(r.Attr)
	e.u64(uint64(r.Op))
}

func (e *legacyEncoder) subject(s Subject) {
	e.bool(s.IsEntity())
	if s.IsEntity() {
		e.str(string(s.Entity))
		return
	}
	e.role(s.Role)
}

func (e *legacyEncoder) tag(t *DiscoveryTag) {
	if t == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	n := t.Normalize()
	e.str(n.Home)
	e.role(n.AuthRole)
	e.i64(int64(n.TTL))
	e.u64(uint64(n.Subject))
	e.u64(uint64(n.Object))
}

func legacySigningBytes(d *Delegation) []byte {
	e := &legacyEncoder{buf: make([]byte, 0, 256)}
	e.buf = append(e.buf, signingMagic...)
	e.subject(d.Subject)
	if d.SubjectEntity != nil {
		e.bool(true)
		e.str(d.SubjectEntity.Name)
		e.bytes(d.SubjectEntity.Key)
	} else {
		e.bool(false)
	}
	e.role(d.Object)
	e.str(d.Issuer.Name)
	e.bytes(d.Issuer.Key)
	e.u64(uint64(len(d.Attributes)))
	for _, s := range d.Attributes {
		e.str(string(s.Attr.Namespace))
		e.str(s.Attr.Name)
		e.u64(uint64(s.Op))
		e.u64(math.Float64bits(s.Value))
	}
	e.timestamp(d.IssuedAt)
	e.timestamp(d.Expiry)
	e.u64(d.Nonce)
	e.tag(d.SubjectTag)
	e.tag(d.ObjectTag)
	e.tag(d.IssuerTag)
	e.u64(uint64(len(d.ActingAs)))
	for _, r := range d.ActingAs {
		e.role(r)
	}
	e.u64(uint64(d.DepthLimit))
	return e.buf
}

// encodingCorpus issues the Table 1 delegations, every fuzz seed Issue
// accepts, and one delegation setting every field the encoding carries.
func encodingCorpus(t *testing.T) []*Delegation {
	f := newFixture(t)
	d1, d2, d3 := f.table1(t)
	out := []*Delegation{d1, d2, d3}
	for _, text := range fuzzSeeds {
		parsed, err := ParseDelegation(text, f.Dir)
		if err != nil {
			continue
		}
		if d, err := Issue(f.identityFor(t, parsed.Issuer.ID()), parsed.Template, f.Now); err == nil {
			out = append(out, d)
		}
	}
	member := NewRole(f.BigISP.ID(), "member")
	maria := f.Maria.Entity()
	out = append(out, f.issue(t, f.Mark, Template{
		Subject:       SubjectEntity(f.Maria.ID()),
		SubjectEntity: &maria,
		Object:        member,
		Attributes: []AttributeSetting{
			{Attr: AttributeRef{Namespace: f.AirNet.ID(), Name: "BW"}, Op: OpMinimum, Value: 100},
			{Attr: AttributeRef{Namespace: f.Mark.ID(), Name: "storage"}, Op: OpSubtract, Value: 20},
		},
		Expiry:     f.Now.Add(72 * time.Hour),
		SubjectTag: &DiscoveryTag{Home: "wallet.maria.example", TTL: 30 * time.Second},
		ObjectTag:  &DiscoveryTag{Home: "wallet.bigisp.example", AuthRole: member, Subject: SubjectSearch, Object: ObjectSearch},
		IssuerTag:  &DiscoveryTag{Home: "wallet.mark.example", AuthRole: NewRole(f.BigISP.ID(), "wallet")},
		ActingAs:   []Role{member.Assignment()},
		DepthLimit: 4,
	}))
	return out
}

// The one-buffer encoder writes exactly the bytes the legacy encoder wrote,
// so every signature and every ID stays what it was; an ID seeded by the
// first verify is the ID hashed on its own.
func TestSigningBytesMatchLegacyEncoder(t *testing.T) {
	corpus := encodingCorpus(t)
	if len(corpus) < 12 {
		t.Fatalf("corpus of %d delegations: a fixture or seed stopped issuing", len(corpus))
	}
	for _, d := range corpus {
		want := legacySigningBytes(d)
		got := d.SigningBytes()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: signing bytes differ from the legacy encoder:\n got %x\nwant %x", d, got, want)
		}
		if len(got) != cap(got) {
			t.Errorf("%s: %d signing bytes in a buffer of %d", d, len(got), cap(got))
		}
		if id := d.ID(); id != DelegationID(hashHex(want)) {
			t.Errorf("%s: ID %s, want the hash of the legacy bytes", d, id)
		}
		fresh := *d
		fresh.id = atomic.Value{}
		if err := fresh.Verify(); err != nil {
			t.Errorf("%s: %v", d, err)
		}
		if seeded, _ := fresh.id.Load().(DelegationID); seeded != d.ID() {
			t.Errorf("%s: verify seeded ID %q, want %s", d, seeded, d.ID())
		}
	}
}

func TestSigningBytesOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, d := range encodingCorpus(t) {
		if n := testing.AllocsPerRun(100, func() { _ = d.SigningBytes() }); n != 1 {
			t.Errorf("%s: SigningBytes allocates %v times, want 1", d, n)
		}
	}
}
