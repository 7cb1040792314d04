package wire

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"drbac/internal/bufpool"
	"drbac/internal/core"
)

// Binary primitives and core-type codecs for the binary wire codec.
//
// The encoding follows the same discipline as core's canonical signing
// encoding (length-prefixed throughout, every semantic field explicit) but
// is a separate format: it carries signatures and uses varints, presence
// flags for optional values, and nanosecond-exact timestamps so that a
// value decoded from the binary wire is field-for-field identical to the
// same value decoded from JSON. That identity is what keeps proofs
// byte-identical across codecs: re-marshaling either decode to JSON yields
// the same bytes.

// bwriter builds a frame by appending to a pooled buffer. Every primitive
// reserves its bytes through grow first, so the buffer outgrows its size
// class by moving to the next pooled one, never by a bare append.
type bwriter struct {
	buf []byte
}

// grow makes room for n more bytes. The check inlines into every primitive;
// the move to a bigger buffer is the rare path.
func (w *bwriter) grow(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.regrow(len(w.buf) + n)
	}
}

// regrow takes a buffer of at least need bytes, and at least twice the
// current one, from the pool, copies, and recycles the old one.
func (w *bwriter) regrow(need int) {
	if double := 2 * cap(w.buf); need < double {
		need = double
	}
	nb := append(bufpool.Get(need), w.buf...)
	bufpool.Put(w.buf)
	w.buf = nb
}

func (w *bwriter) u8(b byte) {
	w.grow(1)
	w.buf = append(w.buf, b)
}

func (w *bwriter) uvarint(v uint64) {
	w.grow(binary.MaxVarintLen64)
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *bwriter) svarint(v int64) {
	w.grow(binary.MaxVarintLen64)
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *bwriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *bwriter) f64(v float64) {
	w.grow(8)
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}

func (w *bwriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.grow(len(s))
	w.buf = append(w.buf, s...)
}

func (w *bwriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.grow(len(b))
	w.buf = append(w.buf, b...)
}

// time encodes an instant exactly: presence flag, then unix seconds and the
// nanosecond within the second. Zone information is not carried — decoding
// yields UTC — but every instant the protocol signs or compares is already
// UTC (core.Issue truncates to UTC microseconds), so JSON re-marshals of
// either decode agree byte-for-byte.
func (w *bwriter) time(t time.Time) {
	if t.IsZero() {
		w.bool(false)
		return
	}
	w.bool(true)
	w.svarint(t.Unix())
	w.uvarint(uint64(t.Nanosecond()))
}

// breader is a bounds-checked cursor over a frame. Errors are sticky: after
// the first failure every read returns a zero value and the error survives
// to the final check, so decoders can run straight-line without per-field
// error plumbing. Every length is validated against the remaining input
// before any allocation, so adversarial frames cannot make the decoder
// allocate beyond the (MaxFrame-bounded) frame itself.
type breader struct {
	buf []byte
	off int
	err error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *breader) remaining() int { return len(r.buf) - r.off }

func (r *breader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("binary decode: truncated at byte %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("binary decode: bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *breader) svarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("binary decode: bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *breader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("binary decode: invalid bool at byte %d", r.off-1)
		return false
	}
}

func (r *breader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("binary decode: truncated float at byte %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// raw returns the next n bytes without copying (aliases the frame).
func (r *breader) raw() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("binary decode: length %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// str reads a length-prefixed string (fresh copy — frames get recycled).
func (r *breader) str() string { return string(r.raw()) }

// internedStr reads a length-prefixed string through the process intern
// table — for bounded-population values like entity fingerprints, names,
// and role names that repeat across a proof chain.
func (r *breader) internedStr() string {
	b := r.raw()
	if len(b) == 0 {
		return ""
	}
	return internString(b)
}

// bytes reads a length-prefixed byte slice as a fresh copy; zero length
// decodes to nil to match encoding/json's treatment of absent fields.
func (r *breader) bytes() []byte {
	b := r.raw()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// key reads an ed25519 public key through the intern table.
func (r *breader) key() ed25519.PublicKey {
	return internKey(r.raw())
}

func (r *breader) time() time.Time {
	if !r.bool() {
		return time.Time{}
	}
	sec := r.svarint()
	nsec := r.uvarint()
	if nsec >= uint64(time.Second) {
		r.fail("binary decode: nanosecond field %d out of range", nsec)
		return time.Time{}
	}
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// count reads a collection length and sanity-bounds it against the
// remaining input (each element costs at least one byte), so a hostile
// count cannot drive a huge preallocation.
func (r *breader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()) {
		r.fail("binary decode: count %d exceeds remaining %d bytes", n, r.remaining())
		return 0
	}
	return int(n)
}

// done errors unless the frame was consumed exactly.
func (r *breader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("binary decode: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// ---- core type codecs ----

// maxProofDepth bounds support-proof recursion during decode. Proof
// validation itself caps chains far lower; this only prevents a hostile
// frame from exhausting the decoder's stack.
const maxProofDepth = 64

func (w *bwriter) role(r core.Role) {
	w.str(string(r.Namespace))
	w.str(r.Name)
	w.uvarint(uint64(r.Tick))
	w.bool(r.Attr)
	w.uvarint(uint64(r.Op))
}

func (r *breader) role() core.Role {
	return core.Role{
		Namespace: core.EntityID(r.internedStr()),
		Name:      r.internedStr(),
		Tick:      int(r.uvarint()),
		Attr:      r.bool(),
		Op:        core.Operator(r.uvarint()),
	}
}

func (w *bwriter) subject(s core.Subject) {
	w.bool(s.IsEntity())
	if s.IsEntity() {
		w.str(string(s.Entity))
		return
	}
	w.role(s.Role)
}

func (r *breader) subject() core.Subject {
	if r.bool() {
		return core.Subject{Entity: core.EntityID(r.internedStr())}
	}
	return core.Subject{Role: r.role()}
}

func (w *bwriter) entity(e core.Entity) {
	w.str(e.Name)
	w.bytes(e.Key)
}

func (r *breader) entity() core.Entity {
	return core.Entity{Name: r.internedStr(), Key: r.key()}
}

func (w *bwriter) entityPtr(e *core.Entity) {
	if e == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.entity(*e)
}

func (r *breader) entityPtr() *core.Entity {
	if !r.bool() {
		return nil
	}
	e := r.entity()
	if r.err != nil {
		return nil
	}
	return &e
}

func (w *bwriter) setting(s core.AttributeSetting) {
	w.str(string(s.Attr.Namespace))
	w.str(s.Attr.Name)
	w.uvarint(uint64(s.Op))
	w.f64(s.Value)
}

func (r *breader) setting() core.AttributeSetting {
	return core.AttributeSetting{
		Attr: core.AttributeRef{
			Namespace: core.EntityID(r.internedStr()),
			Name:      r.internedStr(),
		},
		Op:    core.Operator(r.uvarint()),
		Value: r.f64(),
	}
}

func (w *bwriter) constraint(c core.Constraint) {
	w.str(string(c.Attr.Namespace))
	w.str(c.Attr.Name)
	w.f64(c.Base)
	w.f64(c.Minimum)
}

func (r *breader) constraint() core.Constraint {
	return core.Constraint{
		Attr: core.AttributeRef{
			Namespace: core.EntityID(r.internedStr()),
			Name:      r.internedStr(),
		},
		Base:    r.f64(),
		Minimum: r.f64(),
	}
}

// tag encodes the discovery tag verbatim (no normalization): the wire must
// reproduce exactly the struct the sender held.
func (w *bwriter) tag(t *core.DiscoveryTag) {
	if t == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.str(t.Home)
	w.role(t.AuthRole)
	w.svarint(int64(t.TTL))
	w.svarint(int64(t.Subject))
	w.svarint(int64(t.Object))
}

func (r *breader) tag() *core.DiscoveryTag {
	if !r.bool() {
		return nil
	}
	t := core.DiscoveryTag{
		Home:     r.str(),
		AuthRole: r.role(),
		TTL:      time.Duration(r.svarint()),
		Subject:  core.SubjectFlag(r.svarint()),
		Object:   core.ObjectFlag(r.svarint()),
	}
	if r.err != nil {
		return nil
	}
	return &t
}

func (w *bwriter) delegation(d *core.Delegation) {
	if d == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.subject(d.Subject)
	w.entityPtr(d.SubjectEntity)
	w.role(d.Object)
	w.entity(d.Issuer)
	w.uvarint(uint64(len(d.Attributes)))
	for _, s := range d.Attributes {
		w.setting(s)
	}
	w.time(d.IssuedAt)
	w.time(d.Expiry)
	w.uvarint(d.Nonce)
	w.tag(d.SubjectTag)
	w.tag(d.ObjectTag)
	w.tag(d.IssuerTag)
	w.uvarint(uint64(len(d.ActingAs)))
	for _, role := range d.ActingAs {
		w.role(role)
	}
	w.svarint(int64(d.DepthLimit))
	w.bytes(d.Signature)
}

func (r *breader) delegation() *core.Delegation {
	if !r.bool() {
		return nil
	}
	d := core.Delegation{
		Subject:       r.subject(),
		SubjectEntity: r.entityPtr(),
		Object:        r.role(),
		Issuer:        r.entity(),
	}
	if n := r.count(); n > 0 {
		d.Attributes = make([]core.AttributeSetting, n)
		for i := range d.Attributes {
			d.Attributes[i] = r.setting()
		}
	}
	d.IssuedAt = r.time()
	d.Expiry = r.time()
	d.Nonce = r.uvarint()
	d.SubjectTag = r.tag()
	d.ObjectTag = r.tag()
	d.IssuerTag = r.tag()
	if n := r.count(); n > 0 {
		d.ActingAs = make([]core.Role, n)
		for i := range d.ActingAs {
			d.ActingAs[i] = r.role()
		}
	}
	d.DepthLimit = int(r.svarint())
	d.Signature = r.bytes()
	if r.err != nil {
		return nil
	}
	return &d
}

func (w *bwriter) proof(p *core.Proof) {
	if p == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.subject(p.Subject)
	w.role(p.Object)
	w.uvarint(uint64(len(p.Steps)))
	for _, st := range p.Steps {
		w.delegation(st.Delegation)
		w.proofs(st.Support)
	}
}

func (w *bwriter) proofs(ps []*core.Proof) {
	w.uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.proof(p)
	}
}

func (r *breader) proof(depth int) *core.Proof {
	if depth > maxProofDepth {
		r.fail("binary decode: proof nesting exceeds %d", maxProofDepth)
		return nil
	}
	if !r.bool() {
		return nil
	}
	p := core.Proof{Subject: r.subject(), Object: r.role()}
	if n := r.count(); n > 0 {
		p.Steps = make([]core.ProofStep, n)
		for i := range p.Steps {
			p.Steps[i] = core.ProofStep{
				Delegation: r.delegation(),
				Support:    r.proofsAt(depth + 1),
			}
			// A step is a delegation, as core.NewProof insists; refusing
			// one without here spares every consumer a nil check.
			if p.Steps[i].Delegation == nil {
				r.fail("binary decode: proof step %d has no delegation", i)
			}
		}
	}
	if r.err != nil {
		return nil
	}
	return &p
}

func (r *breader) proofsAt(depth int) []*core.Proof {
	n := r.count()
	if n == 0 {
		return nil
	}
	ps := make([]*core.Proof, n)
	for i := range ps {
		ps[i] = r.proof(depth)
	}
	return ps
}
