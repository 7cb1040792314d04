package wire

import (
	"encoding/json"
	"fmt"

	"drbac/internal/bufpool"
	"drbac/internal/core"
	"drbac/internal/graph"
)

// Binary envelope framing (CodecBinary), the one wire codec. Layout:
//
//	byte 0   magic 0xD7 (never collides with '{', so a JSON envelope from
//	         a build that still spoke the retired JSON codec is detected
//	         immediately)
//	byte 1   version (currently 1)
//	byte 2   message type code; 0 escapes to a length-prefixed type string
//	         so future message types survive this framing unchanged
//	uvarint  envelope ID (0 = unsolicited push)
//	byte     body kind (bkNone / bkJSON / typed)
//	rest     body bytes
//
// Hot message bodies (queries, proofs, publishes, revokes, notifies, sync)
// are hand-rolled binary; everything else (stats, DHT, traces, shard maps,
// errors) rides as JSON inside the binary envelope — those paths are cold,
// and keeping them JSON means one fallback covers every future message
// without a codec bump.

const (
	binMagic   = 0xD7
	binVersion = 1
)

// Body kinds. bkJSON marks a JSON-marshaled body; greater values name
// hand-rolled binary body layouts. Kinds are protocol constants: never
// renumber, only append.
const (
	bkNone byte = iota
	bkJSON
	bkQueryReq
	bkProofResp
	bkProofsResp
	bkPublishReq
	bkRevokeReq
	bkNotifyPush
	bkSubscribeReq
	bkHasReq
	bkHasResp
	bkSyncResp
	bkSubscribeAllResp
	// The retired sync-segments request and response bodies. Nothing
	// encodes them; an older follower's request still decodes as an
	// envelope, and no new layout may take either kind.
	bkRetiredSegmentsReq
	bkRetiredSegmentsResp
	bkProveRoleReq

	bkMax = bkProveRoleReq
)

// binKind names the hand-rolled layout of each binary body type; value and
// pointer (decode target) alike carry it.
func (QueryReq) binKind() byte         { return bkQueryReq }
func (ProofResp) binKind() byte        { return bkProofResp }
func (ProofsResp) binKind() byte       { return bkProofsResp }
func (PublishReq) binKind() byte       { return bkPublishReq }
func (RevokeReq) binKind() byte        { return bkRevokeReq }
func (NotifyPush) binKind() byte       { return bkNotifyPush }
func (SubscribeReq) binKind() byte     { return bkSubscribeReq }
func (HasReq) binKind() byte           { return bkHasReq }
func (HasResp) binKind() byte          { return bkHasResp }
func (SyncResp) binKind() byte         { return bkSyncResp }
func (SubscribeAllResp) binKind() byte { return bkSubscribeAllResp }
func (ProveRoleReq) binKind() byte     { return bkProveRoleReq }

// encodeStart is the capacity every frame starts with: queries, acks,
// publishes and pushes fit, and a proof reply is two or three pool-to-pool
// moves from its final size class. Starting in the pool's smallest class cost
// a 20 KB proof seven moves and 40% more encode time.
const encodeStart = 1 << 10

// Encode marshals an envelope with a typed body into a frame. The returned
// buffer comes from the process buffer pool: the caller owns it and should
// bufpool.Put it once the frame is sent.
func (Codec) Encode(t MsgType, id uint64, body any) ([]byte, error) {
	w := bwriter{buf: bufpool.Get(encodeStart)}
	w.u8(binMagic)
	w.u8(binVersion)
	if m := byType[t]; m != nil {
		w.u8(m.Code)
	} else {
		w.u8(0)
		w.str(string(t))
	}
	w.uvarint(id)

	switch b := body.(type) {
	case nil:
		w.u8(bkNone)
	case QueryReq:
		w.u8(bkQueryReq)
		w.subject(b.Subject)
		w.role(b.Object)
		w.uvarint(uint64(len(b.Constraints)))
		for _, c := range b.Constraints {
			w.constraint(c)
		}
		w.svarint(int64(b.Direction))
		w.str(b.TraceID)
		w.str(b.SpanID)
	case ProofResp:
		w.u8(bkProofResp)
		w.proof(b.Proof)
	case ProofsResp:
		w.u8(bkProofsResp)
		w.proofs(b.Proofs)
	case PublishReq:
		w.u8(bkPublishReq)
		w.delegation(b.Delegation)
		w.proofs(b.Support)
		w.svarint(int64(b.TTLSeconds))
		w.uvarint(b.ShardEpoch)
	case RevokeReq:
		w.u8(bkRevokeReq)
		w.str(string(b.Delegation))
		w.uvarint(b.ShardEpoch)
	case NotifyPush:
		w.u8(bkNotifyPush)
		w.str(string(b.Delegation))
		w.str(b.Kind)
		w.time(b.At)
		w.uvarint(b.Seq)
		if b.Bundle == nil {
			w.bool(false)
		} else {
			w.bool(true)
			w.delegation(b.Bundle.Delegation)
			w.proofs(b.Bundle.Support)
		}
	case SubscribeReq:
		w.u8(bkSubscribeReq)
		w.str(string(b.Delegation))
	case HasReq:
		w.u8(bkHasReq)
		w.str(string(b.Delegation))
	case HasResp:
		w.u8(bkHasResp)
		w.bool(b.Present)
	case SyncResp:
		w.u8(bkSyncResp)
		w.uvarint(b.Seq)
		w.uvarint(uint64(len(b.Bundles)))
		for _, sb := range b.Bundles {
			w.delegation(sb.Delegation)
			w.proofs(sb.Support)
		}
		w.uvarint(uint64(len(b.Revoked)))
		for _, rid := range b.Revoked {
			w.str(string(rid))
		}
	case SubscribeAllResp:
		w.u8(bkSubscribeAllResp)
		w.uvarint(b.Seq)
	case ProveRoleReq:
		w.u8(bkProveRoleReq)
		w.role(b.Role)
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			bufpool.Put(w.buf)
			return nil, fmt.Errorf("wire encode %s: %w", t, err)
		}
		w.u8(bkJSON)
		w.grow(len(raw))
		w.buf = append(w.buf, raw...)
	}

	stats.binaryFramesEncoded.Add(1)
	stats.binaryBytesEncoded.Add(uint64(len(w.buf)))
	return w.buf, nil
}

// Decode unmarshals a frame. The returned envelope's body aliases the frame;
// the frame must stay untouched until the body has been decoded (DecodeBody)
// or abandoned.
func (Codec) Decode(frame []byte) (Envelope, error) {
	r := breader{buf: frame}
	if magic := r.u8(); r.err == nil && magic != binMagic {
		if magic == '{' {
			return Envelope{}, fmt.Errorf("wire decode: JSON envelope (the retired JSON codec)")
		}
		return Envelope{}, fmt.Errorf("wire decode: bad binary magic 0x%02x", magic)
	}
	if v := r.u8(); r.err == nil && v != binVersion {
		return Envelope{}, fmt.Errorf("wire decode: unsupported binary version %d", v)
	}
	var t MsgType
	if code := r.u8(); code != 0 {
		m := byCode[code]
		if m == nil {
			return Envelope{}, fmt.Errorf("wire decode: unknown message type code %d", code)
		}
		t = m.Type
	} else {
		t = MsgType(r.str())
	}
	id := r.uvarint()
	kind := r.u8()
	if r.err != nil {
		return Envelope{}, fmt.Errorf("wire decode: %w", r.err)
	}
	if t == "" {
		return Envelope{}, fmt.Errorf("wire decode: missing type")
	}
	body := frame[r.off:]
	env := Envelope{Type: t, ID: id}
	switch {
	case kind == bkNone:
		if len(body) != 0 {
			return Envelope{}, fmt.Errorf("wire decode: %d trailing bytes after empty body", len(body))
		}
	case kind == bkJSON:
		env.Body = json.RawMessage(body)
	case kind <= bkMax:
		env.Body = json.RawMessage(body)
		env.binKind = kind
	default:
		return Envelope{}, fmt.Errorf("wire decode: unknown body kind %d", kind)
	}
	stats.binaryFramesDecoded.Add(1)
	stats.binaryBytesDecoded.Add(uint64(len(frame)))
	return env, nil
}

// decodeBinaryBody decodes a typed binary body into out. The body-kind tag
// recorded at Decode time must match the Go type the caller asked for; a
// mismatch is a protocol violation, reported before any field is read.
func decodeBinaryBody(env Envelope, out any) error {
	target, ok := out.(interface{ binKind() byte })
	if !ok {
		return fmt.Errorf("wire %s: binary body cannot decode into %T", env.Type, out)
	}
	if target.binKind() != env.binKind {
		return fmt.Errorf("wire %s: binary body kind %d does not match requested %T", env.Type, env.binKind, out)
	}
	r := breader{buf: []byte(env.Body)}
	switch out := out.(type) {
	case *QueryReq:
		out.Subject = r.subject()
		out.Object = r.role()
		if n := r.count(); n > 0 {
			out.Constraints = make([]core.Constraint, n)
			for i := range out.Constraints {
				out.Constraints[i] = r.constraint()
			}
		}
		out.Direction = graph.Direction(r.svarint())
		out.TraceID = r.str()
		out.SpanID = r.str()
	case *ProofResp:
		out.Proof = r.proof(0)
	case *ProofsResp:
		out.Proofs = r.proofsAt(0)
	case *PublishReq:
		out.Delegation = r.delegation()
		out.Support = r.proofsAt(0)
		out.TTLSeconds = int(r.svarint())
		out.ShardEpoch = r.uvarint()
	case *RevokeReq:
		out.Delegation = core.DelegationID(r.str())
		out.ShardEpoch = r.uvarint()
	case *NotifyPush:
		out.Delegation = core.DelegationID(r.str())
		out.Kind = r.internedStr()
		out.At = r.time()
		out.Seq = r.uvarint()
		if r.bool() {
			out.Bundle = &SyncBundle{Delegation: r.delegation(), Support: r.proofsAt(0)}
		}
	case *SubscribeReq:
		out.Delegation = core.DelegationID(r.str())
	case *HasReq:
		out.Delegation = core.DelegationID(r.str())
	case *HasResp:
		out.Present = r.bool()
	case *SyncResp:
		out.Seq = r.uvarint()
		if n := r.count(); n > 0 {
			out.Bundles = make([]SyncBundle, n)
			for i := range out.Bundles {
				out.Bundles[i] = SyncBundle{Delegation: r.delegation(), Support: r.proofsAt(0)}
			}
		}
		if n := r.count(); n > 0 {
			out.Revoked = make([]core.DelegationID, n)
			for i := range out.Revoked {
				out.Revoked[i] = core.DelegationID(r.str())
			}
		}
	case *SubscribeAllResp:
		out.Seq = r.uvarint()
	case *ProveRoleReq:
		out.Role = r.role()
	}
	if err := r.done(); err != nil {
		return fmt.Errorf("wire %s: bad body: %w", env.Type, err)
	}
	return nil
}
