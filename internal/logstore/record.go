package logstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"drbac/internal/core"
	"drbac/internal/wallet"
)

// RecordKind discriminates log records.
type RecordKind string

// Record kinds. Put and Delete carry a delegation lifecycle change; Revoke
// is a permanent tombstone; Header opens every segment file and carries
// segment metadata instead of wallet state.
const (
	KindHeader RecordKind = "hdr"
	KindPut    RecordKind = "put"
	KindDelete RecordKind = "del"
	KindRevoke RecordKind = "rev"
)

// formatVersion is written into every segment header; readers reject
// segments from a newer format.
const formatVersion = 1

// Record is one framed entry in a segment: a seq-stamped mutation (put,
// delete, revoke) or the segment header. Records are JSON inside a binary
// frame (see EncodeFrame) so the framing stays format-agnostic while the
// payload reuses the canonical delegation serialization.
type Record struct {
	Seq  uint64            `json:"seq,omitempty"`
	Kind RecordKind        `json:"kind"`
	ID   core.DelegationID `json:"id,omitempty"`
	// At is the revocation instant of a KindRevoke record.
	At     time.Time            `json:"at,omitempty"`
	Bundle *wallet.StoredBundle `json:"bundle,omitempty"`

	// Header-only fields.
	Version int `json:"version,omitempty"`
	// Compacted marks a segment rewritten by the compactor: it holds only
	// records that were live at compaction time plus tombstones.
	Compacted bool `json:"compacted,omitempty"`
}

// holdsBundle reports whether a put record carries the bundle it records; one
// that does not holds no state.
func (r Record) holdsBundle() bool { return r.Bundle != nil && r.Bundle.Delegation != nil }

// fold is the state a record log replays to, built one record at a time:
// what Open recovers for Load and what Inspect counts.
type fold struct {
	seq     uint64
	bundles map[core.DelegationID]wallet.StoredBundle
	revoked map[core.DelegationID]time.Time
}

func newFold() *fold {
	return &fold{
		bundles: make(map[core.DelegationID]wallet.StoredBundle),
		revoked: make(map[core.DelegationID]time.Time),
	}
}

// apply replays one record: a put supersedes the ID's earlier put, a delete
// removes it, a revocation is for good.
func (f *fold) apply(rec Record) {
	if rec.Seq > f.seq {
		f.seq = rec.Seq
	}
	switch rec.Kind {
	case KindPut:
		if rec.holdsBundle() {
			f.bundles[rec.ID] = *rec.Bundle
		}
	case KindDelete:
		delete(f.bundles, rec.ID)
	case KindRevoke:
		f.revoked[rec.ID] = rec.At
	}
}

func (f *fold) state() wallet.State {
	st := wallet.State{Seq: f.seq}
	for _, b := range f.bundles {
		st.Bundles = append(st.Bundles, b)
	}
	for id, at := range f.revoked {
		st.Revocations = append(st.Revocations, wallet.Revocation{ID: id, At: at})
	}
	return st
}

// Frame layout: a 4-byte big-endian payload length, a 4-byte CRC-32
// (Castagnoli) of the payload, then the JSON payload. The CRC lets recovery
// distinguish a cleanly written record from a torn or bit-rotted tail.
const frameHeaderLen = 8

// maxFrameLen bounds a single record frame. Delegation bundles are a few
// KiB even with deep support chains; anything beyond this is corruption,
// and bounding it keeps a flipped length byte from driving a giant
// allocation during recovery or compaction.
const maxFrameLen = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame appends rec's wire frame to buf and returns the extended
// slice.
func EncodeFrame(buf []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("logstore: encode %s record: %w", rec.Kind, err)
	}
	if len(payload) > maxFrameLen {
		return buf, fmt.Errorf("logstore: record of %d bytes exceeds frame limit", len(payload))
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// DecodeFrame reads one frame from the front of data, returning the record
// and the number of bytes consumed. It reports ok=false — with n holding
// the bytes that are cleanly decodable before the problem — when the frame
// is torn (short), zero-filled, CRC-damaged, or otherwise invalid; callers
// treat everything from that offset on as an unacknowledged tail.
func DecodeFrame(data []byte) (rec Record, n int, ok bool) {
	if len(data) < frameHeaderLen {
		return Record{}, 0, false
	}
	length := binary.BigEndian.Uint32(data[0:4])
	if length == 0 || length > maxFrameLen {
		// A zero length is what a zero-filled (preallocated but unwritten)
		// tail decodes to; an oversized one is a corrupt length field.
		return Record{}, 0, false
	}
	if uint32(len(data)-frameHeaderLen) < length {
		return Record{}, 0, false
	}
	payload := data[frameHeaderLen : frameHeaderLen+int(length)]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:8]) {
		return Record{}, 0, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, false
	}
	return rec, frameHeaderLen + int(length), true
}

// DecodeSegment decodes every frame in data, the contents of one sealed
// segment file as compaction reads it. Unlike recovery — which truncates a
// torn tail in place — a sealed segment was synced whole before it sealed,
// so any undecodable frame is an error, not a tail to discard. The leading
// header record is validated and dropped from the returned slice.
func DecodeSegment(data []byte) ([]Record, error) {
	var out []Record
	off := 0
	for off < len(data) {
		rec, n, ok := DecodeFrame(data[off:])
		if !ok {
			return nil, fmt.Errorf("logstore: bad frame at offset %d of %d-byte segment", off, len(data))
		}
		off += n
		if rec.Kind == KindHeader {
			if rec.Version > formatVersion {
				return nil, fmt.Errorf("logstore: segment format v%d is newer than supported v%d", rec.Version, formatVersion)
			}
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}
