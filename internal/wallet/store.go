package wallet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"drbac/internal/core"
)

// StoredBundle pairs a delegation with the support proofs it was published
// with, the unit of durable wallet state.
type StoredBundle struct {
	Delegation *core.Delegation `json:"delegation"`
	Support    []*core.Proof    `json:"support,omitempty"`
}

// Revocation records that a delegation was revoked and when. The instant is
// the wallet's clock reading at revocation time and is persisted by durable
// stores, so a restarted wallet reports true revocation times instead of
// restamping them at load.
type Revocation struct {
	ID core.DelegationID `json:"id"`
	At time.Time         `json:"at"`
}

// Store is the wallet's system of record: delegations with their support
// proofs plus the set of observed revocations. The graph index and the
// proof cache are derived views rebuilt from a Store at construction.
//
// Every mutation carries the wallet changelog sequence number it was
// accepted under (the wallet stamps seq under its mutation lock and threads
// it into the store write), so an append-only store can frame each record
// with its seq and a reopened store can report the durable high-water mark
// through Seq. One logical mutation may issue more than one store call with
// the same seq (a revocation records the tombstone and then deletes the
// bundle); seqs are therefore non-decreasing, not strictly increasing,
// across store writes.
//
// Implementations must be safe for concurrent use. Read methods do not
// return errors because every implementation answers them from memory;
// write methods report persistence failures.
type Store interface {
	// PutDelegation durably records d and its support proofs under seq.
	// Re-putting an existing delegation overwrites its support set.
	PutDelegation(seq uint64, d *core.Delegation, support []*core.Proof) error
	// DeleteDelegation removes a delegation from the durable set under seq.
	DeleteDelegation(seq uint64, id core.DelegationID) error
	// AddRevocation durably records id as revoked at the given instant under
	// seq, reporting whether the revocation is new. Revocations are
	// permanent. A store that fails to persist one still records it in
	// memory, so the running wallet keeps refusing the credential; only
	// durability across a restart is at risk, which the error reports.
	AddRevocation(seq uint64, id core.DelegationID, at time.Time) (added bool, err error)
	// IsRevoked reports whether a revocation has been recorded for id.
	IsRevoked(id core.DelegationID) bool
	// RevokedIDs lists every revoked delegation ID in unspecified order.
	RevokedIDs() []core.DelegationID
	// Revocations lists every recorded revocation with its instant, in
	// unspecified order.
	Revocations() []Revocation
	// Bundles lists every stored delegation for index replay.
	Bundles() []StoredBundle
	// Seq returns the highest mutation seq the store has recorded, 0 for a
	// fresh store. A wallet built on the store resumes its changelog from
	// this mark, so sequence numbers stay monotone across restarts of a
	// durably backed wallet.
	Seq() uint64
}

// SegmentData is one log-store segment as shipped to a bootstrapping
// replica: the raw record frames of a sealed segment file, or the valid
// prefix of the active segment.
type SegmentData struct {
	// Name is the segment's file name (diagnostic only).
	Name string
	// Sealed reports whether the segment is immutable on the source.
	Sealed bool
	// Data holds length-prefixed, CRC-framed records (see internal/logstore).
	Data []byte
}

// SegmentSnapshot is a consistent copy of a segmented store's record log,
// the payload of the syncSegments wire response.
type SegmentSnapshot struct {
	// Seq is the store's record high-water mark at capture.
	Seq uint64
	// Segments holds the shipped segments in replay order.
	Segments []SegmentData
}

// SegmentStore is implemented by stores that can ship their durable state
// as raw log segments, letting replicas bootstrap by replaying record
// frames instead of decoding a monolithic snapshot (O(delta) catch-up).
type SegmentStore interface {
	Store
	// SnapshotSegments captures every segment holding records with seq
	// greater than afterSeq, consistent with respect to concurrent
	// mutations. afterSeq 0 captures the full log.
	SnapshotSegments(afterSeq uint64) (SegmentSnapshot, error)
}

// MemStore is the default in-memory Store. Reads take a shared lock so the
// hot revocation-check path never serializes behind other readers.
type MemStore struct {
	mu      sync.RWMutex
	seq     uint64
	bundles map[core.DelegationID]StoredBundle
	revoked map[core.DelegationID]time.Time
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		bundles: make(map[core.DelegationID]StoredBundle),
		revoked: make(map[core.DelegationID]time.Time),
	}
}

// PutDelegation implements Store.
func (s *MemStore) PutDelegation(seq uint64, d *core.Delegation, support []*core.Proof) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bundles[d.ID()] = StoredBundle{Delegation: d, Support: support}
	s.noteSeqLocked(seq)
	return nil
}

// DeleteDelegation implements Store.
func (s *MemStore) DeleteDelegation(seq uint64, id core.DelegationID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.bundles, id)
	s.noteSeqLocked(seq)
	return nil
}

// AddRevocation implements Store.
func (s *MemStore) AddRevocation(seq uint64, id core.DelegationID, at time.Time) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.revoked[id]; ok {
		return false, nil
	}
	s.revoked[id] = at
	s.noteSeqLocked(seq)
	return true, nil
}

// IsRevoked implements Store.
func (s *MemStore) IsRevoked(id core.DelegationID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.revoked[id]
	return ok
}

// RevokedIDs implements Store.
func (s *MemStore) RevokedIDs() []core.DelegationID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]core.DelegationID, 0, len(s.revoked))
	for id := range s.revoked {
		out = append(out, id)
	}
	return out
}

// Revocations implements Store.
func (s *MemStore) Revocations() []Revocation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Revocation, 0, len(s.revoked))
	for id, at := range s.revoked {
		out = append(out, Revocation{ID: id, At: at})
	}
	return out
}

// Bundles implements Store.
func (s *MemStore) Bundles() []StoredBundle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]StoredBundle, 0, len(s.bundles))
	for _, b := range s.bundles {
		out = append(out, b)
	}
	return out
}

// Seq implements Store.
func (s *MemStore) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// noteSeqLocked raises the store's high-water mark. Callers hold s.mu.
func (s *MemStore) noteSeqLocked(seq uint64) {
	if seq > s.seq {
		s.seq = seq
	}
}

// LegacyState is the content of a single-file JSON wallet state, the format
// daemons kept at -state before the segmented log store (internal/logstore).
// Nothing writes it any more; it is read once, to migrate or inspect it.
type LegacyState struct {
	// Seq is the changelog high-water mark, 0 in files that predate it.
	Seq         uint64
	Bundles     []StoredBundle
	Revocations []Revocation
}

// ReadLegacyState reads the JSON wallet state file at path and writes
// nothing: a path.tmp beside it may be the in-flight write of an older
// daemon that still owns the file, and is left alone. The newest shape
// carries seq and the revocation instants; its older subsets (down to the
// keyfile wallet state, bundles + revoked) carry only the revoked IDs, which
// are stamped with the read time — the best available, and stamped once,
// because the migration persists the stamps.
func ReadLegacyState(path string) (LegacyState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return LegacyState{}, err
	}
	var file struct {
		Seq         uint64              `json:"seq"`
		Bundles     []StoredBundle      `json:"bundles"`
		Revoked     []core.DelegationID `json:"revoked"`
		Revocations []Revocation        `json:"revocations"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return LegacyState{}, fmt.Errorf("wallet state %s: %w", path, err)
	}
	st := LegacyState{Seq: file.Seq, Revocations: file.Revocations}
	if len(st.Revocations) == 0 {
		now := time.Now()
		for _, id := range file.Revoked {
			st.Revocations = append(st.Revocations, Revocation{ID: id, At: now})
		}
	}
	for _, b := range file.Bundles {
		if b.Delegation != nil {
			st.Bundles = append(st.Bundles, b)
		}
	}
	return st, nil
}

// SyncDir fsyncs a directory, making a just-renamed file's directory entry
// durable. Platforms that do not support fsync on directories report the
// failure as success after a best-effort attempt. Shared with the segmented
// log store, whose segment creates and compaction renames need the same
// durability step.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && !supportsDirSync(err) {
		return nil
	}
	return err
}

// supportsDirSync reports whether a directory-fsync error is a real I/O
// failure (true) rather than the platform refusing the operation (false).
func supportsDirSync(err error) bool {
	var pe *os.PathError
	if errors.As(err, &pe) {
		msg := pe.Err.Error()
		if msg == "invalid argument" || msg == "operation not supported" || msg == "not supported" {
			return false
		}
	}
	return true
}
