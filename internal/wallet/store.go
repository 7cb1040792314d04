package wallet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
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

// State is a wallet's durable content: what a Store's journal replays to,
// and what a legacy JSON state file held.
type State struct {
	// Seq is the changelog high-water mark: the highest seq any record
	// carries, 0 for an empty journal or a file that predates seqs.
	Seq         uint64
	Bundles     []StoredBundle
	Revocations []Revocation
}

// Store is the wallet's journal. The wallet's memory — the graph index and
// the revoked set — is the state; a Store records each accepted change to
// what the wallet is home to, so that a wallet built over it later starts
// from the same state. TTL-coherent cached copies (§4.2.1) are cache and
// never reach it.
//
// Every write carries the changelog sequence number the mutation was
// accepted under (the wallet stamps seq under its mutation lock), so an
// append-only store frames each record with its seq. One logical mutation
// issues at most one write (a revocation's tombstone also removes the
// bundle), and mutations that change no durable state (cached copies, TTL
// renewals) write nothing: seqs increase across writes, with gaps.
//
// Implementations must be safe for concurrent use. A write that fails
// changes nothing the wallet has decided: memory already holds the outcome,
// and the error reports that a restart may not.
type Store interface {
	// Load returns the state the journal replays to. wallet.New reads it
	// once, at construction; nothing else does.
	Load() State
	// PutDelegation records d and its support proofs under seq. A later put
	// of the same delegation supersedes the earlier one.
	PutDelegation(seq uint64, d *core.Delegation, support []*core.Proof) error
	// DeleteDelegation records under seq that the delegation left the wallet.
	DeleteDelegation(seq uint64, id core.DelegationID) error
	// AddRevocation records under seq that id was revoked at the given
	// instant, which also removes its bundle (no DeleteDelegation follows).
	// Revocations are permanent. The wallet decides whether a
	// revocation is new and writes only those, so added is always true and
	// the wallet does not read it.
	AddRevocation(seq uint64, id core.DelegationID, at time.Time) (added bool, err error)
}

// MemStore is the null journal of a wallet that lives in memory alone: it
// loads empty and records nothing.
type MemStore struct{}

var _ Store = MemStore{}

// NewMemStore returns the null journal.
func NewMemStore() MemStore { return MemStore{} }

// Load implements Store.
func (MemStore) Load() State { return State{} }

// PutDelegation implements Store.
func (MemStore) PutDelegation(uint64, *core.Delegation, []*core.Proof) error { return nil }

// DeleteDelegation implements Store.
func (MemStore) DeleteDelegation(uint64, core.DelegationID) error { return nil }

// AddRevocation implements Store.
func (MemStore) AddRevocation(uint64, core.DelegationID, time.Time) (bool, error) { return true, nil }

// ReadLegacyState reads the JSON wallet state file at path and writes
// nothing: a path.tmp beside it may be the in-flight write of an older
// daemon that still owns the file, and is left alone. The newest shape
// carries seq and the revocation instants; its older subsets (down to the
// keyfile wallet state, bundles + revoked) carry only the revoked IDs, which
// are stamped with the read time — the best available, and stamped once,
// because the migration persists the stamps.
func ReadLegacyState(path string) (State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return State{}, err
	}
	var file struct {
		Seq         uint64              `json:"seq"`
		Bundles     []StoredBundle      `json:"bundles"`
		Revoked     []core.DelegationID `json:"revoked"`
		Revocations []Revocation        `json:"revocations"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return State{}, fmt.Errorf("wallet state %s: %w", path, err)
	}
	st := State{Seq: file.Seq, Revocations: file.Revocations}
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
