package wallet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
)

// journal is a Store that keeps what it is handed the way a durable one
// does, in memory: the reference the tests load a second wallet from, or
// compare a wallet's memory against.
type journal struct {
	mu      sync.Mutex
	seq     uint64
	bundles map[core.DelegationID]StoredBundle
	revoked map[core.DelegationID]time.Time
}

func newJournal() *journal {
	return &journal{bundles: make(map[core.DelegationID]StoredBundle), revoked: make(map[core.DelegationID]time.Time)}
}

func (j *journal) PutDelegation(seq uint64, d *core.Delegation, support []*core.Proof) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq = max(j.seq, seq)
	j.bundles[d.ID()] = StoredBundle{Delegation: d, Support: support}
	return nil
}

func (j *journal) DeleteDelegation(seq uint64, id core.DelegationID) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq = max(j.seq, seq)
	delete(j.bundles, id)
	return nil
}

func (j *journal) AddRevocation(seq uint64, id core.DelegationID, at time.Time) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq = max(j.seq, seq)
	delete(j.bundles, id)
	j.revoked[id] = at
	return true, nil
}

func (j *journal) Load() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := State{Seq: j.seq}
	for _, b := range j.bundles {
		st.Bundles = append(st.Bundles, b)
	}
	for id, at := range j.revoked {
		st.Revocations = append(st.Revocations, Revocation{ID: id, At: at})
	}
	return st
}

// The null journal accepts every write, keeps none, and loads empty: a
// wallet on it starts from nothing however much the last one was told.
func TestMemStoreKeepsNothing(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := e.wallet(Config{Store: NewMemStore()})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	must(t, w.Publish(d))
	must(t, w.Revoke(d.ID(), e.id("BigISP").ID()))
	if st := w.Store().Load(); st.Seq != 0 || len(st.Bundles) != 0 || len(st.Revocations) != 0 {
		t.Fatalf("MemStore loaded %+v after a publish and a revoke, want the empty state", st)
	}
	if w.Seq() != 2 || !w.IsRevoked(d.ID()) {
		t.Fatalf("the wallet itself: seq %d, revoked %v; want 2, true", w.Seq(), w.IsRevoked(d.ID()))
	}
}

// Legacy-state fixtures under testdata/legacy, written by the last commit
// that had the JSON FileStore and keyfile.SaveWallet (see the README there):
// the Table 1 delegations — the third carrying its support proof — plus one
// delegation revoked an hour after testStart, at changelog seq 5.
const (
	legacyD1     core.DelegationID = "33e383d865e9d0ed0733ecbfd4cf22c2d7dff0de45593c4478f045176ffa1a4a"
	legacyD2     core.DelegationID = "65573d3383832787609c91cf76971d0a21fac375144ba375cf7271cbca49eae3"
	legacyD3     core.DelegationID = "58ce385cf0696aeec6680aad93a802f33b464e1eb441ed1352ca01b796e212ed"
	legacyDoomed core.DelegationID = "0db7295824bf8b2bc085598115b09252578006efc5e2008e344e104f7770ca76"
)

func TestReadLegacyState(t *testing.T) {
	revokedAt := testStart.Add(time.Hour)
	for _, tc := range []struct {
		name, file string
		seq        uint64
		restamped  bool // revocation instants absent from the file
	}{
		{"current shape", "filestore.json", 5, false},
		{"pre-revocations shape", "filestore_pre_revocations.json", 5, true},
		{"keyfile wallet-state shape", "walletstate.json", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A stray .tmp beside the file — the window a daemon still
			// writing this format is in between write and rename — must be
			// neither read nor removed.
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			fixture, err := os.ReadFile(filepath.Join("testdata", "legacy", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			tmp := []byte(`{"bundles":[{"deleg`)
			for name, data := range map[string][]byte{path: fixture, path + ".tmp": tmp} {
				if err := os.WriteFile(name, data, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			before := time.Now()
			st, err := ReadLegacyState(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Seq != tc.seq {
				t.Errorf("seq = %d, want %d", st.Seq, tc.seq)
			}
			got := make(map[core.DelegationID]StoredBundle)
			for _, b := range st.Bundles {
				got[b.Delegation.ID()] = b
			}
			if len(got) != 3 || len(got[legacyD3].Support) != 1 {
				t.Fatalf("bundles = %d (support on d3: %d), want 3 with d3's support proof", len(got), len(got[legacyD3].Support))
			}
			for _, id := range []core.DelegationID{legacyD1, legacyD2, legacyD3} {
				b, ok := got[id]
				if !ok {
					t.Fatalf("bundle %s missing", id.Short())
				}
				if err := b.Delegation.Verify(); err != nil {
					t.Errorf("bundle %s: signature lost: %v", id.Short(), err)
				}
			}
			if len(st.Revocations) != 1 || st.Revocations[0].ID != legacyDoomed {
				t.Fatalf("revocations = %+v, want the one doomed delegation", st.Revocations)
			}
			at := st.Revocations[0].At
			if tc.restamped && at.Before(before) {
				t.Errorf("restamp %v predates the read at %v", at, before)
			}
			if !tc.restamped && !at.Equal(revokedAt) {
				t.Errorf("revocation instant = %v, want the persisted %v", at, revokedAt)
			}
			for name, want := range map[string][]byte{path: fixture, path + ".tmp": tmp} {
				if data, err := os.ReadFile(name); err != nil || !bytes.Equal(data, want) {
					t.Errorf("%s changed by a read (err=%v)", filepath.Base(name), err)
				}
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 2 {
				t.Errorf("read left %d files in the directory, want the 2 it found", len(entries))
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		_, err := ReadLegacyState(filepath.Join(t.TempDir(), "state.json"))
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want os.ErrNotExist", err)
		}
	})
	t.Run("corrupt JSON", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.json")
		if err := os.WriteFile(path, []byte(`{"bundles":[`), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLegacyState(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("err = %v, want a parse error naming the file", err)
		}
	})
}
