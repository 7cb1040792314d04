package logstore

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// indexDump renders the store's segment accounting and liveness index.
func indexDump(s *Store) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lines []string
	for _, seg := range s.segments {
		lines = append(lines, fmt.Sprintf("%s records=%d seq=[%d,%d] dead=%d",
			seg.name, seg.records, seg.minSeq, seg.maxSeq, seg.dead))
	}
	var locs []string
	for id, loc := range s.putLoc {
		locs = append(locs, fmt.Sprintf("put %s in %s at seq %d", id.Short(), loc.seg.name, loc.seq))
	}
	sort.Strings(locs)
	return strings.Join(append(lines, locs...), "\n")
}

// TestRecoveredIndexMatchesLive pins that append and recovery account a
// record the same way: after a mixed put/overwrite/delete/revoke run across
// many small segments, the per-segment records, seq span and dead counts and
// the put index of the live store equal those a reopen rebuilds from disk —
// before compaction and after it.
func TestRecoveredIndexMatchesLive(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	opts := testOpts()
	opts.SegmentBytes = 2 << 10

	s := open(t, dir, opts)
	seq := uint64(0)
	next := func() uint64 { seq++; return seq }
	for i := 0; i < 24; i++ {
		d := e.deleg(fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))
		if err := s.PutDelegation(next(), d, nil); err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 1: // overwritten in place
			if err := s.PutDelegation(next(), d, nil); err != nil {
				t.Fatal(err)
			}
		case 2: // deleted, and every other one published again
			if err := s.DeleteDelegation(next(), d.ID()); err != nil {
				t.Fatal(err)
			}
			if i%8 == 2 {
				if err := s.PutDelegation(next(), d, nil); err != nil {
					t.Fatal(err)
				}
			}
		case 3: // revoked: tombstone and delete share a seq
			at := next()
			if _, err := s.AddRevocation(at, d.ID(), testStart); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteDelegation(at, d.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func(when string) {
		t.Helper()
		live := indexDump(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = open(t, dir, opts)
		if recovered := indexDump(s); recovered != live {
			t.Fatalf("%s: recovered index differs from the live one\n--- live ---\n%s\n--- recovered ---\n%s",
				when, live, recovered)
		}
	}
	if n := len(s.segments); n < 4 {
		t.Fatalf("history fits %d segments; the test needs several sealed ones", n)
	}
	reopen("before compaction")
	before := indexDump(s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if indexDump(s) == before {
		t.Fatal("compaction changed nothing: the history holds no dead puts in sealed segments")
	}
	reopen("after compaction")
}
