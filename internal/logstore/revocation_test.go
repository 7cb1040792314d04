package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/obs"
	"drbac/internal/wallet"
)

// TestRevokeIsOneCommitBatch: a revocation is one journal record, so a
// Revoke on a log-store wallet waits for one group-commit fsync, not two.
func TestRevokeIsOneCommitBatch(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	reg := obs.NewRegistry()
	opts := testOpts()
	opts.Registry = reg
	s := open(t, filepath.Join(t.TempDir(), "log"), opts)
	w := wallet.New(wallet.Config{Owner: e.ids["BigISP"], Store: s})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	// The syncer counts a batch just after releasing its appenders: wait for
	// the publish's batch to be counted before taking the baseline.
	batches := func() int64 { return reg.Snapshot().Counters["drbac_logstore_commit_batches_total"] }
	for deadline := time.Now().Add(5 * time.Second); batches() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("publish flushed %d batches, want 1", batches())
		}
	}
	if err := w.Revoke(d.ID(), e.ids["BigISP"].ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // waits for the syncer: every batch is counted
		t.Fatal(err)
	}
	if got := batches() - 1; got != 1 {
		t.Errorf("one Revoke flushed %d commit batches, want 1", got)
	}
	if got := reg.Snapshot().Counters["drbac_logstore_appends_total"]; got != 2 {
		t.Errorf("publish + revoke appended %d records, want 2", got)
	}
}

// TestTwoRecordRevocationJournalLoads: builds before a revocation implied
// the delete wrote each one as a rev followed by a del at the same seq. The
// checked-in journal was written that way, and a wallet over it must load
// what the writing wallet held: delegations, revocations with their
// instants, seq and snapshot.
func TestTwoRecordRevocationJournalLoads(t *testing.T) {
	src := filepath.Join("testdata", "two-record-revocations")
	dir := filepath.Join(t.TempDir(), "log")
	if err := os.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	revs, dels := make(map[uint64]bool), 0
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			switch rec.Kind {
			case KindRevoke:
				revs[rec.Seq] = true
			case KindDelete:
				if revs[rec.Seq] {
					dels++
				}
			}
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if len(revs) != 3 || dels != 3 {
		t.Fatalf("fixture holds %d revocations with %d same-seq deletes, want the two-record shape 3 / 3", len(revs), dels)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "two-record-revocations.state"))
	if err != nil {
		t.Fatal(err)
	}
	w := wallet.New(wallet.Config{Clock: clock.NewFake(testStart.Add(2 * time.Hour)), Store: open(t, dir, testOpts())})
	if got := walletState(w) + "\n"; got != string(want) {
		t.Errorf("wallet over the two-record journal:\n%s\nwant, as the writing wallet held:\n%s", got, want)
	}
}

// TestRevokedBundleReclaimedByCompaction: the revocation record alone kills
// the bundle's put, so compaction reclaims it, and a reopen neither holds
// the bundle nor forgets the revocation.
func TestRevokedBundleReclaimedByCompaction(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	opts := testOpts()
	opts.SegmentBytes = 2 << 10
	s := open(t, dir, opts)
	cfg := wallet.Config{Owner: e.ids["BigISP"], Clock: clock.NewFake(testStart)}
	cfg.Store = s
	w := wallet.New(cfg)
	doomed := e.deleg("[Maria -> BigISP.r0] BigISP")
	if err := w.Publish(doomed); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 12; i++ { // seal the segment holding doomed's put
		if err := w.Publish(e.deleg(fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Revoke(doomed.ID(), e.ids["BigISP"].ID()); err != nil {
		t.Fatal(err)
	}
	if info, err := Inspect(dir); err != nil || info.Bundles != 11 || info.Revocations != 1 {
		t.Fatalf("Inspect before compaction = %+v (%v), want 11 bundles and 1 revocation", info, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	puts, revs := 0, 0
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			switch {
			case rec.ID != doomed.ID():
			case rec.Kind == KindPut:
				puts++
			case rec.Kind == KindRevoke:
				revs++
			default:
				t.Errorf("%s holds a %s record for the revoked delegation", filepath.Base(path), rec.Kind)
			}
		}
	}
	if puts != 0 || revs != 1 {
		t.Errorf("after compaction the log holds %d puts and %d revocations of the revoked delegation, want 0 and 1", puts, revs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Store = open(t, dir, testOpts())
	w2 := wallet.New(cfg)
	if w2.Contains(doomed.ID()) || !w2.IsRevoked(doomed.ID()) || w2.Len() != 11 {
		t.Fatalf("reopened wallet: holds revoked=%v, revoked=%v, %d delegations; want false true 11",
			w2.Contains(doomed.ID()), w2.IsRevoked(doomed.ID()), w2.Len())
	}
	if err := w2.Publish(doomed); err == nil || !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("reopened wallet re-published the revoked delegation: %v", err)
	}
}
