package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/subs"
	"drbac/internal/wallet"
)

var testStart = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// env mints signed delegations for store tests.
type env struct {
	t   testing.TB
	ids map[string]*core.Identity
	dir *core.MemDirectory
}

func newEnv(t testing.TB, names ...string) *env {
	t.Helper()
	e := &env{t: t, ids: make(map[string]*core.Identity), dir: core.NewDirectory()}
	for i, name := range names {
		seed := make([]byte, 32)
		seed[0] = byte(i + 1)
		copy(seed[1:], name)
		id, err := core.IdentityFromSeed(name, seed)
		if err != nil {
			t.Fatalf("identity %s: %v", name, err)
		}
		e.ids[name] = id
		e.dir.Add(id.Entity())
	}
	return e
}

func (e *env) deleg(text string) *core.Delegation {
	e.t.Helper()
	parsed, err := core.ParseDelegation(text, e.dir)
	if err != nil {
		e.t.Fatalf("parse %q: %v", text, err)
	}
	var issuer *core.Identity
	for _, id := range e.ids {
		if id.ID() == parsed.Issuer.ID() {
			issuer = id
		}
	}
	if issuer == nil {
		e.t.Fatalf("no identity for issuer of %q", text)
	}
	d, err := core.Issue(issuer, parsed.Template, testStart)
	if err != nil {
		e.t.Fatalf("issue %q: %v", text, err)
	}
	return d
}

// testOpts disables background compaction so tests control every pass.
func testOpts() Options {
	return Options{CompactInterval: -1}
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestLogStoreRoundTrip(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Mark")
	dir := filepath.Join(t.TempDir(), "log")

	s1 := open(t, dir, testOpts())
	keep := e.deleg("[Maria -> BigISP.member] BigISP")
	gone := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	if err := s1.PutDelegation(1, keep, nil); err != nil {
		t.Fatal(err)
	}
	if err := s1.PutDelegation(2, gone, nil); err != nil {
		t.Fatal(err)
	}
	revokedAt := testStart.Add(time.Hour)
	if added, err := s1.AddRevocation(3, gone.ID(), revokedAt); err != nil || !added {
		t.Fatalf("AddRevocation = (%v, %v)", added, err)
	}
	if err := s1.DeleteDelegation(3, gone.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, testOpts())
	st := s2.Load()
	if len(st.Bundles) != 1 || st.Bundles[0].Delegation.ID() != keep.ID() {
		t.Fatalf("recovered bundles = %v, want only %s", st.Bundles, keep.ID())
	}
	if len(st.Revocations) != 1 || st.Revocations[0].ID != gone.ID() || !st.Revocations[0].At.Equal(revokedAt) {
		t.Fatalf("recovered revocations = %+v, want %s at its original instant %v", st.Revocations, gone.ID(), revokedAt)
	}
	if st.Seq != 3 {
		t.Fatalf("recovered Seq = %d, want 3", st.Seq)
	}
	// The state is handed over once: the store keeps no copy of it.
	if again := s2.Load(); again.Seq != 0 || len(again.Bundles) != 0 || len(again.Revocations) != 0 {
		t.Fatalf("second Load = %+v, want the empty state", again)
	}
}

func TestLogStoreSealsAndReplaysManySegments(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	opts := testOpts()
	opts.SegmentBytes = 2 << 10 // force frequent seals

	s1 := open(t, dir, opts)
	const n = 40
	for i := 0; i < n; i++ {
		d := e.deleg(fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))
		if err := s1.PutDelegation(uint64(i+1), d, nil); err != nil {
			t.Fatal(err)
		}
	}
	s1.mu.Lock()
	segs := len(s1.segments)
	s1.mu.Unlock()
	if segs < 3 {
		t.Fatalf("got %d segments at a %dB threshold, expected several", segs, opts.SegmentBytes)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, opts)
	if st := s2.Load(); len(st.Bundles) != n || st.Seq != n {
		t.Fatalf("recovered %d bundles at seq %d, want %d at %d", len(st.Bundles), st.Seq, n, n)
	}
	// The reopened store appends to the recovered active segment.
	extra := e.deleg("[Maria -> BigISP.extra] BigISP")
	if err := s2.PutDelegation(n+1, extra, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLogStoreTornTailRecovery covers the three crash shapes a torn active
// segment can take: a partial frame, a CRC-damaged record, and a zero-filled
// tail. In every case recovery keeps the acknowledged prefix, truncates the
// rest, and the store accepts appends again.
func TestLogStoreTornTailRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"partial frame", func(t *testing.T, path string) {
			frame, err := EncodeFrame(nil, Record{Seq: 99, Kind: KindDelete, ID: "torn"})
			if err != nil {
				t.Fatal(err)
			}
			appendBytes(t, path, frame[:len(frame)-3])
		}},
		{"bad crc", func(t *testing.T, path string) {
			frame, err := EncodeFrame(nil, Record{Seq: 99, Kind: KindDelete, ID: "torn"})
			if err != nil {
				t.Fatal(err)
			}
			frame[len(frame)-1] ^= 1
			appendBytes(t, path, frame)
		}},
		{"zero fill", func(t *testing.T, path string) {
			appendBytes(t, path, make([]byte, 256))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Maria")
			dir := filepath.Join(t.TempDir(), "log")
			s1 := open(t, dir, testOpts())
			keep := e.deleg("[Maria -> BigISP.member] BigISP")
			if err := s1.PutDelegation(1, keep, nil); err != nil {
				t.Fatal(err)
			}
			s1.mu.Lock()
			active := s1.segments[len(s1.segments)-1].name
			s1.mu.Unlock()
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			tc.tear(t, filepath.Join(dir, active))

			reg := obs.NewRegistry()
			opts := testOpts()
			opts.Registry = reg
			s2 := open(t, dir, opts)
			st := s2.Load()
			if len(st.Bundles) != 1 || st.Bundles[0].Delegation.ID() != keep.ID() {
				t.Fatalf("recovered bundles = %v, want the acknowledged prefix", st.Bundles)
			}
			if len(st.Revocations) != 0 || st.Seq != 1 {
				t.Fatalf("torn tail leaked into state: seq=%d revocations=%v", st.Seq, st.Revocations)
			}
			if got := reg.Snapshot().Counters["drbac_logstore_recovery_truncations_total"]; got != 1 {
				t.Fatalf("recovery_truncations_total = %d, want 1", got)
			}
			// The file was cut back to a frame boundary: appends land clean
			// and survive another reopen.
			extra := e.deleg("[Maria -> BigISP.extra] BigISP")
			if err := s2.PutDelegation(2, extra, nil); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := open(t, dir, testOpts())
			if got := len(s3.Load().Bundles); got != 2 {
				t.Fatalf("bundles after post-tear append = %d, want 2", got)
			}
		})
	}
}

func appendBytes(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogStoreCompactionDropsDeadPuts seals segments full of bundles that
// are then overwritten, deleted, or revoked, and checks one compaction pass
// reclaims their bytes while preserving tombstones and live state across a
// reopen.
func TestLogStoreCompactionDropsDeadPuts(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	opts := testOpts()
	opts.SegmentBytes = 2 << 10
	reg := obs.NewRegistry()
	opts.Registry = reg

	s := open(t, dir, opts)
	const n = 20
	seq := uint64(0)
	ids := make([]core.DelegationID, n)
	for i := 0; i < n; i++ {
		d := e.deleg(fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))
		ids[i] = d.ID()
		seq++
		if err := s.PutDelegation(seq, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the first half: revoke + delete, as the wallet does.
	for i := 0; i < n/2; i++ {
		seq++
		if _, err := s.AddRevocation(seq, ids[i], testStart.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteDelegation(seq, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := dirSize(t, dir)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := dirSize(t, dir)
	if after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	snap := reg.Snapshot()
	if snap.Counters["drbac_logstore_compactions_total"] == 0 {
		t.Fatal("compactions_total = 0 after a shrinking pass")
	}
	if info, err := Inspect(dir); err != nil || info.Bundles != n/2 {
		t.Fatalf("bundles after compaction = %d (%v), want %d", info.Bundles, err, n/2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := open(t, dir, testOpts()).Load()
	if got := len(st.Bundles); got != n/2 {
		t.Fatalf("bundles after compacted reopen = %d, want %d", got, n/2)
	}
	revoked := make(map[core.DelegationID]bool)
	for _, r := range st.Revocations {
		revoked[r.ID] = true
	}
	for i := 0; i < n/2; i++ {
		if !revoked[ids[i]] {
			t.Fatalf("revocation tombstone for %s lost to compaction", ids[i])
		}
	}
	if st.Seq != seq {
		t.Fatalf("Seq after compacted reopen = %d, want %d", st.Seq, seq)
	}
}

// TestLogStoreKillDuringCompaction models a crash between writing the
// compacted temp file and renaming it: both the original segment and the
// .cmp leftover exist. Recovery must drop the temp and replay the original.
func TestLogStoreKillDuringCompaction(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	opts := testOpts()
	opts.SegmentBytes = 2 << 10

	s := open(t, dir, opts)
	const n = 12
	for i := 0; i < n; i++ {
		d := e.deleg(fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))
		if err := s.PutDelegation(uint64(i+1), d, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	first := s.segments[0].name
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A half-finished compaction: valid-looking compacted content that never
	// got renamed into place. The original segment stays authoritative.
	cmp, err := EncodeFrame(nil, Record{Kind: KindHeader, Version: formatVersion, Compacted: true})
	if err != nil {
		t.Fatal(err)
	}
	cmpPath := filepath.Join(dir, first[:len(first)-len(segExt)]+segCmpExt)
	if err := os.WriteFile(cmpPath, cmp, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, testOpts())
	if got := len(s2.Load().Bundles); got != n {
		t.Fatalf("recovered %d bundles with stale .cmp present, want %d", got, n)
	}
	if _, err := os.Stat(cmpPath); !os.IsNotExist(err) {
		t.Fatalf("stale compaction temp survived recovery: stat err = %v", err)
	}
}

// TestLogStoreConcurrentAppends hammers the group-commit path from many
// goroutines; run under -race this doubles as the locking proof. Every
// acknowledged append must survive a reopen.
func TestLogStoreConcurrentAppends(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	opts := testOpts()
	opts.SegmentBytes = 8 << 10
	reg := obs.NewRegistry()
	opts.Registry = reg

	const workers, perWorker = 8, 10
	delegs := make([]*core.Delegation, workers*perWorker)
	for i := range delegs {
		delegs[i] = e.deleg(fmt.Sprintf("[Maria -> BigISP.c%d] BigISP", i))
	}

	s := open(t, dir, opts)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				if err := s.PutDelegation(uint64(n+1), delegs[n], nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if snap.Counters["drbac_logstore_appends_total"] != workers*perWorker {
		t.Fatalf("appends_total = %d, want %d", snap.Counters["drbac_logstore_appends_total"], workers*perWorker)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, testOpts())
	if got := len(s2.Load().Bundles); got != workers*perWorker {
		t.Fatalf("recovered %d bundles, want %d", got, workers*perWorker)
	}
}

// walletState renders everything a wallet holds in memory canonically: its
// seq, its delegations, its revocations with their instants, and the
// snapshot it would hand a replica (bundles with the delegations of their
// support proofs).
func walletState(w *wallet.Wallet) string {
	lines := []string{fmt.Sprintf("seq %d", w.Seq())}
	for _, d := range w.Delegations() {
		lines = append(lines, "holds "+string(d.ID()))
	}
	for _, r := range w.Revocations() {
		lines = append(lines, fmt.Sprintf("revoked %s at %s", r.ID, r.At.UTC().Format(time.RFC3339Nano)))
	}
	snap := w.Snapshot()
	lines = append(lines, fmt.Sprintf("snapshot seq %d", snap.Seq))
	for _, b := range snap.Bundles {
		line := "snapshot bundle " + string(b.Delegation.ID())
		for _, sp := range b.Support {
			for _, sd := range sp.Delegations() {
				line += " +" + sd.ID().Short()
			}
		}
		lines = append(lines, line)
	}
	for _, id := range snap.Revoked {
		lines = append(lines, "snapshot revoked "+string(id))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestLogStoreBackedWallet runs the wallet API end to end on a log store —
// publish (a third-party delegation with its support proof included), revoke,
// expire, re-publish over a held delegation and after a removal — then
// restarts: the wallet rebuilt from Load must be the wallet that was running
// (delegations, revocation instants, seq, snapshot) and must re-prove from
// the replayed bundles.
func TestLogStoreBackedWallet(t *testing.T) {
	we := newEnv(t, "BigISP", "Mark", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	clk := clock.NewFake(testStart)
	cfg := wallet.Config{Owner: we.ids["BigISP"], Directory: we.dir, Clock: clk}

	s1 := open(t, dir, testOpts())
	cfg.Store = s1
	w1 := wallet.New(cfg)
	d1 := we.deleg("[Mark -> BigISP.memberServices] BigISP")
	d2 := we.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")
	d3 := we.deleg("[Maria -> BigISP.member] Mark")
	brief := we.deleg("[Maria -> BigISP.guest] BigISP <expiry:2026-07-06T12:30:00Z>")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pub := range []struct {
		d       *core.Delegation
		support []*core.Proof
	}{{d1, nil}, {d2, nil}, {d3, []*core.Proof{sup}}, {brief, nil}, {d3, nil} /* support from the graph this time */} {
		if err := w1.Publish(pub.d, pub.support...); err != nil {
			t.Fatal(err)
		}
	}
	doomed := we.deleg("[Maria -> BigISP.memberServices] BigISP")
	if err := w1.Publish(doomed); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	if err := w1.Revoke(doomed.ID(), we.ids["BigISP"].ID()); err != nil {
		t.Fatal(err)
	}
	if n := w1.SweepExpired(); n != 1 {
		t.Fatalf("expiry sweep removed %d, want the brief delegation alone", n)
	}
	if !w1.DropReplicated(d2.ID(), subs.Stale) {
		t.Fatal("d2 was not held")
	}
	if err := w1.Publish(d2); err != nil { // back after its removal
		t.Fatal(err)
	}
	before := walletState(w1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, testOpts())
	cfg.Store = s2
	w2 := wallet.New(cfg)
	if after := walletState(w2); after != before {
		t.Fatalf("the wallet rebuilt from Load is not the wallet that was running\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if w2.Len() != 3 || w2.Seq() != 10 {
		t.Fatalf("restarted wallet holds %d delegations at seq %d, want 3 at 10", w2.Len(), w2.Seq())
	}
	// Maria ⇒ BigISP.member needs d3 plus its stored support chain.
	p, err := w2.QueryDirect(wallet.Query{
		Subject: core.SubjectEntity(we.ids["Maria"].ID()),
		Object:  core.Role{Namespace: we.ids["BigISP"].ID(), Name: "member"},
	})
	if err != nil {
		t.Fatalf("restarted wallet cannot re-prove: %v", err)
	}
	uses := false
	for _, d := range p.Delegations() {
		uses = uses || d.ID() == d3.ID()
	}
	if !uses {
		t.Fatal("restarted proof does not use the stored third-party delegation")
	}
	if err := w2.Publish(doomed); err == nil {
		t.Fatal("restarted wallet accepted a revoked delegation")
	}
}

// TestCachedCopiesAreNotJournaled: the journal records what the wallet is
// home to. A TTL-coherent copy lives until its TTL lapses and no longer — a
// restart must not promote it to a permanent delegation nobody monitors —
// until a plain Publish makes the wallet its home.
func TestCachedCopiesAreNotJournaled(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	cfg := wallet.Config{Owner: e.ids["BigISP"], Clock: clock.NewFake(testStart)}

	s1 := open(t, dir, testOpts())
	cfg.Store = s1
	w1 := wallet.New(cfg)
	cached := e.deleg("[Maria -> BigISP.member] BigISP")
	adopted := e.deleg("[Maria -> BigISP.guest] BigISP")
	doomed := e.deleg("[Maria -> BigISP.admin] BigISP")
	for _, d := range []*core.Delegation{cached, adopted, doomed} {
		if err := w1.InsertCached(d, nil, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Publish(adopted); err != nil {
		t.Fatal(err)
	}
	w1.AcceptRevocation(doomed.ID())
	if w1.Len() != 2 || w1.CachedCount() != 1 {
		t.Fatalf("running wallet holds %d delegations, %d TTL-tracked; want 2, 1", w1.Len(), w1.CachedCount())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil || info.Bundles != 1 || info.Revocations != 1 {
		t.Fatalf("journal holds %d bundles, %d revocations (%v); want the adopted one and the revocation", info.Bundles, info.Revocations, err)
	}
	cfg.Store = open(t, dir, testOpts())
	w2 := wallet.New(cfg)
	if w2.Contains(cached.ID()) || !w2.Contains(adopted.ID()) || !w2.IsRevoked(doomed.ID()) || w2.Len() != 1 {
		t.Fatalf("restarted wallet: cached copy held=%v, adopted held=%v, doomed revoked=%v, %d delegations; want false true true 1",
			w2.Contains(cached.ID()), w2.Contains(adopted.ID()), w2.IsRevoked(doomed.ID()), w2.Len())
	}
}

// TestRevocationSurvivesFailedAppend pins the one write whose loss is
// unsafe: a revocation the log cannot record is in force in the wallet all
// the same, and the error says a restart may not know of it.
func TestRevocationSurvivesFailedAppend(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	s := open(t, filepath.Join(t.TempDir(), "log"), testOpts())
	w := wallet.New(wallet.Config{Owner: e.ids["BigISP"], Store: s})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // every later append fails
		t.Fatal(err)
	}
	if err := w.Revoke(d.ID(), e.ids["BigISP"].ID()); !errors.Is(err, errClosed) {
		t.Fatalf("Revoke over a failing log = %v, want the log's error", err)
	}
	if !w.IsRevoked(d.ID()) || w.Contains(d.ID()) || w.Publish(d) == nil {
		t.Fatal("revocation whose append failed is not in force in the wallet")
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

func TestInspect(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	opts := testOpts()
	opts.SegmentBytes = 2 << 10

	s := open(t, dir, opts)
	const n = 16
	var seq uint64
	ids := make([]core.DelegationID, n)
	for i := 0; i < n; i++ {
		d := e.deleg(fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))
		ids[i] = d.ID()
		seq++
		if err := s.PutDelegation(seq, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	seq++
	if _, err := s.AddRevocation(seq, ids[0], testStart); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDelegation(seq, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	// Inspect runs offline against the open store's directory.
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bundles != n-1 || info.Revocations != 1 || info.Seq != seq {
		t.Fatalf("Inspect = %d bundles / %d revocations / seq %d, want %d / 1 / %d",
			info.Bundles, info.Revocations, info.Seq, n-1, seq)
	}
	if len(info.Segments) < 2 {
		t.Fatalf("Inspect lists %d segments, expected several", len(info.Segments))
	}
	var statuses []string
	for _, seg := range info.Segments {
		statuses = append(statuses, seg.Status)
	}
	if statuses[len(statuses)-1] != "active" {
		t.Fatalf("last segment status = %q, want active (statuses %v)", statuses[len(statuses)-1], statuses)
	}
	hasCompacted := false
	for _, st := range statuses[:len(statuses)-1] {
		if st == "compacted" {
			hasCompacted = true
		} else if st != "sealed" {
			t.Fatalf("unexpected segment status %q", st)
		}
	}
	if !hasCompacted {
		t.Fatalf("no compacted segment reported after a pass (statuses %v)", statuses)
	}
}

func FuzzLogRecordDecode(f *testing.F) {
	frame, err := EncodeFrame(nil, Record{Seq: 7, Kind: KindRevoke, ID: "deadbeef", At: testStart})
	if err != nil {
		f.Fatal(err)
	}
	hdr, err := EncodeFrame(nil, Record{Kind: KindHeader, Version: formatVersion})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(append(append([]byte(nil), hdr...), frame...))
	f.Add(frame[:len(frame)-2])
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeFrame must never panic, never over-consume, and anything it
		// accepts must re-encode to the identical frame (a decode/encode
		// fixpoint keeps compaction rewrites byte-faithful).
		rec, n, ok := DecodeFrame(data)
		if !ok {
			if n != 0 {
				t.Fatalf("rejected frame consumed %d bytes", n)
			}
			return
		}
		if n < frameHeaderLen || n > len(data) {
			t.Fatalf("accepted frame consumed %d of %d bytes", n, len(data))
		}
		if _, err := EncodeFrame(nil, rec); err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		// DecodeSegment over the same bytes must agree with frame-at-a-time
		// decoding or fail cleanly.
		_, _ = DecodeSegment(data[:n])
	})
}

func TestDecodeSegmentRejectsNewerFormat(t *testing.T) {
	hdr, err := EncodeFrame(nil, Record{Kind: KindHeader, Version: formatVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSegment(hdr); err == nil {
		t.Fatal("segment with a newer format version decoded without error")
	}
	if !bytes.Contains(hdr, []byte("hdr")) {
		t.Fatal("header frame does not mention its kind") // sanity on the fixture
	}
}

// TestBackgroundCompactionFailureIsLoggedAndCounted damages a sealed
// segment so every background pass fails, and checks the failure reaches
// the Warn log, the failure counter and Health instead of vanishing.
func TestBackgroundCompactionFailureIsLoggedAndCounted(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	dir := filepath.Join(t.TempDir(), "log")
	var logs syncBuffer
	reg := obs.NewRegistry()
	s := open(t, dir, Options{
		SegmentBytes:    2 << 10,
		CompactInterval: 5 * time.Millisecond,
		Obs:             obs.New(obs.NewLogger(&logs, slog.LevelWarn, false), reg),
	})
	// Fill a few segments, then kill the first put so segment 1 is a
	// compaction candidate on every pass.
	var first core.DelegationID
	for i := 0; i < 20; i++ {
		d := e.deleg(fmt.Sprintf("[Maria -> BigISP.r%d] BigISP", i))
		if i == 0 {
			first = d.ID()
		}
		if err := s.PutDelegation(uint64(i+1), d, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Cut the sealed segment mid-frame before the delete makes it a
	// candidate: the compactor can no longer decode it.
	seg1 := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDelegation(21, first); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["drbac_logstore_compact_failures_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drbac_logstore_compact_failures_total never moved")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Health() == nil {
		t.Error("Health() = nil while compaction is failing")
	}
	if got := logs.String(); !strings.Contains(got, "background compaction failed") || !strings.Contains(got, segmentName(1)) {
		t.Errorf("no Warn record naming the segment; log:\n%s", got)
	}
}

// syncBuffer is a bytes.Buffer safe to write from the compactor goroutine
// while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}
