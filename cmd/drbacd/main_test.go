package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/keyfile"
	"drbac/internal/logstore"
	"drbac/internal/wallet"
)

func writeBundles(t *testing.T, dir string) (first, second core.DelegationID) {
	t.Helper()
	org, err := core.NewIdentity("Org")
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewIdentity("User")
	if err != nil {
		t.Fatal(err)
	}
	entDir := core.NewDirectory(org.Entity(), user.Entity())
	issue := func(text string) *core.Delegation {
		parsed, err := core.ParseDelegation(text, entDir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Issue(org, parsed.Template, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := issue("[User -> Org.member] Org")
	d2 := issue("[Org.member -> Org.reader] Org")
	if err := keyfile.WriteBundle(filepath.Join(dir, "01_member.json"), keyfile.Bundle{Delegation: d1}); err != nil {
		t.Fatal(err)
	}
	if err := keyfile.WriteBundle(filepath.Join(dir, "02_reader.json"), keyfile.Bundle{Delegation: d2}); err != nil {
		t.Fatal(err)
	}
	// A non-JSON file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	return d1.ID(), d2.ID()
}

func TestLoadBundles(t *testing.T) {
	dir := t.TempDir()
	id1, id2 := writeBundles(t, dir)
	w := wallet.New(wallet.Config{})
	n, err := loadBundles(w, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d, want 2", n)
	}
	if !w.Contains(id1) || !w.Contains(id2) {
		t.Fatal("bundles not published")
	}
}

func TestLoadBundlesErrors(t *testing.T) {
	w := wallet.New(wallet.Config{})
	if _, err := loadBundles(w, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBundles(w, dir); err == nil {
		t.Fatal("malformed bundle accepted")
	}
}

// TestStateSurvivesRestart simulates a daemon restart: a wallet opened on a
// -state path must serve the same proofs afterwards and keep refusing
// delegations revoked before the restart, with no explicit save step.
func TestStateSurvivesRestart(t *testing.T) {
	org, err := core.NewIdentity("Org")
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewIdentity("User")
	if err != nil {
		t.Fatal(err)
	}
	entDir := core.NewDirectory(org.Entity(), user.Entity())
	issue := func(text string) *core.Delegation {
		parsed, err := core.ParseDelegation(text, entDir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Issue(org, parsed.Template, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	member := issue("[User -> Org.member] Org")
	reader := issue("[Org.member -> Org.reader] Org")
	doomed := issue("[User -> Org.writer] Org")

	statePath := filepath.Join(t.TempDir(), "state")
	w1, close1, _, err := openWallet(org, statePath, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*core.Delegation{member, reader, doomed} {
		if err := w1.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Revoke(doomed.ID(), org.ID()); err != nil {
		t.Fatal(err)
	}
	// Every mutation was durable when acknowledged; closing only releases
	// the directory for the reopen.
	close1()

	w2, close2, _, err := openWallet(org, statePath, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer close2()
	q := wallet.Query{
		Subject: core.SubjectEntity(user.ID()),
		Object:  core.Role{Namespace: org.ID(), Name: "reader"}, // via Org.member
	}
	if _, err := w2.QueryDirect(q); err != nil {
		t.Fatalf("restarted wallet cannot re-prove chain: %v", err)
	}
	if !w2.IsRevoked(doomed.ID()) {
		t.Fatal("revocation forgotten across restart")
	}
	if w2.Contains(doomed.ID()) {
		t.Fatal("revoked delegation restored into the graph")
	}
	if err := w2.Publish(doomed); err == nil {
		t.Fatal("restarted wallet accepted a previously revoked delegation")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing -key accepted")
	}
	if err := run([]string{"-key", filepath.Join(t.TempDir(), "missing.key")}); err == nil {
		t.Fatal("missing key file accepted")
	}
}

// legacyFixture copies one of the checked-in legacy JSON state files (see
// internal/wallet/testdata/legacy/README.md) to a fresh -state path.
func legacyFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "wallet", "testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// What every legacy fixture holds: three live bundles proving Maria ⇒
// BigISP.member (the last hop third-party, needing its stored support
// proof) and one revoked delegation; the two filestore*.json are at seq 5.
const (
	fixtureBigISP core.EntityID     = "2e4695f9e145de56f4efda6bee079a4d8f8151d74d9493fb4ba39c10e372e07a"
	fixtureMaria  core.EntityID     = "ad3aff0f52851856384b5a7b5f1c9a8be37f0c6c696d8e528d92cade694dfaba"
	fixtureDoomed core.DelegationID = "0db7295824bf8b2bc085598115b09252578006efc5e2008e344e104f7770ca76"
)

// TestMigrateJSONToLogStore drives the one-shot migration -state performs on
// a legacy JSON file, over every shape such a file can have: it opens as a
// log store serving the same proofs and refusing the same revoked ID, with a
// non-regressing changelog seq; the original survives byte-identical as
// .bak; legacy revocations are stamped once, not on every open; re-opening
// (migration already done) is a no-op — including after the two crash
// windows the rename scheme leaves.
func TestMigrateJSONToLogStore(t *testing.T) {
	org, err := core.NewIdentity("Org")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file   string
		minSeq uint64
	}{
		{"filestore.json", 5},
		{"filestore_pre_revocations.json", 5},
		{"walletstate.json", 4}, // no seq recorded: one per seeded record
	} {
		t.Run(tc.file, func(t *testing.T) {
			statePath := legacyFixture(t, tc.file)
			original, err := os.ReadFile(statePath)
			if err != nil {
				t.Fatal(err)
			}
			w, closeW, _, err := openWallet(org, statePath, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(statePath); err != nil || !fi.IsDir() {
				t.Fatalf("state path is not a log directory after migration (err=%v)", err)
			}
			if bak, err := os.ReadFile(statePath + ".bak"); err != nil || !bytes.Equal(bak, original) {
				t.Fatalf("original JSON state not kept intact as .bak (err=%v)", err)
			}
			checkFixtureWallet(t, w, tc.minSeq)
			var stamped time.Time
			for _, r := range w.Revocations() {
				stamped = r.At
			}
			if err := w.Publish(issueBy(t, org, "[Org -> Org.extra] Org")); err != nil {
				t.Fatal(err)
			}
			postSeq := w.Seq()
			closeW()

			// Second open: already a log store, no migration, state intact.
			w2, close2, _, err := openWallet(org, statePath, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer close2()
			if w2.Len() != 4 || w2.Seq() != postSeq {
				t.Fatalf("re-opened log store diverged: len=%d seq=%d want len=4 seq=%d",
					w2.Len(), w2.Seq(), postSeq)
			}
			checkFixtureWallet(t, w2, tc.minSeq)
			for _, r := range w2.Revocations() {
				if !r.At.Equal(stamped) {
					t.Fatalf("revocation instant drifted across reopen: %v != %v", r.At, stamped)
				}
			}
		})
	}

	// Crash window A: a half-seeded .migrating directory next to a JSON
	// file. The file is authoritative; migration redoes the seeding.
	pathA := legacyFixture(t, "filestore.json")
	if err := os.MkdirAll(pathA+".migrating", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pathA+".migrating", "00000001.seg"), []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	wA, closeA, _, err := openWallet(org, pathA, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFixtureWallet(t, wA, 5)
	closeA()

	// Crash window B: the rename to .bak happened but the seeded directory
	// never renamed into place. Opening finishes the rename.
	pathB := legacyFixture(t, "filestore.json")
	if err := migrateJSONToLog(pathB); err != nil {
		t.Fatal(err)
	}
	// Undo the final rename to reconstruct the window.
	if err := os.Rename(pathB, pathB+".migrating"); err != nil {
		t.Fatal(err)
	}
	wB, closeB, _, err := openWallet(org, pathB, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFixtureWallet(t, wB, 5)
	closeB()
}

// checkFixtureWallet asserts w serves what the legacy fixtures hold.
func checkFixtureWallet(t *testing.T, w *wallet.Wallet, minSeq uint64) {
	t.Helper()
	if _, err := w.QueryDirect(wallet.Query{
		Subject: core.SubjectEntity(fixtureMaria),
		Object:  core.Role{Namespace: fixtureBigISP, Name: "member"},
	}); err != nil {
		t.Fatalf("migrated wallet cannot re-prove the stored chain: %v", err)
	}
	if !w.IsRevoked(fixtureDoomed) || w.Contains(fixtureDoomed) {
		t.Fatal("migrated wallet lost the revocation")
	}
	if w.Len() < 3 || len(w.RevokedIDs()) != 1 {
		t.Fatalf("migrated wallet holds %d delegations, %d revocations; want 3 (or more), 1", w.Len(), len(w.RevokedIDs()))
	}
	if w.Seq() < minSeq {
		t.Fatalf("migration regressed the changelog seq: %d < %d", w.Seq(), minSeq)
	}
}

func issueBy(t *testing.T, who *core.Identity, text string) *core.Delegation {
	t.Helper()
	parsed, err := core.ParseDelegation(text, core.NewDirectory(who.Entity()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Issue(who, parsed.Template, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOpenWalletStateShapes pins the -state contract: no path is a memory
// wallet, a new path becomes a log directory, an existing directory is
// opened as one, and anything else at the path that is not a legacy JSON
// state file is refused untouched. (A legacy file: TestMigrateJSONToLogStore.)
func TestOpenWalletStateShapes(t *testing.T) {
	org, err := core.NewIdentity("Org")
	if err != nil {
		t.Fatal(err)
	}
	w, closer, health, err := openWallet(org, "", false, nil)
	if err != nil {
		t.Fatalf("stateless wallet: %v", err)
	}
	if _, ok := w.Store().(wallet.MemStore); !ok || health != nil {
		t.Fatalf("stateless wallet runs on %T (health func set: %v), want a MemStore and none", w.Store(), health != nil)
	}
	closer()

	statePath := filepath.Join(t.TempDir(), "state")
	w, closer, health, err = openWallet(org, statePath, false, nil)
	if err != nil {
		t.Fatalf("new -state path: %v", err)
	}
	if _, ok := w.Store().(*logstore.Store); !ok || health == nil {
		t.Fatalf("-state wallet runs on %T (health func set: %v), want the log store and one", w.Store(), health != nil)
	}
	if fi, err := os.Stat(statePath); err != nil || !fi.IsDir() {
		t.Fatalf("new -state path did not become a log directory (err=%v)", err)
	}
	d := issueBy(t, org, "[Org -> Org.member] Org")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	closer()

	w, closer, _, err = openWallet(org, statePath, false, nil)
	if err != nil {
		t.Fatalf("existing -state directory: %v", err)
	}
	if !w.Contains(d.ID()) {
		t.Fatal("existing log directory opened empty")
	}
	closer()

	junk := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(junk, []byte("not a wallet state"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWallet(org, junk, false, nil); err == nil {
		t.Fatal("unparseable file at -state accepted")
	}
	if data, err := os.ReadFile(junk); err != nil || string(data) != "not a wallet state" {
		t.Fatalf("refused -state file was modified (err=%v)", err)
	}
}
