package keyfile

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"drbac/internal/core"
)

func TestIdentityFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "id.json")
	f, err := GenerateIdentity("Alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteIdentity(path, f); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("identity file mode = %v, want 0600", info.Mode().Perm())
	}
	got, err := ReadIdentity(path)
	if err != nil {
		t.Fatal(err)
	}
	idA, err := f.Identity()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := got.Identity()
	if err != nil {
		t.Fatal(err)
	}
	if idA.ID() != idB.ID() {
		t.Fatal("identity changed across round trip")
	}
}

func TestReadIdentityErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadIdentity(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIdentity(bad); err == nil {
		t.Fatal("malformed file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIdentity(empty); err == nil {
		t.Fatal("empty identity accepted")
	}
	badSeed := filepath.Join(dir, "seed.json")
	if err := os.WriteFile(badSeed, []byte(`{"name":"x","seed":"zz"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := ReadIdentity(badSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Identity(); err == nil {
		t.Fatal("bad seed accepted")
	}
}

func TestDirectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dir.json")
	a, err := core.NewIdentity("Alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewIdentity("Beta")
	if err != nil {
		t.Fatal(err)
	}
	entries := []DirectoryEntry{
		{Name: "Alpha", Key: a.Entity().Key},
		{Name: "Beta", Key: b.Entity().Key},
	}
	if err := WriteDirectory(path, entries); err != nil {
		t.Fatal(err)
	}
	resolved, gotEntries, err := ReadDirectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEntries) != 2 {
		t.Fatalf("entries = %d", len(gotEntries))
	}
	ent, ok := resolved.LookupName("Alpha")
	if !ok || ent.ID() != a.ID() {
		t.Fatal("directory lookup failed")
	}
}

func TestReadDirectoryRejectsBadKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dir.json")
	if err := WriteDirectory(path, []DirectoryEntry{{Name: "X", Key: []byte{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDirectory(path); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	issuer, err := core.NewIdentity("Issuer")
	if err != nil {
		t.Fatal(err)
	}
	grantee, err := core.NewIdentity("Grantee")
	if err != nil {
		t.Fatal(err)
	}
	g := grantee.Entity()
	d, err := core.Issue(issuer, core.Template{
		Subject:       core.SubjectEntity(grantee.ID()),
		SubjectEntity: &g,
		Object:        core.NewRole(issuer.ID(), "member"),
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBundle(path, Bundle{Delegation: d}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delegation.ID() != d.ID() {
		t.Fatal("delegation changed across round trip")
	}
	if err := got.Delegation.Verify(); err != nil {
		t.Fatalf("signature lost: %v", err)
	}
}

func TestReadBundleErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadBundle(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing bundle accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(empty); err == nil {
		t.Fatal("bundle without delegation accepted")
	}
}
