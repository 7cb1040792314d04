package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/logstore"
)

func issueTestDelegations(t *testing.T, n int) []*core.Delegation {
	t.Helper()
	org, err := core.NewIdentity("Org")
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewIdentity("User")
	if err != nil {
		t.Fatal(err)
	}
	dir := core.NewDirectory(org.Entity(), user.Entity())
	out := make([]*core.Delegation, 0, n)
	for i := 0; i < n; i++ {
		text := "[User -> Org.role" + string(rune('a'+i)) + "] Org"
		parsed, err := core.ParseDelegation(text, dir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Issue(org, parsed.Template, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestInspectStateLegacyJSON reads the checked-in legacy JSON state files
// (internal/wallet/testdata/legacy) — what a not-yet-migrated -state path,
// or the .bak a migration left, holds. `drbac state` is documented safe
// against a live daemon's state, so the inspection must write nothing: a
// state.json.tmp beside the file is a running older daemon's in-flight
// publish, and removing it would fail that daemon's rename.
func TestInspectStateLegacyJSON(t *testing.T) {
	for _, tc := range []struct {
		file string
		seq  uint64
	}{
		{"filestore.json", 5},
		{"filestore_pre_revocations.json", 5},
		{"walletstate.json", 0},
	} {
		t.Run(tc.file, func(t *testing.T) {
			fixture, err := os.ReadFile(filepath.Join("..", "..", "internal", "wallet", "testdata", "legacy", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			files := map[string][]byte{path: fixture, path + ".tmp": []byte(`{"bundles":[{"deleg`)}
			for name, data := range files {
				if err := os.WriteFile(name, data, 0o600); err != nil {
					t.Fatal(err)
				}
			}

			info, err := inspectState(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Store != "json" || info.Bundles != 3 || info.Revocations != 1 || info.Seq != tc.seq {
				t.Fatalf("json inspect: %+v", info)
			}
			if len(info.Segments) != 0 {
				t.Fatalf("json store reported segments: %+v", info.Segments)
			}
			for name, want := range files {
				if data, err := os.ReadFile(name); err != nil || !bytes.Equal(data, want) {
					t.Errorf("%s not byte-identical after inspection (err=%v)", filepath.Base(name), err)
				}
			}
			if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
				t.Errorf("inspection left %d files, want the %d it found", len(entries), len(files))
			}

			var buf bytes.Buffer
			renderState(&buf, info)
			out := buf.String()
			for _, want := range []string{"store        json", "bundles      3", "revocations  1"} {
				if !strings.Contains(out, want) {
					t.Errorf("render missing %q:\n%s", want, out)
				}
			}
			if strings.Contains(out, "segments") {
				t.Errorf("json render shows segment table:\n%s", out)
			}
		})
	}
}

func TestInspectStateLogDir(t *testing.T) {
	ds := issueTestDelegations(t, 4)
	dir := filepath.Join(t.TempDir(), "state")
	st, err := logstore.Open(dir, logstore.Options{CompactInterval: -1, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if err := st.PutDelegation(uint64(i+1), d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.AddRevocation(5, ds[0].ID(), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteDelegation(5, ds[0].ID()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := inspectState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Store != "log" || info.Bundles != 3 || info.Revocations != 1 || info.Seq != 5 {
		t.Fatalf("log inspect: %+v", info)
	}
	if len(info.Segments) < 2 {
		t.Fatalf("1KiB segments over 4 bundles should have rolled: %+v", info.Segments)
	}
	if got := info.Segments[len(info.Segments)-1].Status; got != "active" {
		t.Fatalf("last segment status %q, want active", got)
	}
	var buf bytes.Buffer
	renderState(&buf, info)
	out := buf.String()
	for _, want := range []string{"store        log", "segments", "active", "sealed"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCmdStateErrors(t *testing.T) {
	if err := cmdState(nil); err == nil {
		t.Fatal("missing path accepted")
	}
	if err := cmdState([]string{"-state", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("nonexistent path accepted")
	}
}
