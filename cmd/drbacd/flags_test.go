package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface compares the flags drbacd registers with
// testdata/flags.golden, one name per line in -h order, so a new (or
// removed) knob shows up in review as a changed golden file. To accept a
// change, edit the golden file by hand.
func TestFlagSurface(t *testing.T) {
	// run builds its FlagSet internally; -h makes it print every registered
	// flag to os.Stderr and return flag.ErrHelp before doing anything else.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	usage, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", runErr)
	}
	var names []string
	for _, line := range strings.Split(string(usage), "\n") {
		if strings.HasPrefix(line, "  -") {
			names = append(names, strings.Fields(line)[0])
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, "\n") + "\n"; got != string(golden) {
		t.Errorf("drbacd registers %d flags that differ from testdata/flags.golden:\n%s", len(names), got)
	}
}
