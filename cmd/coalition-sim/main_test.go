package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestExperimentNamesRegistered keeps the docs in step with the experiments
// table: every -exp NAME the docs, the Makefile and CI mention is registered,
// and every experiment -exp all runs is named in EXPERIMENTS.md.
func TestExperimentNamesRegistered(t *testing.T) {
	registered := map[string]bool{"all": true}
	for _, x := range experiments {
		registered[x.name] = true
	}
	expFlag := regexp.MustCompile(`-exp[ =]([A-Za-z][A-Za-z0-9_-]*)`)
	var inExperiments map[string]bool
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md", "docs/TUTORIAL.md", "Makefile", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		named := make(map[string]bool)
		for _, m := range expFlag.FindAllSubmatch(text, -1) {
			named[string(m[1])] = true
			if !registered[string(m[1])] {
				t.Errorf("%s names -exp %s, which is not in the experiments table", doc, m[1])
			}
		}
		if doc == "EXPERIMENTS.md" {
			inExperiments = named
		}
	}
	for _, x := range experiments {
		if x.inAll && !inExperiments[x.name] {
			t.Errorf("-exp all runs %s, but EXPERIMENTS.md never names -exp %s", x.name, x.name)
		}
	}
}

// The runners are exercised in depth through internal/sim; these tests pin
// the CLI wiring: flag handling and that each fast experiment completes.
func TestRunFlagHandling(t *testing.T) {
	if err := run([]string{"-exp", "no-such-experiment"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunCaseStudyExperiment(t *testing.T) {
	if err := run([]string{"-exp", "casestudy"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSeparabilityExperiment(t *testing.T) {
	if err := run([]string{"-exp", "separability"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunProxyExperiment(t *testing.T) {
	if err := run([]string{"-exp", "proxy"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChainExperiment(t *testing.T) {
	if err := run([]string{"-exp", "chain"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSearchExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("search sweep is slow")
	}
	if err := run([]string{"-exp", "search"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPruningExperiment(t *testing.T) {
	if err := run([]string{"-exp", "pruning"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRevocationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("revocation sweep is slow")
	}
	if err := run([]string{"-exp", "revocation"}); err != nil {
		t.Fatal(err)
	}
}
