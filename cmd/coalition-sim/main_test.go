package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"drbac/internal/sim"
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestExperimentNamesRegistered keeps the docs in step with the experiments
// table: every -exp NAME the docs, the Makefile and CI mention is registered,
// and every experiment -exp all runs is named in EXPERIMENTS.md.
func TestExperimentNamesRegistered(t *testing.T) {
	expFlag := regexp.MustCompile(`-exp[ =]([A-Za-z][A-Za-z0-9_-]*)`)
	var inExperiments map[string]bool
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md", "docs/TUTORIAL.md", "Makefile", ".github/workflows/ci.yml"} {
		named := make(map[string]bool)
		for _, m := range expFlag.FindAllStringSubmatch(readDoc(t, doc), -1) {
			named[m[1]] = true
			if _, ok := sim.Lookup(m[1]); !ok && m[1] != "all" {
				t.Errorf("%s names -exp %s, which is not in the experiments table", doc, m[1])
			}
		}
		if doc == "EXPERIMENTS.md" {
			inExperiments = named
		}
	}
	for _, x := range sim.Experiments {
		if x.InAll && !inExperiments[x.Name] {
			t.Errorf("-exp all runs %s, but EXPERIMENTS.md never names -exp %s", x.Name, x.Name)
		}
	}
}

// TestExperimentSections keeps the table, EXPERIMENTS.md's sections and
// DESIGN §4's index in step: every registered ID has a section and an
// index row, every section has a row and every row a section, and every
// experiment's report is recorded in at least one fenced block.
func TestExperimentSections(t *testing.T) {
	experiments := readDoc(t, "EXPERIMENTS.md")
	design := readDoc(t, "DESIGN.md")
	index := design[strings.Index(design, "\n## 4. ")+1:]
	index = index[:strings.Index(index, "\n## ")]
	sections := regexp.MustCompile(`(?m)^## (EXP-\w+) `).FindAllStringSubmatch(experiments, -1)
	rows := regexp.MustCompile(`(?m)^\| (EXP-\w+) \|`).FindAllStringSubmatch(index, -1)
	inSections, inRows := make(map[string]bool), make(map[string]bool)
	for _, m := range sections {
		inSections[m[1]] = true
	}
	for _, m := range rows {
		inRows[m[1]] = true
	}
	for _, x := range sim.Experiments {
		if !inSections[x.ID] {
			t.Errorf("-exp %s regenerates %s, which has no EXPERIMENTS.md section", x.Name, x.ID)
		}
		if !inRows[x.ID] {
			t.Errorf("-exp %s regenerates %s, which has no DESIGN §4 row", x.Name, x.ID)
		}
		if len(fencedBlocks(experiments, "coalition-sim -exp "+x.Name)) == 0 {
			t.Errorf("EXPERIMENTS.md has no block fenced ```coalition-sim -exp %s", x.Name)
		}
	}
	for _, m := range sections {
		if !inRows[m[1]] {
			t.Errorf("EXPERIMENTS.md section %s has no DESIGN §4 row", m[1])
		}
	}
	for _, m := range rows {
		if !inSections[m[1]] {
			t.Errorf("DESIGN §4 row %s has no EXPERIMENTS.md section", m[1])
		}
	}
}

// fencedBlocks returns the lines of every block in doc whose opening fence
// is ```info.
func fencedBlocks(doc, info string) [][]string {
	var blocks [][]string
	var block []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case !in && line == "```"+info:
			in, block = true, nil
		case in && line == "```":
			in = false
			blocks = append(blocks, block)
		case in:
			block = append(block, line)
		}
	}
	return blocks
}

// A token is one space-separated word of a printed line, checked as the
// loosest Kind among the cells it spans ("4.0x" spans a value and a
// literal).
type token struct {
	text string
	kind sim.Kind
}

func tokens(line []sim.Cell) []token {
	var text string
	var kinds []sim.Kind
	for _, c := range line {
		text += c.Text
		for range len(c.Text) {
			kinds = append(kinds, c.Kind)
		}
	}
	var out []token
	for i := 0; i < len(text); i++ {
		if text[i] == ' ' {
			continue
		}
		j, kind := i, sim.Exact
		for ; j < len(text) && text[j] != ' '; j++ {
			kind = max(kind, kinds[j])
		}
		out = append(out, token{text[i:j], kind})
		i = j
	}
	return out
}

// matches reports whether a recorded line reads as a fresh one: words and
// counts exactly, byte totals within 1%, timings not at all.
func matches(recorded string, fresh []token) bool {
	words := strings.Fields(recorded)
	if len(words) != len(fresh) {
		return false
	}
	for i, w := range words {
		switch fresh[i].kind {
		case sim.Exact:
			if w != fresh[i].text {
				return false
			}
		case sim.Bytes:
			got, err1 := strconv.ParseFloat(w, 64)
			want, err2 := strconv.ParseFloat(fresh[i].text, 64)
			if err1 != nil || err2 != nil || math.Abs(got-want) > 0.01*want {
				return false
			}
		}
	}
	return true
}

// checkBlocks re-runs -exp name and requires each line of its EXPERIMENTS.md
// blocks to match a line of the fresh report, in order.
func checkBlocks(t *testing.T, name string) {
	t.Helper()
	x, ok := sim.Lookup(name)
	if !ok {
		t.Fatalf("-exp %s is not registered", name)
	}
	blocks := fencedBlocks(readDoc(t, "EXPERIMENTS.md"), "coalition-sim -exp "+name)
	if len(blocks) == 0 {
		t.Fatalf("EXPERIMENTS.md has no block fenced ```coalition-sim -exp %s", name)
	}
	var r sim.Report
	if err := x.Run(&r); err != nil {
		t.Fatal(err)
	}
	fresh := make([][]token, len(r.Lines))
	for i, line := range r.Lines {
		fresh[i] = tokens(line)
	}
	stale := false
	for _, block := range blocks {
		next := 0
		for _, line := range block {
			i := next
			for i < len(fresh) && !matches(line, fresh[i]) {
				i++
			}
			if i == len(fresh) {
				t.Errorf("EXPERIMENTS.md records -exp %s line %q, which this run does not print", name, line)
				stale = true
				continue
			}
			next = i + 1
		}
	}
	if stale {
		t.Logf("this run of -exp %s printed:\n%s", name, &r)
	}
}

func TestRunFlagHandling(t *testing.T) {
	if err := run([]string{"-exp", "no-such-experiment"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-exp", "separability"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCaseStudyExperiment(t *testing.T)    { checkBlocks(t, "casestudy") }
func TestRunSeparabilityExperiment(t *testing.T) { checkBlocks(t, "separability") }
func TestRunProxyExperiment(t *testing.T)        { checkBlocks(t, "proxy") }
func TestRunChainExperiment(t *testing.T)        { checkBlocks(t, "chain") }
func TestRunPruningExperiment(t *testing.T)      { checkBlocks(t, "pruning") }
func TestRunRangesExperiment(t *testing.T)       { checkBlocks(t, "ranges") }
func TestRunCacheExperiment(t *testing.T)        { checkBlocks(t, "cache") }
func TestRunClusterExperiment(t *testing.T)      { checkBlocks(t, "cluster") }
func TestRunClusterSmokeExperiment(t *testing.T) { checkBlocks(t, "clustersmoke") }
func TestRunDHTSmokeExperiment(t *testing.T)     { checkBlocks(t, "dhtsmoke") }

func TestRunSearchExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("search sweep is slow")
	}
	checkBlocks(t, "search")
}

func TestRunRevocationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("revocation sweep is slow")
	}
	checkBlocks(t, "revocation")
}
