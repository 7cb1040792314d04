package sim

import (
	"fmt"
	"io"
	"strings"
	"unicode"
)

// Experiment is one row of the table coalition-sim runs from: the
// EXPERIMENTS.md section it regenerates, the -exp name that selects it, and
// the run func whose report Print renders. EXPERIMENTS.md records reports in
// blocks fenced as ```coalition-sim -exp NAME, which coalition-sim's tests
// compare with a fresh run.
type Experiment struct {
	ID     string // EXPERIMENTS.md section, e.g. "EXP-S1"
	Name   string // coalition-sim -exp NAME
	Title  string
	Anchor string // what it reproduces: a paper §, table or figure, or the SPEC § it extends
	InAll  bool   // -exp all runs it; the bounded CI smokes it does not
	Run    func(*Report) error
}

// Experiments is every experiment, in the order -exp all runs them.
var Experiments = []Experiment{
	{ID: "EXP-F2", Name: "casestudy", Title: "case study", Anchor: "§5, Table 3, Figure 2", InAll: true, Run: caseStudyReport},
	{ID: "EXP-S1", Name: "search", Title: "search directionality", Anchor: "§4.2.3", InAll: true, Run: searchReport},
	{ID: "EXP-S2", Name: "pruning", Title: "valued-attribute monotonicity pruning", Anchor: "§4.2.3", InAll: true, Run: pruningReport},
	{ID: "EXP-S3", Name: "revocation", Title: "credential status schemes", Anchor: "§6", InAll: true, Run: revocationReport},
	{ID: "EXP-S4", Name: "separability", Title: "separability / namespace pollution", Anchor: "§3.1.3", InAll: true, Run: separabilityReport},
	{ID: "EXP-F2x", Name: "chain", Title: "multi-hop discovery scaling", Anchor: "Figure 2 extension", InAll: true, Run: chainReport},
	{ID: "EXP-S5", Name: "proxy", Title: "hierarchical validation caches", Anchor: "§6 extension", InAll: true, Run: proxyReport},
	{ID: "EXP-S2b", Name: "ranges", Title: "modulated attribute ranges in discovery", Anchor: "§4.2.3", InAll: true, Run: rangesReport},
	{ID: "EXP-S6", Name: "cache", Title: "subscription-coherent proof cache", Anchor: "§6", InAll: true, Run: cacheReport},
	{ID: "EXP-C1", Name: "cluster", Title: "sharded cluster publish scaling", Anchor: "SPEC §12 extension", InAll: true, Run: clusterReport},
	{ID: "EXP-C1", Name: "clustersmoke", Title: "bounded 4-shard scatter-gather smoke", Anchor: "SPEC §12 extension", Run: clusterSmokeReport},
	{ID: "EXP-D1", Name: "dhtsmoke", Title: "bounded 6-member DHT bootstrap, resolve and churn smoke", Anchor: "SPEC §13 extension", Run: dhtSmokeReport},
}

// Lookup returns the experiment -exp name selects.
func Lookup(name string) (Experiment, bool) {
	for _, x := range Experiments {
		if x.Name == name {
			return x, true
		}
	}
	return Experiment{}, false
}

// Print runs x and writes its title line and report to out.
func (x Experiment) Print(out io.Writer) error {
	var r Report
	if err := x.Run(&r); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out, "== %s: %s (%s) ==\n%s", x.ID, x.Title, x.Anchor, &r)
	return err
}

// Kind says how a recorded copy of a printed value is checked against a
// fresh run, from strictest to loosest.
type Kind uint8

const (
	// Exact: words and counts, which a run reproduces.
	Exact Kind = iota
	// Bytes: byte totals on the wire, which may differ by 1%, because each
	// delegation's random nonce is a 9- or 10-byte uvarint.
	Bytes
	// Timing: wall-clock measures, which are not compared.
	Timing
)

// A Cell is one piece of a printed line: literal text or one formatted
// value.
type Cell struct {
	Text string
	Kind Kind
}

// A Report is what one experiment run prints, line by line.
type Report struct {
	Lines [][]Cell
}

// byteTotal and timed mark printf arguments as Bytes and Timing values.
type (
	byteTotal int64
	timed     struct{ v any }
)

// printf appends one line. Each verb (flags, width and precision allowed;
// no %%) takes one argument and formats it as fmt does; the argument's type
// gives its cell's Kind.
func (r *Report) printf(format string, args ...any) {
	var line []Cell
	literal := func(s string) {
		if s != "" {
			line = append(line, Cell{Text: s})
		}
	}
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			literal(format)
			break
		}
		literal(format[:i])
		end := i + 1 + strings.IndexFunc(format[i+1:], unicode.IsLetter) + 1
		verb, arg, kind := format[i:end], args[0], Exact
		format, args = format[end:], args[1:]
		switch a := arg.(type) {
		case byteTotal:
			arg, kind = int64(a), Bytes
		case timed:
			arg, kind = a.v, Timing
		}
		line = append(line, Cell{Text: fmt.Sprintf(verb, arg), Kind: kind})
	}
	r.Lines = append(r.Lines, line)
}

// String renders the report, one newline-terminated line per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, line := range r.Lines {
		for _, c := range line {
			b.WriteString(c.Text)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
