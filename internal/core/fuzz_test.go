package core

import (
	"strings"
	"testing"
	"time"
)

// FuzzParseDelegation hardens the concrete-syntax parser: it must never
// panic, and anything it accepts must re-render to a form it accepts again
// with the same structure.
//
// Run seeds with `go test`; explore with
// `go test -fuzz=FuzzParseDelegation ./internal/core`.
func FuzzParseDelegation(f *testing.F) {
	fixture := newFuzzFixture(f)
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		parsed, err := ParseDelegation(text, fixture.Dir)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must survive issue -> print -> reparse.
		issuer := fixture.identityForFuzz(parsed.Issuer.ID())
		if issuer == nil {
			t.Fatalf("parser resolved an unknown issuer for %q", text)
		}
		d, err := Issue(issuer, parsed.Template, fixture.Now)
		if err != nil {
			// The parser may accept structures Issue rejects (e.g. plain
			// acting-as roles); that is a validation outcome, not a bug.
			return
		}
		rendered := Printer{Dir: fixture.Dir}.Delegation(d)
		reparsed, err := ParseDelegation(rendered, fixture.Dir)
		if err != nil {
			t.Fatalf("rendering of accepted input does not reparse:\ninput:    %q\nrendered: %q\nerr: %v",
				text, rendered, err)
		}
		if reparsed.Template.Subject != d.Subject ||
			reparsed.Template.Object != d.Object ||
			reparsed.Issuer.ID() != d.Issuer.ID() ||
			len(reparsed.Template.Attributes) != len(d.Attributes) ||
			reparsed.Template.DepthLimit != d.DepthLimit {
			t.Fatalf("round trip changed structure:\ninput:    %q\nrendered: %q", text, rendered)
		}
	})
}

// fuzzSeeds is FuzzParseDelegation's seed corpus: the paper's examples,
// every annotation, and malformed inputs.
var fuzzSeeds = []string{
	"[Mark -> BigISP.memberServices] BigISP",
	"[BigISP.memberServices -> BigISP.member'] BigISP",
	"[Maria -> BigISP.member] Mark",
	"[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20] Sheila",
	"[AirNet.mktg -> AirNet.storage -= '] AirNet",
	"[Maria -> BigISP.member] Mark <expiry:2027-01-01T00:00:00Z>",
	"[Maria -> BigISP.member] Mark <depth:2>",
	"[Maria -> BigISP.member] Mark <acting-as:BigISP.member'>",
	"[BigISP.member<wallet.example:BigISP.wallet:30:So> -> AirNet.member] Sheila",
	"[Maria → BigISP.member] Mark",
	"[", "]", "[]", "[->]", "[a->b]c",
	"[Maria -> BigISP.member with ] Mark",
	"[Maria -> BigISP.member'''''''] Mark",
	"[Maria -> BigISP.member] Mark <",
	strings.Repeat("[", 100),
}

// fuzzFixture mirrors fixture for fuzzing (testing.F instead of testing.T).
type fuzzFixture struct {
	ids []*Identity
	Dir *MemDirectory
	Now time.Time
}

func newFuzzFixture(f *testing.F) *fuzzFixture {
	f.Helper()
	out := &fuzzFixture{
		Dir: NewDirectory(),
		Now: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
	}
	for i, name := range []string{"BigISP", "AirNet", "Mark", "Sheila", "Maria"} {
		seed := make([]byte, 32)
		for j := range seed {
			seed[j] = byte(i + 1)
		}
		id, err := IdentityFromSeed(name, seed)
		if err != nil {
			f.Fatal(err)
		}
		out.ids = append(out.ids, id)
		out.Dir.Add(id.Entity())
	}
	return out
}

func (x *fuzzFixture) identityForFuzz(id EntityID) *Identity {
	for _, cand := range x.ids {
		if cand.ID() == id {
			return cand
		}
	}
	return nil
}
