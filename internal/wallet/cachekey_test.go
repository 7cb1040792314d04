package wallet

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"drbac/internal/core"
)

// refCacheKey is cacheKey as it was before building the constrained key in
// one allocation: every constrained key copied and sorted its constraints
// and formatted its numbers with FormatFloat. cacheKey must give the same
// bytes.
func refCacheKey(subject core.Subject, object core.Role, constraints []core.Constraint) string {
	var b strings.Builder
	b.WriteString(string(subject.Entity))
	b.WriteByte(0x1f)
	writeRoleKey(&b, subject.Role)
	b.WriteByte(0x1f)
	writeRoleKey(&b, object)
	if len(constraints) > 0 {
		cs := make([]core.Constraint, len(constraints))
		copy(cs, constraints)
		sort.Slice(cs, func(i, j int) bool {
			a, z := cs[i], cs[j]
			if a.Attr.Namespace != z.Attr.Namespace {
				return a.Attr.Namespace < z.Attr.Namespace
			}
			if a.Attr.Name != z.Attr.Name {
				return a.Attr.Name < z.Attr.Name
			}
			if a.Base != z.Base {
				return a.Base < z.Base
			}
			return a.Minimum < z.Minimum
		})
		for _, c := range cs {
			b.WriteByte(0x1f)
			b.WriteString(string(c.Attr.Namespace))
			b.WriteByte('.')
			b.WriteString(c.Attr.Name)
			b.WriteByte(0x1f)
			b.WriteString(strconv.FormatFloat(c.Base, 'g', -1, 64))
			b.WriteByte(0x1f)
			b.WriteString(strconv.FormatFloat(c.Minimum, 'g', -1, 64))
		}
	}
	return b.String()
}

// cacheKey gives refCacheKey's bytes for every constraint set: none, one,
// several in every order, numbers at ±0, ±Inf, NaN, the extremes and
// long decimals, and one attribute repeated.
func TestCacheKeyMatchesReference(t *testing.T) {
	e := newEnv(t, "BigISP", "AirNet", "Maria")
	subjects := []core.Subject{e.subject("Maria"), e.subject("BigISP.member"), e.subject("AirNet.member'")}
	objects := []core.Role{e.role("AirNet.access"), e.role("BigISP.member'")}
	attrs := []core.AttributeRef{
		{Namespace: e.id("AirNet").ID(), Name: "bw"},
		{Namespace: e.id("AirNet").ID(), Name: "storage"},
		{Namespace: e.id("BigISP").ID(), Name: "bw"},
	}
	numbers := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 50, 0.1 + 0.2,
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e21, 123456789.125, -2.2250738585072014e-308}
	rng := rand.New(rand.NewSource(1))
	pick := func() core.Constraint {
		return core.Constraint{Attr: attrs[rng.Intn(len(attrs))],
			Base: numbers[rng.Intn(len(numbers))], Minimum: numbers[rng.Intn(len(numbers))]}
	}
	check := func(s core.Subject, o core.Role, cs []core.Constraint) {
		t.Helper()
		if got, want := cacheKey(s, o, cs), refCacheKey(s, o, cs); got != want {
			t.Fatalf("cacheKey(%v, %v, %v)\n got %q\nwant %q", s, o, cs, got, want)
		}
	}
	for _, s := range subjects {
		for _, o := range objects {
			check(s, o, nil)
			for _, a := range attrs {
				for _, base := range numbers {
					for _, minimum := range numbers {
						check(s, o, []core.Constraint{{Attr: a, Base: base, Minimum: minimum}})
					}
				}
			}
		}
	}
	for i := 0; i < 5000; i++ {
		cs := make([]core.Constraint, 2+rng.Intn(4))
		for j := range cs {
			cs[j] = pick()
		}
		if rng.Intn(3) == 0 {
			cs[len(cs)-1].Attr = cs[0].Attr // a repeated attribute
		}
		check(subjects[rng.Intn(len(subjects))], objects[rng.Intn(len(objects))], cs)
		rng.Shuffle(len(cs), func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
		check(subjects[0], objects[0], cs)
	}
}

// A key with one constraint is one allocation, the key itself.
func TestCacheKeyOneConstraintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := newEnv(t, "AirNet", "Maria")
	s, o := e.subject("Maria"), e.role("AirNet.access")
	cs := []core.Constraint{{Attr: core.AttributeRef{Namespace: e.id("AirNet").ID(), Name: "bw"},
		Base: math.Inf(1), Minimum: -2.2250738585072014e-308}}
	if n := testing.AllocsPerRun(100, func() { _ = cacheKey(s, o, cs) }); n != 1 {
		t.Errorf("cacheKey with one constraint: %v allocations, want 1", n)
	}
}
