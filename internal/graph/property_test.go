package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"drbac/internal/core"
)

// randomGraph builds a random delegation DAG-ish graph (cycles allowed)
// over nRoles roles in one namespace, with one entity subject, and returns
// the graph plus the query endpoints. With limited set, about a third of the
// delegations carry a depth limit of 1–3 (§6) and about one in eight expired
// before testNow.
func randomGraph(t *testing.T, rng *rand.Rand, nRoles, nEdges int, limited bool) (*Graph, core.Subject, []core.Role, core.AttributeRef) {
	t.Helper()
	e := newEnv(t, "Owner", "User")
	g := New()
	owner := e.id("Owner")
	user := e.id("User")
	bw := core.AttributeRef{Namespace: owner.ID(), Name: "BW"}

	roles := make([]core.Role, nRoles)
	for i := range roles {
		roles[i] = core.NewRole(owner.ID(), fmt.Sprintf("r%d", i))
	}
	issue := func(subject core.Subject, subjEnt *core.Entity, object core.Role, withAttr bool) {
		tmpl := core.Template{Subject: subject, SubjectEntity: subjEnt, Object: object}
		if withAttr {
			tmpl.Attributes = []core.AttributeSetting{{
				Attr: bw, Op: core.OpMinimum, Value: float64(10 + rng.Intn(200)),
			}}
		}
		issuedAt := testNow
		if limited {
			if rng.Intn(3) == 0 {
				tmpl.DepthLimit = 1 + rng.Intn(3)
			}
			if rng.Intn(8) == 0 {
				issuedAt = testNow.Add(-time.Hour)
				tmpl.Expiry = testNow.Add(-time.Minute)
			}
		}
		d, err := core.Issue(owner, tmpl, issuedAt)
		if err != nil {
			t.Fatal(err)
		}
		g.Add(d, nil)
	}

	// Entity fan-out: a few edges from the user.
	userEnt := user.Entity()
	for i := 0; i < 1+rng.Intn(3); i++ {
		issue(core.SubjectEntity(user.ID()), &userEnt, roles[rng.Intn(nRoles)], rng.Intn(2) == 0)
	}
	// Random role-to-role edges.
	for i := 0; i < nEdges; i++ {
		from := roles[rng.Intn(nRoles)]
		to := roles[rng.Intn(nRoles)]
		if from == to {
			continue
		}
		issue(core.SubjectRole(from), nil, to, rng.Intn(3) == 0)
	}
	return g, core.SubjectEntity(user.ID()), roles, bw
}

// Property: on random graphs without constraints, forward and reverse (both
// exhaustive simple-path searches) agree on whether a proof exists, and every
// proof any direction returns validates. Bidirectional keeps one parent edge
// per node, so under depth limits it can miss a proof that needs a parallel
// route (5 misses in 3,000 depth-limited seeds when this was written): it
// must agree only on graphs without depth limits or expired delegations.
func TestPropertyDirectionsAgreeOnExistence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		limited := rng.Intn(2) == 0
		g, subject, roles, _ := randomGraph(t, rng, 6+rng.Intn(6), 10+rng.Intn(20), limited)
		object := roles[rng.Intn(len(roles))]

		results := make(map[Direction]error)
		for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
			p, err := g.FindDirect(subject, object, Options{At: testNow, Direction: dirn})
			results[dirn] = err
			if err == nil {
				if verr := p.Validate(core.ValidateOptions{At: testNow}); verr != nil {
					t.Logf("seed %d: %v returned invalid proof: %v", seed, dirn, verr)
					return false
				}
			} else if !errors.Is(err, core.ErrNoProof) {
				t.Logf("seed %d: %v unexpected error: %v", seed, dirn, err)
				return false
			}
		}
		fwdFound := results[Forward] == nil
		agree := []Direction{Reverse, Bidirectional}
		if limited {
			agree = agree[:1]
		}
		for _, dirn := range agree {
			if (results[dirn] == nil) != fwdFound {
				t.Logf("seed %d: existence disagreement fwd=%v %v=%v",
					seed, results[Forward], dirn, results[dirn])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: under constraints, depth limits and expiry, forward and reverse
// (both exhaustive simple-path searches) agree on existence, and any proof
// either returns satisfies the constraints. Bidirectional is an
// optimization that may miss niche constrained or depth-limited paths (the
// paper notes repeat queries may be needed, §4.2.3), so it is only required
// to return valid proofs.
func TestPropertyConstrainedSearchSound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, subject, roles, bw := randomGraph(t, rng, 6+rng.Intn(6), 10+rng.Intn(20), rng.Intn(2) == 0)
		object := roles[rng.Intn(len(roles))]
		cons := []core.Constraint{{
			Attr: bw, Base: math.Inf(1), Minimum: float64(rng.Intn(150)),
		}}

		check := func(dirn Direction) (bool, bool) {
			p, err := g.FindDirect(subject, object, Options{
				At: testNow, Direction: dirn, Constraints: cons,
			})
			if err != nil {
				return false, errors.Is(err, core.ErrNoProof)
			}
			if verr := p.Validate(core.ValidateOptions{At: testNow, Constraints: cons}); verr != nil {
				t.Logf("seed %d: %v returned constraint-violating proof: %v", seed, dirn, verr)
				return true, false
			}
			return true, true
		}
		fwdFound, fwdOK := check(Forward)
		revFound, revOK := check(Reverse)
		_, bidiOK := check(Bidirectional)
		if !fwdOK || !revOK || !bidiOK {
			return false
		}
		if fwdFound != revFound {
			t.Logf("seed %d: forward found=%v but reverse found=%v", seed, fwdFound, revFound)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every proof emitted by subject/object enumeration validates,
// depth limits and expired delegations included.
func TestPropertyEnumerationsValid(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, subject, roles, _ := randomGraph(t, rng, 5+rng.Intn(5), 8+rng.Intn(15), rng.Intn(2) == 0)
		for _, p := range g.EnumerateFrom(subject, Options{At: testNow}) {
			if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
				t.Logf("seed %d: EnumerateFrom invalid: %v", seed, err)
				return false
			}
		}
		object := roles[rng.Intn(len(roles))]
		for _, p := range g.EnumerateTo(object, Options{At: testNow}) {
			if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
				t.Logf("seed %d: EnumerateTo invalid: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
