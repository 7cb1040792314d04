package graph

import (
	"math"
	"math/rand"
	"testing"

	"drbac/internal/core"
)

// TestWalksMatchReference is the differential test for walkFrom and walkTo:
// on seeded random graphs with depth limits, expired delegations, optional
// constraints, pruning on and off, MaxDepth and MaxProofs 0–5 and both entity
// and role subjects, every search answers exactly as the reference copies of
// the searches they replaced (reference_test.go). Direct queries must also
// match the reference effort counters exactly; enumerations may only spend
// less, because the walks skip subtrees a depth limit forbids.
func TestWalksMatchReference(t *testing.T) {
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, entity, roles, bw := randomGraph(t, rng, 4+rng.Intn(6), 6+rng.Intn(20), true)
		subject := entity
		if rng.Intn(3) == 0 {
			subject = core.SubjectRole(roles[rng.Intn(len(roles))])
		}
		object := roles[rng.Intn(len(roles))]
		opts := Options{
			At:             testNow,
			DisablePruning: rng.Intn(4) == 0,
			MaxDepth:       rng.Intn(6),
			MaxProofs:      rng.Intn(6),
		}
		if rng.Intn(2) == 0 {
			opts.Constraints = []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: float64(rng.Intn(150))}}
		}

		for _, dirn := range []Direction{Forward, Reverse} {
			ref := refFindForward
			if dirn == Reverse {
				ref = refFindReverse
			}
			var got, want Stats
			gotOpts, wantOpts := opts, opts
			gotOpts.Direction, gotOpts.Stats, wantOpts.Stats = dirn, &got, &want
			p, err := g.FindDirect(subject, object, gotOpts)
			rp, rerr := ref(g, subject, object, wantOpts)
			if err != rerr {
				t.Fatalf("seed %d direction %d: err = %v, reference %v", seed, dirn, err, rerr)
			}
			if !sameProofs([]*core.Proof{p}, []*core.Proof{rp}) {
				t.Fatalf("seed %d direction %d: proof %v, reference %v", seed, dirn, p, rp)
			}
			if got != want {
				t.Fatalf("seed %d direction %d: stats %+v, reference %+v", seed, dirn, got, want)
			}
		}

		var got, want Stats
		gotOpts, wantOpts := opts, opts
		gotOpts.Stats, wantOpts.Stats = &got, &want
		if ps, rs := g.EnumerateFrom(subject, gotOpts), refEnumerateFrom(g, subject, wantOpts); !sameProofs(ps, rs) {
			t.Fatalf("seed %d: EnumerateFrom = %d proofs, reference %d", seed, len(ps), len(rs))
		}
		if !atMost(got, want) {
			t.Fatalf("seed %d: EnumerateFrom stats %+v above reference %+v", seed, got, want)
		}
		got, want = Stats{}, Stats{}
		if ps, rs := g.EnumerateTo(object, gotOpts), refEnumerateTo(g, object, wantOpts); !sameProofs(ps, rs) {
			t.Fatalf("seed %d: EnumerateTo = %d proofs, reference %d", seed, len(ps), len(rs))
		}
		if !atMost(got, want) {
			t.Fatalf("seed %d: EnumerateTo stats %+v above reference %+v", seed, got, want)
		}
	}
}

// sameProofs reports whether a and b hold the same chains of the same
// delegation pointers, in the same order (nil proofs compare equal).
func sameProofs(a, b []*core.Proof) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] == nil {
			continue
		}
		if a[i].Subject != b[i].Subject || a[i].Object != b[i].Object || len(a[i].Steps) != len(b[i].Steps) {
			return false
		}
		for j, st := range a[i].Steps {
			if st.Delegation != b[i].Steps[j].Delegation {
				return false
			}
		}
	}
	return true
}

// atMost reports whether no counter of s exceeds ref's.
func atMost(s, ref Stats) bool {
	return s.EdgesExplored <= ref.EdgesExplored && s.NodesVisited <= ref.NodesVisited && s.Pruned <= ref.Pruned
}
