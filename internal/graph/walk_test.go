package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"drbac/internal/core"
)

// TestWalksMatchReference is the differential test for walkFrom and walkTo:
// on seeded random graphs with depth limits, expired delegations, optional
// constraints, pruning on and off, MaxDepth and MaxProofs 0–5 and both entity
// and role subjects, every search answers exactly as the reference copies of
// the searches they replaced (reference_test.go). Direct queries must also
// match the reference effort counters exactly; enumerations may only spend
// less, because the walks skip subtrees a depth limit forbids. A second
// family (walkLongChains) does the same on chains and ladders deeper than
// the default MaxDepth.
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

		matchReference(t, fmt.Sprintf("seed %d", seed), g, subject, object, opts)
	}
	walkLongChains(t)
}

// matchReference runs both direct searches and both enumerations on g and
// fails t unless each answers exactly as its reference. Direct queries must
// match the reference effort counters exactly; enumerations may only spend
// less.
func matchReference(t *testing.T, label string, g *Graph, subject core.Subject, object core.Role, opts Options) {
	t.Helper()
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
			t.Fatalf("%s direction %d: err = %v, reference %v", label, dirn, err, rerr)
		}
		if !sameProofs([]*core.Proof{p}, []*core.Proof{rp}) {
			t.Fatalf("%s direction %d: proof %v, reference %v", label, dirn, p, rp)
		}
		if got != want {
			t.Fatalf("%s direction %d: stats %+v, reference %+v", label, dirn, got, want)
		}
	}

	var got, want Stats
	gotOpts, wantOpts := opts, opts
	gotOpts.Stats, wantOpts.Stats = &got, &want
	if ps, rs := g.EnumerateFrom(subject, gotOpts), refEnumerateFrom(g, subject, wantOpts); !sameProofs(ps, rs) {
		t.Fatalf("%s: EnumerateFrom = %d proofs, reference %d", label, len(ps), len(rs))
	}
	if !atMost(got, want) {
		t.Fatalf("%s: EnumerateFrom stats %+v above reference %+v", label, got, want)
	}
	got, want = Stats{}, Stats{}
	if ps, rs := g.EnumerateTo(object, gotOpts), refEnumerateTo(g, object, wantOpts); !sameProofs(ps, rs) {
		t.Fatalf("%s: EnumerateTo = %d proofs, reference %d", label, len(ps), len(rs))
	}
	if !atMost(got, want) {
		t.Fatalf("%s: EnumerateTo stats %+v above reference %+v", label, got, want)
	}
}

// walkLongChains is TestWalksMatchReference's long-chain family: chains and
// ladders 28–40 deep with back-edges, depth limits near the tail and
// MaxDepth 0 (32), 31, 32 and 33, so the walks run past the random graphs'
// depth and across the MaxDepth boundary. Bidirectional has no reference: a
// proof it returns must be a chain subject ⇒ object within MaxDepth and
// every depth limit, and on graphs without depth limits or expired edges it
// must find one exactly when the forward search does.
func walkLongChains(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed))
		lc := longChainGraph(t, rng)
		label := fmt.Sprintf("long-chain seed %d", seed)
		for _, maxDepth := range []int{0, 31, 32, 33} {
			opts := Options{
				At:             testNow,
				DisablePruning: rng.Intn(4) == 0,
				MaxDepth:       maxDepth,
				MaxProofs:      []int{0, 1, 7, 100}[rng.Intn(4)],
			}
			if rng.Intn(2) == 0 {
				opts.Constraints = []core.Constraint{{Attr: lc.bw, Base: math.Inf(1), Minimum: float64(rng.Intn(150))}}
			}
			subject := lc.subjects[rng.Intn(len(lc.subjects))]
			// One object anywhere, one in the last twelve nodes (around the
			// MaxDepth boundary) and one at the tail.
			last := len(lc.rails[0]) - 1
			for _, i := range []int{rng.Intn(last + 1), last - rng.Intn(12), last} {
				object := lc.rails[rng.Intn(len(lc.rails))][i]
				l := fmt.Sprintf("%s MaxDepth %d object %v", label, maxDepth, object)
				matchReference(t, l, lc.g, subject, object, opts)
				checkBidirectional(t, l, lc, subject, object, opts)
			}
		}
	}
}

// longChain is one graph of the long-chain family.
type longChain struct {
	g        *Graph
	subjects []core.Subject // the entity and the head of each rail
	rails    [][]core.Role  // rails[r][i] is rail r's node at depth i
	bw       core.AttributeRef
	plain    bool // no depth limits and no expired edges
}

// longChainGraph builds a chain (one rail) or a ladder (two rails joined by
// a few rungs, so at most 2^5 routes) 28–40 nodes deep, with an entity on
// the head of each rail, one to three back-edges, depth limits on edges
// near the tail and on some near the head (limits of 28–34 that bind at the
// boundary), attributes on about one edge in six and, rarely, an expired
// edge.
func longChainGraph(t *testing.T, rng *rand.Rand) longChain {
	t.Helper()
	e := newEnv(t, "Owner", "User")
	owner, user := e.id("Owner"), e.id("User")
	lc := longChain{g: New(), bw: core.AttributeRef{Namespace: owner.ID(), Name: "BW"}, plain: true}
	depth := 28 + rng.Intn(13)
	nRails := 1 + rng.Intn(2)
	for r := 0; r < nRails; r++ {
		rail := make([]core.Role, depth)
		for i := range rail {
			rail[i] = core.NewRole(owner.ID(), fmt.Sprintf("%c%d", 'a'+r, i))
		}
		lc.rails = append(lc.rails, rail)
		lc.subjects = append(lc.subjects, core.SubjectRole(rail[0]))
	}
	limited := rng.Intn(2) == 0
	issue := func(subject core.Subject, subjEnt *core.Entity, from int, object core.Role) {
		tmpl := core.Template{Subject: subject, SubjectEntity: subjEnt, Object: object}
		if rng.Intn(6) == 0 {
			tmpl.Attributes = []core.AttributeSetting{{Attr: lc.bw, Op: core.OpMinimum, Value: float64(10 + rng.Intn(200))}}
		}
		issuedAt := testNow
		if limited {
			switch {
			case from >= depth-6 && rng.Intn(3) == 0:
				tmpl.DepthLimit = 1 + rng.Intn(3)
			case from < 3 && rng.Intn(3) == 0:
				tmpl.DepthLimit = 28 + rng.Intn(7)
			case rng.Intn(40) == 0:
				issuedAt = testNow.Add(-time.Hour)
				tmpl.Expiry = testNow.Add(-time.Minute)
			}
			lc.plain = lc.plain && tmpl.DepthLimit == 0 && tmpl.Expiry.IsZero()
		}
		d, err := core.Issue(owner, tmpl, issuedAt)
		if err != nil {
			t.Fatal(err)
		}
		lc.g.Add(d, nil)
	}
	userEnt := user.Entity()
	lc.subjects = append(lc.subjects, core.SubjectEntity(user.ID()))
	for _, rail := range lc.rails {
		issue(core.SubjectEntity(user.ID()), &userEnt, -1, rail[0])
		for i := 0; i+1 < depth; i++ {
			issue(core.SubjectRole(rail[i]), nil, i, rail[i+1])
		}
	}
	if nRails == 2 {
		for k := 0; k < 1+rng.Intn(5); k++ {
			i, r := rng.Intn(depth-1), rng.Intn(2)
			issue(core.SubjectRole(lc.rails[r][i]), nil, i, lc.rails[1-r][i+1])
		}
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		j := 1 + rng.Intn(depth-1)
		i := rng.Intn(j)
		issue(core.SubjectRole(lc.rails[rng.Intn(nRails)][j]), nil, j, lc.rails[rng.Intn(nRails)][i])
	}
	return lc
}

// checkBidirectional fails t unless a Bidirectional answer is a chain
// subject ⇒ object within MaxDepth and every depth limit, and — on a graph
// without depth limits or expired edges, asked without constraints — exists
// exactly when the forward search finds one (for a role asked for itself,
// never).
func checkBidirectional(t *testing.T, label string, lc longChain, subject core.Subject, object core.Role, opts Options) {
	t.Helper()
	opts.Direction = Bidirectional
	p, err := lc.g.FindDirect(subject, object, opts)
	if err == nil {
		if p.Subject != subject || p.Object != object || len(p.Steps) > opts.maxDepth() || !chainDepthOK(p.Steps) {
			t.Fatalf("%s: bidirectional proof %v out of bounds", label, p)
		}
		if verr := p.Validate(core.ValidateOptions{At: testNow, MaxDepth: 64}); verr != nil {
			t.Fatalf("%s: bidirectional proof invalid: %v", label, verr)
		}
	}
	if !lc.plain || len(opts.Constraints) > 0 {
		return
	}
	opts.Direction = Forward
	if _, ferr := lc.g.FindDirect(subject, object, opts); (ferr == nil) != (err == nil) {
		t.Fatalf("%s: bidirectional err = %v, forward %v", label, err, ferr)
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

// TestWalkAllocsFlatInDepth pins the walks' allocations: an exhaustive miss
// allocates as many objects on a 24-deep chain as on a 4-deep one, in both
// directions — the path and the frame stack are sized once per walk, and no
// per-node set or closure is built.
func TestWalkAllocsFlatInDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	stranger := core.SubjectEntity(core.EntityID("stranger"))
	allocs := func(length int, dirn Direction) float64 {
		g, subject, goal := buildChainGraph(t, length, 2)
		subj, obj := subject, core.NewRole(goal.Namespace, "nowhere")
		if dirn == Reverse {
			subj, obj = stranger, goal
		}
		opts := Options{At: testNow, Direction: dirn}
		if _, err := g.FindDirect(subj, obj, opts); err == nil {
			t.Fatalf("direction %d: miss found a proof", dirn)
		}
		return testing.AllocsPerRun(50, func() { _, _ = g.FindDirect(subj, obj, opts) })
	}
	for _, dirn := range []Direction{Forward, Reverse} {
		if short, deep := allocs(4, dirn), allocs(24, dirn); deep != short {
			t.Errorf("direction %d: miss allocates %v objects on a 24-deep chain, %v on a 4-deep one", dirn, deep, short)
		}
	}
}

// TestNewAllocs pins graph.New at the graph itself: shards make their maps
// on first use, so a wallet that holds little costs little to build.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	if n := testing.AllocsPerRun(100, func() { _ = New() }); n > 2 {
		t.Fatalf("New allocates %v objects, want at most 2", n)
	}
}

// TestConcurrentWalksUnderChurn runs every search while other goroutines
// add, remove and re-add delegations on the searched subjects and objects,
// including index entries that hold nothing but churned edges and so are
// deleted and made again. Every proof returned must be a chain of
// delegations the graph held, linked end to end from the query's subject to
// its object. Once the churn stops, the graph holds exactly the stable chain
// and no index entry outlives its last edge: an Add and a Remove of one ID
// that interleave leave the ID index and the edge lists agreeing.
func TestConcurrentWalksUnderChurn(t *testing.T) {
	e := newEnv(t, "Owner", "User")
	owner, user := e.id("Owner"), e.id("User")
	role := func(name string, i int) core.Role { return core.NewRole(owner.ID(), fmt.Sprintf("%s%d", name, i)) }
	held := make(map[*core.Delegation]bool)
	issue := func(subject core.Subject, subjEnt *core.Entity, object core.Role) *core.Delegation {
		d, err := core.Issue(owner, core.Template{Subject: subject, SubjectEntity: subjEnt, Object: object}, testNow)
		if err != nil {
			t.Fatal(err)
		}
		held[d] = true
		return d
	}

	g := New()
	subject, goal := core.SubjectEntity(user.ID()), role("goal", 0)
	userEnt := user.Entity()
	g.Add(issue(subject, &userEnt, role("a", 0)), nil)
	const length = 6
	for i := 0; i+1 < length; i++ {
		g.Add(issue(core.SubjectRole(role("a", i)), nil, role("a", i+1)), nil)
	}
	g.Add(issue(core.SubjectRole(role("a", length-1)), nil, goal), nil)
	stable := g.Len()

	// Churned: a detour a2 ⇒ b0 ⇒ b1 ⇒ goal whose b vertices exist only
	// while it does, a back-edge a3 ⇒ a1, a shortcut user ⇒ a4, and
	// isolated pairs c_k ⇒ d_k landing on the walks' shards.
	churn := []*core.Delegation{
		issue(core.SubjectRole(role("a", 2)), nil, role("b", 0)),
		issue(core.SubjectRole(role("b", 0)), nil, role("b", 1)),
		issue(core.SubjectRole(role("b", 1)), nil, goal),
		issue(core.SubjectRole(role("a", 3)), nil, role("a", 1)),
		issue(subject, &userEnt, role("a", 4)),
	}
	for k := 0; k < 16; k++ {
		churn = append(churn, issue(core.SubjectRole(role("c", k)), nil, role("d", k)))
	}

	n := 400
	if testing.Short() {
		n = 100
	}
	stop := make(chan struct{})
	var churners sync.WaitGroup
	for w := 0; w < 2; w++ {
		churners.Add(1)
		go func(w int) {
			defer churners.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := churn[i%len(churn)]
				g.Add(d, nil)
				g.Remove(d.ID())
				g.Add(d, nil)
				if i%3 == 0 {
					g.Remove(d.ID())
				}
			}
		}(w)
	}

	errs := make(chan error, 4)
	check := func(p *core.Proof, wantSubject *core.Subject, wantObject *core.Role) error {
		if len(p.Steps) == 0 {
			return fmt.Errorf("empty proof")
		}
		if wantSubject != nil && p.Subject != *wantSubject || wantObject != nil && p.Object != *wantObject {
			return fmt.Errorf("proof %v ⇒ %v, want %v ⇒ %v", p.Subject, p.Object, wantSubject, wantObject)
		}
		if p.Steps[0].Delegation.Subject != p.Subject || p.Steps[len(p.Steps)-1].Delegation.Object != p.Object {
			return fmt.Errorf("proof %v ⇒ %v does not span its steps", p.Subject, p.Object)
		}
		for i, st := range p.Steps {
			if !held[st.Delegation] {
				return fmt.Errorf("step %d: delegation %v never held", i, st.Delegation)
			}
			if i > 0 && p.Steps[i-1].Delegation.Object != st.Delegation.Subject.Role {
				return fmt.Errorf("step %d: %v does not follow %v", i, st.Delegation, p.Steps[i-1].Delegation)
			}
		}
		return nil
	}
	var walkers sync.WaitGroup
	for w := 0; w < 2; w++ {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			for i := 0; i < n; i++ {
				var ps []*core.Proof
				for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
					p, err := g.FindDirect(subject, goal, Options{At: testNow, Direction: dirn})
					if err != nil {
						errs <- fmt.Errorf("direction %d: %v (the stable chain is always held)", dirn, err)
						return
					}
					if err := check(p, &subject, &goal); err != nil {
						errs <- fmt.Errorf("direction %d: %v", dirn, err)
						return
					}
				}
				ps = append(ps, g.EnumerateFrom(subject, Options{At: testNow})...)
				for _, p := range ps {
					if err := check(p, &subject, nil); err != nil {
						errs <- fmt.Errorf("EnumerateFrom: %v", err)
						return
					}
				}
				for _, p := range g.EnumerateTo(goal, Options{At: testNow}) {
					if err := check(p, nil, &goal); err != nil {
						errs <- fmt.Errorf("EnumerateTo: %v", err)
						return
					}
				}
			}
		}()
	}
	walkers.Wait()
	close(stop)
	churners.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, d := range churn {
		g.Remove(d.ID())
	}
	if g.Len() != stable {
		t.Fatalf("graph holds %d delegations after the churn, want %d", g.Len(), stable)
	}
	// Subjects user and a0…a5, objects a0…a5 and goal: every other entry
	// left with its last edge.
	if subjects, objects := indexKeys(g); subjects != length+1 || objects != length+1 {
		t.Fatalf("graph indexes %d subjects and %d objects after the churn, want %d and %d", subjects, objects, length+1, length+1)
	}
	p, err := g.FindDirect(subject, goal, Options{At: testNow, Direction: Reverse})
	if err != nil || len(p.Steps) != length+1 {
		t.Fatalf("after the churn: %v, %v", p, err)
	}
}

// indexKeys counts the subjects and objects the graph's shards index.
func indexKeys(g *Graph) (subjects, objects int) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		subjects += len(sh.bySubject)
		objects += len(sh.byObject)
		sh.mu.RUnlock()
	}
	return subjects, objects
}
