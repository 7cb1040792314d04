package graph

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"drbac/internal/core"
)

var testNow = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// env provides identities and helpers for graph tests.
type env struct {
	t   *testing.T
	ids map[string]*core.Identity
	dir *core.MemDirectory
}

func newEnv(t *testing.T, names ...string) *env {
	t.Helper()
	e := &env{t: t, ids: make(map[string]*core.Identity), dir: core.NewDirectory()}
	for i, name := range names {
		seed := make([]byte, 32)
		seed[0] = byte(i + 1)
		copy(seed[1:], name)
		id, err := core.IdentityFromSeed(name, seed)
		if err != nil {
			t.Fatalf("identity %s: %v", name, err)
		}
		e.ids[name] = id
		e.dir.Add(id.Entity())
	}
	return e
}

func (e *env) id(name string) *core.Identity {
	id, ok := e.ids[name]
	if !ok {
		e.t.Fatalf("unknown identity %q", name)
	}
	return id
}

// deleg parses and signs one delegation in the paper syntax.
func (e *env) deleg(text string) *core.Delegation {
	e.t.Helper()
	parsed, err := core.ParseDelegation(text, e.dir)
	if err != nil {
		e.t.Fatalf("parse %q: %v", text, err)
	}
	var issuer *core.Identity
	for _, id := range e.ids {
		if id.ID() == parsed.Issuer.ID() {
			issuer = id
			break
		}
	}
	if issuer == nil {
		e.t.Fatalf("no identity for issuer of %q", text)
	}
	d, err := core.Issue(issuer, parsed.Template, testNow)
	if err != nil {
		e.t.Fatalf("issue %q: %v", text, err)
	}
	return d
}

func (e *env) role(text string) core.Role {
	e.t.Helper()
	r, err := core.ParseRole(text, e.dir)
	if err != nil {
		e.t.Fatalf("role %q: %v", text, err)
	}
	return r
}

func (e *env) subject(text string) core.Subject {
	e.t.Helper()
	s, err := core.ParseSubject(text, e.dir)
	if err != nil {
		e.t.Fatalf("subject %q: %v", text, err)
	}
	return s
}

func TestAddRemoveGet(t *testing.T) {
	e := newEnv(t, "A", "B")
	g := New()
	d := e.deleg("[B -> A.reader] A")
	g.Add(d, nil)
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	g.Add(d, nil) // idempotent
	if g.Len() != 1 {
		t.Fatalf("duplicate Add changed Len: %d", g.Len())
	}
	got, _, ok := g.Get(d.ID())
	if !ok || got.ID() != d.ID() {
		t.Fatal("Get failed")
	}
	if !g.Contains(d.ID()) {
		t.Fatal("Contains = false")
	}
	if !g.Remove(d.ID()) {
		t.Fatal("Remove = false")
	}
	if g.Remove(d.ID()) {
		t.Fatal("second Remove = true")
	}
	if g.Len() != 0 || g.Contains(d.ID()) {
		t.Fatal("delegation still present after Remove")
	}
	if len(g.All()) != 0 {
		t.Fatal("All() non-empty")
	}
}

func TestFindDirectSingleEdge(t *testing.T) {
	e := newEnv(t, "A", "B")
	g := New()
	g.Add(e.deleg("[B -> A.reader] A"), nil)
	for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
		p, err := g.FindDirect(e.subject("B"), e.role("A.reader"), Options{At: testNow, Direction: dirn})
		if err != nil {
			t.Fatalf("direction %v: %v", dirn, err)
		}
		if p.Len() != 1 {
			t.Fatalf("direction %v: Len = %d", dirn, p.Len())
		}
		if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
			t.Fatalf("direction %v: proof invalid: %v", dirn, err)
		}
	}
}

func TestFindDirectChain(t *testing.T) {
	e := newEnv(t, "A", "B", "C", "M")
	g := New()
	// M -> B.member -> C.guest -> A.reader, mixed namespaces, all
	// self-certified for simplicity.
	g.Add(e.deleg("[M -> B.member] B"), nil)
	g.Add(e.deleg("[B.member -> C.guest] C"), nil)
	g.Add(e.deleg("[C.guest -> A.reader] A"), nil)
	for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
		p, err := g.FindDirect(e.subject("M"), e.role("A.reader"), Options{At: testNow, Direction: dirn})
		if err != nil {
			t.Fatalf("direction %v: %v", dirn, err)
		}
		if p.Len() != 3 {
			t.Fatalf("direction %v: Len = %d, want 3", dirn, p.Len())
		}
		if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
			t.Fatalf("direction %v: proof invalid: %v", dirn, err)
		}
	}
}

func TestFindDirectNoProof(t *testing.T) {
	e := newEnv(t, "A", "B", "M")
	g := New()
	g.Add(e.deleg("[M -> B.member] B"), nil)
	for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
		_, err := g.FindDirect(e.subject("M"), e.role("A.reader"), Options{At: testNow, Direction: dirn})
		if !errors.Is(err, core.ErrNoProof) {
			t.Fatalf("direction %v: want ErrNoProof, got %v", dirn, err)
		}
	}
}

func TestFindDirectInvalidQuery(t *testing.T) {
	g := New()
	if _, err := g.FindDirect(core.Subject{}, core.Role{}, Options{}); err == nil {
		t.Fatal("want error for invalid query")
	}
}

func TestEntitySubjectTerminatesChain(t *testing.T) {
	e := newEnv(t, "A", "B", "M")
	g := New()
	// [M -> B.member] and then a delegation granted *to the entity B*, not
	// to the role: the chain must not pass through B's entity grant.
	g.Add(e.deleg("[M -> B.member] B"), nil)
	g.Add(e.deleg("[B -> A.reader] A"), nil) // grants entity B, not B.member
	for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
		_, err := g.FindDirect(e.subject("M"), e.role("A.reader"), Options{At: testNow, Direction: dirn})
		if !errors.Is(err, core.ErrNoProof) {
			t.Fatalf("direction %v: entity grant must not chain, got %v", dirn, err)
		}
	}
}

func TestCycleSafety(t *testing.T) {
	e := newEnv(t, "A", "B", "M")
	g := New()
	g.Add(e.deleg("[M -> A.x] A"), nil)
	g.Add(e.deleg("[A.x -> B.y] B"), nil)
	g.Add(e.deleg("[B.y -> A.x] A"), nil) // cycle x <-> y
	g.Add(e.deleg("[B.y -> A.goal] A"), nil)
	for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
		p, err := g.FindDirect(e.subject("M"), e.role("A.goal"), Options{At: testNow, Direction: dirn})
		if err != nil {
			t.Fatalf("direction %v: %v", dirn, err)
		}
		if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
			t.Fatalf("direction %v: %v", dirn, err)
		}
	}
	// Unreachable object despite cycle: search must terminate.
	for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
		if _, err := g.FindDirect(e.subject("M"), e.role("A.nowhere"), Options{At: testNow, Direction: dirn}); !errors.Is(err, core.ErrNoProof) {
			t.Fatalf("direction %v: want ErrNoProof, got %v", dirn, err)
		}
	}
}

func TestExpiredEdgesInvisible(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	g.Add(e.deleg("[M -> A.reader] A <expiry:2026-07-06T13:00:00Z>"), nil)
	if _, err := g.FindDirect(e.subject("M"), e.role("A.reader"), Options{At: testNow}); err != nil {
		t.Fatalf("before expiry: %v", err)
	}
	late := testNow.Add(2 * time.Hour)
	if _, err := g.FindDirect(e.subject("M"), e.role("A.reader"), Options{At: late}); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("after expiry: want ErrNoProof, got %v", err)
	}
}

func TestConstraintSelectsSatisfyingPath(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	// Two paths to A.access: a low-bandwidth one through A.cheap and a
	// high-bandwidth one through A.premium.
	g.Add(e.deleg("[M -> A.cheap with A.BW <= 10] A"), nil)
	g.Add(e.deleg("[A.cheap -> A.access] A"), nil)
	g.Add(e.deleg("[M -> A.premium with A.BW <= 500] A"), nil)
	g.Add(e.deleg("[A.premium -> A.access] A"), nil)
	bw := core.AttributeRef{Namespace: e.id("A").ID(), Name: "BW"}
	cons := []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 100}}
	for _, dirn := range []Direction{Forward, Reverse, Bidirectional} {
		p, err := g.FindDirect(e.subject("M"), e.role("A.access"), Options{
			At: testNow, Constraints: cons, Direction: dirn,
		})
		if err != nil {
			t.Fatalf("direction %v: %v", dirn, err)
		}
		ag, err := p.Aggregate()
		if err != nil {
			t.Fatal(err)
		}
		if got := ag.Value(bw, math.Inf(1)); got < 100 {
			t.Fatalf("direction %v: picked path with BW %v", dirn, got)
		}
	}
}

func TestConstraintUnsatisfiableEverywhere(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	g.Add(e.deleg("[M -> A.cheap with A.BW <= 10] A"), nil)
	g.Add(e.deleg("[A.cheap -> A.access] A"), nil)
	bw := core.AttributeRef{Namespace: e.id("A").ID(), Name: "BW"}
	cons := []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 100}}
	for _, pruning := range []bool{true, false} {
		_, err := g.FindDirect(e.subject("M"), e.role("A.access"), Options{
			At: testNow, Constraints: cons, DisablePruning: !pruning,
		})
		if !errors.Is(err, core.ErrNoProof) {
			t.Fatalf("pruning=%v: want ErrNoProof, got %v", pruning, err)
		}
	}
}

func TestPruningReducesExploredEdges(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	// A wide dead-end forest behind a constraint-violating first hop, plus
	// one satisfying path.
	g.Add(e.deleg("[M -> A.bad with A.BW <= 1] A"), nil)
	for i := 0; i < 20; i++ {
		g.Add(e.deleg(fmt.Sprintf("[A.bad -> A.mid%d] A", i)), nil)
		g.Add(e.deleg(fmt.Sprintf("[A.mid%d -> A.leaf%d] A", i, i)), nil)
	}
	g.Add(e.deleg("[M -> A.good with A.BW <= 100] A"), nil)
	g.Add(e.deleg("[A.good -> A.access] A"), nil)

	bw := core.AttributeRef{Namespace: e.id("A").ID(), Name: "BW"}
	cons := []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 50}}

	var pruned, unpruned Stats
	if _, err := g.FindDirect(e.subject("M"), e.role("A.access"), Options{
		At: testNow, Constraints: cons, Stats: &pruned,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.FindDirect(e.subject("M"), e.role("A.access"), Options{
		At: testNow, Constraints: cons, DisablePruning: true, Stats: &unpruned,
	}); err != nil {
		t.Fatal(err)
	}
	if pruned.EdgesExplored >= unpruned.EdgesExplored {
		t.Fatalf("pruning did not help: pruned=%d unpruned=%d",
			pruned.EdgesExplored, unpruned.EdgesExplored)
	}
	if pruned.Pruned == 0 {
		t.Fatal("expected pruned branches to be counted")
	}
}

func TestBidirectionalExploresFewerEdgesOnDeepTrees(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	// Balanced diamond layers: depth 6, branching 3 between layers.
	const depth, branch = 6, 3
	for layer := 0; layer < depth; layer++ {
		for i := 0; i < branch; i++ {
			if layer == 0 {
				g.Add(e.deleg(fmt.Sprintf("[M -> A.l0n%d] A", i)), nil)
				continue
			}
			for j := 0; j < branch; j++ {
				g.Add(e.deleg(fmt.Sprintf("[A.l%dn%d -> A.l%dn%d] A", layer-1, j, layer, i)), nil)
			}
		}
	}
	last := depth - 1
	g.Add(e.deleg(fmt.Sprintf("[A.l%dn0 -> A.goal] A", last)), nil)

	var fwd, bidi Stats
	if _, err := g.FindDirect(e.subject("M"), e.role("A.goal"), Options{
		At: testNow, Direction: Forward, Stats: &fwd,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.FindDirect(e.subject("M"), e.role("A.goal"), Options{
		At: testNow, Direction: Bidirectional, Stats: &bidi,
	}); err != nil {
		t.Fatal(err)
	}
	if bidi.EdgesExplored <= 0 || fwd.EdgesExplored <= 0 {
		t.Fatal("stats not collected")
	}
	t.Logf("forward=%d bidirectional=%d", fwd.EdgesExplored, bidi.EdgesExplored)
}

func TestMaxDepthBoundsSearch(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	g.Add(e.deleg("[M -> A.r0] A"), nil)
	for i := 0; i < 5; i++ {
		g.Add(e.deleg(fmt.Sprintf("[A.r%d -> A.r%d] A", i, i+1)), nil)
	}
	// Chain of length 6 to reach A.r5.
	if _, err := g.FindDirect(e.subject("M"), e.role("A.r5"), Options{At: testNow, MaxDepth: 3}); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("MaxDepth=3 should not reach depth 6, got %v", err)
	}
	if _, err := g.FindDirect(e.subject("M"), e.role("A.r5"), Options{At: testNow, MaxDepth: 6}); err != nil {
		t.Fatalf("MaxDepth=6 should reach: %v", err)
	}
}

func TestEnumerateFrom(t *testing.T) {
	e := newEnv(t, "A", "B", "M")
	g := New()
	g.Add(e.deleg("[M -> B.member] B"), nil)
	g.Add(e.deleg("[B.member -> A.guest] A"), nil)
	g.Add(e.deleg("[B.member -> A.reader] A"), nil)
	proofs := g.EnumerateFrom(e.subject("M"), Options{At: testNow})
	if len(proofs) != 3 {
		t.Fatalf("EnumerateFrom = %d proofs, want 3 (member, guest, reader)", len(proofs))
	}
	objects := map[string]bool{}
	for _, p := range proofs {
		objects[p.Object.Name] = true
		if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
			t.Fatalf("proof %v invalid: %v", p.Object, err)
		}
	}
	for _, want := range []string{"member", "guest", "reader"} {
		if !objects[want] {
			t.Errorf("missing proof for object %q", want)
		}
	}
}

func TestEnumerateFromRespectsMaxProofs(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	for i := 0; i < 10; i++ {
		g.Add(e.deleg(fmt.Sprintf("[M -> A.r%d] A", i)), nil)
	}
	proofs := g.EnumerateFrom(e.subject("M"), Options{At: testNow, MaxProofs: 4})
	if len(proofs) != 4 {
		t.Fatalf("MaxProofs=4 returned %d", len(proofs))
	}
}

func TestEnumerateTo(t *testing.T) {
	e := newEnv(t, "A", "B", "M", "N")
	g := New()
	g.Add(e.deleg("[M -> A.reader] A"), nil)
	g.Add(e.deleg("[N -> B.member] B"), nil)
	g.Add(e.deleg("[B.member -> A.reader] A"), nil)
	proofs := g.EnumerateTo(e.role("A.reader"), Options{At: testNow})
	// Expected proofs ending at A.reader: [M->reader], [B.member->reader],
	// [N->B.member->reader].
	if len(proofs) != 3 {
		t.Fatalf("EnumerateTo = %d proofs, want 3", len(proofs))
	}
	for _, p := range proofs {
		if p.Object != e.role("A.reader") {
			t.Fatalf("proof object = %v", p.Object)
		}
		if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
			t.Fatalf("proof invalid: %v", err)
		}
	}
}

func TestEnumerateWithConstraints(t *testing.T) {
	e := newEnv(t, "A", "M")
	g := New()
	g.Add(e.deleg("[M -> A.cheap with A.BW <= 10] A"), nil)
	g.Add(e.deleg("[M -> A.premium with A.BW <= 500] A"), nil)
	bw := core.AttributeRef{Namespace: e.id("A").ID(), Name: "BW"}
	cons := []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 100}}
	proofs := g.EnumerateFrom(e.subject("M"), Options{At: testNow, Constraints: cons})
	if len(proofs) != 1 || proofs[0].Object.Name != "premium" {
		t.Fatalf("EnumerateFrom with constraints = %v", proofs)
	}
	proofsTo := g.EnumerateTo(e.role("A.cheap"), Options{At: testNow, Constraints: cons})
	if len(proofsTo) != 0 {
		t.Fatalf("EnumerateTo cheap with constraints = %d proofs, want 0", len(proofsTo))
	}
}

func TestSupportProofsTravelWithEdges(t *testing.T) {
	e := newEnv(t, "A", "B", "M")
	g := New()
	// Third-party delegation by B of role A.reader, supported by
	// A's assignment delegations.
	dMS := e.deleg("[B -> A.assigners] A")
	dAsg := e.deleg("[A.assigners -> A.reader'] A")
	sup, err := core.NewProof(core.ProofStep{Delegation: dMS}, core.ProofStep{Delegation: dAsg})
	if err != nil {
		t.Fatal(err)
	}
	d3 := e.deleg("[M -> A.reader] B")
	g.Add(d3, []*core.Proof{sup})
	p, err := g.FindDirect(e.subject("M"), e.role("A.reader"), Options{At: testNow})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(core.ValidateOptions{At: testNow}); err != nil {
		t.Fatalf("proof with support should validate: %v", err)
	}
	if len(p.Steps[0].Support) != 1 {
		t.Fatal("support proof lost in graph round trip")
	}
}

// Adding a delegation the graph holds replaces its support proofs in every
// index — the graph is the wallet's one copy of a bundle — without a second
// edge appearing beside the first.
func TestAddAgainReplacesSupport(t *testing.T) {
	e := newEnv(t, "A", "B", "M")
	g := New()
	sup, err := core.NewProof(
		core.ProofStep{Delegation: e.deleg("[B -> A.assigners] A")},
		core.ProofStep{Delegation: e.deleg("[A.assigners -> A.reader'] A")})
	if err != nil {
		t.Fatal(err)
	}
	other := e.deleg("[M -> A.writer] A")
	d3 := e.deleg("[M -> A.reader] B")
	g.Add(d3, nil)
	g.Add(other, nil) // a second edge from M, so the replacement is not the only one
	g.Add(d3, []*core.Proof{sup})
	if _, support, _ := g.Get(d3.ID()); g.Len() != 2 || len(support) != 1 {
		t.Fatalf("after the second Add: Len = %d, Get support = %d; want 2, 1", g.Len(), len(support))
	}
	fromM := g.EnumerateFrom(e.subject("M"), Options{At: testNow})
	toReader := g.EnumerateTo(e.role("A.reader"), Options{At: testNow})
	if len(fromM) != 2 || len(toReader) != 1 || len(toReader[0].Steps[0].Support) != 1 {
		t.Fatalf("edges from M = %d, to A.reader = %d; want 2 and 1, the latter carrying the new support", len(fromM), len(toReader))
	}
	for _, p := range fromM {
		if p.Steps[0].Delegation.ID() == d3.ID() && len(p.Steps[0].Support) != 1 {
			t.Fatal("the subject index still serves the replaced edge")
		}
	}
}
