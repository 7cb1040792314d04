// Package graph implements the wallet-internal delegation graph: a directed
// multigraph whose vertices are subjects (entities or roles) and whose edges
// are delegations, supporting the efficient enumeration of delegation chains
// between any subject and object that §4.1 requires.
//
// Searches prune on valued-attribute monotonicity (§4.2.3): once a partial
// chain's aggregated modifiers violate a query constraint, no extension can
// satisfy it, so the branch is abandoned.
//
// Storage is sharded: vertices and delegation IDs hash onto a fixed set of
// shards, each guarded by its own RWMutex. Mutations lock only the shards
// owning the touched subject, object, and ID keys — together, so the three
// indexes change as one — and publish fresh edge slices (copy-on-write), so
// searches iterate immutable snapshots without holding any lock across the
// traversal: concurrent queries proceed fully in parallel with each other
// and with publications and revocations of unrelated credentials. A walk
// reads each node's snapshot with one keyed lookup under the node's shard
// read lock, and keeps its chain on an explicit stack rather than the
// goroutine's. A search overlapping a mutation may observe the graph
// mid-update (e.g. one node's edges before an Add and the next node's
// after it); callers re-validate candidate proofs against expiry and
// revocation, so a transient read costs a failed validation, never a wrong
// answer.
package graph

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"drbac/internal/core"
)

// edge is one stored delegation plus the support proofs published with it.
type edge struct {
	d       *core.Delegation
	support []*core.Proof
}

// shardCount is the number of index shards. A fixed power of two keeps the
// hash-to-shard mapping a mask and comfortably exceeds typical core counts.
const shardCount = 32

// shard is one lock domain of the index. The three maps are independent
// key spaces, each made on first use; a delegation's subject, object, and ID
// may land on different shards.
type shard struct {
	mu sync.RWMutex
	// bySubject indexes outgoing edges by the delegation subject.
	bySubject map[core.Subject][]*edge
	// byObject indexes incoming edges by the delegation object.
	byObject map[core.Role][]*edge
	byID     map[core.DelegationID]*edge
}

// Graph is a concurrency-safe sharded delegation graph. The zero value is
// not usable; construct with New.
type Graph struct {
	shards [shardCount]shard
}

// New returns an empty graph. It allocates the graph alone: a shard makes
// its maps when a delegation first lands on it, so a wallet that holds
// little costs little to build.
func New() *Graph {
	return &Graph{}
}

// FNV-1a constants for shard hashing.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func hashString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime
	}
	return h
}

func hashRole(h uint32, r core.Role) uint32 {
	h = hashString(h, string(r.Namespace))
	h = hashString(h, r.Name)
	h ^= uint32(r.Tick)
	h *= fnvPrime
	if r.Attr {
		h ^= 1
	}
	h *= fnvPrime
	h ^= uint32(r.Op)
	h *= fnvPrime
	return h
}

func subjectIndex(s core.Subject) uint32 {
	return hashRole(hashString(fnvOffset, string(s.Entity)), s.Role) % shardCount
}

func objectIndex(r core.Role) uint32 {
	return hashRole(fnvOffset, r) % shardCount
}

func idIndex(id core.DelegationID) uint32 {
	return hashString(fnvOffset, string(id)) % shardCount
}

// lockShards write-locks shards i, j and k — a delegation's ID, subject and
// object shards — in index order, a shard named twice once, so two
// mutations never wait on each other in a cycle.
func (g *Graph) lockShards(i, j, k uint32) {
	idx := [3]uint32{i, j, k}
	slices.Sort(idx[:])
	for n, x := range idx {
		if n == 0 || x != idx[n-1] {
			g.shards[x].mu.Lock()
		}
	}
}

func (g *Graph) unlockShards(i, j, k uint32) {
	g.shards[i].mu.Unlock()
	if j != i {
		g.shards[j].mu.Unlock()
	}
	if k != i && k != j {
		g.shards[k].mu.Unlock()
	}
}

// edgesFrom returns the out-edges of subject. The result is an immutable
// snapshot (mutations publish fresh slices), so callers iterate it without
// holding the shard lock.
func (g *Graph) edgesFrom(s core.Subject) []*edge {
	sh := &g.shards[subjectIndex(s)]
	sh.mu.RLock()
	list := sh.bySubject[s]
	sh.mu.RUnlock()
	return list
}

// edgesTo returns the in-edges of object, with the same snapshot semantics
// as edgesFrom.
func (g *Graph) edgesTo(r core.Role) []*edge {
	sh := &g.shards[objectIndex(r)]
	sh.mu.RLock()
	list := sh.byObject[r]
	sh.mu.RUnlock()
	return list
}

// OutDegree counts the edges stored from subject, expired ones included.
func (g *Graph) OutDegree(s core.Subject) int { return len(g.edgesFrom(s)) }

// InDegree counts the edges stored into object, expired ones included.
func (g *Graph) InDegree(r core.Role) int { return len(g.edgesTo(r)) }

// Add inserts a delegation and its accompanying support proofs. Adding a
// delegation the graph holds replaces its support proofs: the graph is the
// wallet's one copy of a bundle, so the last publication is the one it keeps.
// The graph performs no validation; the wallet verifies every signature in
// the bundle, support proofs included, before insertion, and so checks the
// proofs the graph assembles without them (core's ValidateAdmitted).
func (g *Graph) Add(d *core.Delegation, support []*core.Proof) {
	id := d.ID()
	e := &edge{d: d, support: support}

	// The ID, subject and object shards are locked together, so the three
	// indexes change as one.
	ii, si, oi := idIndex(id), subjectIndex(d.Subject), objectIndex(d.Object)
	g.lockShards(ii, si, oi)
	defer g.unlockShards(ii, si, oi)
	ids, ss, os := &g.shards[ii], &g.shards[si], &g.shards[oi]
	if ids.byID == nil {
		ids.byID = make(map[core.DelegationID]*edge)
	}
	if ss.bySubject == nil {
		ss.bySubject = make(map[core.Subject][]*edge)
	}
	if os.byObject == nil {
		os.byObject = make(map[core.Role][]*edge)
	}
	old := ids.byID[id]
	ids.byID[id] = e
	ss.bySubject[d.Subject] = putEdge(ss.bySubject[d.Subject], old, e)
	os.byObject[d.Object] = putEdge(os.byObject[d.Object], old, e)
}

// putEdge returns list without old (nil: nothing to replace) and with e, as
// a fresh slice: append's capacity is capped so it always allocates, and
// readers holding the old snapshot never see the backing array mutate.
func putEdge(list []*edge, old, e *edge) []*edge {
	if old != nil {
		list = dropEdge(list, old)
	}
	return append(list[:len(list):len(list)], e)
}

// Remove deletes a delegation by ID, reporting whether it was present.
func (g *Graph) Remove(id core.DelegationID) bool {
	ids := &g.shards[idIndex(id)]
	ids.mu.RLock()
	e := ids.byID[id]
	ids.mu.RUnlock()
	if e == nil {
		return false
	}

	// Every edge stored under id has the same subject and object, so the
	// shards locked here stay the right ones even if id was re-added
	// meanwhile.
	d := e.d
	ii, si, oi := idIndex(id), subjectIndex(d.Subject), objectIndex(d.Object)
	g.lockShards(ii, si, oi)
	defer g.unlockShards(ii, si, oi)
	if e = ids.byID[id]; e == nil {
		return false
	}
	delete(ids.byID, id)
	ss, os := &g.shards[si], &g.shards[oi]
	if list := dropEdge(ss.bySubject[d.Subject], e); len(list) == 0 {
		delete(ss.bySubject, d.Subject)
	} else {
		ss.bySubject[d.Subject] = list
	}
	if list := dropEdge(os.byObject[d.Object], e); len(list) == 0 {
		delete(os.byObject, d.Object)
	} else {
		os.byObject[d.Object] = list
	}
	return true
}

// dropEdge returns a fresh slice without e (copy-on-write: the input slice
// may be a snapshot concurrently iterated by a search).
func dropEdge(list []*edge, e *edge) []*edge {
	for i, cand := range list {
		if cand != e {
			continue
		}
		out := make([]*edge, 0, len(list)-1)
		out = append(out, list[:i]...)
		return append(out, list[i+1:]...)
	}
	return list
}

// Get returns a stored delegation and its support proofs.
func (g *Graph) Get(id core.DelegationID) (*core.Delegation, []*core.Proof, bool) {
	sh := &g.shards[idIndex(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.byID[id]
	if !ok {
		return nil, nil, false
	}
	return e.d, e.support, true
}

// Contains reports whether the delegation is stored.
func (g *Graph) Contains(id core.DelegationID) bool {
	sh := &g.shards[idIndex(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.byID[id]
	return ok
}

// Len returns the number of stored delegations.
func (g *Graph) Len() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		n += len(sh.byID)
		sh.mu.RUnlock()
	}
	return n
}

// All returns every stored delegation (order unspecified).
func (g *Graph) All() []*core.Delegation {
	var out []*core.Delegation
	g.Each(func(d *core.Delegation, _ []*core.Proof) { out = append(out, d) })
	return out
}

// Each calls fn with every stored delegation and its support proofs, in
// unspecified order. fn runs under a shard's read lock and must not call
// back into the graph.
func (g *Graph) Each(fn func(d *core.Delegation, support []*core.Proof)) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for _, e := range sh.byID {
			fn(e.d, e.support)
		}
		sh.mu.RUnlock()
	}
}

// Direction selects the search strategy for direct queries (§4.2.3).
type Direction int

const (
	// Forward searches subject-towards-object.
	Forward Direction = iota + 1
	// Reverse searches object-towards-subject.
	Reverse
	// Bidirectional expands both frontiers and meets in the middle,
	// reducing the number of paths considered from ~b^d to ~2·b^(d/2).
	Bidirectional
)

// Stats accumulates search-effort counters for the §4.2.3 experiments.
type Stats struct {
	// EdgesExplored counts delegation edges the search touched.
	EdgesExplored int
	// NodesVisited counts search states expanded.
	NodesVisited int
	// Pruned counts branches abandoned due to attribute constraints.
	Pruned int
}

// Options parameterizes searches.
type Options struct {
	// At is the evaluation instant; expired delegations are invisible.
	At time.Time
	// Constraints restrict acceptable proofs by aggregated attribute value.
	Constraints []core.Constraint
	// DisablePruning turns off monotonicity pruning (baseline for the
	// §4.2.3 pruning experiment). Constraints are then only checked on
	// complete chains.
	DisablePruning bool
	// MaxDepth bounds chain length; 0 means DefaultMaxDepth.
	MaxDepth int
	// MaxProofs bounds enumeration results; 0 means DefaultMaxProofs.
	MaxProofs int
	// Direction selects the direct-search strategy; 0 means Forward.
	Direction Direction
	// Stats, if non-nil, accumulates search effort.
	Stats *Stats
}

// DefaultMaxDepth bounds chain length during search.
const DefaultMaxDepth = 32

// DefaultMaxProofs bounds subject/object enumeration results.
const DefaultMaxProofs = 1024

func (o Options) maxDepth() int {
	if o.MaxDepth <= 0 {
		return DefaultMaxDepth
	}
	return o.MaxDepth
}

func (o Options) maxProofs() int {
	if o.MaxProofs <= 0 {
		return DefaultMaxProofs
	}
	return o.MaxProofs
}

func (o Options) bumpNodes() {
	if o.Stats != nil {
		o.Stats.NodesVisited++
	}
}

func (o Options) bumpEdges() {
	if o.Stats != nil {
		o.Stats.EdgesExplored++
	}
}

func (o Options) bumpPruned() {
	if o.Stats != nil {
		o.Stats.Pruned++
	}
}

// usable reports whether an edge may appear in a proof at instant At.
func usable(e *edge, at time.Time) bool {
	return at.IsZero() || !e.d.Expired(at)
}

// FindDirect searches for one proof subject ⇒ object satisfying the
// constraints. It returns core.ErrNoProof when none exists.
func (g *Graph) FindDirect(subject core.Subject, object core.Role, opts Options) (*core.Proof, error) {
	if err := subject.Validate(); err != nil {
		return nil, fmt.Errorf("direct query subject: %w", err)
	}
	if err := object.Validate(); err != nil {
		return nil, fmt.Errorf("direct query object: %w", err)
	}
	switch opts.Direction {
	case Reverse:
		return g.findReverse(subject, object, opts)
	case Bidirectional:
		return g.findBidirectional(subject, object, opts)
	default:
		return g.findForward(subject, object, opts)
	}
}

// findForward walks from the subject and stops at the first chain that
// reaches the object with an aggregate satisfying the constraints.
func (g *Graph) findForward(subject core.Subject, object core.Role, opts Options) (*core.Proof, error) {
	var found *core.Proof
	g.walkFrom(subject, opts, func(path []*edge, ag core.Aggregate) bool {
		if path[len(path)-1].d.Object != object || !core.SatisfiedAll(opts.Constraints, ag) {
			return false
		}
		found = proofFromEdges(path)
		return true
	})
	if found == nil {
		return nil, core.ErrNoProof
	}
	return found, nil
}

// findReverse walks from the object and stops at the first simple chain that
// starts at the subject and satisfies the constraints. walkTo visits only
// simple chains, so a role asked for itself has none.
func (g *Graph) findReverse(subject core.Subject, object core.Role, opts Options) (*core.Proof, error) {
	var found *core.Proof
	g.walkTo(object, opts, func(path []*edge) bool {
		if path[len(path)-1].d.Subject == subject {
			if p := proofFromEdges(reversed(path)); chainSatisfies(p, opts) {
				found = p
			}
		}
		return found != nil
	})
	if found == nil {
		return nil, core.ErrNoProof
	}
	return found, nil
}

// walkFrom is the subject-side search. It enumerates simple chains
// depth-first from subject and calls visit with each (in chain order, with
// its aggregate) until visit reports stop. Only chains within MaxDepth and
// every depth limit on them, over edges usable at opts.At, with no operator
// conflict and — unless pruning is disabled — an aggregate still satisfying
// the constraints reach visit. visit must not retain path or modify ag.
//
// The search is a loop over an explicit stack of frames, one per node on
// the current chain, so its cost does not grow the caller's goroutine stack;
// a node is on the chain when it is the subject or some path edge's object.
func (g *Graph) walkFrom(subject core.Subject, opts Options, visit func(path []*edge, ag core.Aggregate) (stop bool)) {
	maxDeep := opts.maxDepth()
	opts.bumpNodes()
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	path := sc.path[:0]
	stack := append(sc.stack[:0], frame{edges: g.edgesFrom(subject), ag: core.NewAggregate(), budget: maxDeep})
	for {
		top := &stack[len(stack)-1]
		if len(top.edges) == 0 {
			if stack = stack[:len(stack)-1]; len(stack) == 0 {
				return
			}
			path = path[:len(path)-1]
			continue
		}
		e := top.edges[0]
		top.edges = top.edges[1:]
		if !usable(e, opts.At) {
			continue
		}
		opts.bumpEdges()
		// Depth-limit budget: taking this edge consumes one step from every
		// limit already on the path; the edge may add its own.
		budget := top.budget - 1
		if budget < 0 {
			continue // an earlier delegation forbids this extension
		}
		if e.d.DepthLimit > 0 && e.d.DepthLimit < budget {
			budget = e.d.DepthLimit
		}
		if onPathFrom(subject, path, e.d.Object) {
			continue
		}
		// Aggregates are never mutated once built, so an edge that sets no
		// attributes shares its parent's.
		ag := top.ag
		if len(e.d.Attributes) > 0 {
			ag = ag.Clone()
			if err := ag.AddAll(e.d.Attributes); err != nil {
				continue // operator conflict: chain unusable
			}
		}
		if !opts.DisablePruning && !core.SatisfiedAll(opts.Constraints, ag) {
			opts.bumpPruned()
			continue
		}
		path = append(path, e)
		if visit(path, ag) {
			return
		}
		opts.bumpNodes()
		if len(path) >= maxDeep {
			path = path[:len(path)-1]
			continue
		}
		stack = append(stack, frame{edges: g.edgesFrom(core.SubjectRole(e.d.Object)), ag: ag, budget: budget})
	}
}

// walkTo is the object-side search. It enumerates simple chains depth-first
// from object and calls visit with each, reversed (path[0] is the edge
// closest to the object), until visit reports stop. Only simple chains —
// each step's subject not already on the chain — within MaxDepth and every
// depth limit on them, over edges usable at opts.At, reach visit; one is
// extended only through a role subject and, unless pruning is disabled, only
// while its suffix satisfies the constraints. Like walkFrom it loops over an
// explicit frame stack.
func (g *Graph) walkTo(object core.Role, opts Options, visit func(path []*edge) (stop bool)) {
	maxDeep := opts.maxDepth()
	prune := !opts.DisablePruning
	opts.bumpNodes()
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	path := sc.path[:0] // reversed: path[0] is the edge closest to the object
	stack := append(sc.stack[:0], frame{edges: g.edgesTo(object)})
	if prune {
		stack[0].ag = core.NewAggregate()
	}
	for {
		top := &stack[len(stack)-1]
		if len(top.edges) == 0 {
			if stack = stack[:len(stack)-1]; len(stack) == 0 {
				return
			}
			path = path[:len(path)-1]
			continue
		}
		e := top.edges[0]
		top.edges = top.edges[1:]
		if !usable(e, opts.At) {
			continue
		}
		opts.bumpEdges()
		// Reverse depth pruning: the len(path) edges already walked follow
		// this one in every chain through it.
		if e.d.DepthLimit > 0 && e.d.DepthLimit < len(path) {
			continue
		}
		from := e.d.Subject.Role
		if !e.d.Subject.IsEntity() && onPathTo(object, path, from) {
			continue // the step would close a cycle
		}
		path = append(path, e)
		if visit(path) {
			return
		}
		// Continue only through role subjects: entity subjects terminate
		// chains (§3.1.1).
		if e.d.Subject.IsEntity() {
			path = path[:len(path)-1]
			continue
		}
		var suffix core.Aggregate
		if prune {
			var ok bool
			if suffix, ok = extendSuffix(top.ag, e, opts.Constraints); !ok {
				opts.bumpPruned()
				path = path[:len(path)-1]
				continue
			}
		}
		opts.bumpNodes()
		if len(path) >= maxDeep {
			path = path[:len(path)-1]
			continue
		}
		stack = append(stack, frame{edges: g.edgesTo(from), ag: suffix})
	}
}

// frame is one node of a walk's current chain.
type frame struct {
	edges []*edge // the node's edges not yet tried
	// ag aggregates the chain: for walkFrom up to the node, for walkTo from
	// the node to the object (kept only while pruning; modifiers only lower
	// values, so it bounds the final chain's value from above).
	ag core.Aggregate
	// budget is walkFrom's steps left under the depth limits on the chain.
	budget int
}

// scratch is a walk's path and frame stack, reused across walks: a walk
// within the default depth allocates neither, however deep it goes.
type scratch struct {
	path  []*edge
	stack []frame
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{path: make([]*edge, 0, DefaultMaxDepth), stack: make([]frame, 0, DefaultMaxDepth+1)}
}}

// release clears s, so the pool pins no edge or aggregate, and returns it
// to the pool. Slices a deeper walk grew past s are left to the collector.
func (s *scratch) release() {
	clear(s.path[:cap(s.path)])
	clear(s.stack[:cap(s.stack)])
	scratchPool.Put(s)
}

// onPathFrom reports whether role r is a node of walkFrom's chain: the
// subject or the object of an edge on path.
func onPathFrom(subject core.Subject, path []*edge, r core.Role) bool {
	if subject.Entity == "" && sameRole(subject.Role, r) {
		return true
	}
	for _, e := range path {
		if sameRole(e.d.Object, r) {
			return true
		}
	}
	return false
}

// onPathTo reports whether role r is a node of walkTo's chain: the object or
// the subject of an edge on path.
func onPathTo(object core.Role, path []*edge, r core.Role) bool {
	if sameRole(object, r) {
		return true
	}
	for _, e := range path {
		if sameRole(e.d.Subject.Role, r) {
			return true
		}
	}
	return false
}

// revisits reports whether chain returns to its subject or passes through
// its object before its last step: a simple chain, the only kind the
// searches answer with, does neither. A chain from a role to itself always
// returns to its subject.
func revisits(chain []*edge) bool {
	subject, object := chain[0].d.Subject, chain[len(chain)-1].d.Object
	for i, e := range chain {
		if subject.Entity == "" && sameRole(e.d.Object, subject.Role) {
			return true
		}
		if i < len(chain)-1 && sameRole(e.d.Object, object) {
			return true
		}
	}
	return false
}

// sameRole is r == q, comparing the name first: roles on one chain mostly
// share a namespace and differ by name.
func sameRole(r, q core.Role) bool {
	return r.Name == q.Name && r.Namespace == q.Namespace && r.Tick == q.Tick && r.Attr == q.Attr && r.Op == q.Op
}

// extendSuffix returns the suffix aggregate of a chain one edge longer than
// suffix's, and whether it still satisfies the constraints (an operator
// conflict never does). suffix is never mutated: an edge that sets no
// attributes shares it.
func extendSuffix(suffix core.Aggregate, e *edge, constraints []core.Constraint) (core.Aggregate, bool) {
	if len(e.d.Attributes) > 0 {
		suffix = suffix.Clone()
		if err := suffix.AddAll(e.d.Attributes); err != nil {
			return nil, false
		}
	}
	return suffix, core.SatisfiedAll(constraints, suffix)
}

// reversed returns walkTo's path in chain order, as a fresh slice.
func reversed(path []*edge) []*edge {
	chain := make([]*edge, len(path))
	for i, e := range path {
		chain[len(path)-1-i] = e
	}
	return chain
}

func chainSatisfies(p *core.Proof, opts Options) bool {
	ag, err := p.Aggregate()
	if err != nil {
		return false
	}
	return core.SatisfiedAll(opts.Constraints, ag) && chainDepthOK(p.Steps)
}

// chainDepthOK enforces per-delegation depth limits (the §6 transitive-
// trust extension): no step may be followed by more steps than its
// DepthLimit allows.
func chainDepthOK(steps []core.ProofStep) bool {
	for i, st := range steps {
		limit := st.Delegation.DepthLimit
		if limit > 0 && len(steps)-1-i > limit {
			return false
		}
	}
	return true
}

// findBidirectional alternates breadth-first expansion from both ends and
// joins frontiers when they meet (§4.2.3).
func (g *Graph) findBidirectional(subject core.Subject, object core.Role, opts Options) (*core.Proof, error) {
	maxDeep := opts.maxDepth()

	// parentF[n] is the edge that reached subject-side node n; parentR[r]
	// is the edge that reached object-side role r.
	parentF := map[core.Subject]*edge{subject: nil}
	parentR := map[core.Role]*edge{object: nil}
	frontF := []core.Subject{subject}
	frontR := []core.Role{object}

	// meet attempts to assemble and constraint-check a chain through node.
	meet := func(node core.Role) *core.Proof {
		fwd := collectForward(parentF, core.SubjectRole(node))
		rev := collectReverse(parentR, node)
		chain := append(fwd, rev...)
		if len(chain) == 0 || len(chain) > maxDeep || revisits(chain) {
			return nil
		}
		p := proofFromEdges(chain)
		if !chainSatisfies(p, opts) {
			return nil
		}
		return p
	}

	// The subject itself may already satisfy a degenerate meet only when a
	// chain exists, so loop expanding the smaller frontier.
	for steps := 0; steps < 2*maxDeep && (len(frontF) > 0 || len(frontR) > 0); steps++ {
		expandForward := len(frontF) > 0 && (len(frontF) <= len(frontR) || len(frontR) == 0)
		if expandForward {
			var next []core.Subject
			for _, node := range frontF {
				opts.bumpNodes()
				for _, e := range g.edgesFrom(node) {
					if !usable(e, opts.At) {
						continue
					}
					opts.bumpEdges()
					to := core.SubjectRole(e.d.Object)
					if _, seen := parentF[to]; seen {
						continue
					}
					parentF[to] = e
					if _, hit := parentR[e.d.Object]; hit {
						if p := meet(e.d.Object); p != nil {
							return p, nil
						}
					}
					next = append(next, to)
				}
			}
			frontF = next
			continue
		}
		var next []core.Role
		for _, node := range frontR {
			opts.bumpNodes()
			for _, e := range g.edgesTo(node) {
				if !usable(e, opts.At) {
					continue
				}
				opts.bumpEdges()
				// Object-side frontier grows through role subjects; an
				// entity subject is a potential chain start.
				if e.d.Subject == subject {
					if _, hit := parentR[node]; hit {
						chain := append([]*edge{e}, collectReverse(parentR, node)...)
						if len(chain) <= maxDeep && !revisits(chain) {
							if p := proofFromEdges(chain); chainSatisfies(p, opts) {
								return p, nil
							}
						}
					}
				}
				if e.d.Subject.IsEntity() {
					continue
				}
				from := e.d.Subject.Role
				if _, seen := parentR[from]; seen {
					continue
				}
				parentR[from] = e
				if _, hit := parentF[core.SubjectRole(from)]; hit {
					if p := meet(from); p != nil {
						return p, nil
					}
				}
				next = append(next, from)
			}
		}
		frontR = next
	}
	return nil, core.ErrNoProof
}

// collectForward walks parent pointers back from node to the search subject
// and returns the edges in chain order.
func collectForward(parent map[core.Subject]*edge, node core.Subject) []*edge {
	var out []*edge
	for {
		e := parent[node]
		if e == nil {
			break
		}
		out = append(out, e)
		node = e.d.Subject
	}
	// Reverse into chain order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// collectReverse walks parent pointers forward from role to the search
// object and returns the edges in chain order.
func collectReverse(parent map[core.Role]*edge, role core.Role) []*edge {
	var out []*edge
	for {
		e := parent[role]
		if e == nil {
			break
		}
		out = append(out, e)
		role = e.d.Object
	}
	return out
}

// proofFromEdges assembles a proof from an ordered edge chain.
func proofFromEdges(chain []*edge) *core.Proof {
	steps := make([]core.ProofStep, len(chain))
	for i, e := range chain {
		steps[i] = core.ProofStep{Delegation: e.d, Support: e.support}
	}
	return &core.Proof{
		Subject: chain[0].d.Subject,
		Object:  chain[len(chain)-1].d.Object,
		Steps:   steps,
	}
}

// EnumerateFrom answers a subject query (§4.1): every simple-chain proof of
// the form subject ⇒ * that does not violate the constraints, up to
// MaxProofs.
func (g *Graph) EnumerateFrom(subject core.Subject, opts Options) []*core.Proof {
	var out []*core.Proof
	limit := opts.maxProofs()
	g.walkFrom(subject, opts, func(path []*edge, ag core.Aggregate) bool {
		if core.SatisfiedAll(opts.Constraints, ag) {
			out = append(out, proofFromEdges(path))
		}
		return len(out) >= limit
	})
	return out
}

// EnumerateTo answers an object query (§4.1): every simple-chain proof of
// the form * ⇒ object that does not violate the constraints, up to
// MaxProofs.
func (g *Graph) EnumerateTo(object core.Role, opts Options) []*core.Proof {
	var out []*core.Proof
	limit := opts.maxProofs()
	g.walkTo(object, opts, func(path []*edge) bool {
		if p := proofFromEdges(reversed(path)); chainSatisfies(p, opts) {
			out = append(out, p)
		}
		return len(out) >= limit
	})
	return out
}
