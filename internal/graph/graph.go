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
// owning the touched subject, object, and ID keys, and publish fresh edge
// slices (copy-on-write), so searches iterate immutable snapshots without
// holding any lock across the traversal — concurrent queries proceed fully
// in parallel with each other and with publications and revocations of
// unrelated credentials. A search overlapping a mutation may observe the
// graph mid-update (e.g. an edge indexed by subject but not yet by object);
// callers re-validate candidate proofs against expiry and revocation, so a
// transient read costs a failed validation, never a wrong answer.
package graph

import (
	"fmt"
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
// key spaces; a delegation's subject, object, and ID may land on different
// shards.
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

// New returns an empty graph.
func New() *Graph {
	g := &Graph{}
	for i := range g.shards {
		s := &g.shards[i]
		s.bySubject = make(map[core.Subject][]*edge)
		s.byObject = make(map[core.Role][]*edge)
		s.byID = make(map[core.DelegationID]*edge)
	}
	return g
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

func (g *Graph) subjectShard(s core.Subject) *shard {
	h := hashString(fnvOffset, string(s.Entity))
	h = hashRole(h, s.Role)
	return &g.shards[h%shardCount]
}

func (g *Graph) objectShard(r core.Role) *shard {
	return &g.shards[hashRole(fnvOffset, r)%shardCount]
}

func (g *Graph) idShard(id core.DelegationID) *shard {
	return &g.shards[hashString(fnvOffset, string(id))%shardCount]
}

// edgesFrom returns the out-edges of subject. The result is an immutable
// snapshot (mutations publish fresh slices), so callers iterate it without
// holding the shard lock.
func (g *Graph) edgesFrom(s core.Subject) []*edge {
	sh := g.subjectShard(s)
	sh.mu.RLock()
	list := sh.bySubject[s]
	sh.mu.RUnlock()
	return list
}

// edgesTo returns the in-edges of object, with the same snapshot semantics
// as edgesFrom.
func (g *Graph) edgesTo(r core.Role) []*edge {
	sh := g.objectShard(r)
	sh.mu.RLock()
	list := sh.byObject[r]
	sh.mu.RUnlock()
	return list
}

// Add inserts a delegation and its accompanying support proofs. Adding a
// delegation the graph holds replaces its support proofs: the graph is the
// wallet's one copy of a bundle, so the last publication is the one it keeps.
// The graph performs no validation; the wallet verifies every signature in
// the bundle, support proofs included, before insertion, and so checks the
// proofs the graph assembles without them (core's ValidateAdmitted).
func (g *Graph) Add(d *core.Delegation, support []*core.Proof) {
	id := d.ID()
	e := &edge{d: d, support: support}

	ids := g.idShard(id)
	ids.mu.Lock()
	old := ids.byID[id]
	ids.byID[id] = e
	ids.mu.Unlock()

	ss := g.subjectShard(d.Subject)
	ss.mu.Lock()
	ss.bySubject[d.Subject] = putEdge(ss.bySubject[d.Subject], old, e)
	ss.mu.Unlock()

	os := g.objectShard(d.Object)
	os.mu.Lock()
	os.byObject[d.Object] = putEdge(os.byObject[d.Object], old, e)
	os.mu.Unlock()
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
	ids := g.idShard(id)
	ids.mu.Lock()
	e, ok := ids.byID[id]
	if ok {
		delete(ids.byID, id)
	}
	ids.mu.Unlock()
	if !ok {
		return false
	}

	ss := g.subjectShard(e.d.Subject)
	ss.mu.Lock()
	if list := dropEdge(ss.bySubject[e.d.Subject], e); len(list) == 0 {
		delete(ss.bySubject, e.d.Subject)
	} else {
		ss.bySubject[e.d.Subject] = list
	}
	ss.mu.Unlock()

	os := g.objectShard(e.d.Object)
	os.mu.Lock()
	if list := dropEdge(os.byObject[e.d.Object], e); len(list) == 0 {
		delete(os.byObject, e.d.Object)
	} else {
		os.byObject[e.d.Object] = list
	}
	os.mu.Unlock()
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
	sh := g.idShard(id)
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
	sh := g.idShard(id)
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

// findReverse walks from the object and stops at the first chain that starts
// at the subject and satisfies the constraints.
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
func (g *Graph) walkFrom(subject core.Subject, opts Options, visit func(path []*edge, ag core.Aggregate) (stop bool)) {
	var (
		path    []*edge
		onPath  = map[core.Subject]bool{subject: true}
		maxDeep = opts.maxDepth()
	)
	var dfs func(node core.Subject, ag core.Aggregate, budget int) bool
	dfs = func(node core.Subject, ag core.Aggregate, budget int) bool {
		opts.bumpNodes()
		if len(path) >= maxDeep {
			return false
		}
		for _, e := range g.edgesFrom(node) {
			if !usable(e, opts.At) {
				continue
			}
			opts.bumpEdges()
			// Depth-limit budget: taking this edge consumes one step from
			// every limit already on the path; the edge may add its own.
			nextBudget := budget - 1
			if nextBudget < 0 {
				continue // an earlier delegation forbids this extension
			}
			if e.d.DepthLimit > 0 && e.d.DepthLimit < nextBudget {
				nextBudget = e.d.DepthLimit
			}
			next := core.SubjectRole(e.d.Object)
			if onPath[next] {
				continue
			}
			// Aggregates are never mutated once built, so an edge that sets
			// no attributes shares its parent's.
			nextAg := ag
			if len(e.d.Attributes) > 0 {
				nextAg = ag.Clone()
				if err := nextAg.AddAll(e.d.Attributes); err != nil {
					continue // operator conflict: chain unusable
				}
			}
			if !opts.DisablePruning && !core.SatisfiedAll(opts.Constraints, nextAg) {
				opts.bumpPruned()
				continue
			}
			path = append(path, e)
			stop := visit(path, nextAg)
			if !stop {
				onPath[next] = true
				stop = dfs(next, nextAg, nextBudget)
				delete(onPath, next)
			}
			path = path[:len(path)-1]
			if stop {
				return true
			}
		}
		return false
	}
	dfs(subject, core.NewAggregate(), maxDeep)
}

// walkTo is the object-side search. It enumerates simple chains depth-first
// from object and calls visit with each, reversed (path[0] is the edge
// closest to the object), until visit reports stop. Only chains within
// MaxDepth and every depth limit on them, over edges usable at opts.At, reach
// visit; one is extended only through a role subject not already on it and,
// unless pruning is disabled, only while its suffix satisfies the constraints.
func (g *Graph) walkTo(object core.Role, opts Options, visit func(path []*edge) (stop bool)) {
	var (
		path    []*edge // reversed: path[0] is the edge closest to the object
		onPath  = map[core.Role]bool{object: true}
		maxDeep = opts.maxDepth()
	)
	var dfs func(node core.Role) bool
	dfs = func(node core.Role) bool {
		opts.bumpNodes()
		if len(path) >= maxDeep {
			return false
		}
		for _, e := range g.edgesTo(node) {
			if !usable(e, opts.At) {
				continue
			}
			opts.bumpEdges()
			// Reverse depth pruning: the len(path) edges already walked
			// follow this one in every chain through it.
			if e.d.DepthLimit > 0 && e.d.DepthLimit < len(path) {
				continue
			}
			path = append(path, e)
			stop := visit(path)
			// Continue only through role subjects: entity subjects
			// terminate chains (§3.1.1).
			from := e.d.Subject.Role
			if !stop && !e.d.Subject.IsEntity() && !onPath[from] {
				// Monotonicity pruning in reverse direction: the suffix
				// aggregate from here to the object already bounds the
				// final value from above.
				if !opts.DisablePruning && !suffixSatisfiable(path, opts) {
					opts.bumpPruned()
				} else {
					onPath[from] = true
					stop = dfs(from)
					delete(onPath, from)
				}
			}
			path = path[:len(path)-1]
			if stop {
				return true
			}
		}
		return false
	}
	dfs(object)
}

// reversed returns walkTo's path in chain order, as a fresh slice.
func reversed(path []*edge) []*edge {
	chain := make([]*edge, len(path))
	for i, e := range path {
		chain[len(path)-1-i] = e
	}
	return chain
}

// suffixSatisfiable checks whether the reversed partial chain (suffix of the
// final chain) can still satisfy the constraints: since modifiers only
// lower values, the suffix aggregate is an upper bound on the final value.
func suffixSatisfiable(path []*edge, opts Options) bool {
	ag := core.NewAggregate()
	for _, e := range path {
		if err := ag.AddAll(e.d.Attributes); err != nil {
			return false
		}
	}
	return core.SatisfiedAll(opts.Constraints, ag)
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
		if len(chain) == 0 || len(chain) > maxDeep {
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
						fwd := []*edge{e}
						rev := collectReverse(parentR, node)
						p := proofFromEdges(append(fwd, rev...))
						if chainSatisfies(p, opts) && len(p.Steps) <= maxDeep {
							return p, nil
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
