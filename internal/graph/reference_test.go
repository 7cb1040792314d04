package graph

import "drbac/internal/core"

// The four searches below are the depth-first searches graph.go carried
// before walkFrom and walkTo, kept verbatim (as functions of g) as the
// reference TestWalksMatchReference compares the walks against. They are
// test oracles, not a second search path.

// refFindForward enumerates simple chains depth-first from the subject.
func refFindForward(g *Graph, subject core.Subject, object core.Role, opts Options) (*core.Proof, error) {
	var (
		path    []*edge
		onPath  = make(map[core.Subject]bool)
		found   *core.Proof
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
			nextAg := ag.Clone()
			if err := nextAg.AddAll(e.d.Attributes); err != nil {
				continue // operator conflict: chain unusable
			}
			if !opts.DisablePruning && !core.SatisfiedAll(opts.Constraints, nextAg) {
				opts.bumpPruned()
				continue
			}
			path = append(path, e)
			if e.d.Object == object && core.SatisfiedAll(opts.Constraints, nextAg) {
				found = proofFromEdges(path)
				path = path[:len(path)-1]
				return true
			}
			onPath[next] = true
			done := dfs(next, nextAg, nextBudget)
			delete(onPath, next)
			path = path[:len(path)-1]
			if done {
				return true
			}
		}
		return false
	}
	onPath[subject] = true
	if dfs(subject, core.NewAggregate(), maxDeep) {
		return found, nil
	}
	return nil, core.ErrNoProof
}

// refFindReverse enumerates simple chains depth-first from the object
// towards the subject.
func refFindReverse(g *Graph, subject core.Subject, object core.Role, opts Options) (*core.Proof, error) {
	var (
		path    []*edge // reversed: path[0] is the edge closest to the object
		onPath  = make(map[core.Role]bool)
		found   *core.Proof
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
			path = append(path, e)
			// Reverse depth pruning: this edge will have len(path)-1 steps
			// after it in the final chain.
			if e.d.DepthLimit > 0 && e.d.DepthLimit < len(path)-1 {
				path = path[:len(path)-1]
				continue
			}
			if e.d.Subject == subject {
				chain := make([]*edge, len(path))
				for i, pe := range path {
					chain[len(path)-1-i] = pe
				}
				if p := proofFromEdges(chain); chainSatisfies(p, opts) {
					found = p
					path = path[:len(path)-1]
					return true
				}
			}
			// Continue only through role subjects: entity subjects
			// terminate chains (§3.1.1).
			if !e.d.Subject.IsEntity() && !onPath[e.d.Subject.Role] {
				// Monotonicity pruning in reverse direction: the suffix
				// aggregate from here to the object already bounds the
				// final value from above.
				if !opts.DisablePruning && !suffixSatisfiable(path, opts) {
					opts.bumpPruned()
					path = path[:len(path)-1]
					continue
				}
				onPath[e.d.Subject.Role] = true
				done := dfs(e.d.Subject.Role)
				delete(onPath, e.d.Subject.Role)
				if done {
					path = path[:len(path)-1]
					return true
				}
			}
			path = path[:len(path)-1]
		}
		return false
	}
	onPath[object] = true
	if dfs(object) {
		return found, nil
	}
	return nil, core.ErrNoProof
}

// edgeDepthOK is chainDepthOK over the search-internal edge slice.
func edgeDepthOK(chain []*edge) bool {
	for i, e := range chain {
		limit := e.d.DepthLimit
		if limit > 0 && len(chain)-1-i > limit {
			return false
		}
	}
	return true
}

// refEnumerateFrom answers a subject query (§4.1): every simple-chain proof
// of the form subject ⇒ * that does not violate the constraints, up to
// MaxProofs.
func refEnumerateFrom(g *Graph, subject core.Subject, opts Options) []*core.Proof {
	var (
		out     []*core.Proof
		path    []*edge
		onPath  = map[core.Subject]bool{subject: true}
		maxDeep = opts.maxDepth()
		limit   = opts.maxProofs()
	)
	var dfs func(node core.Subject, ag core.Aggregate)
	dfs = func(node core.Subject, ag core.Aggregate) {
		opts.bumpNodes()
		if len(out) >= limit || len(path) >= maxDeep {
			return
		}
		for _, e := range g.edgesFrom(node) {
			if !usable(e, opts.At) {
				continue
			}
			opts.bumpEdges()
			next := core.SubjectRole(e.d.Object)
			if onPath[next] {
				continue
			}
			nextAg := ag.Clone()
			if err := nextAg.AddAll(e.d.Attributes); err != nil {
				continue
			}
			if !opts.DisablePruning && !core.SatisfiedAll(opts.Constraints, nextAg) {
				opts.bumpPruned()
				continue
			}
			path = append(path, e)
			if core.SatisfiedAll(opts.Constraints, nextAg) && edgeDepthOK(path) {
				out = append(out, proofFromEdges(path))
			}
			if len(out) < limit {
				onPath[next] = true
				dfs(next, nextAg)
				delete(onPath, next)
			}
			path = path[:len(path)-1]
			if len(out) >= limit {
				return
			}
		}
	}
	dfs(subject, core.NewAggregate())
	return out
}

// refEnumerateTo answers an object query (§4.1): every simple-chain proof of
// the form * ⇒ object that does not violate the constraints, up to
// MaxProofs.
func refEnumerateTo(g *Graph, object core.Role, opts Options) []*core.Proof {
	var (
		out     []*core.Proof
		path    []*edge // reversed
		onPath  = map[core.Role]bool{object: true}
		maxDeep = opts.maxDepth()
		limit   = opts.maxProofs()
	)
	emit := func() {
		chain := make([]*edge, len(path))
		for i, e := range path {
			chain[len(path)-1-i] = e
		}
		p := proofFromEdges(chain)
		if chainSatisfies(p, opts) {
			out = append(out, p)
		}
	}
	var dfs func(node core.Role)
	dfs = func(node core.Role) {
		opts.bumpNodes()
		if len(out) >= limit || len(path) >= maxDeep {
			return
		}
		for _, e := range g.edgesTo(node) {
			if !usable(e, opts.At) {
				continue
			}
			opts.bumpEdges()
			path = append(path, e)
			if !opts.DisablePruning && !suffixSatisfiable(path, opts) {
				opts.bumpPruned()
				path = path[:len(path)-1]
				continue
			}
			emit()
			if !e.d.Subject.IsEntity() && !onPath[e.d.Subject.Role] && len(out) < limit {
				onPath[e.d.Subject.Role] = true
				dfs(e.d.Subject.Role)
				delete(onPath, e.d.Subject.Role)
			}
			path = path[:len(path)-1]
			if len(out) >= limit {
				return
			}
		}
	}
	dfs(object)
	return out
}
