package discovery

import (
	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/wallet"
)

// maxChains bounds the chains one frontier holds, as one local enumeration
// lists at most graph.DefaultMaxProofs.
const maxChains = graph.DefaultMaxProofs

// frontier is one direction's search state for a discovery: every simple
// chain the local wallet holds from the query's end, forward q.Subject ⇒
// node and reverse node ⇒ q.Object, as a tree. The local wallet is walked
// once, when the frontier is made; after that the tree grows from the
// delegations each reply inserted, walking the wallet again only from a
// node where it holds more than the reply brought. A child is kept in the
// order the wallet's own walk would reach it (a node's edges in insertion
// order), so the nodes come out as a fresh enumeration would list them, and
// a chain is admitted under the rules that walk applies: the depth bound,
// every delegation's depth limit, no node twice, no operator conflict.
type frontier struct {
	local   *wallet.Wallet
	reverse bool
	// goal is the far end a chain must reach to join the query's two ends:
	// forward the object, reverse the subject.
	goal     core.Subject
	maxDepth int
	root     chain
	// byEnd holds the newest chain to each node but the root; the older
	// ones follow its same links.
	byEnd map[core.Subject]*chain
	// added counts the chains made so far; each chain's seq is its place.
	added int
	// joined records that a chain made since it was last cleared reached
	// the goal.
	joined bool
	// order, ags and stack are scratch for nodes, partials and graft.
	order    []core.Subject
	ags      []core.Aggregate
	stack    []*chain
	stackBuf [8]*chain
}

// chain is one chain of a frontier: its parent plus one delegation, the
// last step forward and the first step reverse.
type chain struct {
	parent *chain
	d      *core.Delegation // nil at the root
	// node is the chain's far end: forward its object, reverse its subject.
	node core.Subject
	len  int
	// budget is the steps a forward chain may still take under the depth
	// limits on it.
	budget int
	// ag aggregates the chain's attributes in chain order; nil while no
	// step sets one.
	ag  core.Aggregate
	seq int
	// kid and last are the chain's first and last extension, next is its
	// parent's next one: the extensions in the order the walk reaches them.
	kid, last, next *chain
	// same is the chain made before it with the same far end.
	same *chain
}

// newFrontier enumerates the local wallet from one end of q.
func newFrontier(local *wallet.Wallet, q wallet.Query, reverse bool) *frontier {
	f := &frontier{
		local:    local,
		reverse:  reverse,
		goal:     core.SubjectRole(q.Object),
		maxDepth: local.MaxDepth(),
		root:     chain{node: q.Subject, seq: -1},
	}
	f.root.budget = f.maxDepth
	if reverse {
		f.goal, f.root.node = q.Subject, core.SubjectRole(q.Object)
	}
	f.stack = f.stackBuf[:0]
	f.graft(&f.root, f.enumerate(f.root.node))
	// What the wallet held before any reply is no news: the local direct
	// query has already answered it.
	f.joined = false
	return f
}

// enumerate lists every chain the local wallet holds from node outward.
func (f *frontier) enumerate(node core.Subject) []*core.Proof {
	if f.reverse {
		return f.local.QueryObject(node.Role, nil)
	}
	return f.local.QuerySubject(node, nil)
}

// graft hangs the chains of one enumeration from at's node under at. The
// enumeration lists each chain right after the chain one step shorter it
// extends (its prefix forward, its suffix reverse) or that chain's other
// extensions, so a chain's parent is the last one listed a step shorter.
func (f *frontier) graft(at *chain, proofs []*core.Proof) {
	stack := append(f.stack[:0], at) // stack[k]: the last k-step chain listed, nil if refused
	for _, p := range proofs {
		n := len(p.Steps)
		if n == 0 || n > len(stack) {
			continue
		}
		d := p.Steps[n-1].Delegation
		if f.reverse {
			d = p.Steps[0].Delegation
		}
		var c *chain
		if parent := stack[n-1]; parent != nil {
			c = f.extend(parent, d)
		}
		stack = append(stack[:n], c)
	}
	f.stack = stack
}

// grow adds every chain through the delegations one reply inserted, given
// in insertion order. Such a chain has a first inserted delegation, and the
// chain before it is one the frontier already held.
func (f *frontier) grow(inserted []*core.Delegation) {
	cut := f.added
	for _, d := range inserted {
		near := f.near(d)
		if near == f.root.node {
			f.follow(&f.root, d, inserted)
		}
		for c := f.byEnd[near]; c != nil; c = c.same {
			if c.seq < cut {
				f.follow(c, d, inserted)
			}
		}
	}
}

// follow adds c extended by d and everything past it: the local wallet's
// walk from the new far end when it holds more there than the reply
// inserted, or else the reply's own delegations from there.
func (f *frontier) follow(c *chain, d *core.Delegation, inserted []*core.Delegation) {
	n := f.extend(c, d)
	if n == nil {
		return
	}
	from := 0
	for _, e := range inserted {
		if f.near(e) == n.node {
			from++
		}
	}
	if f.local.Degree(n.node, f.reverse) > from {
		f.graft(n, f.enumerate(n.node))
		return
	}
	for _, e := range inserted {
		if f.near(e) == n.node {
			f.follow(n, e, inserted)
		}
	}
}

// near is the end of d a chain reaches it by.
func (f *frontier) near(d *core.Delegation) core.Subject {
	if f.reverse {
		return core.SubjectRole(d.Object)
	}
	return d.Subject
}

// extend makes parent's chain one delegation longer and returns it, or nil
// where the wallet's walk would not take that step. A reverse chain from an
// entity ends there: it is checked against the goal and not kept.
func (f *frontier) extend(parent *chain, d *core.Delegation) *chain {
	if f.added >= maxChains || parent.len >= f.maxDepth || f.near(d) != parent.node {
		return nil
	}
	c := &chain{parent: parent, d: d, len: parent.len + 1, ag: parent.ag}
	if f.reverse {
		// Every step already on the chain follows d.
		if d.DepthLimit > 0 && d.DepthLimit < parent.len {
			return nil
		}
		c.node = d.Subject
		if len(d.Attributes) > 0 {
			// Folded in chain order, as Proof.Aggregate does.
			c.ag = core.NewAggregate()
			for s := c; s.d != nil; s = s.parent {
				if err := c.ag.AddAll(s.d.Attributes); err != nil {
					return nil
				}
			}
		}
	} else {
		if c.budget = parent.budget - 1; c.budget < 0 {
			return nil
		}
		if d.DepthLimit > 0 && d.DepthLimit < c.budget {
			c.budget = d.DepthLimit
		}
		c.node = core.SubjectRole(d.Object)
		if len(d.Attributes) > 0 {
			c.ag = parent.ag.Clone()
			if err := c.ag.AddAll(d.Attributes); err != nil {
				return nil
			}
		}
	}
	if !c.node.IsEntity() {
		for s := parent; s != nil; s = s.parent {
			if s.node == c.node {
				return nil
			}
		}
	}
	if c.node == f.goal {
		f.joined = true
	}
	if c.node.IsEntity() {
		return nil
	}
	c.seq = f.added
	f.added++
	if parent.kid == nil {
		parent.kid = c
	} else {
		parent.last.next = c
	}
	parent.last = c
	if f.byEnd == nil {
		f.byEnd = make(map[core.Subject]*chain)
	}
	c.same = f.byEnd[c.node]
	f.byEnd[c.node] = c
	return c
}

// nodes lists the far end of every chain, the root's first, in the order a
// fresh enumeration lists the chains: once per chain.
func (f *frontier) nodes() []core.Subject {
	if cap(f.order) <= f.added {
		f.order = make([]core.Subject, 0, 2*f.added+2)
	}
	f.order = appendNodes(f.order[:0], &f.root)
	return f.order
}

func appendNodes(out []core.Subject, c *chain) []core.Subject {
	out = append(out, c.node)
	for k := c.kid; k != nil; k = k.next {
		out = appendNodes(out, k)
	}
	return out
}

// partials returns the aggregates of node's chains made before cut.
func (f *frontier) partials(node core.Subject, cut int) []core.Aggregate {
	f.ags = f.ags[:0]
	for c := f.byEnd[node]; c != nil; c = c.same {
		if c.seq < cut {
			f.ags = append(f.ags, c.ag)
		}
	}
	return f.ags
}
