package sim

import (
	"fmt"

	"drbac/internal/core"
	"drbac/internal/wallet"
)

// Topology is a synthetic delegation structure with a distinguished query,
// built inside a single wallet for the in-graph search experiments
// (§4.2.3).
type Topology struct {
	Wallet *wallet.Wallet
	Query  wallet.Query
	// Edges is the number of delegations issued.
	Edges int
}

// builder issues a topology's delegations as its owner into the owner's
// wallet, counting them. The query asks whether the user entity holds the
// owner's role "goal".
type builder struct {
	*Topology
	w     *World
	owner *core.Identity
	user  *core.Identity
}

func newBuilder(w *World, owner, user string) *builder {
	b := &builder{w: w, owner: w.Identity(owner), user: w.Identity(user)}
	b.Topology = &Topology{
		Wallet: w.Wallet(owner),
		Query:  wallet.Query{Subject: core.SubjectEntity(b.user.ID()), Object: b.role("goal")},
	}
	return b
}

func (b *builder) role(name string) core.Role { return core.NewRole(b.owner.ID(), name) }

// issue publishes [subject -> object] signed by the owner.
func (b *builder) issue(subject core.Subject, object core.Role, attrs ...core.AttributeSetting) error {
	tmpl := core.Template{Subject: subject, Object: object}
	if subject.IsEntity() {
		tmpl = entityGrant(b.user, object)
	}
	tmpl.Attributes = attrs
	d, err := core.Issue(b.owner, tmpl, b.w.Clock.Now())
	if err != nil {
		return err
	}
	if err := b.Wallet.Publish(d); err != nil {
		return err
	}
	b.Edges++
	return nil
}

// BuildOutTree builds a complete b-ary out-tree of delegations rooted at
// the query subject, depth levels deep, with the query object attached to
// the *last* leaf in depth-first order — the adversarial placement for a
// forward search, which must visit essentially the whole tree, while a
// reverse search walks one chain (§4.2.3's "delegation tree with a
// constant branching factor").
func BuildOutTree(w *World, branching, depth int) (*Topology, error) {
	return buildTree(w, branching, depth, "n", false)
}

// BuildInTree mirrors BuildOutTree: a complete b-ary in-tree converging on
// the query object, with the query subject attached to the last leaf — the
// adversarial placement for a reverse search.
func BuildInTree(w *World, branching, depth int) (*Topology, error) {
	return buildTree(w, branching, depth, "m", true)
}

// buildTree issues the root's fan-out, then each level, then the edge
// hanging the far end of the query off the last leaf (highest index =
// explored last). An out-tree is rooted at the query subject with edges
// pointing away from the root; an in-tree is rooted at the query object
// with every edge reversed. Nodes are named prefix_level_index.
func buildTree(w *World, branching, depth int, prefix string, in bool) (*Topology, error) {
	if branching < 1 || depth < 1 {
		return nil, fmt.Errorf("sim: branching and depth must be positive")
	}
	b := newBuilder(w, "TreeOwner", "TreeUser")
	root, end := b.Query.Subject, core.SubjectRole(b.Query.Object)
	if in {
		root, end = end, root
	}
	node := func(level, idx int) core.Subject {
		return core.SubjectRole(b.role(fmt.Sprintf("%s_%d_%d", prefix, level, idx)))
	}
	// link issues the edge between parent and child, reversed in an
	// in-tree. The user entity, the out-tree's root and the in-tree's far
	// end, thereby always lands on the subject side.
	link := func(parent, child core.Subject) error {
		if in {
			parent, child = child, parent
		}
		return b.issue(parent, child.Role)
	}
	for i := 0; i < branching; i++ {
		if err := link(root, node(1, i)); err != nil {
			return nil, err
		}
	}
	width := branching
	for level := 1; level < depth; level++ {
		for parent := 0; parent < width; parent++ {
			for c := 0; c < branching; c++ {
				if err := link(node(level, parent), node(level+1, parent*branching+c)); err != nil {
					return nil, err
				}
			}
		}
		width *= branching
	}
	if err := link(node(depth, width-1), end); err != nil {
		return nil, err
	}
	return b.Topology, nil
}

// BuildConstraintForest builds the EXP-S2 topology: from the subject,
// `width` chains of length `depth` lead to the goal. Every chain's first
// edge caps bandwidth at 1 — violating the query's BW >= 500 constraint —
// except the last chain, whose edges carry BW <= 1000. With monotonicity
// pruning the search abandons each bad chain at its first edge; without it,
// every chain is walked to the end before the constraint check fails.
func BuildConstraintForest(w *World, width, depth int) (*Topology, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("sim: width and depth must be positive")
	}
	b := newBuilder(w, "ForestOwner", "ForestUser")
	bw := core.AttributeRef{Namespace: b.owner.ID(), Name: "BW"}
	b.Query.Constraints = []core.Constraint{{Attr: bw, Base: 1e9, Minimum: 500}}
	node := func(chain, hop int) core.Role { return b.role(fmt.Sprintf("c_%d_%d", chain, hop)) }

	for chain := 0; chain < width; chain++ {
		bwCap := 1.0
		if chain == width-1 {
			bwCap = 1000.0 // the single satisfying chain, explored last
		}
		if err := b.issue(b.Query.Subject, node(chain, 1),
			core.AttributeSetting{Attr: bw, Op: core.OpMinimum, Value: bwCap}); err != nil {
			return nil, err
		}
		for hop := 1; hop < depth; hop++ {
			if err := b.issue(core.SubjectRole(node(chain, hop)), node(chain, hop+1)); err != nil {
				return nil, err
			}
		}
		if err := b.issue(core.SubjectRole(node(chain, depth)), b.Query.Object); err != nil {
			return nil, err
		}
	}
	return b.Topology, nil
}

// entityGrant is the template of [id -> object].
func entityGrant(id *core.Identity, object core.Role) core.Template {
	e := id.Entity()
	return core.Template{Subject: core.SubjectEntity(id.ID()), SubjectEntity: &e, Object: object}
}
