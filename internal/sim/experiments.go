package sim

import (
	"context"
	"fmt"
	"math"

	"drbac/internal/core"
	"drbac/internal/discovery"
	"drbac/internal/graph"
	"drbac/internal/wallet"
)

// DirectionalityPoint is one row of EXP-S1: the search effort of the three
// strategies on one synthetic topology.
type DirectionalityPoint struct {
	Topology  string // "out-tree" or "in-tree"
	Branching int
	Depth     int
	Edges     int
	Forward   graph.Stats
	Reverse   graph.Stats
	Bidi      graph.Stats
}

// RunDirectionality measures EXP-S1 for one (branching, depth) pair on both
// adversarial topologies. In the out-tree the goal hides behind the last
// leaf (forward must sweep ~b^d edges, reverse walks one chain); the
// in-tree mirrors it. Bidirectional search stays near the cheap direction
// on both without knowing the topology — the §4.2.3 reduction.
func RunDirectionality(branching, depth int) ([]DirectionalityPoint, error) {
	var out []DirectionalityPoint
	for _, topo := range []string{"out-tree", "in-tree"} {
		w := NewWorld()
		var (
			t   *Topology
			err error
		)
		if topo == "out-tree" {
			t, err = BuildOutTree(w, branching, depth)
		} else {
			t, err = BuildInTree(w, branching, depth)
		}
		if err != nil {
			return nil, err
		}
		point := DirectionalityPoint{
			Topology: topo, Branching: branching, Depth: depth, Edges: t.Edges,
		}
		for _, dirn := range []graph.Direction{graph.Forward, graph.Reverse, graph.Bidirectional} {
			var stats graph.Stats
			q := t.Query
			q.Direction = dirn
			q.Stats = &stats
			if _, err := t.Wallet.QueryDirect(q); err != nil {
				return nil, fmt.Errorf("directionality %s %v: %w", topo, dirn, err)
			}
			switch dirn {
			case graph.Forward:
				point.Forward = stats
			case graph.Reverse:
				point.Reverse = stats
			case graph.Bidirectional:
				point.Bidi = stats
			}
		}
		w.Close()
		out = append(out, point)
	}
	return out, nil
}

func searchReport(r *Report) error {
	r.printf("%-9s %2s %2s %7s %9s %9s %9s", "topology", "b", "d", "edges", "forward", "reverse", "bidi")
	for _, b := range []int{2, 3} {
		for _, d := range []int{3, 4, 5, 6} {
			points, err := RunDirectionality(b, d)
			if err != nil {
				return err
			}
			for _, pt := range points {
				r.printf("%-9s %2d %2d %7d %9d %9d %9d", pt.Topology, pt.Branching, pt.Depth, pt.Edges,
					pt.Forward.EdgesExplored, pt.Reverse.EdgesExplored, pt.Bidi.EdgesExplored)
			}
		}
	}
	r.printf("shape: the adversarial direction sweeps ~all edges (exponential in depth);")
	r.printf("bidirectional stays near the cheap direction on both topologies.")
	return nil
}

// PruningPoint is one row of EXP-S2: search effort with and without
// valued-attribute monotonicity pruning.
type PruningPoint struct {
	Width, Depth   int
	Edges          int
	PrunedEdges    int // edges explored with pruning on
	UnprunedEdges  int // edges explored with pruning off
	BranchesPruned int
	ProofSatisfies bool
}

// RunPruning measures EXP-S2 on a constraint forest of `width` chains of
// length `depth`, only the last of which satisfies the query constraint.
func RunPruning(width, depth int) (PruningPoint, error) {
	w := NewWorld()
	defer w.Close()
	t, err := BuildConstraintForest(w, width, depth)
	if err != nil {
		return PruningPoint{}, err
	}
	point := PruningPoint{Width: width, Depth: depth, Edges: t.Edges}

	var pruned graph.Stats
	q := t.Query
	q.Stats = &pruned
	p, err := t.Wallet.QueryDirect(q)
	if err != nil {
		return PruningPoint{}, fmt.Errorf("pruning run: %w", err)
	}
	ag, err := p.Aggregate()
	if err != nil {
		return PruningPoint{}, err
	}
	point.ProofSatisfies = core.SatisfiedAll(t.Query.Constraints, ag)
	point.PrunedEdges = pruned.EdgesExplored
	point.BranchesPruned = pruned.Pruned

	// Re-run with pruning disabled through the graph layer directly (the
	// wallet API always prunes; the ablation uses graph options).
	var unpruned graph.Stats
	if _, err := t.Wallet.QueryDirectOptions(t.Query, graph.Options{
		At:             w.Clock.Now(),
		Constraints:    t.Query.Constraints,
		DisablePruning: true,
		Stats:          &unpruned,
	}); err != nil {
		return PruningPoint{}, fmt.Errorf("unpruned run: %w", err)
	}
	point.UnprunedEdges = unpruned.EdgesExplored
	return point, nil
}

func pruningReport(r *Report) error {
	r.printf("%6s %6s %7s %8s %10s %8s", "width", "depth", "edges", "pruned", "unpruned", "cut")
	for _, width := range []int{5, 10, 20} {
		for _, depth := range []int{4, 8, 16} {
			pt, err := RunPruning(width, depth)
			if err != nil {
				return err
			}
			r.printf("%6d %6d %7d %8d %10d %7.1fx", pt.Width, pt.Depth, pt.Edges, pt.PrunedEdges, pt.UnprunedEdges,
				float64(pt.UnprunedEdges)/float64(pt.PrunedEdges))
		}
	}
	return nil
}

// CaseStudyResult reports the Figure 2 / Table 3 reproduction: the
// discovered proof, its attribute outcomes, and the discovery effort.
type CaseStudyResult struct {
	Proof    *core.Proof
	BW       float64 // expect 100
	Storage  float64 // expect 30
	Hours    float64 // expect 18
	Stats    discovery.Stats
	Messages int64
	Bytes    int64
}

// RunCaseStudy sets up the §5 coalition across three wallets on a fresh
// world and runs the Figure 2 flow end to end.
func RunCaseStudy() (*CaseStudyResult, error) {
	w := NewWorld()
	defer w.Close()
	cs, err := NewCaseStudy(w)
	if err != nil {
		return nil, err
	}
	w.Net.ResetStats()

	var stats discovery.Stats
	proof, err := cs.Agent.Discover(context.Background(), cs.Query, discovery.Auto, &stats)
	if err != nil {
		return nil, fmt.Errorf("case study discovery: %w", err)
	}
	if err := proof.Validate(core.ValidateOptions{At: w.Clock.Now()}); err != nil {
		return nil, err
	}
	ag, err := proof.Aggregate()
	if err != nil {
		return nil, err
	}
	net := w.Net.Stats()
	return &CaseStudyResult{
		Proof:    proof,
		BW:       ag.Value(cs.BW, math.Inf(1)),
		Storage:  ag.Value(cs.Storage, 50),
		Hours:    ag.Value(cs.Hours, 60),
		Stats:    stats,
		Messages: net.Messages,
		Bytes:    net.Bytes,
	}, nil
}

func caseStudyReport(r *Report) error {
	res, err := RunCaseStudy()
	if err != nil {
		return err
	}
	r.printf("proof chain length: %d (delegations 1, 2, 5)", res.Proof.Len())
	r.printf("attribute outcomes: BW=%v (paper: 100)  storage=%v (paper: 30)  hours=%v (paper: 18)",
		res.BW, res.Storage, res.Hours)
	r.printf("discovery: %d rounds, %d wallets contacted, %d remote queries, %d delegations fetched",
		res.Stats.Rounds, res.Stats.WalletsContacted, res.Stats.RemoteQueries, res.Stats.DelegationsFetched)
	for _, ev := range res.Stats.Trace {
		r.printf("  round %d: %-7s query at %-15s node %s -> %d proof(s)", ev.Round, ev.Kind, ev.Wallet, ev.Node, ev.Results)
	}
	r.printf("network: %d messages, %d bytes", res.Messages, byteTotal(res.Bytes))
	return nil
}

// ChainDiscoveryPoint is one row of the multi-hop discovery scaling sweep:
// a chain of `hops` wallets, each holding one link.
type ChainDiscoveryPoint struct {
	Hops               int
	Rounds             int
	WalletsContacted   int
	RemoteQueries      int
	DelegationsFetched int
	Messages           int64
	Bytes              int64
}

// Chain is RunChainDiscovery's world: a delegation chain spread across
// hops home wallets, each holding one link, and the first link, which the
// user hands the local wallet directly.
type Chain struct {
	// First is [User -> Org0.level] Org0, for the local wallet.
	First *core.Delegation
	// Query asks: does User hold the last home's goal role?
	Query wallet.Query
}

// NewChain serves the chain's homes wallet.org0 … on w and publishes each
// link at the home of its subject, tagged for subject search there.
func NewChain(w *World, hops int) (*Chain, error) {
	if hops < 1 {
		return nil, fmt.Errorf("sim: hops must be positive")
	}
	w.Identity("User")
	type link struct {
		wallet *wallet.Wallet
		tag    core.DiscoveryTag
	}
	links := make([]link, hops)
	for i := range links {
		owner := fmt.Sprintf("Org%d", i)
		addr := fmt.Sprintf("wallet.org%d", i)
		wal, err := w.Serve(addr, owner)
		if err != nil {
			return nil, err
		}
		links[i] = link{
			wallet: wal,
			tag: core.DiscoveryTag{
				Home:    addr,
				TTL:     0,
				Subject: core.SubjectSearch,
				Object:  core.ObjectNone,
			},
		}
	}

	roleName := func(i int) string { return fmt.Sprintf("Org%d.level", i) }
	c := new(Chain)
	// First link: user -> Org0.level, handed to the local wallet directly.
	var err error
	if c.First, err = w.IssueTagged(fmt.Sprintf("[User -> %s] Org0", roleName(0)), nil, &links[0].tag); err != nil {
		return nil, err
	}
	// Middle links: OrgI.level -> OrgI+1.level, stored at OrgI's wallet.
	for i := 0; i+1 < hops; i++ {
		d, err := w.IssueTagged(
			fmt.Sprintf("[%s -> %s] Org%d", roleName(i), roleName(i+1), i+1),
			&links[i].tag, &links[i+1].tag)
		if err != nil {
			return nil, err
		}
		if err := links[i].wallet.Publish(d); err != nil {
			return nil, err
		}
	}
	// Final link: last level -> goal, stored at the last wallet.
	last := hops - 1
	goalText := fmt.Sprintf("[%s -> Org%d.goal] Org%d", roleName(last), last, last)
	d, err := w.IssueTagged(goalText, &links[last].tag, nil)
	if err != nil {
		return nil, err
	}
	if err := links[last].wallet.Publish(d); err != nil {
		return nil, err
	}
	if c.Query, err = w.query("User", fmt.Sprintf("Org%d.goal", last)); err != nil {
		return nil, err
	}
	return c, nil
}

// RunChainDiscovery builds a delegation chain spread across `hops` home
// wallets and measures discovering it from a cold local wallet.
func RunChainDiscovery(hops int) (ChainDiscoveryPoint, error) {
	w := NewWorld()
	defer w.Close()
	c, err := NewChain(w, hops)
	if err != nil {
		return ChainDiscoveryPoint{}, err
	}
	local := w.Wallet("User")
	if err := local.Publish(c.First); err != nil {
		return ChainDiscoveryPoint{}, err
	}
	agent := w.agent(discovery.Config{
		Local:  local,
		Dialer: w.Net.Dialer(w.Identity("User")),
	})
	agent.Learn(c.First)

	w.Net.ResetStats()
	var stats discovery.Stats
	if _, err := agent.Discover(context.Background(), c.Query, discovery.Auto, &stats); err != nil {
		return ChainDiscoveryPoint{}, fmt.Errorf("chain discovery (%d hops): %w", hops, err)
	}
	net := w.Net.Stats()
	return ChainDiscoveryPoint{
		Hops:               hops,
		Rounds:             stats.Rounds,
		WalletsContacted:   stats.WalletsContacted,
		RemoteQueries:      stats.RemoteQueries,
		DelegationsFetched: stats.DelegationsFetched,
		Messages:           net.Messages,
		Bytes:              net.Bytes,
	}, nil
}

func chainReport(r *Report) error {
	r.printf("%5s %7s %8s %8s %8s %10s", "hops", "rounds", "wallets", "queries", "fetched", "messages")
	for _, hops := range []int{1, 2, 4, 8} {
		pt, err := RunChainDiscovery(hops)
		if err != nil {
			return err
		}
		r.printf("%5d %7d %8d %8d %8d %10d",
			pt.Hops, pt.Rounds, pt.WalletsContacted, pt.RemoteQueries, pt.DelegationsFetched, pt.Messages)
	}
	return nil
}
