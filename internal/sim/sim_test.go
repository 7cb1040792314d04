package sim

import (
	"testing"
)

func TestWorldIdentityDeterministic(t *testing.T) {
	w1, w2 := NewWorld(), NewWorld()
	defer w1.Close()
	defer w2.Close()
	if w1.Identity("Alice").ID() != w2.Identity("Alice").ID() {
		t.Fatal("same name should yield the same identity across worlds")
	}
	if w1.Identity("Alice").ID() == w1.Identity("Bob").ID() {
		t.Fatal("different names should yield different identities")
	}
	if w1.Identity("Alice") != w1.Identity("Alice") {
		t.Fatal("Identity should be memoized")
	}
}

func TestWorldIssueAndServe(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	w.Ensure("Org", "User")
	wal, err := w.Serve("wallet.org", "Org")
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.Issue("[User -> Org.member] Org")
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Publish(d); err != nil {
		t.Fatal(err)
	}
	subj, err := w.Subject("User")
	if err != nil {
		t.Fatal(err)
	}
	role, err := w.Role("Org.member")
	if err != nil {
		t.Fatal(err)
	}
	_ = subj
	_ = role
	if wal.Len() != 1 {
		t.Fatalf("Len = %d", wal.Len())
	}
}

func TestBuildTopologiesEdgeCounts(t *testing.T) {
	tests := []struct {
		name      string
		branching int
		depth     int
		// complete b-ary tree edges: b + b^2 + ... + b^d, plus the goal
		// (out-tree) or subject (in-tree) attachment.
		want int
	}{
		{"b2d2", 2, 2, 2 + 4 + 1},
		{"b3d3", 3, 3, 3 + 9 + 27 + 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := NewWorld()
			defer w.Close()
			out, err := BuildOutTree(w, tt.branching, tt.depth)
			if err != nil {
				t.Fatal(err)
			}
			if out.Edges != tt.want {
				t.Errorf("out-tree edges = %d, want %d", out.Edges, tt.want)
			}
			w2 := NewWorld()
			defer w2.Close()
			in, err := BuildInTree(w2, tt.branching, tt.depth)
			if err != nil {
				t.Fatal(err)
			}
			if in.Edges != tt.want {
				t.Errorf("in-tree edges = %d, want %d", in.Edges, tt.want)
			}
		})
	}
}

func TestBuildTopologyValidation(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	if _, err := BuildOutTree(w, 0, 3); err == nil {
		t.Error("zero branching accepted")
	}
	if _, err := BuildInTree(w, 3, 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := BuildConstraintForest(w, 0, 1); err == nil {
		t.Error("zero width accepted")
	}
}

// EXP-S1: adversarial unidirectional search sweeps ~the whole tree;
// the opposite direction walks one chain; bidirectional stays near the
// cheap direction on both topologies.
func TestDirectionalityShape(t *testing.T) {
	points, err := RunDirectionality(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		var bad, good int
		switch pt.Topology {
		case "out-tree":
			bad, good = pt.Forward.EdgesExplored, pt.Reverse.EdgesExplored
		case "in-tree":
			bad, good = pt.Reverse.EdgesExplored, pt.Forward.EdgesExplored
		default:
			t.Fatalf("unknown topology %q", pt.Topology)
		}
		if bad < pt.Edges/2 {
			t.Errorf("%s: adversarial direction explored %d of %d edges; expected a near-full sweep",
				pt.Topology, bad, pt.Edges)
		}
		if good >= bad/4 {
			t.Errorf("%s: cheap direction explored %d, adversarial %d; expected >4x gap",
				pt.Topology, good, bad)
		}
		if pt.Bidi.EdgesExplored >= bad/2 {
			t.Errorf("%s: bidirectional explored %d vs adversarial %d; expected big reduction",
				pt.Topology, pt.Bidi.EdgesExplored, bad)
		}
		t.Logf("%s b=%d d=%d edges=%d: fwd=%d rev=%d bidi=%d",
			pt.Topology, pt.Branching, pt.Depth, pt.Edges,
			pt.Forward.EdgesExplored, pt.Reverse.EdgesExplored, pt.Bidi.EdgesExplored)
	}
}

// EXP-S1 growth: the adversarial direction grows exponentially with depth;
// bidirectional grows far slower.
func TestDirectionalityGrowthWithDepth(t *testing.T) {
	prevBad := 0
	for _, depth := range []int{2, 3, 4, 5} {
		points, err := RunDirectionality(3, depth)
		if err != nil {
			t.Fatal(err)
		}
		out := points[0]
		bad := out.Forward.EdgesExplored
		if prevBad > 0 && bad < prevBad*2 {
			t.Errorf("depth %d: forward effort %d did not grow ~exponentially from %d", depth, bad, prevBad)
		}
		prevBad = bad
	}
}

// EXP-S2: monotonicity pruning turns the exponential sweep of failing
// chains into first-edge rejections.
func TestPruningShape(t *testing.T) {
	pt, err := RunPruning(20, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.ProofSatisfies {
		t.Fatal("found proof violates constraints")
	}
	if pt.BranchesPruned != pt.Width-1 {
		t.Errorf("branches pruned = %d, want %d (every bad chain at its first edge)",
			pt.BranchesPruned, pt.Width-1)
	}
	// With pruning: width first-edges + the good chain. Without: every bad
	// chain fully walked.
	if pt.PrunedEdges >= pt.UnprunedEdges/2 {
		t.Errorf("pruned=%d unpruned=%d: expected >2x reduction", pt.PrunedEdges, pt.UnprunedEdges)
	}
	t.Logf("width=%d depth=%d edges=%d pruned=%d unpruned=%d",
		pt.Width, pt.Depth, pt.Edges, pt.PrunedEdges, pt.UnprunedEdges)
}

func TestPruningGrowthWithDepth(t *testing.T) {
	shallow, err := RunPruning(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := RunPruning(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Unpruned effort grows with chain depth; pruned effort stays within a
	// small additive factor (only the good chain lengthens).
	if deep.UnprunedEdges-shallow.UnprunedEdges < 9*(12-2) {
		t.Errorf("unpruned growth too small: %d -> %d", shallow.UnprunedEdges, deep.UnprunedEdges)
	}
	if deep.PrunedEdges-shallow.PrunedEdges > 2*(12-2)+2 {
		t.Errorf("pruned growth too large: %d -> %d", shallow.PrunedEdges, deep.PrunedEdges)
	}
}

// EXP-T3/F2: the case study ends with the paper's §5 numbers.
func TestRunCaseStudyOutcomes(t *testing.T) {
	res, err := RunCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if res.BW != 100 || res.Storage != 30 || res.Hours != 18 {
		t.Fatalf("attributes = BW %v, storage %v, hours %v; want 100, 30, 18",
			res.BW, res.Storage, res.Hours)
	}
	if res.Proof.Len() != 3 {
		t.Fatalf("proof length = %d", res.Proof.Len())
	}
	if res.Stats.WalletsContacted != 2 {
		t.Fatalf("wallets contacted = %d", res.Stats.WalletsContacted)
	}
	if res.Messages == 0 || res.Bytes == 0 {
		t.Fatal("no network cost measured")
	}
}

func TestRunChainDiscoveryScaling(t *testing.T) {
	prevQueries := 0
	for _, hops := range []int{1, 2, 4} {
		pt, err := RunChainDiscovery(hops)
		if err != nil {
			t.Fatalf("hops=%d: %v", hops, err)
		}
		if pt.WalletsContacted != hops {
			t.Errorf("hops=%d: wallets contacted = %d", hops, pt.WalletsContacted)
		}
		if pt.RemoteQueries <= prevQueries {
			t.Errorf("hops=%d: queries (%d) should grow with chain length (prev %d)",
				hops, pt.RemoteQueries, prevQueries)
		}
		prevQueries = pt.RemoteQueries
	}
	if _, err := RunChainDiscovery(0); err == nil {
		t.Error("zero hops accepted")
	}
}

// EXP-S5: hierarchical caching keeps home-wallet load flat in the client
// population.
func TestRunProxyExperimentShape(t *testing.T) {
	small, err := RunProxyExperiment(2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunProxyExperiment(8)
	if err != nil {
		t.Fatal(err)
	}
	// Hierarchical home traffic is identical regardless of client count.
	if small.HierHomeMessages != big.HierHomeMessages {
		t.Errorf("hierarchical home load grew with clients: %d -> %d",
			small.HierHomeMessages, big.HierHomeMessages)
	}
	// Flat home traffic grows with clients and exceeds hierarchical.
	if big.FlatHomeMessages <= small.FlatHomeMessages {
		t.Errorf("flat home load did not grow: %d -> %d",
			small.FlatHomeMessages, big.FlatHomeMessages)
	}
	if big.FlatHomeMessages <= big.HierHomeMessages {
		t.Errorf("flat (%d) should exceed hierarchical (%d) at 8 clients",
			big.FlatHomeMessages, big.HierHomeMessages)
	}
	if _, err := RunProxyExperiment(0); err == nil {
		t.Error("zero clients accepted")
	}
}

// EXP-S2b: the modulated-range adjustment saves every wasted fetch on a
// doomed search, at any fanout.
func TestRunRangeAdjustmentShape(t *testing.T) {
	for _, fanout := range []int{2, 8} {
		pt, err := RunRangeAdjustment(fanout)
		if err != nil {
			t.Fatalf("fanout=%d: %v", fanout, err)
		}
		if pt.AdjustedFetched != 0 {
			t.Errorf("fanout=%d: adjusted search fetched %d delegations, want 0",
				fanout, pt.AdjustedFetched)
		}
		if pt.UnadjustedFetched == 0 {
			t.Errorf("fanout=%d: unadjusted search fetched nothing — ablation broken", fanout)
		}
		if pt.AdjustedBytes >= pt.UnadjustedBytes {
			t.Errorf("fanout=%d: adjusted bytes %d not below unadjusted %d",
				fanout, pt.AdjustedBytes, pt.UnadjustedBytes)
		}
	}
	if _, err := RunRangeAdjustment(0); err == nil {
		t.Error("zero fanout accepted")
	}
}

func TestRunCacheCoherenceShape(t *testing.T) {
	pt, err := RunCacheCoherence(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.CoherentAfterRevoke {
		t.Fatal("revocation did not invalidate the cached proof before the next query")
	}
	if pt.Hits < int64(pt.Queries) {
		t.Fatalf("hits = %d, want >= %d (every measured hot query memoized)", pt.Hits, pt.Queries)
	}
	if pt.Invalidations == 0 {
		t.Fatal("no invalidation counted for the revocation push")
	}
	if pt.HotNanos <= 0 || pt.ColdNanos <= 0 {
		t.Fatalf("latencies not measured: cold=%d hot=%d", pt.ColdNanos, pt.HotNanos)
	}
	if _, err := RunCacheCoherence(0, 10); err == nil {
		t.Fatal("invalid chain accepted")
	}
}
