// Command coalition-sim regenerates every experiment in EXPERIMENTS.md:
// the Table 3 / Figure 2 case study and the four §-claim experiments
// (search directionality, attribute pruning, revocation schemes,
// separability).
//
// Usage: coalition-sim -exp NAME, where -h lists the names and all (the
// default) regenerates every EXPERIMENTS.md table in order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"drbac/internal/sim"
)

// experiments is the one list of experiment names: -exp NAME runs one, -exp
// all runs the inAll ones in this order (the bounded CI smokes are not).
var experiments = []struct {
	name  string
	run   func() error
	inAll bool
}{
	{"casestudy", runCaseStudy, true},
	{"search", runSearch, true},
	{"pruning", runPruning, true},
	{"revocation", runRevocation, true},
	{"separability", runSeparability, true},
	{"chain", runChain, true},
	{"proxy", runProxy, true},
	{"ranges", runRanges, true},
	{"cache", runCache, true},
	{"cluster", runCluster, true},            // EXP-C1 shard-scaling sweep (§12)
	{"clustersmoke", runClusterSmoke, false}, // bounded 4-shard scatter-gather smoke
	{"dhtsmoke", runDHTSmoke, false},         // bounded 6-wallet DHT bootstrap/churn smoke
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coalition-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coalition-sim", flag.ContinueOnError)
	names := []string{"all"}
	for _, x := range experiments {
		names = append(names, x.name)
	}
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, x := range experiments {
		switch {
		case *exp == x.name:
			return x.run()
		case *exp == "all" && x.inAll:
			if err := x.run(); err != nil {
				return fmt.Errorf("%s: %w", x.name, err)
			}
			fmt.Println()
		}
	}
	if *exp == "all" {
		return nil
	}
	return fmt.Errorf("unknown experiment %q", *exp)
}

func runCaseStudy() error {
	fmt.Println("== EXP-T3/F2: §5 case study (Table 3, Figure 2) ==")
	res, err := sim.RunCaseStudy()
	if err != nil {
		return err
	}
	fmt.Printf("proof chain length: %d (delegations 1, 2, 5)\n", res.Proof.Len())
	fmt.Printf("attribute outcomes: BW=%v (paper: 100)  storage=%v (paper: 30)  hours=%v (paper: 18)\n",
		res.BW, res.Storage, res.Hours)
	fmt.Printf("discovery: %d rounds, %d wallets contacted, %d remote queries, %d delegations fetched\n",
		res.Stats.Rounds, res.Stats.WalletsContacted, res.Stats.RemoteQueries, res.Stats.DelegationsFetched)
	for _, ev := range res.Stats.Trace {
		fmt.Printf("  round %d: %-7s query at %-15s node %s -> %d proof(s)\n",
			ev.Round, ev.Kind, ev.Wallet, ev.Node, ev.Results)
	}
	fmt.Printf("network: %d messages, %d bytes\n", res.Messages, res.Bytes)
	return nil
}

func runSearch() error {
	fmt.Println("== EXP-S1: search directionality (§4.2.3) ==")
	fmt.Printf("%-9s %2s %2s %7s %9s %9s %9s\n", "topology", "b", "d", "edges", "forward", "reverse", "bidi")
	for _, b := range []int{2, 3} {
		for _, d := range []int{3, 4, 5, 6} {
			points, err := sim.RunDirectionality(b, d)
			if err != nil {
				return err
			}
			for _, pt := range points {
				fmt.Printf("%-9s %2d %2d %7d %9d %9d %9d\n",
					pt.Topology, pt.Branching, pt.Depth, pt.Edges,
					pt.Forward.EdgesExplored, pt.Reverse.EdgesExplored, pt.Bidi.EdgesExplored)
			}
		}
	}
	fmt.Println("shape: the adversarial direction sweeps ~all edges (exponential in depth);")
	fmt.Println("bidirectional stays near the cheap direction on both topologies.")
	return nil
}

func runPruning() error {
	fmt.Println("== EXP-S2: valued-attribute monotonicity pruning (§4.2.3) ==")
	fmt.Printf("%6s %6s %7s %8s %10s %8s\n", "width", "depth", "edges", "pruned", "unpruned", "cut")
	for _, width := range []int{5, 10, 20} {
		for _, depth := range []int{4, 8, 16} {
			pt, err := sim.RunPruning(width, depth)
			if err != nil {
				return err
			}
			fmt.Printf("%6d %6d %7d %8d %10d %7.1fx\n",
				pt.Width, pt.Depth, pt.Edges, pt.PrunedEdges, pt.UnprunedEdges,
				float64(pt.UnprunedEdges)/float64(pt.PrunedEdges))
		}
	}
	return nil
}

func runRevocation() error {
	fmt.Println("== EXP-S3: credential status schemes (§6) ==")
	configs := []struct {
		label string
		p     sim.RevocationParams
	}{
		{"short session, 1 revocation", sim.RevocationParams{
			Clients: 8, Credentials: 16, Steps: 200, PollEvery: 5, CRLEvery: 10, RevokeAt: []int{53}}},
		{"long session, 1 revocation", sim.RevocationParams{
			Clients: 8, Credentials: 16, Steps: 2000, PollEvery: 5, CRLEvery: 10, RevokeAt: []int{53}}},
		{"long session, 8 revocations", sim.RevocationParams{
			Clients: 8, Credentials: 16, Steps: 2000, PollEvery: 5, CRLEvery: 10,
			RevokeAt: []int{101, 303, 507, 701, 903, 1101, 1303, 1507}}},
		{"many clients", sim.RevocationParams{
			Clients: 32, Credentials: 16, Steps: 1000, PollEvery: 5, CRLEvery: 10, RevokeAt: []int{53}}},
	}
	for _, cfg := range configs {
		results, err := sim.RunRevocation(cfg.p)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s (clients=%d creds=%d steps=%d):\n", cfg.label, cfg.p.Clients, cfg.p.Credentials, cfg.p.Steps)
		fmt.Printf("  %-14s %10s %12s %10s\n", "scheme", "messages", "bytes", "staleness")
		for _, r := range results {
			fmt.Printf("  %-14s %10d %12d %10d\n", r.Scheme, r.Messages, r.Bytes, r.StalenessSteps)
		}
	}
	return nil
}

func runSeparability() error {
	fmt.Println("== EXP-S4: separability / namespace pollution (§3.1.3) ==")
	fmt.Printf("%9s %11s | %7s %9s | %7s %9s\n",
		"partners", "privileges", "dRBAC", "phantoms", "baseline", "phantoms")
	for _, partners := range []int{2, 4, 8} {
		for _, privs := range []int{4, 8} {
			s := sim.Separability{Partners: partners, Privileges: privs, MembersPerPartner: 2}
			d, ph, err := sim.RunSeparability(s)
			if err != nil {
				return err
			}
			fmt.Printf("%9d %11d | %7d %9d | %8d %9d\n",
				partners, privs, d.RolesCreated, d.PhantomRoles, ph.RolesCreated, ph.PhantomRoles)
		}
	}
	fmt.Println("dRBAC roles = privileges + one admin role per partner; baseline mints")
	fmt.Println("partners x privileges phantom roles and loses separability.")
	return nil
}

func runChain() error {
	fmt.Println("== EXP-F2 extension: multi-hop discovery scaling ==")
	fmt.Printf("%5s %7s %8s %8s %8s %10s\n", "hops", "rounds", "wallets", "queries", "fetched", "messages")
	for _, hops := range []int{1, 2, 4, 8} {
		pt, err := sim.RunChainDiscovery(hops)
		if err != nil {
			return err
		}
		fmt.Printf("%5d %7d %8d %8d %8d %10d\n",
			pt.Hops, pt.Rounds, pt.WalletsContacted, pt.RemoteQueries, pt.DelegationsFetched, pt.Messages)
	}
	return nil
}

func runProxy() error {
	fmt.Println("== EXP-S5: hierarchical validation caches (§6 extension) ==")
	fmt.Printf("%8s %12s %12s %12s %12s\n",
		"clients", "flat msgs", "flat bytes", "hier msgs", "hier bytes")
	for _, clients := range []int{1, 2, 4, 8, 16} {
		pt, err := sim.RunProxyExperiment(clients)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %12d %12d %12d %12d\n",
			pt.Clients, pt.FlatHomeMessages, pt.FlatHomeBytes, pt.HierHomeMessages, pt.HierHomeBytes)
	}
	fmt.Println("home-wallet load grows with clients when they attach directly; behind a")
	fmt.Println("caching proxy it is constant (one subscription, one push per change).")
	return nil
}

func runCache() error {
	fmt.Println("== EXP-S6: subscription-coherent proof cache (§6) ==")
	fmt.Printf("%6s %12s %12s %8s %6s %7s %7s %9s\n",
		"chain", "cold ns/op", "hot ns/op", "speedup", "hits", "misses", "invals", "coherent")
	for _, chain := range []int{2, 4, 8, 16} {
		pt, err := sim.RunCacheCoherence(chain, 2000)
		if err != nil {
			return err
		}
		speedup := float64(pt.ColdNanos) / float64(pt.HotNanos)
		fmt.Printf("%6d %12d %12d %7.1fx %6d %7d %7d %9v\n",
			pt.Chain, pt.ColdNanos, pt.HotNanos, speedup,
			pt.Hits, pt.Misses, pt.Invalidations, pt.CoherentAfterRevoke)
	}
	fmt.Println("memoized answers amortize the graph search; a mid-chain revocation push")
	fmt.Println("kills the cached proof before the next query returns.")
	return nil
}

func runRanges() error {
	fmt.Println("== EXP-S2b: modulated attribute ranges in discovery (§4.2.3) ==")
	fmt.Printf("%7s %16s %18s %15s %17s\n",
		"fanout", "adjusted-fetch", "unadjusted-fetch", "adjusted-bytes", "unadjusted-bytes")
	for _, fanout := range []int{2, 4, 8, 16} {
		pt, err := sim.RunRangeAdjustment(fanout)
		if err != nil {
			return err
		}
		fmt.Printf("%7d %16d %18d %15d %17d\n",
			pt.Fanout, pt.AdjustedFetched, pt.UnadjustedFetched, pt.AdjustedBytes, pt.UnadjustedBytes)
	}
	fmt.Println("a doomed search (local prefix already below the constraint) fetches nothing")
	fmt.Println("when remote queries carry range-adjusted constraints.")
	return nil
}

func runCluster() error {
	fmt.Println("== EXP-C1: sharded cluster publish scaling (§12) ==")
	const (
		publishes = 480
		workers   = 32
	)
	fmt.Printf("%7s %10s %8s %10s %12s %8s\n",
		"shards", "publishes", "workers", "elapsed", "publishes/s", "speedup")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		pt, err := sim.RunShardScaling(shards, publishes, workers, sim.DefaultCommitDelay)
		if err != nil {
			return err
		}
		if shards == 1 {
			base = pt.Throughput
		}
		fmt.Printf("%7d %10d %8d %10s %12.0f %7.1fx\n",
			pt.Shards, pt.Publishes, pt.Workers, pt.Elapsed.Round(time.Millisecond),
			pt.Throughput, pt.Throughput/base)
	}
	fmt.Printf("commit delay %v per mutation, serialized per shard: aggregate throughput\n", sim.DefaultCommitDelay)
	fmt.Println("scales with the shard count because each shard owns an independent commit pipeline.")

	proof, err := sim.RunCrossShardProof(4)
	if err != nil {
		return err
	}
	fmt.Printf("cross-shard proof: chain spans %d shards, identical-to-single-wallet=%v, valid=%v, assembled in %v\n",
		proof.HomeShards, proof.Identical, proof.Valid, proof.Assembly.Round(time.Microsecond))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	split, err := sim.RunSplitConvergence(ctx, 2, 24)
	if err != nil {
		return err
	}
	fmt.Printf("mid-traffic split 2->3 shards: epoch %d, %d mutations, %d re-homed, %d lost\n",
		split.Epoch, split.Publishes, split.Moved, split.Lost)
	if split.Lost != 0 {
		return fmt.Errorf("split lost %d mutations", split.Lost)
	}
	return nil
}

func runClusterSmoke() error {
	fmt.Println("== cluster smoke: 4-shard scatter-gather (bounded) ==")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	startAt := time.Now()
	res, err := sim.RunClusterSmoke(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("published %d across %d shards; object scatter returned %d proofs;\n",
		res.Published, res.Shards, res.ObjectProofs)
	fmt.Printf("cross-shard proof identical=%v valid=%v; split re-homed %d, lost %d; %v total\n",
		res.Proof.Identical, res.Proof.Valid, res.Split.Moved, res.Split.Lost, time.Since(startAt).Round(time.Millisecond))
	fmt.Println("PASS")
	return nil
}

func runDHTSmoke() error {
	fmt.Println("== DHT smoke: 6-member bootstrap, resolve, churn (bounded) ==")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	startAt := time.Now()
	res, err := sim.RunDHTSmoke(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%d members bootstrapped off one seed, %d provider records announced;\n",
		res.Members, res.Announced)
	fmt.Printf("resolved %d-link chain via %d DHT-found wallets with zero static addresses;\n",
		res.ChainLen, res.WalletsContacted)
	fmt.Printf("after seed death + home move, late joiner resolved %d-link chain at %s; %v total\n",
		res.RejoinChainLen, res.RejoinAddr, time.Since(startAt).Round(time.Millisecond))
	fmt.Println("PASS")
	return nil
}
