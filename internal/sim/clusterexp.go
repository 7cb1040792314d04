// EXP-C1 (§12): sharded wallet cluster experiments. RunShardScaling
// measures aggregate publish throughput as the cluster grows from one
// shard to many, RunCrossShardProof checks that a proof assembled across
// shard boundaries is identical in validity to one computed by a single
// wallet holding the whole chain, and RunSplitConvergence splits a shard
// mid-traffic and counts lost mutations (the answer must be zero).
// RunClusterSmoke bundles bounded-size versions of all three for CI.
package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"drbac/internal/cluster"
	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/sigcache"
	"drbac/internal/wallet"
)

// DefaultCommitDelay models the durable-commit latency of a production
// store (WAL append + fsync on commodity disks). MemStore commits in
// nanoseconds, which would make a publish benchmark CPU-bound — on a
// single-core runner, N shards then share one core and nothing scales.
// Real wallet clusters shard precisely to parallelize the commit path,
// so the experiment restores that bottleneck explicitly.
const DefaultCommitDelay = 500 * time.Microsecond

// delayStore wraps a wallet store with a serialized commit delay: the
// lock is held across the sleep, reproducing a single fsync pipeline per
// shard. Sharding parallelizes across stores, never within one.
type delayStore struct {
	wallet.Store
	delay time.Duration
	mu    sync.Mutex
}

func (s *delayStore) PutDelegation(seq uint64, d *core.Delegation, support []*core.Proof) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.Store.PutDelegation(seq, d, support)
}

// clusterSim is an N-shard wallet cluster on a World: one served wallet
// per shard (all sharing a signature cache, each behind a delayStore)
// and a gateway routing over the in-memory network, metered into gwReg.
type clusterSim struct {
	m       *cluster.Map
	gw      *cluster.Wallet
	gwReg   *obs.Registry
	wallets map[int]*wallet.Wallet
	nodes   map[int]*cluster.Node
}

// startCluster serves `shards` shard wallets on w and a gateway over
// them.
func startCluster(w *World, shards int, commitDelay time.Duration, sc *sigcache.Cache) (*clusterSim, error) {
	groups := make([][]string, shards)
	for i := range groups {
		groups[i] = []string{fmt.Sprintf("shard%d", i)}
	}
	m, err := cluster.Uniform(groups)
	if err != nil {
		return nil, err
	}
	cs := &clusterSim{
		m:       m,
		gwReg:   obs.NewRegistry(),
		wallets: make(map[int]*wallet.Wallet),
		nodes:   make(map[int]*cluster.Node),
	}
	for _, s := range m.Shards {
		owner := fmt.Sprintf("shard%d-owner", s.ID)
		wal := wallet.New(wallet.Config{
			Owner:     w.Identity(owner),
			Clock:     w.Clock,
			Directory: w.Dir,
			Store:     &delayStore{Store: wallet.NewMemStore(), delay: commitDelay},
			SigCache:  sc,
		})
		node, err := cluster.NewNode(s.ID, m, nil)
		if err != nil {
			return nil, err
		}
		if _, err := w.serve(wal, s.Addrs[0], owner, remote.Options{Cluster: node}); err != nil {
			return nil, err
		}
		cs.wallets[s.ID] = wal
		cs.nodes[s.ID] = node
	}
	gw, err := cluster.NewWallet(cluster.WalletConfig{
		RouterConfig: cluster.RouterConfig{Map: m, Dialer: w.Net.Dialer(w.Identity("gateway")), Obs: obs.New(nil, cs.gwReg)},
		Identity:     w.Identity("gateway"),
		Clock:        w.Clock,
	})
	if err != nil {
		return nil, err
	}
	w.own(gw.Close)
	cs.gw = gw
	return cs, nil
}

// ClusterPoint is one shard-count sample of the publish-throughput sweep.
type ClusterPoint struct {
	Shards     int
	Publishes  int
	Workers    int
	Elapsed    time.Duration
	Throughput float64 // aggregate publishes per second
}

// RunShardScaling publishes `publishes` delegations with distinct subject
// entities through a gateway over a `shards`-shard cluster, using a pool
// of concurrent publishers. Delegations are pre-issued and the shared
// signature cache warmed, so the timed section measures the routed
// publish path: wire round trip plus the serialized per-shard commit.
func RunShardScaling(shards, publishes, workers int, commitDelay time.Duration) (ClusterPoint, error) {
	pt := ClusterPoint{Shards: shards, Publishes: publishes, Workers: workers}
	w := NewWorld()
	defer w.Close()

	w.Ensure("Org")
	delegs := make([]*core.Delegation, 0, publishes)
	for i := 0; i < publishes; i++ {
		user := fmt.Sprintf("user%04d", i)
		w.Ensure(user)
		delegs = append(delegs, w.MustIssue(fmt.Sprintf("[%s -> Org.member] Org", user)))
	}

	sc := sigcache.New(4 * publishes)
	cs, err := startCluster(w, shards, commitDelay, sc)
	if err != nil {
		return pt, err
	}
	// Warm the shared signature memo so admission checks hit it and the
	// sweep compares commit pipelines, not signature verification.
	for _, d := range delegs {
		if err := d.VerifyWith(sc); err != nil {
			return pt, err
		}
	}

	work := make(chan *core.Delegation)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				if err := cs.gw.Publish(d); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}

	startAt := time.Now()
	for _, d := range delegs {
		work <- d
	}
	close(work)
	wg.Wait()
	pt.Elapsed = time.Since(startAt)
	select {
	case err := <-errs:
		return pt, err
	default:
	}

	stored := 0
	for _, wal := range cs.wallets {
		stored += wal.Stats().Delegations
	}
	if stored != publishes {
		return pt, fmt.Errorf("cluster stored %d delegations, published %d", stored, publishes)
	}
	pt.Throughput = float64(publishes) / pt.Elapsed.Seconds()
	return pt, nil
}

// ClusterProofPoint reports a cross-shard proof-assembly check.
type ClusterProofPoint struct {
	Shards     int
	HomeShards int // distinct shards the chain's links live on
	Identical  bool
	Valid      bool
	Assembly   time.Duration
}

// chainKey identifies a proof by its delegation chain, mirroring the
// gateway's internal dedup key: two proofs with equal keys authorize via
// the same credentials.
func chainKey(p *core.Proof) string {
	key := ""
	for _, st := range p.Steps {
		if st.Delegation != nil {
			key += string(st.Delegation.ID()) + "|"
		}
	}
	return key
}

// RunCrossShardProof publishes a three-link delegation chain whose links
// land on different shards, queries the gateway for the end-to-end proof,
// and compares it against the proof a single wallet holding the whole
// chain computes: same chain, same validity.
func RunCrossShardProof(shards int) (ClusterProofPoint, error) {
	pt := ClusterProofPoint{Shards: shards}
	w := NewWorld()
	defer w.Close()
	w.Ensure("A", "B", "C", "Maria")

	cs, err := startCluster(w, shards, 0, sigcache.New(64))
	if err != nil {
		return pt, err
	}

	chain := []*core.Delegation{
		w.MustIssue("[Maria -> A.member] A"),
		w.MustIssue("[A.member -> B.guest] B"),
		w.MustIssue("[B.guest -> C.vip] C"),
	}
	homes := make(map[int]bool)
	for _, d := range chain {
		homes[cs.m.OwnerOf(d).ID] = true
		if err := cs.gw.Publish(d); err != nil {
			return pt, err
		}
	}
	pt.HomeShards = len(homes)

	q, err := w.query("Maria", "C.vip")
	if err != nil {
		return pt, err
	}
	startAt := time.Now()
	got, err := cs.gw.QueryDirect(q)
	pt.Assembly = time.Since(startAt)
	if err != nil {
		return pt, fmt.Errorf("cross-shard query: %w", err)
	}

	ref := wallet.New(wallet.Config{Clock: w.Clock, Directory: w.Dir})
	for _, d := range chain {
		if err := ref.Publish(d); err != nil {
			return pt, err
		}
	}
	want, err := ref.QueryDirect(q)
	if err != nil {
		return pt, fmt.Errorf("single-wallet query: %w", err)
	}

	pt.Identical = chainKey(got) == chainKey(want)
	opts := core.ValidateOptions{At: w.Clock.Now()}
	pt.Valid = got.Validate(opts) == nil && want.Validate(opts) == nil
	return pt, nil
}

// SplitPoint reports a mid-traffic shard split.
type SplitPoint struct {
	Shards    int // shard count before the split
	Publishes int // total mutations across the three phases
	Moved     int // delegations the split re-homed
	Lost      int // mutations missing from their post-split owner (must be 0)
	Epoch     uint64
}

// RunSplitConvergence splits shard 0 of a `shards`-shard cluster while
// publishes keep flowing — a third before the split starts, a third
// during the filtered changelog replay, a third after cutover — then
// audits every mutation against its post-split owner.
func RunSplitConvergence(ctx context.Context, shards, publishes int) (SplitPoint, error) {
	pt := SplitPoint{Shards: shards, Publishes: publishes}
	w := NewWorld()
	defer w.Close()
	w.Ensure("Org")

	cs, err := startCluster(w, shards, 0, sigcache.New(4*publishes))
	if err != nil {
		return pt, err
	}

	next := 0
	publish := func(n int) ([]*core.Delegation, error) {
		out := make([]*core.Delegation, 0, n)
		for i := 0; i < n; i++ {
			user := fmt.Sprintf("splituser%03d", next)
			next++
			w.Ensure(user)
			d := w.MustIssue(fmt.Sprintf("[%s -> Org.member] Org", user))
			if err := cs.gw.Publish(d); err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}

	batch := publishes / 3
	var all []*core.Delegation
	pre, err := publish(batch)
	if err != nil {
		return pt, err
	}
	all = append(all, pre...)

	// Carve a new shard out of shard 0 by filtered changelog replay.
	newID := shards
	target := wallet.New(wallet.Config{Clock: w.Clock, Directory: w.Dir})
	peers := w.peers(peer.Config{Dialer: w.Net.Dialer(w.Identity("gateway"))})
	split, err := cluster.StartSplit(cluster.SplitConfig{
		Current:  cs.m,
		SourceID: 0,
		NewID:    newID,
		NewAddrs: []string{fmt.Sprintf("shard%d", newID)},
		Target:   target,
		Dialer:   w.Net.Dialer(w.Identity("gateway")),
		Peers:    peers,
	})
	if err != nil {
		return pt, err
	}

	mid, err := publish(batch)
	if err != nil {
		return pt, err
	}
	all = append(all, mid...)

	if err := split.WaitCaughtUp(ctx, 5*time.Millisecond); err != nil {
		return pt, fmt.Errorf("split never converged: %w", err)
	}

	// Cutover: serve the new shard, adopt the map everywhere, finish.
	node, err := cluster.NewNode(newID, split.NewMap, nil)
	if err != nil {
		return pt, err
	}
	if _, err := w.serve(target, fmt.Sprintf("shard%d", newID), "gateway", remote.Options{Cluster: node}); err != nil {
		return pt, err
	}
	cs.wallets[newID] = target
	for _, n := range cs.nodes {
		n.Adopt(split.NewMap)
	}
	cs.gw.Router().Adopt(split.NewMap)
	split.Finish()
	pt.Epoch = split.NewMap.Epoch

	post, err := publish(publishes - 2*batch)
	if err != nil {
		return pt, err
	}
	all = append(all, post...)

	pt.Moved = cluster.PruneMoved(cs.wallets[0], split.NewMap, 0)
	for _, d := range all {
		owner := split.NewMap.OwnerOf(d)
		if !cs.wallets[owner.ID].Contains(d.ID()) {
			pt.Lost++
		}
	}
	return pt, nil
}

// ClusterSmokeResult summarizes the bounded CI smoke over a 4-shard
// cluster: routed publishes, an object-query scatter-gather, a
// cross-shard direct proof, and a mid-traffic split.
type ClusterSmokeResult struct {
	Shards       int
	Published    int
	ObjectProofs int
	Proof        ClusterProofPoint
	Split        SplitPoint
}

// RunClusterSmoke is the `make check` / CI smoke: small sizes, no
// injected commit latency, every phase bounded by ctx.
func RunClusterSmoke(ctx context.Context) (ClusterSmokeResult, error) {
	res := ClusterSmokeResult{Shards: 4}
	w := NewWorld()
	defer w.Close()
	w.Ensure("Org")

	cs, err := startCluster(w, res.Shards, 0, sigcache.New(256))
	if err != nil {
		return res, err
	}

	const members = 12
	for i := 0; i < members; i++ {
		user := fmt.Sprintf("smoke%02d", i)
		w.Ensure(user)
		if err := cs.gw.Publish(w.MustIssue(fmt.Sprintf("[%s -> Org.member] Org", user))); err != nil {
			return res, err
		}
		res.Published++
	}
	role, err := w.Role("Org.member")
	if err != nil {
		return res, err
	}
	res.ObjectProofs = len(cs.gw.QueryObject(role, nil))
	if res.ObjectProofs != members {
		return res, fmt.Errorf("object scatter returned %d proofs, want %d", res.ObjectProofs, members)
	}
	if cs.gwReg.Snapshot().Counters["drbac_cluster_scatter_total"] == 0 {
		return res, fmt.Errorf("object query did not scatter")
	}

	res.Proof, err = RunCrossShardProof(res.Shards)
	if err != nil {
		return res, err
	}
	if !res.Proof.Identical || !res.Proof.Valid {
		return res, fmt.Errorf("cross-shard proof check failed: %+v", res.Proof)
	}

	res.Split, err = RunSplitConvergence(ctx, res.Shards, 18)
	if err != nil {
		return res, err
	}
	if res.Split.Lost != 0 {
		return res, fmt.Errorf("split lost %d mutations", res.Split.Lost)
	}
	return res, nil
}

func clusterReport(r *Report) error {
	const (
		publishes = 480
		workers   = 32
	)
	r.printf("%7s %10s %8s %10s %12s %8s", "shards", "publishes", "workers", "elapsed", "publishes/s", "speedup")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		pt, err := RunShardScaling(shards, publishes, workers, DefaultCommitDelay)
		if err != nil {
			return err
		}
		if shards == 1 {
			base = pt.Throughput
		}
		r.printf("%7d %10d %8d %10s %12.0f %7.1fx", pt.Shards, pt.Publishes, pt.Workers,
			timed{pt.Elapsed.Round(time.Millisecond)}, timed{pt.Throughput}, timed{pt.Throughput / base})
	}
	r.printf("commit delay %v per mutation, serialized per shard: aggregate throughput", DefaultCommitDelay)
	r.printf("scales with the shard count because each shard owns an independent commit pipeline.")

	proof, err := RunCrossShardProof(4)
	if err != nil {
		return err
	}
	r.printf("cross-shard proof: chain spans %d shards, identical-to-single-wallet=%v, valid=%v, assembled in %v",
		proof.HomeShards, proof.Identical, proof.Valid, timed{proof.Assembly.Round(time.Microsecond)})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	split, err := RunSplitConvergence(ctx, 2, 24)
	if err != nil {
		return err
	}
	r.printf("mid-traffic split 2->3 shards: epoch %d, %d mutations, %d re-homed, %d lost",
		split.Epoch, split.Publishes, split.Moved, split.Lost)
	if split.Lost != 0 {
		return fmt.Errorf("split lost %d mutations", split.Lost)
	}
	return nil
}

func clusterSmokeReport(r *Report) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	startAt := time.Now()
	res, err := RunClusterSmoke(ctx)
	if err != nil {
		return err
	}
	r.printf("published %d across %d shards; object scatter returned %d proofs;",
		res.Published, res.Shards, res.ObjectProofs)
	r.printf("cross-shard proof identical=%v valid=%v; split re-homed %d, lost %d; %v total",
		res.Proof.Identical, res.Proof.Valid, res.Split.Moved, res.Split.Lost,
		timed{time.Since(startAt).Round(time.Millisecond)})
	r.printf("PASS")
	return nil
}
