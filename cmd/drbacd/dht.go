// Decentralized discovery for drbacd: -dht starts a Kademlia-style DHT
// participant plus a SWIM gossip member alongside the wallet server. The
// daemon announces its operator entity's signed provider record into the
// DHT (on startup and again whenever a shard-map rollout is adopted), so
// other wallets can find this one knowing only its entity fingerprint and
// one bootstrap seed — no static address book. Gossip liveness verdicts
// fan into every peer pool's circuit gates, so a member the cluster agrees
// is dead fails fast everywhere until it refutes.
package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"drbac/internal/core"
	"drbac/internal/dht"
	"drbac/internal/gossip"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
	"drbac/internal/wire"
)

// bootstrapTimeout bounds the startup join against the seed nodes; the
// daemon serves regardless of the outcome (a lone first node has nobody
// to join) and the republish loop keeps retrying the announcement.
const bootstrapTimeout = 30 * time.Second

// dhtRuntime bundles the daemon's DHT node, gossip member, their private
// connection pools, and the verdict fan-out.
type dhtRuntime struct {
	node   *dht.Node
	gossip *gossip.Node
	// dhtPeers backs the DHT node's outbound RPCs; it receives gossip
	// verdicts. gossipPeers backs the gossip probes and must NOT — probes
	// to a down-marked member are how recovery is observed.
	dhtPeers    *peer.Manager
	gossipPeers *peer.Manager

	owner *core.Identity
	addrs []string // addresses announced in the provider record
	seeds []string
	o     *obs.Obs

	mu    sync.Mutex
	pools []*peer.Manager // verdict fan-out targets
}

// startDHT builds and starts the DHT and gossip nodes. announce is the
// comma-separated address list to publish ("" means the listen address);
// bootstrap the seed list ("" starts a lone seed node).
func startDHT(owner *core.Identity, listen, announce, bootstrap string, o *obs.Obs) (*dhtRuntime, error) {
	addrs := remote.SplitAddrs(announce)
	if len(addrs) == 0 {
		addrs = []string{listen}
	}
	rt := &dhtRuntime{
		owner:       owner,
		addrs:       addrs,
		seeds:       remote.SplitAddrs(bootstrap),
		o:           o,
		dhtPeers:    peer.NewManager(peer.Config{Dialer: &transport.TCPDialer{Identity: owner}, Obs: o}),
		gossipPeers: peer.NewManager(peer.Config{Dialer: &transport.TCPDialer{Identity: owner}, Obs: o}),
	}
	node, err := dht.NewNode(dht.Config{
		Identity: owner,
		Addr:     addrs[0],
		Peers:    rt.dhtPeers,
		Obs:      o,
	})
	if err != nil {
		rt.closePools()
		return nil, err
	}
	rt.node = node
	g, err := gossip.NewNode(gossip.Config{
		SelfAddr:  addrs[0],
		Peers:     rt.gossipPeers,
		Obs:       o,
		OnVerdict: rt.verdict,
	})
	if err != nil {
		rt.closePools()
		return nil, err
	}
	rt.gossip = g
	rt.addVerdictPool(rt.dhtPeers)
	node.Start()
	g.Start()
	return rt, nil
}

// join runs the startup bootstrap in the background: learn the seeds,
// populate buckets via a self-lookup, join the gossip ring, and publish
// the operator entity's provider record. Failures are logged, not fatal —
// the first node of a coalition has no one to join.
func (rt *dhtRuntime) join() {
	rt.gossip.Join(rt.seeds)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), bootstrapTimeout)
		defer cancel()
		if len(rt.seeds) > 0 {
			if err := rt.node.Bootstrap(ctx, rt.seeds); err != nil {
				rt.o.Log().Warn("dht bootstrap failed; serving as lone seed", "error", err)
			}
		}
		rt.announce(ctx)
	}()
}

// announce (re)publishes the operator entity's provider record. The DHT
// node bumps the record seq each call, so re-announcing after a map-epoch
// change supersedes the previous record everywhere.
func (rt *dhtRuntime) announce(ctx context.Context) {
	if err := rt.node.Announce(ctx, rt.owner, rt.addrs); err != nil {
		rt.o.Log().Warn("dht announce failed; republish loop will retry",
			"entity", rt.owner.ID().Short(), "error", err)
		return
	}
	rt.o.Log().Info("dht announced",
		"entity", rt.owner.ID().Short(), "addrs", fmt.Sprintf("%v", rt.addrs))
}

// reannounce is the map-adoption hook: a rollout often accompanies member
// address changes, so the served-entity record is refreshed immediately
// instead of waiting out the republish interval.
func (rt *dhtRuntime) reannounce() {
	ctx, cancel := context.WithTimeout(context.Background(), bootstrapTimeout)
	defer cancel()
	rt.announce(ctx)
}

// addVerdictPool registers a peer pool to receive gossip liveness
// verdicts via SetRemoteDown.
func (rt *dhtRuntime) addVerdictPool(p *peer.Manager) {
	if p == nil {
		return
	}
	rt.mu.Lock()
	rt.pools = append(rt.pools, p)
	rt.mu.Unlock()
}

// verdict fans a gossip liveness transition into every registered pool:
// dead gates the member's address (fast-fail, no dial), alive clears the
// gate and any locally tripped breaker.
func (rt *dhtRuntime) verdict(addr string, alive bool) {
	rt.mu.Lock()
	pools := append([]*peer.Manager(nil), rt.pools...)
	rt.mu.Unlock()
	for _, p := range pools {
		p.SetRemoteDown(addr, !alive)
	}
}

// stats merges the DHT node's counters with the gossip membership counts
// into the stats response's dht section.
func (rt *dhtRuntime) stats() *wire.DHTStats {
	s := rt.node.Stats()
	s.GossipAlive, s.GossipSuspect, s.GossipDead = rt.gossip.Counts()
	return s
}

func (rt *dhtRuntime) closePools() {
	rt.dhtPeers.Close()
	rt.gossipPeers.Close()
}

// close tears the runtime down: loops first, then the pools.
func (rt *dhtRuntime) close() {
	rt.gossip.Close()
	rt.node.Close()
	rt.closePools()
}
