// Decentralized discovery for drbacd: -dht starts a Kademlia-style DHT
// participant alongside the wallet server. The daemon announces its
// operator entity's signed provider record into the DHT (on startup and
// again whenever a shard-map rollout is adopted), so other wallets can find
// this one knowing only its entity fingerprint and one bootstrap seed — no
// static address book. Liveness is each peer pool's own circuit breaker:
// nothing another member says marks a peer down.
package main

import (
	"context"
	"fmt"
	"time"

	"drbac/internal/core"
	"drbac/internal/dht"
	"drbac/internal/obs"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/transport"
)

// bootstrapTimeout bounds the startup join against the seed nodes; the
// daemon serves regardless of the outcome (a lone first node has nobody
// to join) and the republish loop keeps retrying the announcement.
const bootstrapTimeout = 30 * time.Second

// dhtRuntime bundles the daemon's DHT node and the connection pool backing
// its outbound RPCs.
type dhtRuntime struct {
	node  *dht.Node
	peers *peer.Manager

	owner *core.Identity
	addrs []string // addresses announced in the provider record
	seeds []string
	o     *obs.Obs
}

// startDHT builds and starts the DHT node. announce is the comma-separated
// address list to publish ("" means the listen address); bootstrap the seed
// list ("" starts a lone seed node).
func startDHT(owner *core.Identity, listen, announce, bootstrap string, o *obs.Obs) (*dhtRuntime, error) {
	addrs := remote.SplitAddrs(announce)
	if len(addrs) == 0 {
		addrs = []string{listen}
	}
	rt := &dhtRuntime{
		owner: owner,
		addrs: addrs,
		seeds: remote.SplitAddrs(bootstrap),
		o:     o,
		peers: peer.NewManager(peer.Config{Dialer: &transport.TCPDialer{Identity: owner}, Obs: o}),
	}
	node, err := dht.NewNode(dht.Config{
		Identity: owner,
		Addr:     addrs[0],
		Peers:    rt.peers,
		Obs:      o,
	})
	if err != nil {
		rt.peers.Close()
		return nil, err
	}
	rt.node = node
	node.Start()
	return rt, nil
}

// join runs the startup bootstrap in the background: learn the seeds,
// populate buckets via a self-lookup, and publish the operator entity's
// provider record. Failures are logged, not fatal — the first node of a
// coalition has no one to join.
func (rt *dhtRuntime) join() {
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

// close tears the runtime down: the node's loops first, then the pool.
func (rt *dhtRuntime) close() {
	rt.node.Close()
	rt.peers.Close()
}
