package cluster

import (
	"fmt"
	"sync"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/wire"
)

// Node is one shard member's view of the cluster: its own shard ID plus
// the current map. It implements remote.ClusterGuard, so a shard's wire
// server advertises the epoch on connect, answers shardmap requests, and
// refuses mis-routed or stale-epoch mutations with redirects carrying the
// fresh map. Adopt installs newer maps at runtime (resharding).
type Node struct {
	id  int
	obs *obs.Obs

	mAdoptions *obs.Counter
	mRedirects *obs.Counter
	mRoutes    *obs.Counter // mutations this member served

	mu  sync.RWMutex
	m   *Map
	raw []byte
}

// NewNode builds a shard member's cluster view. id must be a shard of m.
func NewNode(id int, m *Map, o *obs.Obs) (*Node, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if _, ok := m.ShardByID(id); !ok {
		return nil, fmt.Errorf("cluster: node shard %d not in map", id)
	}
	raw, err := m.Marshal()
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:         id,
		obs:        o,
		m:          m,
		raw:        raw,
		mAdoptions: o.Counter("drbac_cluster_map_adoptions_total"),
		mRedirects: o.Counter("drbac_cluster_redirects_total"),
		mRoutes:    o.Counter("drbac_cluster_routes_total"),
	}
	registerMapGauges(o, n.Current)
	return n, nil
}

// registerMapGauges exports the installed map's epoch and shard count, for
// a member and a gateway alike.
func registerMapGauges(o *obs.Obs, current func() *Map) {
	o.Registry().GaugeFunc("drbac_cluster_epoch", func() int64 { return int64(current().Epoch) })
	o.Registry().GaugeFunc("drbac_cluster_shards", func() int64 { return int64(len(current().Shards)) })
}

// Current returns the installed map.
func (n *Node) Current() *Map {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.m
}

// Adopt installs m if it is strictly newer than the current map (and
// still names this node's shard). Reports whether it was installed.
func (n *Node) Adopt(m *Map) bool {
	if err := m.Validate(); err != nil {
		return false
	}
	if _, ok := m.ShardByID(n.id); !ok {
		return false
	}
	raw, err := m.Marshal()
	if err != nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Epoch <= n.m.Epoch {
		return false
	}
	n.m, n.raw = m, raw
	n.mAdoptions.Inc()
	n.obs.Log().Info("cluster: shard map adopted", "shard", n.id, "epoch", m.Epoch, "shards", len(m.Shards))
	return true
}

// MapResp answers a shardmap request with the full serialized map.
func (n *Node) MapResp() (wire.ShardMapResp, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return wire.ShardMapResp{Epoch: n.m.Epoch, Shard: n.id, Map: n.raw}, nil
}

// Check authorizes a mutation stamped with the caller's epoch (0 =
// unstamped): refused when the epoch is stale or, for a durable publish
// (subject non-nil), when this shard does not own the subject's key. A
// caller stamping a NEWER epoch than ours is not refused on the epoch alone
// (mid-reshard, members adopt the map at slightly different times);
// ownership under our map still gates.
func (n *Node) Check(reqEpoch uint64, subject *core.Subject) *wire.Redirect {
	n.mu.RLock()
	defer n.mu.RUnlock()
	owner := n.id
	if subject != nil {
		owner = n.m.OwnerID(RouteKey(*subject))
	}
	if (reqEpoch == 0 || reqEpoch >= n.m.Epoch) && owner == n.id {
		n.mRoutes.Inc()
		return nil
	}
	n.mRedirects.Inc()
	// The refusal points at the owner, and the fresh map rides along so one
	// redirect heals the caller's whole routing table.
	rd := &wire.Redirect{Epoch: n.m.Epoch, Shard: owner, Map: n.raw}
	if s, ok := n.m.ShardByID(owner); ok {
		rd.Addrs = append([]string(nil), s.Addrs...)
	}
	return rd
}
