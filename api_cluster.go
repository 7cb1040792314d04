package drbac

import (
	"drbac/internal/cluster"
	"drbac/internal/remote"
	"drbac/internal/wallet"
)

// Sharded-cluster re-exports (§12): a consistent-hash shard map with
// epoch-versioned membership, a gateway wallet that routes mutations to
// owning shards and assembles cross-shard proofs, and live resharding
// over the changelog.
type (
	// ShardMap is a versioned consistent-hash map of delegation subject
	// keys to shards. Immutable; resharding builds a bumped-epoch copy.
	ShardMap = cluster.Map
	// Shard is one shard's ID and replica-group addresses.
	Shard = cluster.Shard
	// ClusterNode is one shard member's cluster view: it guards a wallet
	// server with epoch advertisement and mis-route redirects.
	ClusterNode = cluster.Node
	// ClusterRouter routes mutations to owning shards and self-heals from
	// epoch drift by adopting redirect-carried maps.
	ClusterRouter = cluster.Router
	// ClusterRouterConfig parameterizes a ClusterRouter.
	ClusterRouterConfig = cluster.RouterConfig
	// ClusterWallet presents an N-shard cluster as one logical wallet:
	// it satisfies WalletService, so serving, proxying, and the CLI run
	// on top of it unchanged.
	ClusterWallet = cluster.Wallet
	// ClusterWalletConfig parameterizes a ClusterWallet.
	ClusterWalletConfig = cluster.WalletConfig
	// ShardSplit is a live shard split riding the changelog: a filtered
	// replay populates the new shard while the source keeps serving.
	ShardSplit = cluster.Split
	// ShardSplitConfig parameterizes StartShardSplit.
	ShardSplitConfig = cluster.SplitConfig
	// WalletService is the serving interface a wallet exposes over the
	// wire: both *Wallet and *ClusterWallet satisfy it.
	WalletService = wallet.Service
	// ClusterGuard hooks shard-map enforcement into a wallet server.
	ClusterGuard = remote.ClusterGuard
	// ShardRedirectError is a cluster refusal carrying the owning shard's
	// replica group and the fresh map.
	ShardRedirectError = remote.RedirectError
)

// NewShardMap builds an epoch-1 map spreading ownership uniformly over
// the given replica groups (shard i gets addrs groups[i]).
func NewShardMap(groups [][]string) (*ShardMap, error) { return cluster.Uniform(groups) }

// ParseShardMap decodes a serialized shard map and validates it.
func ParseShardMap(raw []byte) (*ShardMap, error) { return cluster.ParseMap(raw) }

// ShardRouteKey is the consistent-hash routing key of a delegation
// subject: delegations rooted at the same node always share a shard.
func ShardRouteKey(s Subject) string { return cluster.RouteKey(s) }

// NewClusterNode builds shard id's member view of m, servable via
// ServeWalletCluster.
func NewClusterNode(id int, m *ShardMap, o *Obs) (*ClusterNode, error) {
	return cluster.NewNode(id, m, o)
}

// NewClusterWallet builds a gateway wallet over the shard map: mutations
// route to owning shards, cross-shard proofs are assembled with the
// distributed-discovery machinery, and redirects self-heal stale maps.
func NewClusterWallet(cfg ClusterWalletConfig) (*ClusterWallet, error) {
	return cluster.NewWallet(cfg)
}

// ServeWalletCluster exposes w on ln as a cluster participant: guard is a
// *ClusterNode for a shard member (or ClusterWallet.Guard() for a served
// gateway): it answers shard-map requests and is enforced on mutations.
func ServeWalletCluster(w WalletService, ln Listener, guard ClusterGuard) *WalletServer {
	return remote.ServeOptions(w, ln, remote.Options{Obs: w.Obs(), Cluster: guard})
}

// StartShardSplit begins carving a new shard out of cfg.SourceID by
// filtered changelog replay (§12): the returned split's WaitCaughtUp, map
// adoption, and Finish sequence completes a zero-loss live reshard.
func StartShardSplit(cfg ShardSplitConfig) (*ShardSplit, error) { return cluster.StartSplit(cfg) }
