package wallet

import (
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/subs"
)

// Service is the serving surface a wallet exposes to the network layer:
// everything remote.Server needs to answer the wire protocol. *Wallet
// satisfies it, and so does cluster.Wallet — the scatter-gather gateway
// that presents an N-shard cluster as one logical wallet — which is what
// lets the proxy, trace, and CLI layers run unchanged on top of either.
type Service interface {
	// Publish stores a delegation with its support proofs.
	Publish(d *core.Delegation, support ...*core.Proof) error
	// InsertCached stores a TTL-coherent cached copy (§4.2.1).
	InsertCached(d *core.Delegation, support []*core.Proof, ttl time.Duration) error
	// Revoke withdraws a delegation on behalf of the authenticated peer.
	Revoke(id core.DelegationID, by core.EntityID) error
	// QueryDirect searches for a proof chain (§4.1 direct query).
	QueryDirect(q Query) (*core.Proof, error)
	// QuerySubject lists the subject's direct grants.
	QuerySubject(subject core.Subject, constraints []core.Constraint) []*core.Proof
	// QueryObject lists the role's direct holders.
	QueryObject(object core.Role, constraints []core.Constraint) []*core.Proof
	// Subscribe watches one delegation's status (§4.2.2).
	Subscribe(id core.DelegationID, fn subs.Handler) (cancel func())
	// Contains reports whether the delegation is stored here.
	Contains(id core.DelegationID) bool
	// Owner is the wallet's operating identity (nil when anonymous).
	Owner() *core.Identity
	// Stats summarizes wallet state for the stats endpoint.
	Stats() Stats
	// Seq is the changelog sequence number (0 when not applicable).
	Seq() uint64
	// Obs is the wallet's observability bundle (never nil; may be inert).
	Obs() *obs.Obs
}

// Replicable is the optional capability of services that can bootstrap
// and feed follower replicas (§9): a consistent snapshot of memory, the
// full changelog stream, and bundle read-back. The journal is not part of
// it: a follower learns the wallet's memory, never its Store. remote.Server
// asserts it on sync / subscribe-all requests and refuses them when absent
// — a cluster gateway routes replication to its member shards instead of
// serving it itself.
type Replicable interface {
	Snapshot() Snapshot
	SubscribeAll(fn subs.Handler) (cancel func())
	Get(id core.DelegationID) (*core.Delegation, []*core.Proof, bool)
}

var (
	_ Service    = (*Wallet)(nil)
	_ Replicable = (*Wallet)(nil)
)
