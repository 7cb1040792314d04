// Package wire defines the message protocol spoken between wallets over the
// authenticated transport: publication, the three query kinds (§4.1),
// delegation subscriptions with push notifications (§4.2.2), revocation,
// and home-wallet authorization proofs (§4.2.1).
//
// Messages (messages.go) is the one declaration of the protocol: every
// message type with its binary type code, body and reply. Every frame is an
// Envelope in the one wire codec, the binary framing of binary.go (Codec);
// hot bodies have hand-rolled layouts and the rest ride inside it as JSON.
// Requests carry a caller-chosen ID echoed by the response; notifications use
// ID 0 and flow server→client only.
package wire

import (
	"encoding/json"
	"fmt"
	"time"

	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/obs"
)

// MsgType discriminates envelope payloads.
type MsgType string

// Request types (client → server).
const (
	TPublish      MsgType = "publish"
	TQueryDirect  MsgType = "query-direct"
	TQuerySubject MsgType = "query-subject"
	TQueryObject  MsgType = "query-object"
	TSubscribe    MsgType = "subscribe"
	TUnsubscribe  MsgType = "unsubscribe"
	TRevoke       MsgType = "revoke"
	TProveRole    MsgType = "prove-role"
	THas          MsgType = "has"
	TPing         MsgType = "ping"
	TStats        MsgType = "stats"
	// TSync asks for a consistent snapshot-at-seq of the wallet's
	// replicable state (empty body; answered with SyncResp). Follower
	// replicas bootstrap from it (§9).
	TSync MsgType = "sync"
	// TSubscribeAll subscribes this connection to the wallet's full
	// changelog stream: every status event, for every delegation, carrying
	// its seq (empty body; answered with SubscribeAllResp). At most one
	// stream per connection; re-sending replaces the previous one.
	TSubscribeAll MsgType = "subscribe-all"
	// TSyncSegments is reserved and no longer served: log-store wallets
	// once shipped their journal's raw segments under it to bootstrap
	// followers, and the journal lags the wallet's memory, so such a
	// follower could hold what the wallet had revoked. The name and its
	// binary type code stay assigned so an older follower's request still
	// decodes; it is refused as an unknown request type, and the follower
	// falls back to TSync on the same connection.
	TSyncSegments MsgType = "sync-segments"
	// TTrace fetches the serving wallet's retained spans for one trace ID
	// (TraceReq; answered with TraceResp). `drbac trace` merges the
	// answers from several wallets into one cross-wallet waterfall.
	TTrace MsgType = "trace"
	// TShardMap asks a cluster member for its current shard map (empty
	// body; answered with ShardMapResp carrying the serialized map).
	// Non-clustered wallets answer with an error. Clients refresh their
	// routing table from it after a redirect or an epoch advertisement.
	TShardMap MsgType = "shardmap"
	// TDHTFindNode asks a DHT-enabled wallet for its closest known
	// contacts to a 160-bit target (DHTFindReq; answered with DHTFindResp,
	// record always nil). Wallets without a DHT node answer with an error.
	TDHTFindNode MsgType = "dht-find-node"
	// TDHTFindValue asks for the provider record stored under a key,
	// falling back to the closest contacts when the serving node does not
	// hold it (DHTFindReq; answered with DHTFindResp).
	TDHTFindValue MsgType = "dht-find-value"
	// TDHTStore offers a signed provider record for storage
	// (DHTStoreReq; answered with OK). The serving node verifies the
	// record against its embedded entity key before accepting: unsigned,
	// mis-signed, key-mismatched, or expired records are refused with an
	// error and never stored or served.
	TDHTStore MsgType = "dht-store"
	// TGossipPing and TGossipPingReq are reserved and no longer served:
	// -dht daemons once ran SWIM membership probes under them, and any
	// authenticated peer's probe could declare any address dead in the
	// receiver's peer pools. The peer pool's own circuit breaker is the only
	// liveness verdict now. The names and their binary type codes stay
	// assigned so an older member's probe still decodes; it is refused as an
	// unknown request type and its connection is kept.
	TGossipPing    MsgType = "gossip-ping"
	TGossipPingReq MsgType = "gossip-ping-req"
)

// Response and push types (server → client).
const (
	TOK     MsgType = "ok"
	TProof  MsgType = "proof"
	TProofs MsgType = "proofs"
	TError  MsgType = "error"
	TNotify MsgType = "notify"
	TPong   MsgType = "pong"
	// TClusterHello is reserved and no longer sent: cluster members once
	// pushed it (ID 0, ShardMapResp body without the map) on every
	// accepted connection, and nothing ever read it — routers learn
	// staleness from the redirect. The name and its binary type code stay
	// assigned so a frame from an older member still decodes; clients
	// drop it as a reply nobody waits for.
	TClusterHello MsgType = "cluster-hello"
)

// Envelope is one frame on the wire.
type Envelope struct {
	Type MsgType `json:"type"`
	// ID matches responses to requests; 0 marks unsolicited pushes.
	ID   uint64          `json:"id,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
	// binKind, when nonzero, marks Body as a hand-rolled binary body of
	// that kind (set by Decode); zero marks a JSON body. DecodeBody
	// dispatches on it, so callers handle every body kind alike.
	binKind byte
}

// PublishReq asks the wallet to store a delegation with its support proofs.
type PublishReq struct {
	Delegation *core.Delegation `json:"delegation"`
	Support    []*core.Proof    `json:"support,omitempty"`
	// TTL, if positive, asks the receiving wallet to treat the delegation
	// as a TTL-coherent cached copy (§4.2.1).
	TTLSeconds int `json:"ttlSeconds,omitempty"`
	// ShardEpoch stamps the shard map epoch the sender routed by. A
	// cluster member refuses a mismatched epoch with a redirect carrying
	// the fresh map; 0 (unstamped) skips the epoch check but is still
	// subject to the ownership check.
	ShardEpoch uint64 `json:"shardEpoch,omitempty"`
}

// QueryReq carries any of the three query kinds; unused fields stay zero.
type QueryReq struct {
	Subject     core.Subject      `json:"subject,omitempty"`
	Object      core.Role         `json:"object,omitempty"`
	Constraints []core.Constraint `json:"constraints,omitempty"`
	Direction   graph.Direction   `json:"direction,omitempty"`
	// TraceID, when set, threads the caller's trace through the serving
	// wallet: the server logs the request (and runs the wallet query) under
	// this ID, so one cross-wallet discovery reads as a single trace in
	// every participating wallet's structured logs.
	TraceID string `json:"traceId,omitempty"`
	// SpanID is the caller's span: the serving wallet parents its own
	// span under it so merged cross-wallet traces nest remote hops below
	// the query that caused them.
	SpanID string `json:"spanId,omitempty"`
}

// TraceReq asks the serving wallet for its retained spans of one trace.
type TraceReq struct {
	TraceID string `json:"traceId"`
}

// TraceResp answers a TTrace request. Found is false when the trace was
// never retained (sampled out, expired from the ring, or unknown).
type TraceResp struct {
	Found bool             `json:"found"`
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// ProofResp answers a direct query.
type ProofResp struct {
	Proof *core.Proof `json:"proof"`
}

// ProofsResp answers subject and object queries.
type ProofsResp struct {
	Proofs []*core.Proof `json:"proofs"`
}

// SubscribeReq registers (or cancels) a delegation subscription.
type SubscribeReq struct {
	Delegation core.DelegationID `json:"delegation"`
}

// RevokeReq withdraws a delegation; the server authorizes against the
// authenticated peer identity.
type RevokeReq struct {
	Delegation core.DelegationID `json:"delegation"`
	// ShardEpoch stamps the sender's shard map epoch (see
	// PublishReq.ShardEpoch). Revokes carry no subject key, so only the
	// epoch is checked; ownership is the router's concern (it locates
	// the owner by scattering Has).
	ShardEpoch uint64 `json:"shardEpoch,omitempty"`
}

// ProveRoleReq asks the serving wallet to prove that its operating identity
// holds a role — used to verify home wallets against discovery-tag
// authorization roles (§4.2.1).
type ProveRoleReq struct {
	Role core.Role `json:"role"`
}

// HasReq asks whether the wallet stores a delegation — the primitive
// behind the §6 registry audit (store-required discovery flags).
type HasReq struct {
	Delegation core.DelegationID `json:"delegation"`
}

// HasResp answers a HasReq.
type HasResp struct {
	Present bool `json:"present"`
}

// StatsResp answers a TStats request (sent with an empty body): a summary
// of the serving wallet's state plus a full snapshot of its metrics
// registry — what the `drbac stats` subcommand renders and what the
// drbacd /metrics endpoint exports locally.
type StatsResp struct {
	// Role is the serving daemon's replication role ("primary" or
	// "replica"); empty when the server does not declare one.
	Role string `json:"role,omitempty"`
	// Seq is the wallet's changelog sequence number (§9 replication).
	Seq                uint64 `json:"seq"`
	Delegations        int    `json:"delegations"`
	Revoked            int    `json:"revoked"`
	TTLTracked         int    `json:"ttlTracked"`
	Watches            int    `json:"watches"`
	CacheHits          int64  `json:"cacheHits"`
	CacheMisses        int64  `json:"cacheMisses"`
	CacheInvalidations int64  `json:"cacheInvalidations"`
	CacheEntries       int    `json:"cacheEntries"`
	CacheNegatives     int    `json:"cacheNegatives"`
	// SigCache* report the wallet's verified-signature memo. When the
	// daemon uses the process-wide shared cache these counters cover every
	// verification in the process, not only this wallet's.
	SigCacheHits      int64        `json:"sigCacheHits"`
	SigCacheMisses    int64        `json:"sigCacheMisses"`
	SigCacheEvictions int64        `json:"sigCacheEvictions"`
	SigCacheSize      int64        `json:"sigCacheSize"`
	Metrics           obs.Snapshot `json:"metrics"`
	// Cluster describes the answering member's shard cluster view; nil
	// outside sharded deployments.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// DHT describes the answering wallet's DHT node; nil when the
	// daemon runs without `-dht`.
	DHT *DHTStats `json:"dht,omitempty"`
	// Wire reports the process-wide codec counters: frames and bytes
	// encoded/decoded per codec, entity-intern hit rate, and frame-pool
	// churn. Nil when answered by a server predating codec negotiation.
	Wire *WireStats `json:"wire,omitempty"`
}

// NotifyPush is a delegation status update (§4.2.2).
type NotifyPush struct {
	Delegation core.DelegationID `json:"delegation"`
	Kind       string            `json:"kind"`
	At         time.Time         `json:"at"`
	// Seq is the origin wallet's changelog sequence number for this event.
	// Always set; a follower replica uses it to detect dropped pushes
	// (seq gap → resync, §9).
	Seq uint64 `json:"seq,omitempty"`
	// Bundle carries the full delegation (with support proofs) on
	// "published" events of a subscribe-all stream, so a follower installs
	// the credential without a read-back round trip. Per-delegation
	// subscriptions omit it.
	Bundle *SyncBundle `json:"bundle,omitempty"`
}

// SyncBundle is one stored delegation with the support proofs it was
// published with — the replication unit of SyncResp and of "published"
// stream pushes.
type SyncBundle struct {
	Delegation *core.Delegation `json:"delegation"`
	Support    []*core.Proof    `json:"support,omitempty"`
}

// SyncResp answers a TSync request: the serving wallet's full replicable
// state — every stored bundle and observed revocation — consistent at
// changelog sequence number Seq. A follower installs it, then applies
// stream events with seq > Seq in order.
type SyncResp struct {
	Seq     uint64              `json:"seq"`
	Bundles []SyncBundle        `json:"bundles"`
	Revoked []core.DelegationID `json:"revoked,omitempty"`
}

// SubscribeAllResp acknowledges a TSubscribeAll request with the wallet's
// changelog seq read after the stream became live: every mutation with a
// greater seq is guaranteed to be delivered on this connection. A follower
// whose bootstrap snapshot is older than Seq knows a mutation landed in
// the bootstrap window and resyncs immediately.
type SubscribeAllResp struct {
	Seq uint64 `json:"seq"`
}

// ShardMapResp answers a TShardMap request.
type ShardMapResp struct {
	// Epoch is the serving member's current shard map epoch.
	Epoch uint64 `json:"epoch"`
	// Shard is the serving member's shard ID; -1 marks a routing gateway
	// that serves the whole cluster rather than one shard.
	Shard int `json:"shard"`
	// Map is the serialized cluster map (internal/cluster.Map JSON),
	// opaque at the wire layer.
	Map json.RawMessage `json:"map,omitempty"`
}

// Redirect tells a client its routing was wrong or stale: the request
// belongs to another shard or was stamped with an old epoch. The client
// adopts the fresh map and retries against the owning shard.
type Redirect struct {
	// Epoch is the refusing member's current epoch.
	Epoch uint64 `json:"epoch"`
	// Shard is the owning shard's ID (the refusing member's own ID on a
	// pure epoch mismatch).
	Shard int `json:"shard"`
	// Addrs is the owning shard's replica group, when known.
	Addrs []string `json:"addrs,omitempty"`
	// Map is the refusing member's full serialized map, so one redirect
	// heals the client's entire routing table.
	Map json.RawMessage `json:"map,omitempty"`
}

// ClusterStats is the cluster section of a StatsResp, present when the
// answering process is a shard member or gateway.
type ClusterStats struct {
	Epoch uint64 `json:"epoch"`
	// Shard is the answering member's shard ID; -1 for a gateway.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Routes counts mutations routed per shard ID (gateway view) or
	// served locally (member view), keyed by decimal shard ID.
	Routes map[string]int64 `json:"routes,omitempty"`
	// Redirects counts requests refused with a redirect (member) or
	// redirects followed (gateway).
	Redirects int64 `json:"redirects,omitempty"`
	// Scatters counts cross-shard scatter-gather queries (gateway).
	Scatters int64 `json:"scatters,omitempty"`
}

// DHTContact names one DHT node: its 160-bit self-certifying ID (the
// first 20 bytes of SHA-256 over the node's ed25519 entity key) and the
// address its wallet listens on. JSON base64-encodes ID.
type DHTContact struct {
	ID   []byte `json:"id"`
	Addr string `json:"addr"`
}

// DHTFindReq asks for the closest contacts to Target (find-node) or for
// the provider record stored under Target (find-value). From advertises
// the caller's own listen address so the serving node can learn it; the
// caller's contact ID is always derived from the authenticated transport
// identity, never from the request.
type DHTFindReq struct {
	From   DHTContact `json:"from"`
	Target []byte     `json:"target"`
}

// DHTFindResp answers find-node and find-value. Record is set only on a
// find-value hit; Contacts carries the serving node's closest known
// contacts to the target (always on find-node, on find-value misses as
// the lookup's next hops).
type DHTFindResp struct {
	Record   *DHTRecord   `json:"record,omitempty"`
	Contacts []DHTContact `json:"contacts,omitempty"`
}

// DHTRecord is a signed provider record: the entity named by PublicKey
// asserts that its home wallet(s) listen at Addrs. The record key is
// derived from PublicKey itself, so possession of the matching private
// key is the only way to publish under a key — a store or a fetched
// record whose signature does not verify against PublicKey is refused.
type DHTRecord struct {
	// PublicKey is the raw ed25519 entity key (32 bytes, base64 in JSON).
	PublicKey []byte `json:"publicKey"`
	// Addrs lists the entity's home wallet address(es), most preferred
	// first.
	Addrs []string `json:"addrs"`
	// Seq orders republications: a node replaces a held record only with
	// one bearing a greater Seq (or an equal Seq issued no earlier).
	Seq uint64 `json:"seq"`
	// IssuedAt is the signer's clock at signing time.
	IssuedAt time.Time `json:"issuedAt"`
	// TTLSeconds bounds the record's life; nodes drop it at
	// IssuedAt+TTL and the publisher republishes well before that.
	TTLSeconds int `json:"ttlSeconds"`
	// Sig is the entity's ed25519 signature over the canonical record
	// bytes (everything above, length-framed).
	Sig []byte `json:"sig"`
}

// DHTStoreReq offers a record for storage at the serving node.
type DHTStoreReq struct {
	From   DHTContact `json:"from"`
	Record DHTRecord  `json:"record"`
}

// DHTStats is the dht section of a StatsResp, present when the answering
// daemon runs a DHT node.
type DHTStats struct {
	// ID is the node's 160-bit DHT ID, lowercase hex.
	ID string `json:"id"`
	// BucketPeers counts contacts across all k-buckets.
	BucketPeers int `json:"bucketPeers"`
	// ProviderRecords counts verified records currently held.
	ProviderRecords int `json:"providerRecords"`
	// Lookups counts iterative lookups started by this node.
	Lookups int64 `json:"lookups"`
	// Stores counts store RPCs accepted by this node.
	Stores int64 `json:"stores"`
	// StoresRefused counts store RPCs refused (bad signature, key
	// mismatch, expired, malformed).
	StoresRefused int64 `json:"storesRefused,omitempty"`
	// Announced counts entities this node republishes records for.
	Announced int `json:"announced,omitempty"`
}

// ErrorResp reports a request failure.
type ErrorResp struct {
	Message string `json:"message"`
	// NoProof marks core.ErrNoProof so clients can map it back.
	NoProof bool `json:"noProof,omitempty"`
	// Redirect, when set, carries shard re-routing info (stale epoch or
	// wrong shard); clients retry against Redirect.Addrs under
	// Redirect.Epoch.
	Redirect *Redirect `json:"redirect,omitempty"`
}

// DecodeBody unmarshals an envelope body into out, whether its body kind is a
// hand-rolled binary layout or the JSON fallback.
func DecodeBody(env Envelope, out any) error {
	if env.binKind != 0 {
		return decodeBinaryBody(env, out)
	}
	if len(env.Body) == 0 {
		return fmt.Errorf("wire %s: empty body", env.Type)
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		return fmt.Errorf("wire %s: bad body: %w", env.Type, err)
	}
	return nil
}
