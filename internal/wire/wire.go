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
	// TDHTFindNode, TDHTFindValue and TDHTStore are reserved and no longer
	// served: -dht daemons once ran a Kademlia-style DHT under them, and any
	// authenticated peer's dht-store could file provider records under fresh
	// keys, with TTLs no sweep reached, until the daemon's memory gave out.
	// A shard map names its members by address now. The names and their
	// binary type codes stay assigned so an older member's frame still
	// decodes; it is refused as an unknown request type and its connection
	// is kept.
	TDHTFindNode  MsgType = "dht-find-node"
	TDHTFindValue MsgType = "dht-find-value"
	TDHTStore     MsgType = "dht-store"
	// TGossipPing and TGossipPingReq are reserved and no longer served:
	// -dht daemons once ran SWIM membership probes under them, and any
	// authenticated peer's probe could declare any address dead in the
	// receiver's peer pools. The peer pool's own circuit breaker is the only
	// liveness verdict now. The names and their binary type codes stay
	// assigned so an older member's probe still decodes; it is refused as an
	// unknown request type and its connection is kept.
	TGossipPing    MsgType = "gossip-ping"
	TGossipPingReq MsgType = "gossip-ping-req"
	// TQueryExpand asks for a proof subject ⇒ object and, when there is
	// none, for the one-ended enumeration from the end Direction names
	// (Forward: subject ⇒ *, Reverse: * ⇒ object), in one ProofsResp: the
	// one request a discovery agent sends per frontier node.
	TQueryExpand MsgType = "query-expand"
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

// QueryReq carries any of the query kinds; unused fields stay zero.
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

// StatsResp answers a TStats request (sent with an empty body): a full
// snapshot of the serving wallet's metrics registry, the one export of
// every number it holds, plus what no family holds: the serving role, the
// changelog seq and the codec counters. `drbac stats` renders it.
type StatsResp struct {
	// Role is the serving daemon's role ("primary", "replica", "gateway"
	// or "shard-N"); empty when the server does not declare one.
	Role string `json:"role,omitempty"`
	// Seq is the wallet's changelog sequence number (§9 replication).
	Seq     uint64       `json:"seq"`
	Metrics obs.Snapshot `json:"metrics"`
	// Wire reports the process-wide codec counters: frames and bytes
	// encoded/decoded, the delegation table's hits and misses, and
	// frame-pool churn. Nil when answered by a server predating codec
	// negotiation.
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
