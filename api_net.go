package drbac

import (
	"context"

	"drbac/internal/discovery"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/replica"
	"drbac/internal/transport"
)

// Network-layer re-exports: the authenticated transport (the Switchboard
// stand-in), remote wallet serving, and distributed discovery (§4.2).
type (
	// Conn is an authenticated framed message channel.
	Conn = transport.Conn
	// Listener accepts authenticated connections.
	Listener = transport.Listener
	// Dialer opens authenticated connections.
	Dialer = transport.Dialer
	// MemNetwork is an in-process network with traffic accounting.
	MemNetwork = transport.MemNetwork
	// NetStats snapshots network traffic counters.
	NetStats = transport.NetStats
	// TCPDialer dials real TCP wallets.
	TCPDialer = transport.TCPDialer
	// WalletServer exposes a wallet over a listener.
	WalletServer = remote.Server
	// WalletClient is a connection to a remote wallet.
	WalletClient = remote.Client
	// DiscoveryAgent performs distributed chain discovery (§4.2.1).
	DiscoveryAgent = discovery.Agent
	// DiscoveryConfig parameterizes a discovery agent.
	DiscoveryConfig = discovery.Config
	// DiscoveryMode selects the cross-wallet search direction.
	DiscoveryMode = discovery.Mode
	// DiscoveryStats accumulates discovery effort.
	DiscoveryStats = discovery.Stats
	// WalletProxy is a pull-through, subscription-coherent wallet cache
	// (the §6 hierarchical validation caches).
	WalletProxy = remote.Proxy
	// WalletProxyConfig parameterizes a WalletProxy.
	WalletProxyConfig = remote.ProxyConfig
	// PeerManager pools remote-wallet connections with lazy redial, capped
	// exponential backoff, and per-peer circuit breaking.
	PeerManager = peer.Manager
	// PeerConfig parameterizes a PeerManager.
	PeerConfig = peer.Config
	// PeerHealth snapshots one pooled peer's circuit-breaker standing.
	PeerHealth = peer.Health
	// PeerState is a circuit-breaker state (closed, open, half-open).
	PeerState = peer.State
	// FaultPlan is a mutable per-address fault-injection plan for tests.
	FaultPlan = transport.Faults
	// FaultRule describes the failures injected for one address.
	FaultRule = transport.Fault
	// FaultDialer wraps a Dialer with fault injection driven by a FaultPlan.
	FaultDialer = transport.FaultDialer
	// ReplicaFollower drives a wallet as a read-only follower replica of
	// an upstream wallet (§9 subscription-driven replication).
	ReplicaFollower = replica.Follower
	// ReplicaConfig parameterizes a ReplicaFollower.
	ReplicaConfig = replica.Config
	// ReplicaStatus snapshots a follower's replication progress.
	ReplicaStatus = replica.Status
)

// Peer circuit-breaker states.
const (
	PeerStateClosed   = peer.StateClosed
	PeerStateOpen     = peer.StateOpen
	PeerStateHalfOpen = peer.StateHalfOpen
)

// Discovery modes.
const (
	DiscoverAuto        = discovery.Auto
	DiscoverForwardOnly = discovery.ForwardOnly
	DiscoverReverseOnly = discovery.ReverseOnly
)

// Transport and peer-layer errors.
var (
	// ErrTransportClosed reports use of a closed connection or listener.
	ErrTransportClosed = transport.ErrClosed
	// ErrHandshake reports failed peer authentication.
	ErrHandshake = transport.ErrHandshake
	// ErrCircuitOpen reports a fast-failed connection attempt to a peer
	// whose circuit breaker is open.
	ErrCircuitOpen = peer.ErrCircuitOpen
	// ErrFaultInjected marks failures produced by the fault-injection layer.
	ErrFaultInjected = transport.ErrInjected
)

// NewPeerManager builds a pooled connection manager over cfg.Dialer.
func NewPeerManager(cfg PeerConfig) *PeerManager { return peer.NewManager(cfg) }

// NewFaultPlan returns an empty fault-injection plan (no faults anywhere).
func NewFaultPlan() *FaultPlan { return transport.NewFaults() }

// NewMemNetwork builds an in-process network for tests and simulations.
func NewMemNetwork() *MemNetwork { return transport.NewMemNetwork() }

// ListenTCP starts an authenticated TCP listener as identity id.
func ListenTCP(addr string, id *Identity) (Listener, error) {
	return transport.ListenTCP(addr, id)
}

// ServeWallet exposes w on ln until the returned server is closed.
func ServeWallet(w *Wallet, ln Listener) *WalletServer { return remote.Serve(w, ln) }

// DialWallet connects to a remote wallet at addr. Cancellation of ctx
// aborts the connect and authentication handshake.
func DialWallet(ctx context.Context, d Dialer, addr string) (*WalletClient, error) {
	return remote.Dial(ctx, d, addr)
}

// DialWalletAny connects to the first reachable address of a replica group
// (the primary and its read replicas), returning the address that answered.
func DialWalletAny(ctx context.Context, d Dialer, addrs []string) (*WalletClient, string, error) {
	return remote.DialAny(ctx, d, addrs)
}

// SplitWalletAddrs parses a comma-separated replica-group address list.
func SplitWalletAddrs(s string) []string { return remote.SplitAddrs(s) }

// StartReplica launches a follower that replicates an upstream wallet into
// cfg.Local over the subscription stream (§9). Stop it with Close.
func StartReplica(cfg ReplicaConfig) (*ReplicaFollower, error) { return replica.Start(cfg) }

// NewDiscoveryAgent builds a distributed discovery agent over a local
// wallet.
func NewDiscoveryAgent(cfg DiscoveryConfig) *DiscoveryAgent { return discovery.NewAgent(cfg) }

// Discover is a convenience one-shot discovery: it builds a transient
// agent, registers the given tags, and finds a proof for q. Cancellation of
// ctx aborts the search mid-flight, including in-flight peer RPCs.
func Discover(ctx context.Context, local *Wallet, d Dialer, q Query, tags map[Subject]DiscoveryTag) (*Proof, error) {
	agent := discovery.NewAgent(discovery.Config{Local: local, Dialer: d})
	defer agent.Close()
	for node, tag := range tags {
		agent.RegisterTag(node, tag)
	}
	return agent.Discover(ctx, q, discovery.Auto, nil)
}

// NewWalletProxy builds a hierarchical caching proxy over a local cache
// wallet and an upstream wallet connection.
func NewWalletProxy(cfg WalletProxyConfig) (*WalletProxy, error) { return remote.NewProxy(cfg) }
