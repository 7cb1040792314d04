package discovery

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/dht"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/wallet"
)

// dhtWallet is a served wallet that also participates in the DHT: its
// server answers dht-* requests and its node can announce the owner
// entity's provider record.
type dhtWallet struct {
	w      *wallet.Wallet
	node   *dht.Node
	peers  *peer.Manager
	server *remote.Server
	addr   string
	owner  *core.Identity
}

// serveDHTWallet starts a wallet server with a DHT participant at addr.
func serveDHTWallet(t *testing.T, e *env, addr, ownerName string) *dhtWallet {
	t.Helper()
	owner := e.id(ownerName)
	peers := peer.NewManager(peer.Config{
		Dialer:      e.net.Dialer(owner),
		Clock:       e.clk,
		CallTimeout: 5 * time.Second,
	})
	node, err := dht.NewNode(dht.Config{
		Identity: owner,
		Addr:     addr,
		Peers:    peers,
		Clock:    e.clk,
		K:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	dw := &dhtWallet{
		w:     wallet.New(wallet.Config{Owner: owner, Clock: e.clk, Directory: e.dir}),
		node:  node,
		peers: peers,
		addr:  addr,
		owner: owner,
	}
	dw.serveAt(t, e, addr)
	t.Cleanup(func() {
		dw.server.Close()
		peers.Close()
	})
	return dw
}

// serveAt (re)starts the wallet server, possibly at a new address — the
// leave/rejoin path.
func (dw *dhtWallet) serveAt(t *testing.T, e *env, addr string) {
	t.Helper()
	ln, err := e.net.Listen(addr, dw.owner)
	if err != nil {
		t.Fatal(err)
	}
	dw.addr = addr
	dw.server = remote.ServeOptions(dw.w, ln, remote.Options{DHT: dw.node})
}

// clientDHT builds an unserved client-side DHT node (resolution is pull-
// based; the querying side needs no listener).
func clientDHT(t *testing.T, e *env, ownerName string) (*dht.Node, *peer.Manager) {
	t.Helper()
	owner := e.id(ownerName)
	peers := peer.NewManager(peer.Config{
		Dialer:      e.net.Dialer(owner),
		Clock:       e.clk,
		CallTimeout: 5 * time.Second,
	})
	node, err := dht.NewNode(dht.Config{
		Identity: owner,
		Addr:     "wallet.client.unreachable",
		Peers:    peers,
		Clock:    e.clk,
		K:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(peers.Close)
	return node, peers
}

// issueChain issues the untagged three-link chain
// Maria -> BigISP.member -> AirNet.member -> AirNet.access once, so two
// topologies can serve the very same credentials. No delegation carries
// any discovery tag: locating the homes is entirely the resolver's problem.
func issueChain(t *testing.T, e *env) (d1, d2, d3 *core.Delegation, q wallet.Query) {
	t.Helper()
	d1 = e.deleg("[Maria -> BigISP.member] BigISP")
	d2 = e.deleg("[BigISP.member -> AirNet.member] AirNet")
	d3 = e.deleg("[AirNet.member -> AirNet.access] AirNet")
	return d1, d2, d3, wallet.Query{Subject: e.subject("Maria"), Object: e.role("AirNet.access")}
}

// spreadChain publishes the chain across its wallets: the first link in
// the querying client's local wallet, the rest at the two homes.
func spreadChain(t *testing.T, local, bigW, airW *wallet.Wallet, d1, d2, d3 *core.Delegation) {
	t.Helper()
	if err := local.Publish(d1); err != nil {
		t.Fatal(err)
	}
	if err := bigW.Publish(d2); err != nil {
		t.Fatal(err)
	}
	if err := airW.Publish(d3); err != nil {
		t.Fatal(err)
	}
}

// dhtTopologyNames keeps both runs of the byte-identical comparison on the
// same deterministic identities.
var dhtTopologyNames = []string{"BigISP", "AirNet", "Maria", "Client", "Seed"}

// TestDiscoveryViaDHTMatchesStaticRun is the subsystem's end-to-end
// acceptance: with only a bootstrap seed configured — zero static tag-home
// addresses — a three-wallet chain discovery completes through DHT-resolved
// homes and returns a proof byte-identical to a fully statically configured
// run over the same identities.
func TestDiscoveryViaDHTMatchesStaticRun(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, dhtTopologyNames...)
	d1, d2, d3, q := issueChain(t, e)

	// Static-address run: the same chain served from statically named
	// homes, configured by RegisterTag.
	bigS := e.serve("static.bigisp", "BigISP")
	airS := e.serve("static.airnet", "AirNet")
	localS := wallet.New(wallet.Config{Owner: e.id("Client"), Clock: e.clk, Directory: e.dir})
	spreadChain(t, localS, bigS, airS, d1, d2, d3)
	aS := NewAgent(Config{Local: localS, Dialer: e.net.Dialer(e.id("Client"))})
	t.Cleanup(aS.Close)
	for node, home := range map[string]string{
		"BigISP.member": "static.bigisp",
		"AirNet.member": "static.airnet",
		"AirNet.access": "static.airnet",
	} {
		aS.RegisterTag(core.SubjectRole(e.role(node)), e.tag(home, core.SubjectSearch, core.ObjectSearch))
	}
	staticProof, err := aS.Discover(ctx, q, Auto, nil)
	if err != nil {
		t.Fatalf("static-address discovery: %v", err)
	}

	// DHT run: the same credentials, no RegisterTag anywhere. Homes
	// announce themselves; the client knows only the bootstrap seed.
	seed := serveDHTWallet(t, e, "wallet.seed", "Seed")
	big := serveDHTWallet(t, e, "wallet.bigisp", "BigISP")
	air := serveDHTWallet(t, e, "wallet.airnet", "AirNet")
	for _, dw := range []*dhtWallet{big, air} {
		if err := dw.node.Bootstrap(ctx, []string{seed.addr}); err != nil {
			t.Fatalf("bootstrap %s: %v", dw.addr, err)
		}
		if err := dw.node.Announce(ctx, dw.owner, []string{dw.addr}); err != nil {
			t.Fatalf("announce %s: %v", dw.addr, err)
		}
	}
	cnode, cpeers := clientDHT(t, e, "Client")
	if err := cnode.Bootstrap(ctx, []string{seed.addr}); err != nil {
		t.Fatal(err)
	}
	localD := wallet.New(wallet.Config{Owner: e.id("Client"), Clock: e.clk, Directory: e.dir})
	spreadChain(t, localD, big.w, air.w, d1, d2, d3)
	aD := NewAgent(Config{Local: localD, Peers: cpeers, Homes: cnode})
	t.Cleanup(aD.Close)

	var stats Stats
	dhtProof, err := aD.Discover(ctx, q, Auto, &stats)
	if err != nil {
		t.Fatalf("DHT-resolved discovery: %v", err)
	}
	if len(dhtProof.Delegations()) < 3 {
		t.Fatalf("proof has %d delegations, want the full 3-link chain", len(dhtProof.Delegations()))
	}
	if stats.WalletsContacted < 2 {
		t.Fatalf("wallets contacted = %d; both homes should have been found via the DHT", stats.WalletsContacted)
	}

	gotStatic, err := json.Marshal(staticProof)
	if err != nil {
		t.Fatal(err)
	}
	gotDHT, err := json.Marshal(dhtProof)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotStatic) != string(gotDHT) {
		t.Fatalf("DHT-resolved proof differs from the static-address proof:\nstatic: %s\ndht:    %s", gotStatic, gotDHT)
	}
}

// TestDHTDiscoverySurvivesBootstrapDeathAndHomeRejoin is the subsystem's
// chaos case: after everyone joined through the seed, the seed dies AND one
// home wallet leaves and rejoins at a different address mid-run. The
// re-announced provider record (higher seq) supersedes the old one on the
// surviving nodes, so discovery follows the move with no configuration
// change anywhere — something a static address book cannot do at all.
func TestDHTDiscoverySurvivesBootstrapDeathAndHomeRejoin(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, dhtTopologyNames...)
	seed := serveDHTWallet(t, e, "wallet.seed", "Seed")
	big := serveDHTWallet(t, e, "wallet.bigisp", "BigISP")
	air := serveDHTWallet(t, e, "wallet.airnet", "AirNet")
	for _, dw := range []*dhtWallet{big, air} {
		if err := dw.node.Bootstrap(ctx, []string{seed.addr}); err != nil {
			t.Fatal(err)
		}
		if err := dw.node.Announce(ctx, dw.owner, []string{dw.addr}); err != nil {
			t.Fatal(err)
		}
	}
	cnode, cpeers := clientDHT(t, e, "Client")
	if err := cnode.Bootstrap(ctx, []string{seed.addr}); err != nil {
		t.Fatal(err)
	}

	// The bootstrap node dies. Routing tables already hold the other
	// members, so nothing below may depend on the seed answering.
	seed.server.Close()

	// AirNet's home leaves and rejoins at a NEW address, re-announcing.
	// The record's bumped seq beats the old one wherever both are seen.
	air.server.Close()
	air.serveAt(t, e, "wallet.airnet-b")
	if err := air.node.Announce(ctx, air.owner, []string{"wallet.airnet-b"}); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	local := wallet.New(wallet.Config{Owner: e.id("Client"), Clock: e.clk, Directory: e.dir})
	d1, d2, d3, q := issueChain(t, e)
	spreadChain(t, local, big.w, air.w, d1, d2, d3)
	a := NewAgent(Config{Local: local, Peers: cpeers, Homes: cnode})

	var stats Stats
	proof, err := a.Discover(ctx, q, Auto, &stats)
	if err != nil {
		t.Fatalf("discovery after bootstrap death + home move: %v", err)
	}
	if len(proof.Delegations()) < 3 {
		t.Fatalf("proof has %d delegations, want the full 3-link chain", len(proof.Delegations()))
	}
	// The chain's last link must have come from the REJOINED address.
	contactedNew := false
	for _, ev := range stats.Trace {
		if ev.Wallet == "wallet.airnet-b" {
			contactedNew = true
		}
	}
	if !contactedNew {
		t.Fatalf("discovery never contacted the rejoined home: %+v", stats.Trace)
	}

	// Everything the search spawned unwinds: no goroutine leaks. The
	// shared pool's connections (and with them the servers' per-conn
	// read loops) are torn down explicitly; Close is idempotent, so the
	// registered cleanup closing it again is harmless.
	a.Close()
	cpeers.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines = %d after the run, want <= %d (leak)", n, before)
	}
}
