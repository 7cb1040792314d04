// EXP-D1 (§13): decentralized-discovery smoke. RunDHTSmoke boots a
// six-member coalition where nobody holds a static address book: every
// wallet joins the DHT through one bootstrap seed and announces a signed
// provider record for its owner entity. A client then resolves a
// three-wallet delegation chain purely through DHT lookups, after which
// the seed dies and one home wallet moves to a new address — and a
// late-joining client (bootstrapped off a surviving member) must still
// resolve the same chain at the home's new address. `make check` and CI
// run this bounded; it finishes in well under a second on a healthy
// build.
package sim

import (
	"context"
	"fmt"
	"time"

	"drbac/internal/core"
	"drbac/internal/dht"
	"drbac/internal/discovery"
	"drbac/internal/peer"
	"drbac/internal/remote"
	"drbac/internal/wallet"
)

// dhtMember is one served coalition member: a wallet whose server also
// answers dht-* requests, plus the node that announces its owner.
type dhtMember struct {
	w     *wallet.Wallet
	node  *dht.Node
	peers *peer.Manager
	srv   *remote.Server
	addr  string
	owner *core.Identity
}

// startDHTMember serves a wallet with a DHT participant at addr. The
// world's Close tears the server down; peers are closed by closeAll.
func startDHTMember(w *World, addr, owner string) (*dhtMember, error) {
	id := w.Identity(owner)
	peers := peer.NewManager(peer.Config{
		Dialer:      w.Net.Dialer(id),
		Clock:       w.Clock,
		CallTimeout: 5 * time.Second,
	})
	node, err := dht.NewNode(dht.Config{
		Identity: id,
		Addr:     addr,
		Peers:    peers,
		Clock:    w.Clock,
		K:        8,
	})
	if err != nil {
		peers.Close()
		return nil, err
	}
	m := &dhtMember{
		w:     wallet.New(wallet.Config{Owner: id, Clock: w.Clock, Directory: w.Dir}),
		node:  node,
		peers: peers,
		addr:  addr,
		owner: id,
	}
	if err := m.serveAt(w, addr); err != nil {
		peers.Close()
		return nil, err
	}
	return m, nil
}

// serveAt (re)starts the member's server, possibly at a new address —
// the leave/rejoin path.
func (m *dhtMember) serveAt(w *World, addr string) error {
	ln, err := w.Net.Listen(addr, m.owner)
	if err != nil {
		return err
	}
	m.addr = addr
	m.srv = remote.ServeOptions(m.w, ln, remote.Options{DHT: m.node})
	w.mu.Lock()
	w.servers = append(w.servers, m.srv)
	w.mu.Unlock()
	return nil
}

// dhtClient builds an unserved client-side DHT node (resolution is
// pull-based; the querying side needs no listener).
func dhtClient(w *World, owner string) (*dht.Node, *peer.Manager, error) {
	id := w.Identity(owner)
	peers := peer.NewManager(peer.Config{
		Dialer:      w.Net.Dialer(id),
		Clock:       w.Clock,
		CallTimeout: 5 * time.Second,
	})
	node, err := dht.NewNode(dht.Config{
		Identity: id,
		Addr:     "sim.client.unreachable",
		Peers:    peers,
		Clock:    w.Clock,
		K:        8,
	})
	if err != nil {
		peers.Close()
		return nil, nil, err
	}
	return node, peers, nil
}

// DHTSmokeResult summarizes the bounded CI smoke over a six-member DHT
// coalition with no static address book (§13).
type DHTSmokeResult struct {
	Members          int    // served coalition members, including the seed
	Announced        int    // provider records published at startup
	ChainLen         int    // delegations in the first resolved proof
	WalletsContacted int    // distinct homes reached via DHT-resolved tags
	RejoinAddr       string // the moved home's post-rejoin address
	RejoinChainLen   int    // chain length resolved after seed death + move
}

// RunDHTSmoke is the `make check` / CI smoke behind sim-dht-smoke:
// bootstrap a coalition off one seed, resolve a three-wallet chain with
// zero static tag-home addresses, then keep resolving after the seed
// dies and a home wallet rejoins elsewhere.
func RunDHTSmoke(ctx context.Context) (DHTSmokeResult, error) {
	var res DHTSmokeResult
	w := NewWorld()
	defer w.Close()

	// Six served members: the bootstrap seed, the chain's two homes, and
	// three bystanders that thicken the routing tables.
	layout := []struct{ addr, owner string }{
		{"wallet.seed", "Seed"},
		{"wallet.bigisp", "BigISP"},
		{"wallet.airnet", "AirNet"},
		{"wallet.m3", "Member3"},
		{"wallet.m4", "Member4"},
		{"wallet.m5", "Member5"},
	}
	members := make(map[string]*dhtMember, len(layout))
	defer func() {
		for _, m := range members {
			m.peers.Close()
		}
	}()
	for _, l := range layout {
		m, err := startDHTMember(w, l.addr, l.owner)
		if err != nil {
			return res, fmt.Errorf("serve %s: %w", l.addr, err)
		}
		members[l.owner] = m
		res.Members++
	}
	seed, big, air := members["Seed"], members["BigISP"], members["AirNet"]
	for _, l := range layout[1:] {
		m := members[l.owner]
		if err := m.node.Bootstrap(ctx, []string{seed.addr}); err != nil {
			return res, fmt.Errorf("bootstrap %s: %w", m.addr, err)
		}
	}
	for _, l := range layout {
		m := members[l.owner]
		if err := m.node.Announce(ctx, m.owner, []string{m.addr}); err != nil {
			return res, fmt.Errorf("announce %s: %w", m.addr, err)
		}
		res.Announced++
	}

	// The untagged three-link chain Maria -> BigISP.member ->
	// AirNet.member -> AirNet.access, spread over three wallets. No
	// delegation carries a discovery tag: locating the homes is entirely
	// the DHT's problem.
	w.Ensure("Maria", "Client")
	d1, err := w.Issue("[Maria -> BigISP.member] BigISP")
	if err != nil {
		return res, err
	}
	d2, err := w.Issue("[BigISP.member -> AirNet.member] AirNet")
	if err != nil {
		return res, err
	}
	d3, err := w.Issue("[AirNet.member -> AirNet.access] AirNet")
	if err != nil {
		return res, err
	}
	if err := big.w.Publish(d2); err != nil {
		return res, err
	}
	if err := air.w.Publish(d3); err != nil {
		return res, err
	}
	subject, err := w.Subject("Maria")
	if err != nil {
		return res, err
	}
	object, err := w.Role("AirNet.access")
	if err != nil {
		return res, err
	}
	q := wallet.Query{Subject: subject, Object: object}

	resolveChain := func(clientName, bootstrapAddr string) (*core.Proof, *discovery.Stats, error) {
		node, peers, err := dhtClient(w, clientName)
		if err != nil {
			return nil, nil, err
		}
		defer peers.Close()
		if err := node.Bootstrap(ctx, []string{bootstrapAddr}); err != nil {
			return nil, nil, fmt.Errorf("client bootstrap via %s: %w", bootstrapAddr, err)
		}
		local := wallet.New(wallet.Config{Owner: w.Identity(clientName), Clock: w.Clock, Directory: w.Dir})
		if err := local.Publish(d1); err != nil {
			return nil, nil, err
		}
		a := discovery.NewAgent(discovery.Config{Local: local, Peers: peers, Homes: node})
		defer a.Close()
		var stats discovery.Stats
		proof, err := a.Discover(ctx, q, discovery.Auto, &stats)
		if err != nil {
			return nil, nil, err
		}
		return proof, &stats, nil
	}

	proof, stats, err := resolveChain("Client", seed.addr)
	if err != nil {
		return res, fmt.Errorf("DHT-resolved discovery: %w", err)
	}
	res.ChainLen = len(proof.Delegations())
	res.WalletsContacted = stats.WalletsContacted
	if res.ChainLen < 3 {
		return res, fmt.Errorf("first proof has %d delegations, want the 3-link chain", res.ChainLen)
	}
	if res.WalletsContacted < 2 {
		return res, fmt.Errorf("first run contacted %d wallets, want both homes", res.WalletsContacted)
	}

	// Churn: the bootstrap seed dies, and AirNet's home leaves and
	// rejoins at a new address, re-announcing with a bumped record seq.
	seed.srv.Close()
	air.srv.Close()
	res.RejoinAddr = "wallet.airnet-b"
	if err := air.serveAt(w, res.RejoinAddr); err != nil {
		return res, err
	}
	if err := air.node.Announce(ctx, air.owner, []string{res.RejoinAddr}); err != nil {
		return res, fmt.Errorf("re-announce at %s: %w", res.RejoinAddr, err)
	}

	// A late joiner — bootstrapped off a surviving member, never having
	// seen the seed or the old address — resolves the same chain.
	proof2, stats2, err := resolveChain("Client2", big.addr)
	if err != nil {
		return res, fmt.Errorf("discovery after seed death + home move: %w", err)
	}
	res.RejoinChainLen = len(proof2.Delegations())
	if res.RejoinChainLen < 3 {
		return res, fmt.Errorf("post-churn proof has %d delegations, want the 3-link chain", res.RejoinChainLen)
	}
	contactedNew := false
	for _, ev := range stats2.Trace {
		if ev.Wallet == res.RejoinAddr {
			contactedNew = true
		}
	}
	if !contactedNew {
		return res, fmt.Errorf("post-churn discovery never contacted the rejoined home %s", res.RejoinAddr)
	}
	return res, nil
}
