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
	srv   *remote.Server
	owner *core.Identity
}

// dhtNode builds a DHT node for owner advertising addr, over its own pool.
func dhtNode(w *World, owner, addr string) (*dht.Node, *peer.Manager, error) {
	id := w.Identity(owner)
	peers := w.peers(peer.Config{
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
		return nil, nil, err
	}
	w.own(node.Close)
	return node, peers, nil
}

// serveAt (re)starts the member's server, possibly at a new address —
// the leave/rejoin path.
func (m *dhtMember) serveAt(w *World, addr string) (err error) {
	m.srv, err = w.serve(m.w, addr, m.owner.Name(), remote.Options{DHT: m.node})
	return err
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
	for _, l := range layout {
		node, _, err := dhtNode(w, l.owner, l.addr)
		if err != nil {
			return res, err
		}
		m := &dhtMember{w: w.Wallet(l.owner), node: node, owner: w.Identity(l.owner)}
		if err := m.serveAt(w, l.addr); err != nil {
			return res, fmt.Errorf("serve %s: %w", l.addr, err)
		}
		members[l.owner] = m
		res.Members++
	}
	seed, big, air := members["Seed"], members["BigISP"], members["AirNet"]
	for _, l := range layout[1:] {
		m := members[l.owner]
		if err := m.node.Bootstrap(ctx, []string{seed.srv.Addr()}); err != nil {
			return res, fmt.Errorf("bootstrap %s: %w", m.srv.Addr(), err)
		}
	}
	for _, l := range layout {
		m := members[l.owner]
		if err := m.node.Announce(ctx, m.owner, []string{m.srv.Addr()}); err != nil {
			return res, fmt.Errorf("announce %s: %w", m.srv.Addr(), err)
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
	if err := w.publish(big.w, "[BigISP.member -> AirNet.member] AirNet"); err != nil {
		return res, err
	}
	if err := w.publish(air.w, "[AirNet.member -> AirNet.access] AirNet"); err != nil {
		return res, err
	}
	q, err := w.query("Maria", "AirNet.access")
	if err != nil {
		return res, err
	}

	resolveChain := func(clientName, bootstrapAddr string) (*core.Proof, *discovery.Stats, error) {
		// Resolution is pull-based: the querying side needs no listener.
		node, peers, err := dhtNode(w, clientName, "sim.client.unreachable")
		if err != nil {
			return nil, nil, err
		}
		if err := node.Bootstrap(ctx, []string{bootstrapAddr}); err != nil {
			return nil, nil, fmt.Errorf("client bootstrap via %s: %w", bootstrapAddr, err)
		}
		local := w.Wallet(clientName)
		if err := local.Publish(d1); err != nil {
			return nil, nil, err
		}
		a := w.agent(discovery.Config{Local: local, Peers: peers, Homes: node})
		var stats discovery.Stats
		proof, err := a.Discover(ctx, q, discovery.Auto, &stats)
		if err != nil {
			return nil, nil, err
		}
		return proof, &stats, nil
	}

	proof, stats, err := resolveChain("Client", seed.srv.Addr())
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
	proof2, stats2, err := resolveChain("Client2", big.srv.Addr())
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

func dhtSmokeReport(r *Report) error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	startAt := time.Now()
	res, err := RunDHTSmoke(ctx)
	if err != nil {
		return err
	}
	r.printf("%d members bootstrapped off one seed, %d provider records announced;", res.Members, res.Announced)
	r.printf("resolved %d-link chain via %d DHT-found wallets with zero static addresses;",
		res.ChainLen, res.WalletsContacted)
	r.printf("after seed death + home move, late joiner resolved %d-link chain at %s; %v total",
		res.RejoinChainLen, res.RejoinAddr, timed{time.Since(startAt).Round(time.Millisecond)})
	r.printf("PASS")
	return nil
}
