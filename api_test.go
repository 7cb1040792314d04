package drbac_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"drbac"
)

// Exercise the thin facade wrappers end to end so the public API surface
// stays wired to the internals.
func TestFacadeCoreHelpers(t *testing.T) {
	ids, dir := newCoalition(t)

	role, err := drbac.ParseRole("BigISP.member'", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !role.IsAssignment() {
		t.Fatal("tick lost")
	}
	subj, err := drbac.ParseSubject("Maria", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !subj.IsEntity() {
		t.Fatal("subject kind wrong")
	}
	if got := drbac.DisplayID(dir, ids["Maria"].ID()); got != "Maria" {
		t.Fatalf("DisplayID = %q", got)
	}

	seed := make([]byte, 32)
	seed[0] = 42
	a, err := drbac.IdentityFromSeed("Det", seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := drbac.IdentityFromSeed("Det", seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatal("seeded identities differ")
	}

	d := issue(t, ids, dir, "[Maria -> BigISP.member] BigISP")
	proof, err := drbac.NewProof(drbac.ProofStep{Delegation: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Validate(drbac.ValidateOptions{At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	ag := drbac.NewAggregate()
	if len(ag.Attrs()) != 0 {
		t.Fatal("fresh aggregate not empty")
	}
	if drbac.SystemClock().Now().IsZero() {
		t.Fatal("system clock zero")
	}
	if d.Kind() != drbac.KindSelfCertified {
		t.Fatal("kind constant mismatch")
	}
}

func TestFacadeGuardFlow(t *testing.T) {
	ids, dir := newCoalition(t)
	w := drbac.NewWallet(drbac.WalletConfig{Directory: dir})
	bw := drbac.AttributeRef{Namespace: ids["AirNet"].ID(), Name: "BW"}
	d := issue(t, ids, dir, "[Maria -> AirNet.access with AirNet.BW <= 80] AirNet")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	guard, err := drbac.NewGuard(drbac.GuardConfig{Wallet: w})
	if err != nil {
		t.Fatal(err)
	}
	defer guard.Close()
	if err := guard.Register(drbac.ProtectedResource{
		Name:     "net",
		Role:     drbac.NewRole(ids["AirNet"].ID(), "access"),
		Minimums: map[drbac.AttributeRef]float64{bw: 50},
	}); err != nil {
		t.Fatal(err)
	}
	events := make(chan drbac.SessionEvent, 1)
	s, err := guard.Authorize(context.Background(), ids["Maria"].ID(), "net", func(ev drbac.SessionEvent) {
		events <- ev
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Level(bw); got != 80 {
		t.Fatalf("level = %v", got)
	}
	if err := w.Revoke(d.ID(), ids["AirNet"].ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Kind != drbac.SessionTerminated {
			t.Fatalf("event = %v", ev.Kind)
		}
	case <-time.After(time.Second):
		t.Fatal("no event")
	}
}

func TestFacadeProxyFlow(t *testing.T) {
	ids, dir := newCoalition(t)
	net := drbac.NewMemNetwork()

	home := drbac.NewWallet(drbac.WalletConfig{Owner: ids["AirNet"], Directory: dir})
	ln, err := net.Listen("home", ids["AirNet"])
	if err != nil {
		t.Fatal(err)
	}
	defer drbac.ServeWallet(home, ln).Close()
	d := issue(t, ids, dir, "[Maria -> AirNet.access] AirNet")
	if err := home.Publish(d); err != nil {
		t.Fatal(err)
	}

	up, err := drbac.DialWallet(context.Background(), net.Dialer(ids["Sheila"]), "home")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	cache := drbac.NewWallet(drbac.WalletConfig{Owner: ids["Sheila"], Directory: dir})
	px, err := drbac.NewWalletProxy(drbac.WalletProxyConfig{
		Local: cache, Upstream: up, TTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	if _, err := px.QueryDirect(context.Background(), drbac.Query{
		Subject: drbac.SubjectEntity(ids["Maria"].ID()),
		Object:  drbac.NewRole(ids["AirNet"].ID(), "access"),
	}); err != nil {
		t.Fatal(err)
	}
	hits, pulls := px.Stats()
	if hits != 0 || pulls != 1 {
		t.Fatalf("hits=%d pulls=%d", hits, pulls)
	}
	if st := net.Stats(); st.Messages == 0 {
		t.Fatal("no traffic accounted")
	}
}

func TestFacadeErrorsAndFakeClockAliases(t *testing.T) {
	if !errors.Is(drbac.ErrNoProof, drbac.ErrNoProof) {
		t.Fatal("sentinel identity broken")
	}
	clk := drbac.NewFakeClock(time.Unix(0, 0))
	clk.Advance(time.Hour)
	if clk.Now() != time.Unix(0, 0).Add(time.Hour) {
		t.Fatal("fake clock alias broken")
	}
	var _ drbac.EventKind = drbac.EventRevoked
	var _ drbac.SearchDirection = drbac.SearchBidirectional
	var _ drbac.DiscoveryMode = drbac.DiscoverForwardOnly
}

// TestFacadeClusterFlow drives the sharded-cluster facade end to end: a
// two-shard cluster behind a gateway, a mutation routed by consistent
// hash, a cross-shard query, and a live split to a third shard.
func TestFacadeClusterFlow(t *testing.T) {
	ids, dir := newCoalition(t)
	net := drbac.NewMemNetwork()

	m, err := drbac.NewShardMap([][]string{{"shard0"}, {"shard1"}})
	if err != nil {
		t.Fatal(err)
	}
	wallets := make(map[int]*drbac.Wallet)
	for _, s := range m.Shards {
		w := drbac.NewWallet(drbac.WalletConfig{Owner: ids["BigISP"], Directory: dir})
		node, err := drbac.NewClusterNode(s.ID, m, w.Obs())
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen(s.Addrs[0], ids["BigISP"])
		if err != nil {
			t.Fatal(err)
		}
		srv := drbac.ServeWalletCluster(w, ln, node)
		defer srv.Close()
		wallets[s.ID] = w
	}

	gw, err := drbac.NewClusterWallet(drbac.ClusterWalletConfig{
		RouterConfig: drbac.ClusterRouterConfig{Map: m, Dialer: net.Dialer(ids["Maria"])},
		Identity:     ids["Maria"],
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	d := issue(t, ids, dir, "[Maria -> BigISP.member] BigISP")
	if err := gw.Publish(d); err != nil {
		t.Fatal(err)
	}
	owner := m.OwnerOf(d)
	if !wallets[owner.ID].Contains(d.ID()) {
		t.Fatalf("delegation not at owner shard %d", owner.ID)
	}
	if drbac.ShardRouteKey(d.Subject) == "" {
		t.Fatal("empty route key")
	}

	subj, err := drbac.ParseSubject("Maria", dir)
	if err != nil {
		t.Fatal(err)
	}
	role, err := drbac.ParseRole("BigISP.member", dir)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := gw.QueryDirect(drbac.Query{Subject: subj, Object: role})
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Validate(drbac.ValidateOptions{At: time.Now()}); err != nil {
		t.Fatal(err)
	}

	// Live split via the facade: shard 2 carved out of shard 0.
	target := drbac.NewWallet(drbac.WalletConfig{Owner: ids["BigISP"], Directory: dir})
	split, err := drbac.StartShardSplit(drbac.ShardSplitConfig{
		Current:  m,
		SourceID: 0,
		NewID:    2,
		NewAddrs: []string{"shard2"},
		Target:   target,
		Dialer:   net.Dialer(ids["BigISP"]),
		Peers:    drbac.NewPeerManager(drbac.PeerConfig{Dialer: net.Dialer(ids["BigISP"])}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := split.WaitCaughtUp(ctx, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	split.Finish()
	if split.NewMap.Epoch != m.Epoch+1 {
		t.Fatalf("split epoch %d, want %d", split.NewMap.Epoch, m.Epoch+1)
	}
}
