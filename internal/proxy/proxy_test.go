package proxy

import (
	"context"
	"errors"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/remote"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

var testStart = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

type env struct {
	t    *testing.T
	ids  map[string]*core.Identity
	dir  *core.MemDirectory
	clk  *clock.Fake
	net  *transport.MemNetwork
	home *wallet.Wallet
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e := &env{
		t:   t,
		ids: make(map[string]*core.Identity),
		dir: core.NewDirectory(),
		clk: clock.NewFake(testStart),
		net: transport.NewMemNetwork(),
	}
	for i, name := range []string{"Org", "ProxyOp", "User", "Client"} {
		seed := make([]byte, 32)
		seed[0] = byte(i + 1)
		id, err := core.IdentityFromSeed(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		e.ids[name] = id
		e.dir.Add(id.Entity())
	}
	// Upstream home wallet.
	e.home = wallet.New(wallet.Config{Owner: e.ids["Org"], Clock: e.clk, Directory: e.dir})
	ln, err := e.net.Listen("home", e.ids["Org"])
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.Serve(e.home, ln)
	t.Cleanup(srv.Close)
	return e
}

func (e *env) deleg(text string) *core.Delegation {
	e.t.Helper()
	parsed, err := core.ParseDelegation(text, e.dir)
	if err != nil {
		e.t.Fatal(err)
	}
	var issuer *core.Identity
	for _, id := range e.ids {
		if id.ID() == parsed.Issuer.ID() {
			issuer = id
		}
	}
	d, err := core.Issue(issuer, parsed.Template, e.clk.Now())
	if err != nil {
		e.t.Fatal(err)
	}
	return d
}

func (e *env) query(name string) wallet.Query {
	e.t.Helper()
	s, err := core.ParseSubject("User", e.dir)
	if err != nil {
		e.t.Fatal(err)
	}
	r, err := core.ParseRole("Org."+name, e.dir)
	if err != nil {
		e.t.Fatal(err)
	}
	return wallet.Query{Subject: s, Object: r}
}

// newProxy builds a proxy over a fresh cache wallet connected to the home.
func (e *env) newProxy(ttl time.Duration) (*Proxy, *wallet.Wallet) {
	e.t.Helper()
	local := wallet.New(wallet.Config{Owner: e.ids["ProxyOp"], Clock: e.clk, Directory: e.dir})
	up, err := remote.Dial(context.Background(), e.net.Dialer(e.ids["ProxyOp"]), "home")
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(up.Close)
	p, err := New(Config{Local: local, Upstream: up, TTL: ttl})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(p.Close)
	return p, local
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestPullThroughAndCacheHit(t *testing.T) {
	e := newEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, local := e.newProxy(time.Minute)

	proof, err := p.QueryDirect(context.Background(), e.query("member"))
	if err != nil {
		t.Fatalf("pull-through: %v", err)
	}
	if err := proof.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatal(err)
	}
	if !local.Contains(d.ID()) {
		t.Fatal("credential not cached")
	}
	if _, err := p.QueryDirect(context.Background(), e.query("member")); err != nil {
		t.Fatalf("cache hit: %v", err)
	}
	hits, pulls := p.Stats()
	if hits != 1 || pulls != 1 {
		t.Fatalf("hits=%d pulls=%d, want 1/1", hits, pulls)
	}
}

func TestMissOnBothSides(t *testing.T) {
	e := newEnv(t)
	p, _ := e.newProxy(time.Minute)
	if _, err := p.QueryDirect(context.Background(), e.query("member")); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("want ErrNoProof, got %v", err)
	}
}

func TestUpstreamRevocationPropagatesToCache(t *testing.T) {
	e := newEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, local := e.newProxy(time.Minute)
	if _, err := p.QueryDirect(context.Background(), e.query("member")); err != nil {
		t.Fatal(err)
	}

	revoked := make(chan struct{}, 1)
	unsub := local.Subscribe(d.ID(), func(ev subs.Event) {
		if ev.Kind == subs.Revoked {
			revoked <- struct{}{}
		}
	})
	defer unsub()

	if err := e.home.Revoke(d.ID(), e.ids["Org"].ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-revoked:
	case <-time.After(2 * time.Second):
		t.Fatal("revocation did not reach the cache")
	}
	if _, err := p.QueryDirect(context.Background(), e.query("member")); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("revoked credential still served: %v", err)
	}
}

func TestIrrelevantUpdatesProduceNoTraffic(t *testing.T) {
	e := newEnv(t)
	cached := e.deleg("[User -> Org.member] Org")
	other := e.deleg("[User -> Org.unrelated] Org")
	if err := e.home.Publish(cached); err != nil {
		t.Fatal(err)
	}
	if err := e.home.Publish(other); err != nil {
		t.Fatal(err)
	}
	p, _ := e.newProxy(time.Minute)
	if _, err := p.QueryDirect(context.Background(), e.query("member")); err != nil {
		t.Fatal(err)
	}

	// Revoking a credential this cache never pulled must not generate a
	// single frame (per-delegation subscriptions — the §6 contrast with
	// CRL distribution).
	before := e.net.Stats()
	if err := e.home.Revoke(other.ID(), e.ids["Org"].ID()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	after := e.net.Stats()
	if after.Messages != before.Messages {
		t.Fatalf("irrelevant revocation caused %d messages", after.Messages-before.Messages)
	}
}

func TestServeDownstreamPullThroughAndFanout(t *testing.T) {
	e := newEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, _ := e.newProxy(time.Minute)
	ln, err := e.net.Listen("edge", e.ids["ProxyOp"])
	if err != nil {
		t.Fatal(err)
	}
	srv := p.Serve(ln)
	defer srv.Close()

	// Several downstream clients query and subscribe at the proxy.
	const clients = 4
	notified := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		c, err := remote.Dial(context.Background(), e.net.Dialer(e.ids["Client"]), "edge")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		q := e.query("member")
		proof, err := c.QueryDirect(context.Background(), q.Subject, q.Object, nil, 0)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if err := proof.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(context.Background(), d.ID(), func(ev subs.Event) {
			if ev.Kind == subs.Revoked {
				notified <- struct{}{}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly one upstream subscription backs all downstream interest.
	if e.home.Subscribers(d.ID()) != 1 {
		t.Fatalf("home subscribers = %d, want 1 (the proxy)", e.home.Subscribers(d.ID()))
	}

	// One upstream revocation fans out to every downstream client.
	if err := e.home.Revoke(d.ID(), e.ids["Org"].ID()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		select {
		case <-notified:
		case <-time.After(2 * time.Second):
			t.Fatalf("client %d never notified", i)
		}
	}
}

func TestCacheTTLRenewal(t *testing.T) {
	e := newEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.InsertCached(d, nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	p, local := e.newProxy(30 * time.Second)
	if _, err := p.QueryDirect(context.Background(), e.query("member")); err != nil {
		t.Fatal(err)
	}
	renewed := make(chan struct{}, 1)
	unsub := local.Subscribe(d.ID(), func(ev subs.Event) {
		if ev.Kind == subs.Renewed {
			select {
			case renewed <- struct{}{}:
			default:
			}
		}
	})
	defer unsub()
	e.clk.Advance(20 * time.Second)
	if !e.home.RenewCached(d.ID(), time.Hour) {
		t.Fatal("home renew failed")
	}
	select {
	case <-renewed:
	case <-time.After(2 * time.Second):
		t.Fatal("renewal did not propagate")
	}
	e.clk.Advance(15 * time.Second) // t=35s, past original 30s TTL
	if n := local.SweepStaleCache(); n != 0 {
		t.Fatalf("renewed cache entry swept: %d", n)
	}
}

func TestCloseStopsSubscriptions(t *testing.T) {
	e := newEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, _ := e.newProxy(time.Minute)
	if _, err := p.QueryDirect(context.Background(), e.query("member")); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if e.home.Subscribers(d.ID()) != 0 {
		t.Fatalf("home subscribers = %d after close", e.home.Subscribers(d.ID()))
	}
	if _, err := p.QueryDirect(context.Background(), e.query("other")); err == nil {
		t.Fatal("closed proxy should not pull through")
	}
}

// A two-level hierarchy — edge proxy behind a regional proxy behind the
// home — pulls through both levels and propagates a revocation down the
// chain, with exactly one subscription per level.
func TestTwoLevelHierarchy(t *testing.T) {
	e := newEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}

	// Level 1: regional proxy over the home.
	regional, regionalWallet := e.newProxy(time.Minute)
	ln1, err := e.net.Listen("regional", e.ids["ProxyOp"])
	if err != nil {
		t.Fatal(err)
	}
	srv1 := regional.Serve(ln1)
	defer srv1.Close()

	// Level 2: edge proxy over the regional proxy.
	edgeWallet := wallet.New(wallet.Config{Owner: e.ids["ProxyOp"], Clock: e.clk, Directory: e.dir})
	up2, err := remote.Dial(context.Background(), e.net.Dialer(e.ids["ProxyOp"]), "regional")
	if err != nil {
		t.Fatal(err)
	}
	defer up2.Close()
	edge, err := New(Config{Local: edgeWallet, Upstream: up2, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	// The query pulls through edge -> regional -> home.
	proof, err := edge.QueryDirect(context.Background(), e.query("member"))
	if err != nil {
		t.Fatalf("two-level pull-through: %v", err)
	}
	if err := proof.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatal(err)
	}
	if !regionalWallet.Contains(d.ID()) || !edgeWallet.Contains(d.ID()) {
		t.Fatal("credential not cached at both levels")
	}
	// One subscription per level: the home sees only the regional proxy.
	if n := e.home.Subscribers(d.ID()); n != 1 {
		t.Fatalf("home subscribers = %d, want 1", n)
	}

	// A revocation at the home cascades through both caches.
	if err := e.home.Revoke(d.ID(), e.ids["Org"].ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for edgeWallet.Contains(d.ID()) || regionalWallet.Contains(d.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("revocation did not cascade through the hierarchy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := edge.QueryDirect(context.Background(), e.query("member")); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("edge still serves revoked credential: %v", err)
	}
}

// TestRepeatsDoNotPullAndStayCoherent pins what the proxy's own answer
// cache used to be asserted for, on the one cache that remains (the local
// wallet's proof cache): repeated queries are memoized hits that never reach
// upstream, and an upstream revocation pushed into the local wallet is
// refused on the next downstream query.
func TestRepeatsDoNotPullAndStayCoherent(t *testing.T) {
	e := newEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, local := e.newProxy(time.Minute)

	if _, err := p.QueryDirect(context.Background(), e.query("member")); err != nil {
		t.Fatalf("pull-through: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.QueryDirect(context.Background(), e.query("member")); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	if hits, pulls := p.Stats(); hits != 3 || pulls != 1 {
		t.Fatalf("proxy stats = %d hits, %d pulls; want 3 repeats served locally after 1 pull", hits, pulls)
	}
	if cs := local.Stats().Cache; cs.Hits < 3 || cs.Entries != 1 {
		t.Fatalf("local proof cache = %+v, want >=3 hits and 1 entry", cs)
	}

	// Revoke upstream; the push propagates to the local wallet, whose own
	// event channel drops the memoized answer.
	if err := e.home.Revoke(d.ID(), e.ids["Org"].ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !local.IsRevoked(d.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("upstream revocation never reached the local wallet")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.QueryDirect(context.Background(), e.query("member")); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("query after revocation = %v, want ErrNoProof", err)
	}
	if cs := local.Stats().Cache; cs.Entries != 0 {
		t.Fatalf("local proof cache still holds %d answers resting on a revoked credential", cs.Entries)
	}
}
