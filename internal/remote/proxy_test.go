package remote

import (
	"context"
	"errors"
	"testing"
	"time"

	"drbac/internal/core"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

// proxyEnv is an upstream home wallet served at "home", owned by Org, with
// the identities a proxy test uses.
type proxyEnv struct {
	*env
	home *wallet.Wallet
}

func newProxyEnv(t *testing.T) *proxyEnv {
	t.Helper()
	e := newEnv(t, "Org", "ProxyOp", "User", "Client", "Mark")
	_, home := e.serve("home", "Org")
	return &proxyEnv{env: e, home: home}
}

func (e *proxyEnv) query(name string) wallet.Query {
	e.t.Helper()
	return wallet.Query{Subject: e.subject("User"), Object: e.role("Org." + name)}
}

// newProxy builds a proxy over a fresh cache wallet connected to the home.
func (e *proxyEnv) newProxy(ttl time.Duration) (*Proxy, *wallet.Wallet) {
	e.t.Helper()
	return e.newProxyVia(e.net.Dialer(e.ids["ProxyOp"]), ttl)
}

// newProxyVia is newProxy with the upstream connection dialed through d.
func (e *proxyEnv) newProxyVia(d transport.Dialer, ttl time.Duration) (*Proxy, *wallet.Wallet) {
	e.t.Helper()
	local := wallet.New(wallet.Config{Owner: e.ids["ProxyOp"], Clock: e.clk, Directory: e.dir})
	up, err := Dial(context.Background(), d, "home")
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(up.Close)
	p, err := NewProxy(ProxyConfig{Local: local, Upstream: up, TTL: ttl})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(p.Close)
	return p, local
}

func TestNewValidation(t *testing.T) {
	if _, err := NewProxy(ProxyConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewProxy(ProxyConfig{Local: wallet.New(wallet.Config{})}); err == nil {
		t.Fatal("config without an upstream accepted")
	}
}

func TestPullThroughAndCacheHit(t *testing.T) {
	e := newProxyEnv(t)
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
	e := newProxyEnv(t)
	p, _ := e.newProxy(time.Minute)
	if _, err := p.QueryDirect(context.Background(), e.query("member")); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("want ErrNoProof, got %v", err)
	}
}

func TestUpstreamRevocationPropagatesToCache(t *testing.T) {
	e := newProxyEnv(t)
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

// TestSubscribeFailureCachesNothing: a pulled credential whose upstream
// subscribe fails is not cached, so a revocation its home then makes cannot
// be missed. The upstream connection breaks after the pull's two frames: the
// subscribe fails and the first query errors. Once the home revokes, the
// proxy serves no proof and its cache wallet, which downstream clients
// query, answers ErrNoProof.
func TestSubscribeFailureCachesNothing(t *testing.T) {
	e := newProxyEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	plan := transport.NewFaults()
	plan.Set("home", transport.Fault{FailAfterFrames: 2})
	p, local := e.newProxyVia(&transport.FaultDialer{Inner: e.net.Dialer(e.ids["ProxyOp"]), Plan: plan}, time.Minute)
	q := e.query("member")
	if proof, err := p.QueryDirect(context.Background(), q); err == nil {
		t.Fatalf("served %v although its upstream subscribe failed", proof)
	}
	if err := e.home.Revoke(d.ID(), e.ids["Org"].ID()); err != nil {
		t.Fatal(err)
	}
	if proof, err := p.QueryDirect(context.Background(), q); err == nil {
		t.Fatalf("served %v after its home revoked it", proof)
	}
	if _, err := local.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("cache wallet: err = %v, want ErrNoProof", err)
	}
}

// TestPullSubscribeWindow: a revocation that lands at the home between the
// pull's reply and the proxy's upstream subscribe is not missed. The home
// refuses the subscribe, the proxy records the revocation, and neither the
// pull nor the cache wallet serves the credential, which with TTL 0 nothing
// else would ever drop. Upstream replies are delayed 100 ms and the home
// revokes 50 ms into the pull.
func TestPullSubscribeWindow(t *testing.T) {
	e := newProxyEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	plan := transport.NewFaults()
	plan.Set("home", transport.Fault{FrameDelay: 100 * time.Millisecond})
	p, local := e.newProxyVia(&transport.FaultDialer{Inner: e.net.Dialer(e.ids["ProxyOp"]), Plan: plan}, 0)
	q := e.query("member")
	revoked := make(chan error, 1)
	time.AfterFunc(50*time.Millisecond, func() { revoked <- e.home.Revoke(d.ID(), e.ids["Org"].ID()) })
	if proof, err := p.QueryDirect(context.Background(), q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("pull: proof %v, err = %v; want ErrNoProof", proof, err)
	}
	if err := <-revoked; err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if proof, err := local.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("cache wallet served %v after its home revoked it (err = %v)", proof, err)
	}
	if n := e.home.Subscribers(d.ID()); n != 0 {
		t.Fatalf("home subscribers = %d after a refused subscribe, want 0", n)
	}
}

// A pulled credential the cache refuses leaves no upstream subscription
// behind: here the cache wallet has already heard of its revocation, so
// the insert after the subscribe fails, and the subscription is cancelled.
func TestInsertFailureDropsSubscription(t *testing.T) {
	e := newProxyEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, local := e.newProxy(time.Minute)
	local.AcceptRevocation(d.ID())
	for range 2 {
		var revoked *core.RevokedError
		if proof, err := p.QueryDirect(context.Background(), e.query("member")); !errors.As(err, &revoked) {
			t.Fatalf("served %v, err = %v; want the cache's revocation refusal", proof, err)
		}
		if n := e.home.Subscribers(d.ID()); n != 0 {
			t.Fatalf("home subscribers = %d with nothing cached, want 0", n)
		}
	}
}

// A copy swept stale leaves the cache and its subscription with it, and the
// next query pulls it through again: the proxy serves it while its home
// still holds it, over one upstream subscription.
func TestRepullAfterStale(t *testing.T) {
	e := newProxyEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, local := e.newProxy(30 * time.Second)
	q := e.query("member")
	if _, err := p.QueryDirect(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(31 * time.Second)
	if n := local.SweepStaleCache(); n != 1 {
		t.Fatalf("swept %d stale copies, want 1", n)
	}
	if _, err := p.QueryDirect(context.Background(), q); err != nil {
		t.Fatalf("re-pull after the stale sweep: %v", err)
	}
	if !local.Contains(d.ID()) {
		t.Fatal("re-pulled credential not cached")
	}
	if _, pulls := p.Stats(); pulls != 2 {
		t.Fatalf("pulls = %d, want 2", pulls)
	}
	if n := e.home.Subscribers(d.ID()); n != 1 {
		t.Fatalf("home subscribers = %d, want one for the proxy", n)
	}
}

// A proxy whose upstream connection dies can hear no revocation, so it stops
// serving what it cached, even with no TTL to lapse. The link here breaks
// after the pull and the subscribe; the home then revokes, and neither the
// proxy nor its cache wallet serves the credential.
func TestLostUpstreamDropsCopies(t *testing.T) {
	e := newProxyEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	plan := transport.NewFaults()
	plan.Set("home", transport.Fault{FailAfterFrames: 4})
	p, local := e.newProxyVia(&transport.FaultDialer{Inner: e.net.Dialer(e.ids["ProxyOp"]), Plan: plan}, 0)
	q := e.query("member")
	if _, err := p.QueryDirect(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if err := p.cfg.Upstream.Ping(context.Background()); err == nil {
		t.Fatal("upstream link still carries calls")
	}
	if err := e.home.Revoke(d.ID(), e.ids["Org"].ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for local.Contains(d.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("cache wallet still holds a credential it can no longer follow")
		}
		time.Sleep(time.Millisecond)
	}
	if proof, err := p.QueryDirect(context.Background(), q); err == nil {
		t.Fatalf("proxy served %v after losing its upstream", proof)
	}
	if _, err := local.QueryDirect(q); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("cache wallet: err = %v, want ErrNoProof", err)
	}
}

// Concurrent misses on one credential subscribe upstream once: every pull
// waits for the one subscribe call, then is served. The upstream's replies
// are delayed so the later pulls arrive while that call is in flight.
func TestConcurrentPullsShareOneSubscription(t *testing.T) {
	e := newProxyEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	plan := transport.NewFaults()
	plan.Set("home", transport.Fault{FrameDelay: 10 * time.Millisecond})
	p, _ := e.newProxyVia(&transport.FaultDialer{Inner: e.net.Dialer(e.ids["ProxyOp"]), Plan: plan}, time.Minute)
	errs := make(chan error, 4)
	for range cap(errs) {
		go func() {
			_, err := p.QueryDirect(context.Background(), e.query("member"))
			errs <- err
		}()
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent pull: %v", err)
		}
	}
	if n := e.home.Subscribers(d.ID()); n != 1 {
		t.Fatalf("home subscribers = %d, want one for the proxy", n)
	}
	if _, pulls := p.Stats(); pulls < 2 {
		t.Fatalf("%d pulls, want the concurrent misses to overlap", pulls)
	}
}

func TestIrrelevantUpdatesProduceNoTraffic(t *testing.T) {
	e := newProxyEnv(t)
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
	e := newProxyEnv(t)
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
		c, err := Dial(context.Background(), e.net.Dialer(e.ids["Client"]), "edge")
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
	e := newProxyEnv(t)
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
	e := newProxyEnv(t)
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
	if err := e.home.Publish(e.deleg("[User -> Org.other] Org")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.QueryDirect(context.Background(), e.query("other")); err == nil || err.Error() != "proxy: admit pulled proof: proxy: closed" {
		t.Fatalf("closed proxy admitted a pulled credential: err = %v", err)
	}
}

// A two-level hierarchy — edge proxy behind a regional proxy behind the
// home — pulls through both levels and propagates a revocation down the
// chain, with exactly one subscription per level.
func TestTwoLevelHierarchy(t *testing.T) {
	e := newProxyEnv(t)
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
	up2, err := Dial(context.Background(), e.net.Dialer(e.ids["ProxyOp"]), "regional")
	if err != nil {
		t.Fatal(err)
	}
	defer up2.Close()
	edge, err := NewProxy(ProxyConfig{Local: edgeWallet, Upstream: up2, TTL: time.Minute})
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
	e := newProxyEnv(t)
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

// A served proxy answers query-expand as it answers query-direct: a miss in
// its cache pulls the chain through from upstream and is served as the one
// direct proof. A chain upstream does not hold either is enumerated from the
// proxy's own cache, which the pull has not touched.
func TestServeQueryExpandPullsThrough(t *testing.T) {
	e := newProxyEnv(t)
	d := e.deleg("[User -> Org.member] Org")
	if err := e.home.Publish(d); err != nil {
		t.Fatal(err)
	}
	p, local := e.newProxy(time.Minute)
	ln, err := e.net.Listen("edge", e.ids["ProxyOp"])
	if err != nil {
		t.Fatal(err)
	}
	srv := p.Serve(ln)
	defer srv.Close()
	c, err := Dial(context.Background(), e.net.Dialer(e.ids["Client"]), "edge")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := e.query("member")
	proofs, err := c.QueryExpand(context.Background(), q.Subject, q.Object, nil, false)
	if err != nil {
		t.Fatalf("query-expand at the proxy: %v", err)
	}
	if len(proofs) != 1 || proofs[0].Subject != q.Subject || proofs[0].Object != q.Object {
		t.Fatalf("query-expand answered %d proofs, want the one pulled-through direct proof", len(proofs))
	}
	if err := proofs[0].Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatal(err)
	}
	if !local.Contains(d.ID()) {
		t.Fatal("pulled credential not cached at the proxy")
	}
	if hits, pulls := p.Stats(); hits != 0 || pulls != 1 {
		t.Fatalf("hits=%d pulls=%d, want 0/1", hits, pulls)
	}

	miss := e.query("admin")
	proofs, err = c.QueryExpand(context.Background(), miss.Subject, miss.Object, nil, false)
	if err != nil {
		t.Fatalf("query-expand miss at the proxy: %v", err)
	}
	if len(proofs) != 1 || proofs[0].Object != q.Object {
		t.Fatalf("query-expand miss answered %d proofs, want the cache's one subject enumeration (User -> Org.member)", len(proofs))
	}
	if _, pulls := p.Stats(); pulls != 2 {
		t.Fatalf("pulls=%d, want 2: the miss tried upstream first", pulls)
	}
}

// supportedMember publishes Table 1's third-party delegation at the home:
// d3 [User -> Org.member] Mark, resting on the support proof d1, d2 that Mark
// holds Org.member'. It returns d1 and d3.
func (e *proxyEnv) supportedMember() (d1, d3 *core.Delegation) {
	e.t.Helper()
	d1 = e.deleg("[Mark -> Org.memberServices] Org")
	d2 := e.deleg("[Org.memberServices -> Org.member'] Org")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		e.t.Fatal(err)
	}
	d3 = e.deleg("[User -> Org.member] Mark")
	for _, err := range []error{e.home.Publish(d1), e.home.Publish(d2), e.home.Publish(d3, sup)} {
		if err != nil {
			e.t.Fatal(err)
		}
	}
	return d1, d3
}

// A pulled third-party credential is followed on every delegation it rests
// on, its support included: once the home revokes a support member, neither
// the proxy nor its cache wallet serves the proof, though the proxy caches
// permanently and the home pushes nothing for the credential itself.
func TestProxyFollowsSupport(t *testing.T) {
	e := newProxyEnv(t)
	d1, _ := e.supportedMember()
	p, local := e.newProxy(0)
	q := e.query("member")
	if _, err := p.QueryDirect(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if err := e.home.Revoke(d1.ID(), e.id("Org").ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		_, perr := p.QueryDirect(context.Background(), q)
		_, lerr := local.QueryDirect(q)
		if errors.Is(perr, core.ErrNoProof) && errors.Is(lerr, core.ErrNoProof) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("200 ms after its support was revoked: proxy err = %v, cache wallet err = %v; want ErrNoProof from both", perr, lerr)
		}
		time.Sleep(time.Millisecond)
	}
}
