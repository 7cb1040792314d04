package remote

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"drbac/internal/clock"
	"drbac/internal/core"
	"drbac/internal/graph"
	"drbac/internal/subs"
	"drbac/internal/transport"
	"drbac/internal/wallet"
)

var testStart = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

type env struct {
	t   *testing.T
	ids map[string]*core.Identity
	dir *core.MemDirectory
	clk *clock.Fake
	net *transport.MemNetwork
}

func newEnv(t *testing.T, names ...string) *env {
	t.Helper()
	e := &env{
		t:   t,
		ids: make(map[string]*core.Identity),
		dir: core.NewDirectory(),
		clk: clock.NewFake(testStart),
		net: transport.NewMemNetwork(),
	}
	for i, name := range names {
		seed := make([]byte, 32)
		seed[0] = byte(i + 1)
		copy(seed[1:], name)
		id, err := core.IdentityFromSeed(name, seed)
		if err != nil {
			t.Fatalf("identity %s: %v", name, err)
		}
		e.ids[name] = id
		e.dir.Add(id.Entity())
	}
	return e
}

func (e *env) id(name string) *core.Identity {
	id, ok := e.ids[name]
	if !ok {
		e.t.Fatalf("unknown identity %q", name)
	}
	return id
}

func (e *env) deleg(text string) *core.Delegation {
	e.t.Helper()
	parsed, err := core.ParseDelegation(text, e.dir)
	if err != nil {
		e.t.Fatalf("parse %q: %v", text, err)
	}
	var issuer *core.Identity
	for _, id := range e.ids {
		if id.ID() == parsed.Issuer.ID() {
			issuer = id
		}
	}
	if issuer == nil {
		e.t.Fatalf("no identity for issuer of %q", text)
	}
	d, err := core.Issue(issuer, parsed.Template, e.clk.Now())
	if err != nil {
		e.t.Fatalf("issue %q: %v", text, err)
	}
	return d
}

func (e *env) role(text string) core.Role {
	e.t.Helper()
	r, err := core.ParseRole(text, e.dir)
	if err != nil {
		e.t.Fatal(err)
	}
	return r
}

func (e *env) subject(text string) core.Subject {
	e.t.Helper()
	s, err := core.ParseSubject(text, e.dir)
	if err != nil {
		e.t.Fatal(err)
	}
	return s
}

// serve starts a wallet server owned by ownerName at addr and returns it
// with a cleanup.
func (e *env) serve(addr, ownerName string) (*Server, *wallet.Wallet) {
	e.t.Helper()
	w := wallet.New(wallet.Config{Owner: e.id(ownerName), Clock: e.clk, Directory: e.dir})
	ln, err := e.net.Listen(addr, e.id(ownerName))
	if err != nil {
		e.t.Fatal(err)
	}
	s := Serve(w, ln)
	e.t.Cleanup(s.Close)
	return s, w
}

func (e *env) dial(addr, clientName string) *Client {
	e.t.Helper()
	c, err := Dial(context.Background(), e.net.Dialer(e.id(clientName)), addr)
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(c.Close)
	return c
}

func TestPingPong(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Peer().ID() != e.id("BigISP").ID() {
		t.Fatal("peer identity mismatch")
	}
}

func TestRemotePublishAndQuery(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")

	d1 := e.deleg("[Mark -> BigISP.memberServices] BigISP")
	d2 := e.deleg("[BigISP.memberServices -> BigISP.member'] BigISP")
	d3 := e.deleg("[Maria -> BigISP.member] Mark")
	sup, err := core.NewProof(core.ProofStep{Delegation: d1}, core.ProofStep{Delegation: d2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(context.Background(), d1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(context.Background(), d2, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(context.Background(), d3, []*core.Proof{sup}, 0); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("server wallet has %d delegations", w.Len())
	}

	p, err := c.QueryDirect(context.Background(), e.subject("Maria"), e.role("BigISP.member"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatalf("remote proof invalid locally: %v", err)
	}

	proofs, err := c.QuerySubject(context.Background(), e.subject("Maria"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(proofs) != 1 {
		t.Fatalf("subject query = %d proofs", len(proofs))
	}
	objProofs, err := c.QueryObject(context.Background(), e.role("BigISP.member"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objProofs) == 0 {
		t.Fatal("object query empty")
	}
}

func TestRemoteQueryNoProofMapsToErrNoProof(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	_, err := c.QueryDirect(context.Background(), e.subject("Maria"), e.role("BigISP.member"), nil, 0)
	if !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("want ErrNoProof, got %v", err)
	}
}

// Any authenticated peer may send query-direct with a bidirectional
// direction. That search is not exhaustive, so the miss it returns here (the
// proof needs the unlimited one of two parallel r1 -> r3 edges) must not
// deny the next forward client the same question, on either codec.
func TestRemoteBidirectionalMissDoesNotDenyForward(t *testing.T) {
	for _, cc := range codecPolicies {
		t.Run(cc.name, func(t *testing.T) {
			e := newEnv(t, "BigISP", "Maria", "Mallory")
			_, w := e.serve("wallet.bigisp", "BigISP")
			for _, text := range []string{
				"[Maria -> BigISP.r1] BigISP",
				"[BigISP.r1 -> BigISP.r3] BigISP <depth:1>",
				"[BigISP.r1 -> BigISP.r3] BigISP",
				"[BigISP.r3 -> BigISP.r2] BigISP",
				"[BigISP.r2 -> BigISP.goal] BigISP",
			} {
				if err := w.Publish(e.deleg(text)); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			dial := func(name string) *Client {
				c, err := Dial(ctx, e.net.DialerCodec(e.id(name), cc.pol), "wallet.bigisp")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				if c.WireCodec() != cc.name {
					t.Fatalf("negotiated %q, want %q", c.WireCodec(), cc.name)
				}
				return c
			}
			maria, goal := e.subject("Maria"), e.role("BigISP.goal")
			if _, err := dial("Mallory").QueryDirect(ctx, maria, goal, nil, graph.Bidirectional); !errors.Is(err, core.ErrNoProof) {
				t.Fatalf("bidirectional query: err = %v, want ErrNoProof (the miss this test relies on)", err)
			}
			p, err := dial("Maria").QueryDirect(ctx, maria, goal, nil, graph.Forward)
			if err != nil {
				t.Fatalf("forward query after another peer's bidirectional miss: %v", err)
			}
			if p.Len() != 4 {
				t.Fatalf("forward proof has %d steps, want 4", p.Len())
			}
		})
	}
}

func TestRemoteRevokeAuthorization(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Mallory")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}

	// Mallory (not the issuer) cannot revoke over the wire.
	mallory := e.dial("wallet.bigisp", "Mallory")
	if err := mallory.Revoke(context.Background(), d.ID()); err == nil {
		t.Fatal("non-issuer revocation accepted remotely")
	}
	// The issuer can.
	bigisp := e.dial("wallet.bigisp", "BigISP")
	if err := bigisp.Revoke(context.Background(), d.ID()); err != nil {
		t.Fatal(err)
	}
	if !w.IsRevoked(d.ID()) {
		t.Fatal("revocation not applied")
	}
}

func TestRemoteSubscriptionPush(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}

	c := e.dial("wallet.bigisp", "Maria")
	events := make(chan subs.Event, 4)
	cancel, err := c.Subscribe(context.Background(), d.ID(), func(ev subs.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	if err := w.Revoke(d.ID(), e.id("BigISP").ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Kind != subs.Revoked || ev.Delegation != d.ID() {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("revocation push not delivered")
	}
}

func TestRemoteUnsubscribeStopsPush(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	c := e.dial("wallet.bigisp", "Maria")
	var mu sync.Mutex
	count := 0
	cancel, err := c.Subscribe(context.Background(), d.ID(), func(subs.Event) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// After cancel returns, the server-side subscription is gone.
	if w.Subscribers(d.ID()) != 0 {
		t.Fatal("server still has subscribers after unsubscribe")
	}
	if err := w.Revoke(d.ID(), e.id("BigISP").ID()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatalf("received %d events after unsubscribe", count)
	}
}

func TestRemotePublishWithTTLCreatesCacheEntry(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := c.Publish(context.Background(), d, nil, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if w.CachedCount() != 1 {
		t.Fatalf("CachedCount = %d", w.CachedCount())
	}
}

// Any authenticated peer may send a TTL publish for a credential it can
// query. Over a delegation the home wallet holds permanently that must change
// nothing: the home copy is not a cache entry a sweep can take away.
func TestRemotePublishWithTTLCannotEvictTheHomeCopy(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Mallory")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	seq := w.Seq()
	mallory := e.dial("wallet.bigisp", "Mallory")
	if err := mallory.Publish(context.Background(), d, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	e.clk.Advance(time.Minute)
	if n := w.SweepStaleCache(); n != 0 || !w.Contains(d.ID()) || w.CachedCount() != 0 || w.Seq() != seq {
		t.Fatalf("after the TTL publish and a sweep: swept=%d held=%v ttlTracked=%d seq=%d, want 0 true 0 %d",
			n, w.Contains(d.ID()), w.CachedCount(), w.Seq(), seq)
	}
	if _, err := mallory.QueryDirect(context.Background(), e.subject("Maria"), e.role("BigISP.member"), nil, 0); err != nil {
		t.Fatalf("the home wallet no longer proves its own credential: %v", err)
	}
}

func TestProveRole(t *testing.T) {
	e := newEnv(t, "AirNet", "WalletOp", "Maria")
	// WalletOp operates AirNet's wallet and holds AirNet.wallet.
	_, w := e.serve("wallet.airnet", "WalletOp")
	if err := w.Publish(e.deleg("[WalletOp -> AirNet.wallet] AirNet")); err != nil {
		t.Fatal(err)
	}
	c := e.dial("wallet.airnet", "Maria")
	p, err := c.ProveRole(context.Background(), e.role("AirNet.wallet"), e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Subject.IsEntity() || p.Subject.Entity != e.id("WalletOp").ID() {
		t.Fatalf("proof subject = %v", p.Subject)
	}
}

func TestProveRoleFailsWithoutAuthority(t *testing.T) {
	e := newEnv(t, "AirNet", "WalletOp", "Maria")
	e.serve("wallet.airnet", "WalletOp") // no AirNet.wallet grant published
	c := e.dial("wallet.airnet", "Maria")
	if _, err := c.ProveRole(context.Background(), e.role("AirNet.wallet"), e.clk.Now()); err == nil {
		t.Fatal("prove-role should fail without authority")
	}
}

func TestConcurrentClients(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(context.Background(), e.net.Dialer(e.id("Maria")), "wallet.bigisp")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if _, err := c.QueryDirect(context.Background(), e.subject("Maria"), e.role("BigISP.member"), nil, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientCloseFailsCalls(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after close = %v", err)
	}
	if _, err := c.Subscribe(context.Background(), "x", func(subs.Event) {}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Subscribe after close = %v", err)
	}
}

func TestServerCloseIsIdempotentAndDropsClients(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	s, _ := e.serve("wallet.bigisp", "BigISP")
	c := e.dial("wallet.bigisp", "Maria")
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping should fail after server close")
	}
}

func TestRemoteOverTCP(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir})
	ln, err := transport.ListenTCP("127.0.0.1:0", e.id("BigISP"))
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(w, ln)
	defer s.Close()

	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(context.Background(), &transport.TCPDialer{Identity: e.id("Maria")}, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.QueryDirect(context.Background(), e.subject("Maria"), e.role("BigISP.member"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatal(err)
	}
}

func TestServerDropsProtocolViolators(t *testing.T) {
	e := newEnv(t, "BigISP", "Mallory")
	e.serve("wallet.bigisp", "BigISP")
	// Speak raw transport, not the wallet protocol.
	conn, err := e.net.Dialer(e.id("Mallory")).Dial(context.Background(), "wallet.bigisp")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("garbage that is not json")); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection rather than wedge.
	done := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server answered garbage instead of dropping the connection")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server kept a protocol violator connected")
	}
}

func TestWalletPrinterUsesDirectory(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	w := wallet.New(wallet.Config{Owner: e.id("BigISP"), Clock: e.clk, Directory: e.dir})
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	out := w.Printer().Delegation(d)
	if out != "[Maria -> BigISP.member] BigISP" {
		t.Fatalf("rendered %q", out)
	}
}

func TestHas(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	c := e.dial("wallet.bigisp", "Maria")
	present, err := c.Has(context.Background(), d.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !present {
		t.Fatal("stored delegation reported absent")
	}
	absent, err := c.Has(context.Background(), "deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if absent {
		t.Fatal("unknown delegation reported present")
	}
}

// Subscription churn: concurrent subscribe/unsubscribe from many
// goroutines must neither race nor leave server-side residue.
func TestSubscriptionChurn(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria")
	_, w := e.serve("wallet.bigisp", "BigISP")
	d := e.deleg("[Maria -> BigISP.member] BigISP")
	if err := w.Publish(d); err != nil {
		t.Fatal(err)
	}
	c := e.dial("wallet.bigisp", "Maria")

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				cancel, err := c.Subscribe(context.Background(), d.ID(), func(subs.Event) {})
				if err != nil {
					errs <- err
					return
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Quiesce: outstanding unsubscribe calls have completed (Subscribe and
	// the returned cancel both round-trip), so the server must be clean.
	if n := w.Subscribers(d.ID()); n != 0 {
		t.Fatalf("server retains %d subscribers after churn", n)
	}
}

func TestSplitAddrsEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{",,,", nil},
		{"a.home", []string{"a.home"}},
		{"a.home,b.home", []string{"a.home", "b.home"}},
		{" a.home , b.home ", []string{"a.home", "b.home"}},
		{",a.home,,b.home,", []string{"a.home", "b.home"}},
		// Duplicates are preserved: dedup is the caller's policy, not the
		// parser's (a replica group listing an address twice is its own bug).
		{"a.home,a.home", []string{"a.home", "a.home"}},
	}
	for _, tc := range cases {
		got := SplitAddrs(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("SplitAddrs(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SplitAddrs(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}
