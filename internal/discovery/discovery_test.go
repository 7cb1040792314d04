package discovery

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// env wires identities, a fake clock, and an in-memory network of wallets.
type env struct {
	t   *testing.T
	ids map[string]*core.Identity
	dir *core.MemDirectory
	clk *clock.Fake
	net *transport.MemNetwork
	// older, when non-nil, makes serve stand each home up as a build from
	// before query-expand (olderHome), recorded here by address, and agent
	// dial it as one (olderDialer).
	older map[string]*olderHome
	// wrap, when non-nil, wraps the dialer agent gives each agent.
	wrap func(transport.Dialer) transport.Dialer
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

// serve starts a served wallet owned by ownerName at addr.
func (e *env) serve(addr, ownerName string) *wallet.Wallet {
	e.t.Helper()
	w := wallet.New(wallet.Config{Owner: e.id(ownerName), Clock: e.clk, Directory: e.dir})
	ln, err := e.net.Listen(addr, e.id(ownerName))
	if err != nil {
		e.t.Fatal(err)
	}
	if e.older != nil {
		h := &olderHome{Listener: ln}
		e.older[addr] = h
		ln = h
	}
	s := remote.Serve(w, ln)
	e.t.Cleanup(s.Close)
	return w
}

func (e *env) tag(home string, subjectFlag core.SubjectFlag, objectFlag core.ObjectFlag) core.DiscoveryTag {
	return core.DiscoveryTag{
		Home:    home,
		TTL:     30 * time.Second,
		Subject: subjectFlag,
		Object:  objectFlag,
	}
}

// agent builds a discovery agent over a fresh local wallet owned by owner.
func (e *env) agent(owner string, cfg Config) (*Agent, *wallet.Wallet) {
	e.t.Helper()
	local := wallet.New(wallet.Config{Owner: e.id(owner), Clock: e.clk, Directory: e.dir})
	cfg.Local = local
	if cfg.Dialer == nil {
		cfg.Dialer = e.net.Dialer(e.id(owner))
		if e.older != nil {
			cfg.Dialer = olderDialer{cfg.Dialer}
		}
		if e.wrap != nil {
			cfg.Dialer = e.wrap(cfg.Dialer)
		}
	}
	a := NewAgent(cfg)
	e.t.Cleanup(a.Close)
	return a, local
}

// --- The Figure 2 / Table 3 case study ------------------------------------

// caseStudy holds the wallets and delegations of §5.
type caseStudy struct {
	bigISPWallet, airNetWallet, serverWallet *wallet.Wallet
	agent                                    *Agent
	d1, d2, d5                               *core.Delegation
	query                                    wallet.Query
	bw, storage, hours                       core.AttributeRef
}

// setupCaseStudy reproduces the §5 initial state: delegation (1) handed to
// the server by Maria's laptop; delegation (2) with its support proof
// ((3),(4)) in BigISP's home wallet; delegation (5) in AirNet's home wallet.
func setupCaseStudy(t *testing.T, e *env) *caseStudy {
	t.Helper()
	cs := &caseStudy{}
	cs.bigISPWallet = e.serve("wallet.bigisp", "BigISP")
	cs.airNetWallet = e.serve("wallet.airnet", "AirNet")

	airNetID := e.id("AirNet").ID()
	cs.bw = core.AttributeRef{Namespace: airNetID, Name: "BW"}
	cs.storage = core.AttributeRef{Namespace: airNetID, Name: "storage"}
	cs.hours = core.AttributeRef{Namespace: airNetID, Name: "hours"}

	// Tags: all subjects searchable from subject ('S'), per §5.
	bigISPMemberTag := e.tag("wallet.bigisp", core.SubjectSearch, core.ObjectNone)
	airNetMemberTag := e.tag("wallet.airnet", core.SubjectSearch, core.ObjectNone)

	// Delegation (1): [Maria -> BigISP.member] BigISP, tagged so the
	// receiving server knows where to search from BigISP.member.
	parsed, err := core.ParseDelegation("[Maria -> BigISP.member] BigISP", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.ObjectTag = &bigISPMemberTag
	cs.d1, err = core.Issue(e.id("BigISP"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}

	// Delegations (3) and (4): Sheila's authority.
	d3 := e.deleg("[Sheila -> AirNet.mktg] AirNet")
	d4 := e.deleg("[AirNet.mktg -> AirNet.member'] AirNet")
	sup, err := core.NewProof(core.ProofStep{Delegation: d3}, core.ProofStep{Delegation: d4})
	if err != nil {
		t.Fatal(err)
	}

	// Delegation (2): the coalition, third-party by Sheila, modulated.
	parsed, err = core.ParseDelegation(
		"[BigISP.member -> AirNet.member with AirNet.BW <= 100 and AirNet.storage -= 20 and AirNet.hours *= 0.3] Sheila",
		e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.SubjectTag = &bigISPMemberTag
	parsed.Template.ObjectTag = &airNetMemberTag
	cs.d2, err = core.Issue(e.id("Sheila"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.bigISPWallet.Publish(cs.d2, sup); err != nil {
		t.Fatalf("publish (2) at BigISP home: %v", err)
	}

	// Delegation (5): [AirNet.member -> AirNet.access with AirNet.BW <= 200].
	parsed, err = core.ParseDelegation(
		"[AirNet.member -> AirNet.access with AirNet.BW <= 200] AirNet", e.dir)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Template.SubjectTag = &airNetMemberTag
	cs.d5, err = core.Issue(e.id("AirNet"), parsed.Template, e.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.airNetWallet.Publish(cs.d5); err != nil {
		t.Fatalf("publish (5) at AirNet home: %v", err)
	}

	// The AirNet server's local wallet and discovery agent.
	cs.agent, cs.serverWallet = e.agent("AirNetServer", Config{})

	// Step 1: Maria's software presents delegation (1); the server stores
	// it and learns its tags.
	if err := cs.serverWallet.Publish(cs.d1); err != nil {
		t.Fatalf("publish (1) at server: %v", err)
	}
	cs.agent.Learn(cs.d1)

	cs.query = wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("AirNet.access"),
	}
	return cs
}

func TestFigure2Steps(t *testing.T) {
	e := newEnv(t, "BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer")
	cs := setupCaseStudy(t, e)

	var stats Stats
	proof, err := cs.agent.Discover(context.Background(), cs.query, Auto, &stats)
	if err != nil {
		t.Fatalf("discover: %v", err)
	}

	// The discovered proof chains (1), (2), (5).
	if proof.Len() != 3 {
		t.Fatalf("proof length = %d, want 3", proof.Len())
	}
	if err := proof.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatalf("proof invalid: %v", err)
	}

	// Steps 3 and 4: one subject query at BigISP's home, then a direct
	// query at AirNet's home.
	if len(stats.Trace) < 2 {
		t.Fatalf("trace too short: %+v", stats.Trace)
	}
	first, last := stats.Trace[0], stats.Trace[len(stats.Trace)-1]
	if first.Wallet != "wallet.bigisp" || first.Kind != "subject" {
		t.Fatalf("step 3 trace = %+v", first)
	}
	if last.Wallet != "wallet.airnet" || last.Kind != "direct" {
		t.Fatalf("step 4 trace = %+v", last)
	}
	if stats.WalletsContacted != 2 {
		t.Fatalf("wallets contacted = %d, want 2", stats.WalletsContacted)
	}

	// Step 5: the fetched delegations are cached locally with TTLs.
	if !cs.serverWallet.Contains(cs.d2.ID()) || !cs.serverWallet.Contains(cs.d5.ID()) {
		t.Fatal("fetched delegations not inserted into local wallet")
	}
	if cs.serverWallet.CachedCount() == 0 {
		t.Fatal("no TTL cache entries recorded")
	}

	// §5's attribute outcomes: BW 100 (<= 200), storage 30 (= 50-20),
	// hours 18 (= 60*0.3).
	ag, err := proof.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.Value(cs.bw, math.Inf(1)); got != 100 {
		t.Errorf("BW = %v, want 100", got)
	}
	if got := ag.Value(cs.storage, 50); got != 30 {
		t.Errorf("storage = %v, want 30", got)
	}
	if got := ag.Value(cs.hours, 60); got != 18 {
		t.Errorf("hours = %v, want 18", got)
	}
}

func TestFigure2MonitoringAndRevocation(t *testing.T) {
	e := newEnv(t, "BigISP", "AirNet", "Mark", "Sheila", "Maria", "AirNetServer")
	cs := setupCaseStudy(t, e)

	proof, err := cs.agent.Discover(context.Background(), cs.query, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Step 6: wrap in a proof monitor; bridge inter-wallet subscriptions.
	events := make(chan wallet.MonitorEvent, 4)
	mon, err := cs.serverWallet.MonitorProof(cs.query, proof,
		func(ev wallet.MonitorEvent) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	cancel, err := cs.agent.Bridge(context.Background(), proof)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Sheila tears down the coalition at BigISP's home wallet; the push
	// must invalidate the server's monitor.
	if err := cs.bigISPWallet.Revoke(cs.d2.ID(), e.id("Sheila").ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Kind != wallet.MonitorInvalidated {
			t.Fatalf("monitor event = %v", ev.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("revocation did not reach the server monitor")
	}
	if mon.Valid() {
		t.Fatal("monitor still valid after coalition revocation")
	}
}

func TestDiscoverLocalHit(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Server")
	a, local := e.agent("Server", Config{})
	if err := local.Publish(e.deleg("[Maria -> BigISP.member] BigISP")); err != nil {
		t.Fatal(err)
	}
	var stats Stats
	p, err := a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("BigISP.member"),
	}, Auto, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || stats.RemoteQueries != 0 {
		t.Fatalf("local hit should not touch the network: %+v", stats)
	}
}

func TestDiscoverNoTagsNoProof(t *testing.T) {
	e := newEnv(t, "BigISP", "Maria", "Server")
	a, _ := e.agent("Server", Config{})
	_, err := a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("BigISP.member"),
	}, Auto, nil)
	if !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("want ErrNoProof, got %v", err)
	}
}

func TestDiscoverReverse(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Server")
	home := e.serve("wallet.airnet", "AirNet")
	// The home wallet knows the whole chain to AirNet.access.
	if err := home.Publish(e.deleg("[Maria -> AirNet.member] AirNet")); err != nil {
		t.Fatal(err)
	}
	if err := home.Publish(e.deleg("[AirNet.member -> AirNet.access] AirNet")); err != nil {
		t.Fatal(err)
	}
	a, local := e.agent("Server", Config{})
	// Only an object tag for AirNet.access is known: reverse search.
	a.RegisterTag(e.subject("AirNet.access"), e.tag("wallet.airnet", core.SubjectNone, core.ObjectSearch))
	var stats Stats
	p, err := a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("AirNet.access"),
	}, Auto, &stats)
	if err != nil {
		t.Fatalf("reverse discover: %v", err)
	}
	if err := p.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatal(err)
	}
	if !local.Contains(p.Steps[0].Delegation.ID()) {
		t.Fatal("reverse-fetched delegations not inserted")
	}
	if len(stats.Trace) == 0 || stats.Trace[0].Kind != "direct" {
		t.Fatalf("trace = %+v", stats.Trace)
	}
}

func TestDiscoverModeRestriction(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Server")
	home := e.serve("wallet.airnet", "AirNet")
	if err := home.Publish(e.deleg("[Maria -> AirNet.access] AirNet")); err != nil {
		t.Fatal(err)
	}
	build := func() *Agent {
		a, _ := e.agent("Server", Config{})
		// Tag says: searchable from subject only.
		a.RegisterTag(e.subject("Maria"), e.tag("wallet.airnet", core.SubjectSearch, core.ObjectNone))
		return a
	}
	q := wallet.Query{Subject: e.subject("Maria"), Object: e.role("AirNet.access")}

	if _, err := build().Discover(context.Background(), q, ForwardOnly, nil); err != nil {
		t.Fatalf("forward-only: %v", err)
	}
	// Reverse-only cannot use the subject tag (no object tag known for
	// AirNet.access), so it must fail.
	if _, err := build().Discover(context.Background(), q, ReverseOnly, nil); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("reverse-only should fail, got %v", err)
	}
}

func TestDiscoverAutoRespectsTagFlags(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Server")
	home := e.serve("wallet.airnet", "AirNet")
	if err := home.Publish(e.deleg("[Maria -> AirNet.access] AirNet")); err != nil {
		t.Fatal(err)
	}
	a, _ := e.agent("Server", Config{})
	// Tag present but with '-' subject flag: Auto must not search from it.
	a.RegisterTag(e.subject("Maria"), e.tag("wallet.airnet", core.SubjectNone, core.ObjectNone))
	q := wallet.Query{Subject: e.subject("Maria"), Object: e.role("AirNet.access")}
	if _, err := a.Discover(context.Background(), q, Auto, nil); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("auto mode should respect '-' flags, got %v", err)
	}
	// ForwardOnly overrides the flag (the §4.2.3 experiments rely on this).
	if _, err := a.Discover(context.Background(), q, ForwardOnly, nil); err != nil {
		t.Fatalf("forward-only override: %v", err)
	}
}

func TestVerifyHomes(t *testing.T) {
	e := newEnv(t, "AirNet", "WalletOp", "Maria", "Server")
	// The home wallet is operated by WalletOp.
	home := wallet.New(wallet.Config{Owner: e.id("WalletOp"), Clock: e.clk, Directory: e.dir})
	ln, err := e.net.Listen("wallet.airnet", e.id("WalletOp"))
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.Serve(home, ln)
	t.Cleanup(srv.Close)
	if err := home.Publish(e.deleg("[Maria -> AirNet.access] AirNet")); err != nil {
		t.Fatal(err)
	}

	authTag := core.DiscoveryTag{
		Home:     "wallet.airnet",
		AuthRole: e.role("AirNet.wallet"),
		TTL:      30 * time.Second,
		Subject:  core.SubjectSearch,
		Object:   core.ObjectNone,
	}
	q := wallet.Query{Subject: e.subject("Maria"), Object: e.role("AirNet.access")}

	// Without the authorization grant, a verifying agent refuses the home.
	a1, _ := e.agent("Server", Config{VerifyHomes: true})
	a1.RegisterTag(e.subject("Maria"), authTag)
	if _, err := a1.Discover(context.Background(), q, Auto, nil); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("unauthorized home should yield no proof, got %v", err)
	}

	// Grant WalletOp the authorization role; a fresh agent now succeeds.
	if err := home.Publish(e.deleg("[WalletOp -> AirNet.wallet] AirNet")); err != nil {
		t.Fatal(err)
	}
	a2, _ := e.agent("Server", Config{VerifyHomes: true})
	a2.RegisterTag(e.subject("Maria"), authTag)
	if _, err := a2.Discover(context.Background(), q, Auto, nil); err != nil {
		t.Fatalf("authorized home: %v", err)
	}
}

func TestDiscoverWithConstraints(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Server")
	home := e.serve("wallet.airnet", "AirNet")
	if err := home.Publish(e.deleg("[Maria -> AirNet.access with AirNet.BW <= 10] AirNet")); err != nil {
		t.Fatal(err)
	}
	a, _ := e.agent("Server", Config{})
	a.RegisterTag(e.subject("Maria"), e.tag("wallet.airnet", core.SubjectSearch, core.ObjectNone))
	bw := core.AttributeRef{Namespace: e.id("AirNet").ID(), Name: "BW"}
	q := wallet.Query{
		Subject:     e.subject("Maria"),
		Object:      e.role("AirNet.access"),
		Constraints: []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 50}},
	}
	if _, err := a.Discover(context.Background(), q, Auto, nil); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("BW=10 must not satisfy minimum 50, got %v", err)
	}
}

func TestDiscoverMultiHopTagLearning(t *testing.T) {
	// A chain spread over three wallets, where each hop's tag is learned
	// from the previous hop's object annotation.
	e := newEnv(t, "A", "B", "C", "M", "Server")
	wa := e.serve("wallet.a", "A")
	wb := e.serve("wallet.b", "B")
	wc := e.serve("wallet.c", "C")

	tagA := e.tag("wallet.a", core.SubjectSearch, core.ObjectNone)
	tagB := e.tag("wallet.b", core.SubjectSearch, core.ObjectNone)
	tagC := e.tag("wallet.c", core.SubjectSearch, core.ObjectNone)

	issueTagged := func(text string, subjTag, objTag *core.DiscoveryTag, w *wallet.Wallet) *core.Delegation {
		parsed, err := core.ParseDelegation(text, e.dir)
		if err != nil {
			t.Fatal(err)
		}
		parsed.Template.SubjectTag = subjTag
		parsed.Template.ObjectTag = objTag
		var issuer *core.Identity
		for _, id := range e.ids {
			if id.ID() == parsed.Issuer.ID() {
				issuer = id
			}
		}
		d, err := core.Issue(issuer, parsed.Template, e.clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			if err := w.Publish(d); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	d1 := issueTagged("[M -> A.x] A", nil, &tagA, nil) // handed to server
	issueTagged("[A.x -> B.y] B", &tagA, &tagB, wa)    // in A's wallet
	issueTagged("[B.y -> C.z] C", &tagB, &tagC, wb)    // in B's wallet
	issueTagged("[C.z -> C.goal] C", &tagC, nil, wc)   // in C's wallet

	a, local := e.agent("Server", Config{})
	if err := local.Publish(d1); err != nil {
		t.Fatal(err)
	}
	a.Learn(d1)

	var stats Stats
	p, err := a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("M"),
		Object:  e.role("C.goal"),
	}, Auto, &stats)
	if err != nil {
		t.Fatalf("multi-hop discover: %v (trace %+v)", err, stats.Trace)
	}
	if p.Len() != 4 {
		t.Fatalf("proof length = %d, want 4", p.Len())
	}
	if stats.WalletsContacted != 3 {
		t.Fatalf("wallets contacted = %d, want 3", stats.WalletsContacted)
	}
	if stats.Rounds < 3 {
		t.Fatalf("rounds = %d, want >= 3 (one per hop)", stats.Rounds)
	}
}

func TestBridgeRenewKeepsCacheFresh(t *testing.T) {
	e := newEnv(t, "AirNet", "Maria", "Server")
	home := e.serve("wallet.airnet", "AirNet")
	d := e.deleg("[Maria -> AirNet.access] AirNet")
	if err := home.InsertCached(d, nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	a, local := e.agent("Server", Config{})
	a.RegisterTag(e.subject("Maria"), e.tag("wallet.airnet", core.SubjectSearch, core.ObjectNone))
	p, err := a.Discover(context.Background(), wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("AirNet.access"),
	}, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel, err := a.Bridge(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Observe the renewal arriving locally through the wallet's own
	// subscription registry, then confirm the cache stays fresh past the
	// original TTL.
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

	e.clk.Advance(25 * time.Second)
	if !home.RenewCached(d.ID(), time.Hour) {
		t.Fatal("home renew failed")
	}
	select {
	case <-renewed:
	case <-time.After(2 * time.Second):
		t.Fatal("renewal did not propagate to the local wallet")
	}
	e.clk.Advance(10 * time.Second) // t=35s, past the original 30s TTL
	if n := local.SweepStaleCache(); n != 0 {
		t.Fatalf("renewed entry swept: %d", n)
	}
	if !local.Contains(d.ID()) {
		t.Fatal("renewed cache entry missing")
	}
}

func fmtTrace(tr []TraceEvent) string {
	out := ""
	for _, ev := range tr {
		out += fmt.Sprintf("r%d %s %s(%s)=%d; ", ev.Round, ev.Wallet, ev.Kind, ev.Node, ev.Results)
	}
	return out
}

// Bidirectional meet-in-the-middle at the discovery level: tags cover the
// subject side of the chain and the object side, but neither direction
// alone reaches across the untagged middle. Auto mode must combine both
// frontiers (§4.2.3 "whenever allowed by the values of discovery tags").
func TestDiscoverBidirectionalMeetInMiddle(t *testing.T) {
	e := newEnv(t, "A", "B", "M", "Server")
	wa := e.serve("wallet.a", "A")
	wb := e.serve("wallet.b", "B")

	// Chain: M -> A.x -> A.y -> B.z -> B.goal.
	// Subject side: A's wallet holds [M -> A.x] and [A.x -> A.y]; only A.x
	// carries a subject-search tag, and A.y's links live in A's wallet too
	// so the forward frontier stalls at A.y (no tag for it).
	// Object side: B's wallet holds [A.y -> B.z] and [B.z -> B.goal]; B.z
	// and B.goal carry object-search tags.
	tagA := e.tag("wallet.a", core.SubjectSearch, core.ObjectNone)
	tagBz := e.tag("wallet.b", core.SubjectNone, core.ObjectSearch)
	tagBgoal := e.tag("wallet.b", core.SubjectNone, core.ObjectSearch)

	issue := func(text string, subjTag, objTag *core.DiscoveryTag) *core.Delegation {
		t.Helper()
		parsed, err := core.ParseDelegation(text, e.dir)
		if err != nil {
			t.Fatal(err)
		}
		parsed.Template.SubjectTag = subjTag
		parsed.Template.ObjectTag = objTag
		var issuer *core.Identity
		for _, id := range e.ids {
			if id.ID() == parsed.Issuer.ID() {
				issuer = id
			}
		}
		d, err := core.Issue(issuer, parsed.Template, e.clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d1 := issue("[M -> A.x] A", nil, &tagA)
	if err := wa.Publish(issue("[A.x -> A.y] A", &tagA, nil)); err != nil {
		t.Fatal(err)
	}
	if err := wb.Publish(issue("[A.y -> B.z] B", nil, &tagBz)); err != nil {
		t.Fatal(err)
	}
	if err := wb.Publish(issue("[B.z -> B.goal] B", &tagBz, &tagBgoal)); err != nil {
		t.Fatal(err)
	}

	build := func() *Agent {
		a, local := e.agent("Server", Config{})
		if err := local.Publish(d1); err != nil {
			t.Fatal(err)
		}
		a.Learn(d1)
		a.RegisterTag(e.subject("B.goal"), tagBgoal)
		return a
	}
	q := wallet.Query{Subject: e.subject("M"), Object: e.role("B.goal")}

	// Forward alone stalls at A.y; reverse alone stalls at A.y from the
	// other side (no subject link for it without the forward half).
	if _, err := build().Discover(context.Background(), q, ForwardOnly, nil); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("forward-only should stall, got %v", err)
	}
	if _, err := build().Discover(context.Background(), q, ReverseOnly, nil); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("reverse-only should stall, got %v", err)
	}
	// Auto combines both frontiers and completes.
	var stats Stats
	p, err := build().Discover(context.Background(), q, Auto, &stats)
	if err != nil {
		t.Fatalf("bidirectional discovery failed: %v (trace: %s)", err, fmtTrace(stats.Trace))
	}
	if p.Len() != 4 {
		t.Fatalf("proof length = %d, want 4", p.Len())
	}
	if err := p.Validate(core.ValidateOptions{At: e.clk.Now()}); err != nil {
		t.Fatal(err)
	}
}

// §4.2.3 "modulated attribute ranges": the agent adjusts query constraints
// by the locally accumulated modifiers, so a remote wallet prunes
// continuations the chain can no longer afford — nothing useless is
// fetched.
func TestDiscoverModulatedRangesPruneRemoteFetches(t *testing.T) {
	e := newEnv(t, "A", "B", "M", "Server")
	home := e.serve("wallet.b", "B")
	// Continuation at B's wallet: generous on its own (BW <= 80)...
	if err := home.Publish(e.deleg("[A.x -> B.goal with B.BW <= 80] B")); err != nil {
		t.Fatal(err)
	}

	a, local := e.agent("Server", Config{})
	// ...but the local prefix has already capped B.BW at 40.
	if err := local.Publish(e.deleg("[M -> A.x with B.BW <= 40] A")); err != nil {
		t.Fatal(err)
	}
	a.RegisterTag(e.subject("A.x"), e.tag("wallet.b", core.SubjectSearch, core.ObjectNone))

	bw := core.AttributeRef{Namespace: e.id("B").ID(), Name: "BW"}
	q := wallet.Query{
		Subject:     e.subject("M"),
		Object:      e.role("B.goal"),
		Constraints: []core.Constraint{{Attr: bw, Base: math.Inf(1), Minimum: 50}},
	}
	var stats Stats
	if _, err := a.Discover(context.Background(), q, Auto, &stats); !errors.Is(err, core.ErrNoProof) {
		t.Fatalf("combined chain caps BW at 40 < 50; want ErrNoProof, got %v", err)
	}
	if stats.DelegationsFetched != 0 {
		t.Fatalf("remote pruning failed: fetched %d delegations", stats.DelegationsFetched)
	}

	// With an affordable requirement the same setup succeeds.
	q.Constraints[0].Minimum = 30
	a2, local2 := e.agent("Server", Config{})
	if err := local2.Publish(e.deleg("[M -> A.x with B.BW <= 40] A")); err != nil {
		t.Fatal(err)
	}
	a2.RegisterTag(e.subject("A.x"), e.tag("wallet.b", core.SubjectSearch, core.ObjectNone))
	p, err := a2.Discover(context.Background(), q, Auto, nil)
	if err != nil {
		t.Fatalf("affordable query failed: %v", err)
	}
	ag, err := p.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.Value(bw, math.Inf(1)); got != 40 {
		t.Fatalf("BW = %v, want 40", got)
	}
}

// The §6 registry-audit alternative: store-required discovery flags let a
// relying party check that every link of a proof is on the public record
// at its home wallet, exposing unauditable re-delegation.
func TestAuditRegistry(t *testing.T) {
	e := newEnv(t, "BigISP", "Mark", "Maria", "Server")
	home := e.serve("wallet.bigisp", "BigISP")

	storeTag := e.tag("wallet.bigisp", core.SubjectStore, core.ObjectNone)
	issueTagged := func(text string, subjTag *core.DiscoveryTag) *core.Delegation {
		t.Helper()
		parsed, err := core.ParseDelegation(text, e.dir)
		if err != nil {
			t.Fatal(err)
		}
		parsed.Template.SubjectTag = subjTag
		var issuer *core.Identity
		for _, id := range e.ids {
			if id.ID() == parsed.Issuer.ID() {
				issuer = id
			}
		}
		d, err := core.Issue(issuer, parsed.Template, e.clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Registered link: stored at the home wallet as the flag demands.
	registered := issueTagged("[BigISP.member -> BigISP.reader] BigISP", &storeTag)
	if err := home.Publish(registered); err != nil {
		t.Fatal(err)
	}
	// Off-registry link: the flag demands storage, but it was never
	// published home — the unauditable re-delegation.
	offRegistry := issueTagged("[Maria -> BigISP.member] BigISP", &storeTag)
	// Untagged link: no registry requirement.
	plain := e.deleg("[BigISP.reader -> BigISP.archive] BigISP")

	a, local := e.agent("Server", Config{})
	for _, d := range []*core.Delegation{registered, offRegistry, plain} {
		if err := local.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	proof, err := local.QueryDirect(wallet.Query{
		Subject: e.subject("Maria"),
		Object:  e.role("BigISP.archive"),
	})
	if err != nil {
		t.Fatal(err)
	}

	findings, err := a.AuditRegistry(context.Background(), proof)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[core.DelegationID]AuditFinding, len(findings))
	for _, f := range findings {
		byID[f.Delegation] = f
	}
	if f := byID[registered.ID()]; !f.Required || !f.Registered {
		t.Errorf("registered link audited as %+v", f)
	}
	if f := byID[offRegistry.ID()]; !f.Required || f.Registered {
		t.Errorf("off-registry link audited as %+v", f)
	}
	if f := byID[plain.ID()]; f.Required {
		t.Errorf("untagged link should not require registration: %+v", f)
	}
}
